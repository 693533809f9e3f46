"""The one reader of list literals such as '2,3', '(2,0),(0,2)' and
'[[1/2, 0], [0, 2]]', and of 'key=value; ...' items.  Standard library only:
the exact subcommands load no numpy."""

from __future__ import annotations

import re

_SPACE = re.compile(r"\s*")


def read_list(text: str, brackets: str = "()", separators: str = ",") -> list:
    """The items of ``text``, separated by one of ``separators`` (by ',' inside
    brackets): a list per bracketed item, a stripped string per scalar; '' and
    '()' are empty lists.  Unread text ('(2)junk(1)', '(2)(1)'), a blank entry
    ('(1,,0)', '(1,)') and an unclosed bracket raise ValueError naming it."""
    opening, closing = brackets
    enclosing: list[list] = []  # the lists around the one being read
    items: list = []
    pos = 0
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith(opening, pos):
            enclosing.append(items)
            items, pos = [], pos + 1
            continue
        end = pos
        while end < len(text) and text[end] not in brackets + ("," if enclosing else separators):
            end += 1
        items.append(text[pos:end].strip())
        pos = end
        while enclosing and text.startswith(closing, pos):
            closed, items = _finished(items, text), enclosing.pop()
            items.append(closed)
            pos = _SPACE.match(text, pos + 1).end()
        if pos < len(text) and text[pos] in ("," if enclosing else separators):
            pos += 1
        elif pos < len(text):
            raise ValueError(f"unread text {text[pos:]!r} in {text!r}")
        elif enclosing:
            raise ValueError(f"unclosed {opening!r} in {text!r}")
        else:
            return _finished(items, text)


def _finished(items: list, text: str) -> list:
    if "" in items and items != [""]:
        raise ValueError(f"blank entry in {text!r}")
    return [] if items == [""] else items


def scalars(items) -> list[str]:
    """``items`` if it is a list of scalars, else ValueError."""
    if not isinstance(items, list) or not all(isinstance(v, str) for v in items):
        raise ValueError(f"expected a list of numbers, got {items}")
    return items


def coord_tuples(items: list, cast=int) -> list[tuple]:
    """The tuples of ``cast`` values in ``items``; a list of scalars is the
    bare rank-1 form '2,3', one 1-tuple per scalar."""
    if all(isinstance(v, str) for v in items):
        return [(cast(v),) for v in items]
    return [tuple(cast(v) for v in scalars(item)) for item in items]


def key_values(text: str, key=str) -> dict:
    """The 'key=value' items of ``text``, separated by ';', as {key(k): v} with
    k and v stripped; blank text is empty.  A blank item ('a=1;;b=2', 'a=1;'),
    an item with no '=' and a key given twice raise ValueError naming it."""
    out: dict = {}
    for item in text.split(";") if text.strip() else ():
        k, sep, value = item.partition("=")
        if not item.strip():
            raise ValueError(f"blank item in {text!r}")
        if not sep:
            raise ValueError(f"expected key=value, got {item.strip()!r} in {text!r}")
        if (k := key(k.strip())) in out:
            raise ValueError(f"repeated key {k!r}")
        out[k] = value.strip()
    return out
