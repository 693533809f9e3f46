"""The one bracketed-literal reader against the four readers it replaced, and
round trips of the CLI grammars.

The replaced readers are kept unchanged as oracles in ``oracles.py``.  Where
an oracle reads a literal whole, the new reader must return the same value;
where the oracle leaves text unread (junk between items, a missing or extra
separator, a doubled bracket) or drops a blank entry, the new reader must
refuse; and where the oracle refuses, so must the new reader.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gabor_lca import cli
from gabor_lca.adeles import (
    AdeleAutomorphism,
    AdeleLattice,
    PlaceSet,
    _parse_matrix_literal,
    format_automorphism_document,
    lattice_equality,
    parse_automorphism_document,
)
from gabor_lca.experiments import random_plane_lattice
from gabor_lca.groups import (
    FiniteLcaGroup,
    enumerate_subgroup,
    parse_coord_tuples,
    parse_group_spec,
    parse_subgroup_spec,
)
from gabor_lca.padic import RationalMatrix
from oracles import (
    AUTO,
    AUTO_REBASED,
    FUZZ_DOCUMENTS,
    FUZZ_LATTICES,
    FUZZ_SUBGROUPS,
    FUZZ_VECTORS,
    FUZZ_WINDOWS,
    parse_adele_vector_by_strip,
    parse_coord_tuples_by_findall,
    parse_matrix_literal_by_rows,
    parse_plane_gens_by_groups,
    top_level_groups,
)

# --- where each replaced reader reads a literal whole -------------------------

TUPLE = r"\([^()]*\)"


def _no_blank_entry(entries: str) -> bool:
    parts = [s.strip() for s in entries.split(",")]
    return parts == [""] or "" not in parts


def findall_reads_whole(text: str) -> bool:
    body = text.strip()
    if body.startswith("gens="):
        body = body[len("gens="):]
    tuples = re.findall(TUPLE, body)
    if not tuples:  # the bare form casts every entry, so a blank one fails
        return True
    gaps = [g.strip() for g in re.split(TUPLE, body)]
    return (gaps[0] == gaps[-1] == "" and all(g == "," for g in gaps[1:-1])
            and all(_no_blank_entry(t[1:-1]) for t in tuples))


def groups_reads_whole(text: str) -> bool:
    body = text.strip()[len("plane-gens="):].strip()
    if body == "(())":
        return True
    try:
        tokens = top_level_groups(body)
    except ValueError:
        return True  # refused by the oracle
    skeleton = body
    for token in tokens:
        skeleton = skeleton.replace(token, "\0", 1)
    gaps = [g.strip() for g in skeleton.split("\0")]
    return (all(g in (";", "x") for g in gaps[1:-1])
            and all(findall_reads_whole(t[1:-1].strip()) for t in tokens))


def strip_reads_whole(text: str) -> bool:
    body = text.strip()
    if body.startswith("diag="):
        values = [body[len("diag="):]]
    else:
        values = [item.partition("=")[2] for item in body.split(";") if item.strip()]
    for value in values:
        v = value.strip()
        left, right = v[:len(v) - len(v.lstrip("()"))], v[len(v.rstrip("()")):]
        if (left, right) not in (("", ""), ("(", ")")):
            return False
    return True


def rows_reads_whole(text: str) -> bool:
    body = text.strip()
    rows = re.findall(r"\[[^\[\]]*\]", body)
    skeleton = re.sub(r"\s", "", re.sub(r"\[[^\[\]]*\]", "#", body))
    return (re.fullmatch(r"\[#(,#)*\]", skeleton) is not None
            and all(_no_blank_entry(row[1:-1]) for row in rows))


# --- the differential ---------------------------------------------------------

REFUSED = "refused"
Z4, Z2xZ4 = FiniteLcaGroup((4,)), FiniteLcaGroup((2, 4))
PLACES = PlaceSet((2, 3))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return REFUSED


#: name -> (new reader, replaced reader, where the replaced one reads whole)
READERS = {
    "ints": (parse_coord_tuples, parse_coord_tuples_by_findall, findall_reads_whole),
    "floats": (lambda t: parse_coord_tuples(t, float),
               lambda t: parse_coord_tuples_by_findall(t, float), findall_reads_whole),
    "plane-Z4": (lambda t: cli.parse_lattice_literal(Z4, t),
                 lambda t: parse_plane_gens_by_groups(Z4, t), groups_reads_whole),
    "plane-Z2xZ4": (lambda t: cli.parse_lattice_literal(Z2xZ4, t),
                    lambda t: parse_plane_gens_by_groups(Z2xZ4, t), groups_reads_whole),
    "vector": (lambda t: cli.parse_adele_vector(PLACES, t),
               lambda t: parse_adele_vector_by_strip(PLACES, t), strip_reads_whole),
    "matrix": (_parse_matrix_literal, parse_matrix_literal_by_rows, rows_reads_whole),
}


def assert_agrees(name: str, text: str) -> str:
    """Check the differential on one literal; return what the old reader did."""
    new, old, reads_whole = READERS[name]
    expected, got = outcome(old, text), outcome(new, text)
    if expected is REFUSED:
        assert got is REFUSED, (name, text, got)
        return "refused"
    if not reads_whole(text):
        assert got is REFUSED, (name, text, expected, got)
        return "skipped"
    # repr tells equal values apart from unequal ones where nan != nan
    assert got is not REFUSED and (got == expected or repr(got) == repr(expected)), \
        (name, text, expected, got)
    return "whole"


def _documents_matrices(*documents: str) -> list[str]:
    return [line.partition("=")[2] for doc in documents for line in doc.splitlines()
            if line.strip().startswith("A")]


#: The README's literals, and the literals of the CLI tests' fuzz pools.
CORPUS = {
    "ints": ["gens=(2)", "gens=(2,0),(0,2)", "2,3"]
            + [s[len("separable:"):] for s in FUZZ_LATTICES if s.startswith("separable:")]
            + FUZZ_SUBGROUPS,
    "floats": [w[len("values="):] for w in FUZZ_WINDOWS if w.startswith("values=")],
    "plane-Z4": ["plane-gens=((2),(0));((0),(2))", "plane-gens=((2),(0));((0),(4))",
                 "plane-gens=((1,0))x((0,0))", "plane-gens=(())"]
                + [s for s in FUZZ_LATTICES if s.startswith("plane-gens=")],
    "plane-Z2xZ4": [s for s in FUZZ_LATTICES if s.startswith("plane-gens=")],
    "vector": ["diag=(5/2,1)", "diag=(5/2)"] + FUZZ_VECTORS,
    "matrix": _documents_matrices(AUTO, AUTO_REBASED, *FUZZ_DOCUMENTS.values()),
}


# --- generated literals -------------------------------------------------------

SPACE = st.sampled_from(["", "", " ", "  "])


@st.composite
def spaced(draw, parts):
    """``parts`` joined with drawn whitespace between them."""
    return "".join(draw(SPACE) + p for p in parts) + draw(SPACE)


def _bracketed(entries, opening="(", closing=")", sep=","):
    out = [opening]
    for i, e in enumerate(entries):
        out += ([sep] if i else []) + (e if isinstance(e, list) else [e])
    return out + [closing]


INTEGERS = st.integers(-9, 40).map(str)
FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)).map(str)


@st.composite
def tuple_lists(draw, entries, prefix=True):
    tuples = draw(st.lists(st.lists(entries, max_size=3), max_size=4))
    if tuples and draw(st.booleans()) and all(len(t) == 1 for t in tuples):
        parts = _bracketed([t[0] for t in tuples])[1:-1]  # the bare rank-1 form
    else:
        parts = _bracketed([_bracketed(t) for t in tuples])[1:-1]
    head = "gens=" if prefix and draw(st.booleans()) else ""
    return head + draw(spaced(parts))


@st.composite
def plane_literals(draw, k):
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        x, w = (draw(st.lists(INTEGERS, min_size=k, max_size=k)) for _ in range(2))
        style = draw(st.sampled_from(["pair", "flat", "bare"] if k == 1 else ["pair", "flat"]))
        gens.append(_bracketed([_bracketed(x), _bracketed(w)]) if style == "pair"
                    else _bracketed([_bracketed(x + w)]) if style == "flat"
                    else _bracketed(x + w))
    parts = [p for i, g in enumerate(gens)
             for p in ([draw(st.sampled_from([";", "x"]))] if i else []) + g]
    return "plane-gens=" + draw(spaced(parts))


@st.composite
def vector_literals(draw):
    dim = draw(st.integers(1, 2))

    def value():
        entries = draw(st.lists(RATIONALS, min_size=dim, max_size=dim))
        return _bracketed(entries) if draw(st.booleans()) else _bracketed(entries)[1:-1]
    if draw(st.booleans()):
        return "diag=" + draw(spaced(value()))
    keys = draw(st.permutations(["inf", "2", "3"] + draw(st.sampled_from([[], ["default"]]))))
    return " ; ".join(k + "=" + draw(spaced(value())) for k in keys)


@st.composite
def matrix_literals(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [_bracketed(draw(st.lists(RATIONALS, min_size=m, max_size=m)), "[", "]")
            for _ in range(n)]
    body = draw(spaced(_bracketed(rows, "[", "]")[1:-1]))
    return "[" + body.strip() + "]"


WELL_FORMED = {
    "ints": tuple_lists(INTEGERS),
    "floats": tuple_lists(FLOATS, prefix=False),
    "plane-Z4": plane_literals(1),
    "plane-Z2xZ4": plane_literals(2),
    "vector": vector_literals(),
    "matrix": matrix_literals(),
}


@st.composite
def mutations(draw, text):
    """``text`` with one short piece of bracket, separator or junk text put in,
    or one character taken out."""
    at = draw(st.integers(0, len(text)))
    if text and draw(st.booleans()):
        return text[:min(at, len(text) - 1)] + text[min(at, len(text) - 1) + 1:]
    piece = draw(st.text(alphabet="()[],;x j0", min_size=1, max_size=4))
    return text[:at] + piece + text[at:]


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_readme_and_fuzz_pool_literals(self, name):
        seen = {assert_agrees(name, text) for text in CORPUS[name]}
        assert "whole" in seen, name

    @pytest.mark.parametrize("name, text", [
        ("ints", "gens=(2)junk(1)"), ("ints", "(2)(1)"), ("ints", "(2),"), ("ints", "((2))"),
        ("ints", "(1,,0)"), ("ints", "(1,)"), ("ints", "(2),3"), ("ints", "3,(2)"),
        ("floats", "(1,0)junk(0,0),(0,0),(0,0)"),
        ("floats", "(1,,0),(0,0)"), ("plane-Z4", "plane-gens=((1),(0))((0),(1))"),
        ("plane-Z4", "plane-gens=((1)junk,(0))"), ("plane-Z4", "plane-gens=((1,,0))"),
        ("vector", "diag=((5/2,1))"), ("vector", "inf=(1,0)); 2=(1,0); 3=(1,0)"),
        ("matrix", "[[1/2, 0]junk[0, 2]]"), ("matrix", "[[1/2, 0][0, 2]]"),
        ("matrix", "[[[1]]]"), ("matrix", "[[1,,0],[0,1]]"),
    ])
    def test_text_the_old_reader_skipped_is_refused(self, name, text):
        assert assert_agrees(name, text) == "skipped"

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_well_formed_and_mutated_literals(self, data):
        name = data.draw(st.sampled_from(sorted(WELL_FORMED)))
        text = data.draw(WELL_FORMED[name])
        assert assert_agrees(name, text) == "whole"
        assert_agrees(name, data.draw(mutations(text)))


# --- round trips ----------------------------------------------------------------

@st.composite
def small_groups(draw, max_card=64):
    orders = []
    while True:
        n = draw(st.integers(1, 16))
        if np.prod(orders + [n]) > max_card:
            break
        orders.append(n)
        if len(orders) == 3 or not draw(st.booleans()):
            break
    return FiniteLcaGroup(tuple(orders or [1]))


class TestRoundTrips:
    @given(small_groups())
    def test_group_spec(self, group):
        assert parse_group_spec(str(group)) == group

    @settings(deadline=None)
    @given(small_groups(), st.lists(st.integers(0, 63), max_size=3))
    def test_subgroup_generators(self, group, indices):
        H = enumerate_subgroup(group, [group.element_by_index(i % group.cardinality)
                                       for i in indices])
        printed = "gens=" + ",".join(str(g) for g in H.generators)
        assert parse_subgroup_spec(group, printed) == H

    @settings(max_examples=50, deadline=None)
    @given(small_groups(), st.integers(0, 2**32 - 1))
    def test_lattice_literal(self, group, seed):
        trivial = cli.parse_lattice_literal(group, "plane-gens=(())")
        for delta in (random_plane_lattice(group, np.random.default_rng(seed)), trivial):
            again = cli.parse_lattice_literal(group, cli.format_lattice_literal(delta))
            assert again.subgroup == delta.subgroup
        assert trivial.order == 1

    @settings(deadline=None)
    @given(small_groups(max_card=16), st.data())
    def test_window_values_bit_for_bit(self, group, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150,
                           max_value=1e150)
        pairs = [(data.draw(finite), data.draw(finite)) for _ in range(group.cardinality)]
        literal = "values=" + ",".join(f"({x!r},{y!r})" for x, y in pairs)
        window = cli.parse_window_literal(group, literal)
        values = np.array([complex(x, y) for x, y in pairs])
        assert np.array_equal(window.values.view(np.uint64), values.view(np.uint64))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data())
    def test_automorphism_document(self, data):
        primes = data.draw(st.lists(st.sampled_from([2, 3, 5]), unique=True))
        n = data.draw(st.integers(1, 3))
        entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

        def invertible():
            matrix = RationalMatrix.from_rows(data.draw(
                st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
            assume(matrix.det != 0)
            return matrix

        stored = data.draw(st.lists(st.sampled_from(primes), unique=True)) if primes else []
        auto = AdeleAutomorphism(PlaceSet(tuple(primes)), invertible(),
                                 {p: invertible() for p in stored})
        parsed = parse_automorphism_document(format_automorphism_document(auto))
        assert lattice_equality(AdeleLattice(parsed), AdeleLattice(auto))
