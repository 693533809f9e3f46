"""What every workload is made of: items, each one verified operation.

An item's ``run()`` returns a record of its verdicts, residuals and counts,
or raises ``CheckFailed`` when a check misses.  This module imports nothing
heavy, so the ``cli-cold`` workload can use it without loading the library
into the benchmark process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An item's result missed its fixed check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], dict]


@dataclass(frozen=True)
class Setup:
    """One batch of items.  ``traced_items``, when given, are what the traced
    run times under its wrappers in place of ``items`` (``cli-cold`` times
    fresh processes, but can only trace calls made in this process)."""

    items: list[Item]
    cold_tables: bool = False
    traced_items: list[Item] | None = None
