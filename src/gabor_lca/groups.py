"""Finite models of LCA groups: products of cyclic groups with exact character
pairing, Haar weights, subgroup enumeration, annihilators and volumes.

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads or executors.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._literals import coord_tuples, read_list

#: Hard ceiling on group cardinality (desk scale).
CARDINALITY_CAP = 4096

#: Largest cardinality for which dense per-group index tables are built.
_TABLE_CAP = 2048


class GroupShapeError(ValueError):
    """Elements, windows or subgroups of mismatched groups were combined."""


class CardinalityCapError(ValueError):
    """A group or its time-frequency plane would exceed the cardinality cap."""


@dataclass(frozen=True)
class FiniteLcaGroup:
    """Z/n_1 x ... x Z/n_k carrying ``weight`` of Haar mass per point.

    The default weight 1 is counting measure.  ``dual()`` carries the
    Plancherel-dual weight 1/(|G| * weight), so Fourier inversion and the
    volume identity vol(L) * vol(L_perp) = 1 need no extra constants.
    """

    orders: tuple[int, ...]
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"cyclic orders must be integers >= 1, got {self.orders!r}")
        card = math.prod(orders)
        if card > CARDINALITY_CAP:
            raise CardinalityCapError(f"|G| = {card} exceeds cap {CARDINALITY_CAP}")
        weight = Fraction(self.weight)
        if weight <= 0:
            raise ValueError("Haar weight must be positive")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "weight", weight)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    @cached_property
    def total_mass(self) -> Fraction:
        return self.cardinality * self.weight

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        return tuple(_row_major_strides(self.orders).tolist())

    def dual(self) -> "FiniteLcaGroup":
        return self._dual

    def plane(self) -> "FiniteLcaGroup":
        """The time-frequency plane G x G^ with its canonical measure.

        The per-point mass weight * dual_weight = 1/|G| does not depend on the
        Haar normalization chosen on G.
        """
        return self._plane

    @cached_property
    def _dual(self) -> "FiniteLcaGroup":
        return FiniteLcaGroup(self.orders, Fraction(1, self.cardinality) / self.weight)

    @cached_property
    def _plane(self) -> "FiniteLcaGroup":
        if self.cardinality ** 2 > CARDINALITY_CAP:
            raise CardinalityCapError(f"the plane of {self} has {self.cardinality ** 2} "
                                      f"points, which exceeds cap {CARDINALITY_CAP}")
        return FiniteLcaGroup(self.orders + self.orders, Fraction(1, self.cardinality))

    def element(self, coords: Sequence[int] | int) -> "GroupElement":
        if isinstance(coords, int):
            coords = (coords,)
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element_by_index(self, index: int) -> "GroupElement":
        if not 0 <= index < self.cardinality:
            raise IndexError(f"index {index} out of range for |G| = {self.cardinality}")
        coords = tuple((index // s) % n for s, n in zip(self._strides, self.orders))
        return GroupElement(self, coords)

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.cardinality):
            yield self.element_by_index(i)

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)


@dataclass(frozen=True)
class GroupElement:
    """Tuple of residues; coordinate i is reduced mod n_i on construction."""

    group: FiniteLcaGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise GroupShapeError(
                f"{len(self.coords)} coordinates for rank-{self.group.rank} group {self.group}")
        reduced = tuple(int(c) % n for c, n in zip(self.coords, self.group.orders))
        object.__setattr__(self, "coords", reduced)

    @property
    def index(self) -> int:
        return sum(c * s for c, s in zip(self.coords, self.group._strides))

    def _same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise GroupShapeError(f"elements of {self.group} and {other.group} cannot be combined")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._same_group(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._same_group(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    def scaled(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * c for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


#: Elements of a dual group are plain GroupElements of ``group.dual()``;
#: the alias only documents intent in signatures.
DualElement = GroupElement


def pairing_exponent(omega: GroupElement, x: GroupElement) -> tuple[int, int]:
    """Exact pairing phase: (e, N) with <omega, x> = exp(2*pi*i*e/N).

    The formula sum_i omega_i x_i / n_i is symmetric, so this also evaluates
    elements of G acting as characters on G^.
    """
    if omega.group.orders != x.group.orders:
        raise GroupShapeError(f"cannot pair element of {omega.group} with element of {x.group}")
    E, N = _pair_exponents(omega.group.orders, [omega.coords], [x.coords])
    return int(E[0, 0]), N


def pairing(omega: GroupElement, x: GroupElement) -> complex:
    """Unit-modulus character value <omega, x> = exp(2*pi*i sum omega_i x_i / n_i)."""
    e, N = pairing_exponent(omega, x)
    return complex(_phases(e, N))


def pairing_is_one(omega: GroupElement, x: GroupElement) -> bool:
    return pairing_exponent(omega, x)[0] == 0


def _check_table_size(orders: tuple[int, ...]) -> None:
    card = math.prod(orders)
    if card > _TABLE_CAP:
        raise CardinalityCapError(f"dense tables limited to |G| <= {_TABLE_CAP}, got {card}")


@lru_cache(maxsize=None)
def _row_major_strides(orders: tuple[int, ...]) -> np.ndarray:
    """Index weights of the coordinates: the last coordinate varies fastest.

    Under these strides the smallest index of a set of elements is its
    lexicographically smallest coordinate tuple.
    """
    out = np.ones(len(orders), dtype=np.int64)
    for i in range(len(orders) - 2, -1, -1):
        out[i] = out[i + 1] * orders[i + 1]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def coords_matrix(orders: tuple[int, ...]) -> np.ndarray:
    """(|G|, k) int64 coordinate matrix in element-index order (read-only)."""
    grids = np.indices(orders).reshape(len(orders), -1).T
    out = np.ascontiguousarray(grids, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _orders_array(orders: tuple[int, ...]) -> np.ndarray:
    """The orders as a read-only int64 array."""
    out = np.array(orders, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _pair_scale(orders: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """N / n_k per coordinate (read-only) and N = lcm(orders)."""
    N = math.lcm(*orders)
    scale = np.array([N // n for n in orders], dtype=np.int64)
    scale.setflags(write=False)
    return scale, N


def _pair_exponents(orders: tuple[int, ...], a, b) -> tuple[np.ndarray, int]:
    """Exact int64 pairing exponents of two stacks of coordinate rows.

    E[i, j] = sum_k a[i, k] b[j, k] (N / n_k) mod N with N = lcm(orders), so
    <a_i, b_j> = exp(2*pi*i*E[i, j]/N); either stack may hold the characters.
    """
    scale, N = _pair_scale(orders)
    a, b = (np.asarray(r, dtype=np.int64).reshape(-1, len(orders)) for r in (a, b))
    return (a * scale) @ b.T % N, N


def _phases(E, N: int):
    """exp(2*pi*i*E/N): the one place where exact pairing exponents become floats."""
    return np.exp(2j * np.pi * (E / N))


def _annihilated(orders: tuple[int, ...], rows) -> np.ndarray:
    """Indices of the points that pair trivially with every coordinate row.

    The pairing is a bicharacter, so for a subgroup its generators suffice.
    """
    E, _ = _pair_exponents(orders, rows, coords_matrix(orders))
    return np.flatnonzero(~E.any(axis=0))


def _index_sum(orders: tuple[int, ...], a, b, sign: int = 1) -> np.ndarray:
    """Index of a + sign * b, elementwise over broadcastable index arrays."""
    C = coords_matrix(orders)
    return (C[a] + sign * C[b]) % _orders_array(orders) @ _row_major_strides(orders)


@lru_cache(maxsize=None)
def pair_exponent_table(orders: tuple[int, ...]) -> np.ndarray:
    """E[w, x] = exact pairing exponent mod N, so CHI = _phases(E, N)."""
    _check_table_size(orders)
    C = coords_matrix(orders)
    E, _ = _pair_exponents(orders, C, C)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def char_table(orders: tuple[int, ...]) -> np.ndarray:
    """CHI[w, x] = <w, x> as complex128 (read-only)."""
    CHI = _phases(pair_exponent_table(orders), math.lcm(*orders))
    CHI.setflags(write=False)
    return CHI


@lru_cache(maxsize=None)
def add_index_table(orders: tuple[int, ...]) -> np.ndarray:
    """ADD[a, b] = index of a + b (read-only)."""
    _check_table_size(orders)
    C = coords_matrix(orders)
    out = np.zeros((len(C), len(C)), dtype=np.int64)
    for k, n in enumerate(orders):  # the row-major index, one axis at a time
        out = out * n + (C[:, k, None] + C[:, k]) % n
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def sub_index_table(orders: tuple[int, ...]) -> np.ndarray:
    """SUB[a, b] = index of a - b (read-only)."""
    neg = _index_sum(orders, 0, np.arange(math.prod(orders)), sign=-1)
    out = add_index_table(orders)[:, neg]
    out.setflags(write=False)
    return out


def _multiples(orders: tuple[int, ...], xs) -> np.ndarray:
    """Indices of k*x for k = 0..exp(G), one row per index x in ``xs`` (one for a
    scalar), in the smallest dtype that holds an index."""
    k = np.arange(math.lcm(*orders) + 1)[:, None]
    out = (k * coords_matrix(orders)[xs][..., None, :] % _orders_array(orders)
           @ _row_major_strides(orders))
    return out.astype(np.min_scalar_type(math.prod(orders)))


def _joined_minima(orders: tuple[int, ...], cm: np.ndarray, multiples: np.ndarray) -> np.ndarray:
    """Coset minima of <H, x> from those of H (cm[y], the smallest index of y + H)
    and the ``_multiples`` row of x: the minimum of cm(y + k*x) over k below the
    order m of x modulo H, in log2(m) doubling gathers."""
    m, shift = 1 + int(np.argmax(cm[multiples[1:]] == 0)), 1
    while shift < m:  # cm(y) = min of cm(y + k*x) over k < 2*shift, m-periodic in k
        cm = np.minimum(cm, cm[_index_sum(orders, slice(None), multiples[shift])])
        shift *= 2
    return cm


def _mask(card: int, indices) -> np.ndarray:
    out = np.zeros(card, dtype=bool)
    out[indices] = True
    return out


def _greedy_generators(group: FiniteLcaGroup, points: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Greedy generators of the sorted indices ``points`` (a point joins when the
    earlier ones miss it) and the coset minima of the subgroup they generate,
    whose zeros are ``points`` iff ``points`` is closed."""
    orders, gens, cm = group.orders, [], np.arange(group.cardinality)
    while (missed := np.flatnonzero(cm[points])).size:
        gens.append(int(points[missed[0]]))
        cm = _joined_minima(orders, cm, _multiples(orders, gens[-1]))
    return tuple(map(group.element_by_index, gens)), cm


@dataclass(frozen=True, eq=False, repr=False)
class Subgroup:
    """Subgroup stored as the sorted int64 indices of its elements.

    Equality and hashing use the index array only, so two subgroups given by
    different generating sets compare equal exactly when they coincide.
    ``elements`` is built from the indices the first time it is read.

    ``generators`` always generates the subgroup: ``enumerate_subgroup``
    keeps the ones it was given, and ``all_subgroups`` and ``from_indices``
    give the greedy ones; every one of them grows by ``_joined_minima`` and
    hands over the coset minima it grew.  Kernel-built subgroups
    (``annihilator``, adjoint, separable and product lattices) are closed by
    construction; the first read of ``generators`` or ``_minima`` runs one
    greedy walk, which serves both.  ``annihilator`` and
    ``adjoint_lattice`` test membership against the generators only.
    """

    group: FiniteLcaGroup
    known_generators: InitVar[tuple[GroupElement, ...] | None]
    index_array: np.ndarray
    known_minima: InitVar[np.ndarray | None] = None

    def __post_init__(self, known_generators, known_minima):
        self.index_array.setflags(write=False)
        if known_generators is not None:
            self.__dict__["generators"] = known_generators
        if known_minima is not None:
            known_minima.setflags(write=False)
            self.__dict__["_minima"] = known_minima

    @cached_property
    def _walk(self) -> tuple[tuple[GroupElement, ...], np.ndarray]:
        """``_greedy_generators`` of the indices, run once for both properties."""
        gens, cm = _greedy_generators(self.group, self.index_array)
        cm.setflags(write=False)
        return gens, cm

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        """The greedy generators of ``from_indices``, recovered on first read."""
        return self._walk[0]

    @cached_property
    def _minima(self) -> np.ndarray:
        """cm[y], the smallest index of y + self (read-only)."""
        return self._walk[1]

    def __repr__(self) -> str:
        gens = self.__dict__.get("generators")  # reading the property would recover them
        shown = "<on first read>" if gens is None else "[" + ", ".join(map(str, gens)) + "]"
        return f"Subgroup({self.group}, order={self.order}, generators={shown})"

    @property
    def order(self) -> int:
        return len(self.index_array)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        group = self.group
        rows = coords_matrix(group.orders)[self.index_array].tolist()
        return tuple(GroupElement(group, tuple(c)) for c in rows)

    def __contains__(self, element: GroupElement) -> bool:
        if element.group != self.group:
            raise GroupShapeError(f"element of {element.group} tested against subgroup of {self.group}")
        i = element.index
        pos = int(np.searchsorted(self.index_array, i))
        return pos < self.order and int(self.index_array[pos]) == i

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.index_array, other.index_array)

    def __hash__(self) -> int:
        return hash((self.group, self.index_array.tobytes()))

    def is_subset_of(self, other: "Subgroup") -> bool:
        if self.group != other.group:
            raise GroupShapeError("subgroups of different groups")
        return bool(np.isin(self.index_array, other.index_array, assume_unique=True).all())

    @classmethod
    def from_indices(cls, group: FiniteLcaGroup, indices) -> "Subgroup":
        """Wrap a closed set of element indices; refuses one that is not closed.

        Recovers the greedy generators at once, where kernel-built subgroups
        (``_kernel``) recover the same ones on first read.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= group.cardinality):
            raise ValueError(f"element index out of range for |G| = {group.cardinality}")
        # A mask rather than np.unique, which imports numpy.ma (~1 MB) on first use.
        points = np.flatnonzero(_mask(group.cardinality, idx))
        gens, cm = _greedy_generators(group, points)
        if not np.array_equal(np.flatnonzero(cm == 0), points):
            raise ValueError("element list is not closed under the group operation")
        return cls(group, gens, points, cm)

    @classmethod
    def _kernel(cls, group: FiniteLcaGroup, indices) -> "Subgroup":
        """Wrap unique int64 indices closed by construction; sorts, closes nothing."""
        return cls(group, None, np.sort(indices))

    @classmethod
    def from_elements(cls, group: FiniteLcaGroup,
                      elements: Sequence[GroupElement]) -> "Subgroup":
        """Wrap an already-closed element list; recovers a small generating set."""
        return cls.from_indices(group, [e.index for e in elements])


def enumerate_subgroup(group: FiniteLcaGroup,
                       generators: Iterable[GroupElement]) -> Subgroup:
    """Smallest subgroup containing the generators, fully enumerated."""
    gens = tuple(generators)
    for g in gens:
        if g.group != group:
            raise GroupShapeError(f"generator {g} does not belong to {group}")
    cm = np.arange(group.cardinality)  # coset minima: 0 exactly on the subgroup so far
    for g in gens:
        if cm[g.index]:
            cm = _joined_minima(group.orders, cm, _multiples(group.orders, g.index))
    return Subgroup(group, gens, np.flatnonzero(cm == 0), cm)


def trivial_subgroup(group: FiniteLcaGroup) -> Subgroup:
    return enumerate_subgroup(group, ())


def _unit_coords(rank: int) -> list[tuple[int, ...]]:
    """Coordinates of the standard generators e_1, ..., e_rank."""
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


def full_subgroup(group: FiniteLcaGroup) -> Subgroup:
    return enumerate_subgroup(group, [group.element(c) for c in _unit_coords(group.rank)])


def annihilator(sub: Subgroup) -> Subgroup:
    """Characters of the ambient group trivial on ``sub``, inside the dual group.

    Only the generators of ``sub`` are tested.  Exact integer arithmetic
    throughout; |sub| * |annihilator| = |G| always.
    """
    hits = _annihilated(sub.group.orders, [g.coords for g in sub.generators])
    return Subgroup._kernel(sub.group.dual(), hits)


def lattice_volume(sub: Subgroup) -> Fraction:
    """Covolume of the subgroup for the ambient group's Haar measure (exact)."""
    return sub.group.total_mass / sub.order


def _coset_minima(sub: Subgroup, xs) -> np.ndarray:
    """Smallest index of x + sub for each index x in ``xs``.

    That index is the canonical representative of the coset: under the
    row-major strides it is the lexicographically smallest coordinate tuple.
    """
    return sub._minima[np.asarray(xs, dtype=np.int64)]


def coset_transversal(group: FiniteLcaGroup, sub: Subgroup) -> list[GroupElement]:
    """Canonical coset representatives (smallest element index first)."""
    if sub.group != group:
        raise GroupShapeError("subgroup belongs to a different group")
    every = np.arange(group.cardinality)
    return [group.element_by_index(int(i)) for i in _coset_leaders(sub, every)]


def _coset_leaders(sub: Subgroup, xs: np.ndarray) -> np.ndarray:
    """The indices in ``xs`` that are the smallest of their cosets of ``sub``."""
    return xs[_coset_minima(sub, xs) == xs]


def all_subgroups(group: FiniteLcaGroup) -> list[Subgroup]:
    """Every subgroup, ordered by (order, indices), each with its greedy generators.

    The walk extends H = <g_1..g_i> by each coset leader x > g_i and keeps
    <H, x> iff x is its smallest point outside H, so the kept tuples are
    exactly the greedy generators of ``from_indices``, one per subgroup.
    With cm(y) the smallest index of y + H and m_x the order of x modulo H,
    that is min over 1 <= k < m_x of cm(k*x) >= x, one gather per block of
    leaders.  No closure runs: ``_joined_minima`` doubles cm into the minima
    of <H, x>, which is where they are 0.
    """
    _check_table_size(group.orders)
    orders, card, every = group.orders, group.cardinality, np.arange(group.cardinality)
    found, stack = [], [Subgroup(group, (), every[:1], every)]
    while stack:
        found.append(H := stack.pop())
        cm = H._minima  # cm[y] is the smallest index of the coset y + H
        start = H.generators[-1].index + 1 if H.generators else 1
        leaders = np.flatnonzero(cm[start:] == every[start:]) + start
        outside = np.where(cm == 0, card, cm)  # H's own coset, set to |G|, rejects no leader
        for lo in range(0, len(leaders), 64):  # exp(G) <= _TABLE_CAP bounds a block's multiples
            xs = leaders[lo:lo + 64]
            lows = outside[mult := _multiples(orders, xs)]
            keep = lows.min(axis=1) >= xs
            for x, kx in zip(xs[keep].tolist(), mult[keep]):
                cm_x = _joined_minima(orders, cm, kx)
                gens = H.generators + (group.element_by_index(x),)
                stack.append(Subgroup(group, gens, np.flatnonzero(cm_x == 0), cm_x))
    return sorted(found, key=lambda H: (H.order, H.index_array.tolist()))


# --- specification grammar shared with the CLI ------------------------------

def parse_group_spec(text: str) -> FiniteLcaGroup:
    """Parse 'Z4', 'Z4xZ4', 'Z2xZ3xZ8' into a group with counting measure."""
    parts = text.strip().split("x")
    orders = []
    for part in parts:
        m = re.fullmatch(r"\s*[Zz](\d+)\s*", part)
        if m is None:
            raise ValueError(f"bad group spec {text!r}; expected e.g. 'Z4' or 'Z2xZ3xZ8'")
        orders.append(int(m.group(1)))
    return FiniteLcaGroup(tuple(orders))


def parse_coord_tuples(text: str, cast=int) -> list[tuple]:
    """Parse '(2,0),(0,2)' (or bare '2,3' for rank-1 groups) into tuples.

    Entries are read with ``cast``: integer coordinates by default, ``float``
    for the (re,im) pairs of window values.  Tuples are separated by ',';
    text they leave unread, such as '(2)junk(1)', and a blank entry such as
    '(1,,0)' are refused.
    """
    body = text.strip()
    if body.startswith("gens="):
        body = body[len("gens="):]
    return coord_tuples(read_list(body), cast)


def parse_subgroup_spec(group: FiniteLcaGroup, text: str) -> Subgroup:
    """Parse a generator list such as 'gens=(2,0),(0,2)' into a subgroup."""
    gens = [group.element(c) for c in parse_coord_tuples(text)]
    return enumerate_subgroup(group, gens)
