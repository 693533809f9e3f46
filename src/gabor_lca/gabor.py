"""Gabor systems over lattices in the time-frequency plane of a finite group:
frame operators, frame bounds, adjoint lattices, Janssen representation,
Wexler-Raz biorthogonality, dual windows, orthonormal-basis constructions and
the finite transference harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .groups import (
    DualElement,
    FiniteLcaGroup,
    GroupElement,
    GroupShapeError,
    Subgroup,
    _annihilated,
    _coset_leaders,
    _coset_minima,
    _index_sum,
    _pair_exponents,
    _phases,
    _unit_coords,
    annihilator,
    char_table,
    coords_matrix,
    enumerate_subgroup,
    lattice_volume,
    sub_index_table,
    trivial_subgroup,
)

#: A Gabor system is declared a frame when the lower bound exceeds this
#: fraction of the upper bound; separates exact rank deficiency from
#: conditioning at desk scale.  Every frame verdict uses this one threshold.
FRAME_TOLERANCE_RATIO = 1e-9


class NotAFrameError(ValueError):
    """A dual window was requested for a system that is not a frame."""


class WindowNotOnbError(ValueError):
    """An input window does not generate the orthonormal basis it must."""


@dataclass(frozen=True, eq=False)
class Window:
    """Complex-valued function on a finite group, stored densely.

    Values are frozen (read-only ndarray); norms and inner products use the
    group's Haar weight.
    """

    group: FiniteLcaGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.cardinality,):
            raise GroupShapeError(
                f"window needs {self.group.cardinality} values, got shape {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not math.isfinite(self.norm()):  # also refuses every non-finite value
            raise ValueError(f"window values and norm must be finite, norm is {self.norm()}")

    @property
    def weight(self) -> float:
        return float(self.group.weight)

    def norm(self) -> float:
        return math.sqrt(self.weight * float(np.vdot(self.values, self.values).real))

    def inner(self, other: "Window") -> complex:
        if other.group != self.group:
            raise GroupShapeError("inner product of windows on different groups")
        return complex(self.weight * np.vdot(other.values, self.values))

    def normalized(self) -> "Window":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero window")
        return Window(self.group, self.values / n)

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def __add__(self, other: "Window") -> "Window":
        if other.group != self.group:
            raise GroupShapeError("adding windows on different groups")
        return Window(self.group, self.values + other.values)

    def __sub__(self, other: "Window") -> "Window":
        if other.group != self.group:
            raise GroupShapeError("subtracting windows on different groups")
        return Window(self.group, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Window":
        return Window(self.group, self.values * scalar)

    __rmul__ = __mul__


def delta_window(group: FiniteLcaGroup, at: GroupElement | None = None) -> Window:
    point = group.zero() if at is None else at
    if point.group != group:
        raise GroupShapeError("delta location outside the group")
    vals = np.zeros(group.cardinality, dtype=np.complex128)
    vals[point.index] = 1.0
    return Window(group, vals)


def constant_window(group: FiniteLcaGroup, value: complex = 1.0) -> Window:
    return Window(group, np.full(group.cardinality, value, dtype=np.complex128))


def indicator_window(sub: Subgroup) -> Window:
    vals = np.zeros(sub.group.cardinality, dtype=np.complex128)
    vals[sub.index_array] = 1.0
    return Window(sub.group, vals)


def random_window(group: FiniteLcaGroup, rng: np.random.Generator) -> Window:
    vals = rng.standard_normal(group.cardinality) + 1j * rng.standard_normal(group.cardinality)
    return Window(group, vals).normalized()


def fourier_transform(f: Window) -> Window:
    """f^(w) = weight * sum_t f(t) conj(<w, t>), a window on the dual group.

    With the paired weights this is unitary, so Plancherel holds exactly.
    """
    grp = f.group
    shaped = f.values.reshape(grp.orders)
    out = np.fft.fftn(shaped).reshape(-1) * float(grp.weight)
    return Window(grp.dual(), out)


def inverse_fourier_transform(u: Window) -> Window:
    """Inverse of ``fourier_transform``; returns a window on ``u.group.dual()``."""
    grp = u.group
    shaped = u.values.reshape(grp.orders)
    out = np.fft.ifftn(shaped).reshape(-1) * (float(grp.weight) * grp.cardinality)
    return Window(grp.dual(), out)


@dataclass(frozen=True)
class TfLattice:
    """Subgroup of the time-frequency plane G x G^, with cached volume."""

    base_group: FiniteLcaGroup
    subgroup: Subgroup

    def __post_init__(self):
        if self.subgroup.group != self.base_group.plane():
            raise GroupShapeError("lattice subgroup must live in base_group.plane()")

    @property
    def order(self) -> int:
        return self.subgroup.order

    @cached_property
    def volume(self) -> Fraction:
        return lattice_volume(self.subgroup)

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        return self.subgroup.elements

    @cached_property
    def _split_indices(self) -> tuple[np.ndarray, np.ndarray]:
        # plane index = x_index * |G| + w_index under the row-major strides
        x_idx, w_idx = np.divmod(self.subgroup.index_array, self.base_group.cardinality)
        x_idx.setflags(write=False)
        w_idx.setflags(write=False)
        return x_idx, w_idx

    @cached_property
    def adjoint(self) -> "TfLattice":
        """``adjoint_lattice(self)``, computed once; the lattice is frozen."""
        return adjoint_lattice(self)

    @cached_property
    def _walnut(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """Walnut's blocks of S: one point (x, w_x) per time x, |Gamma_0| for
        Gamma_0 = Delta & ({0} x G^), and the cosets of Gamma_0_perp as rows."""
        base, (x_idx, w_idx) = self.base_group, self._split_indices
        first = np.flatnonzero(np.diff(x_idx, prepend=-1))  # x_idx is sorted
        gamma0 = w_idx[x_idx == 0]
        perp = Subgroup._kernel(base, _annihilated(base.orders, coords_matrix(base.orders)[gamma0]))
        leaders = _coset_leaders(perp, np.arange(base.cardinality))
        rows = _index_sum(base.orders, leaders[:, None], perp.index_array)
        return x_idx[first], w_idx[first], len(gamma0), rows

    @property
    def x_indices(self) -> np.ndarray:
        return self._split_indices[0]

    @property
    def w_indices(self) -> np.ndarray:
        return self._split_indices[1]

    @classmethod
    def from_plane_generators(
            cls, base: FiniteLcaGroup,
            generators: Sequence[tuple[Sequence[int], Sequence[int]]]) -> "TfLattice":
        plane = base.plane()
        gens = [plane.element(tuple(x) + tuple(w)) for x, w in generators]
        return cls(base, enumerate_subgroup(plane, gens))

    @classmethod
    def _unit_shifts(cls, base: FiniteLcaGroup, time: bool, frequency: bool) -> "TfLattice":
        """Generated by the unit time shifts and/or unit frequency shifts."""
        zeros = (0,) * base.rank
        gens = []
        for unit in _unit_coords(base.rank):
            if time:
                gens.append((unit, zeros))
            if frequency:
                gens.append((zeros, unit))
        return cls.from_plane_generators(base, gens)

    @classmethod
    def time_axis(cls, base: FiniteLcaGroup) -> "TfLattice":
        return cls._unit_shifts(base, time=True, frequency=False)

    @classmethod
    def frequency_axis(cls, base: FiniteLcaGroup) -> "TfLattice":
        return cls._unit_shifts(base, time=False, frequency=True)

    @classmethod
    def full_plane(cls, base: FiniteLcaGroup) -> "TfLattice":
        return cls._unit_shifts(base, time=True, frequency=True)

    @classmethod
    def separable(cls, lam: Subgroup, dual_part: Subgroup | None = None) -> "TfLattice":
        """Lambda x Lambda_perp (or an explicit dual-side subgroup)."""
        base = lam.group
        if dual_part is None:
            dual_part = annihilator(lam)
        if dual_part.group.orders != base.orders:
            raise GroupShapeError(f"dual-side subgroup of {dual_part.group} does not fit {base}")
        points = lam.index_array[:, None] * base.cardinality + dual_part.index_array
        return cls(base, Subgroup._kernel(base.plane(), points.ravel()))


def tf_shift(x: GroupElement, omega: DualElement, f: Window) -> Window:
    """(pi(x, omega) f)(t) = <omega, t> f(t - x); unitary."""
    if x.group != f.group:
        raise GroupShapeError("time-shift element outside the window's group")
    if omega.group != f.group.dual():
        raise GroupShapeError("frequency-shift element outside the dual group")
    orders = f.group.orders
    E, N = _pair_exponents(orders, [omega.coords], coords_matrix(orders))
    moved = _index_sum(orders, np.arange(f.group.cardinality), x.index, sign=-1)
    return Window(f.group, _phases(E[0], N) * f.values[moved])


def tf_shift_plane(z: GroupElement, f: Window) -> Window:
    k = f.group.rank
    if z.group != f.group.plane():
        raise GroupShapeError("plane point outside the window's time-frequency plane")
    return tf_shift(f.group.element(z.coords[:k]), f.group.dual().element(z.coords[k:]), f)


def _rotated(z: GroupElement) -> tuple[int, ...]:
    """(-omega, x) for z = (x, omega); its pairing with (y, tau) is tau(x) conj(omega(y))."""
    k = len(z.coords) // 2
    return tuple(-c for c in z.coords[k:]) + z.coords[:k]


def commutation_exponent(z: GroupElement, w: GroupElement) -> tuple[int, int]:
    """Exact phase of the commutation defect tau(x) * conj(omega(y))."""
    if z.group != w.group:
        raise GroupShapeError("plane points from different planes")
    E, N = _pair_exponents(z.group.orders, [_rotated(z)], [w.coords])
    return int(E[0, 0]), N


def commutation_defect(z: GroupElement, w: GroupElement) -> complex:
    """tau(x) * conj(omega(y)); equals 1 exactly when pi(z) and pi(w) commute."""
    e, N = commutation_exponent(z, w)
    return complex(_phases(e, N))


def adjoint_lattice(delta: TfLattice) -> TfLattice:
    """Adjoint lattice: plane points whose shifts commute with all of Delta.

    It is the annihilator of the rotated lattice (see ``_rotated``), read in
    the plane itself.  Exact integer arithmetic; |Delta| * |adjoint| = |G|^2
    and the volumes are reciprocal.
    """
    base = delta.base_group
    plane = base.plane()
    hits = _annihilated(plane.orders, [_rotated(z) for z in delta.subgroup.generators])
    return TfLattice(base, Subgroup._kernel(plane, hits))


def _system_columns(g: Window, x_idx: np.ndarray, w_idx: np.ndarray) -> np.ndarray:
    """Matrix whose column j is pi(x_j, w_j) g, for plane points given as index arrays."""
    CHI = char_table(g.group.orders)
    SUB = sub_index_table(g.group.orders)
    return CHI[w_idx, :].T * g.values[SUB[:, x_idx]]


def _adjoint_coefficients(g: Window, h: Window, adj: TfLattice) -> np.ndarray:
    """<g, pi(z) h> for every z of the lattice, in its element order."""
    return float(g.group.weight) * (_system_columns(h, *adj._split_indices).conj().T @ g.values)


def _check_system(delta: TfLattice, *windows: Window) -> None:
    """Every window of a Gabor system over ``delta`` lives on its base group."""
    if any(w.group != delta.base_group for w in windows):
        raise GroupShapeError("lattice and window live on different groups")


def _identity_defect(M: np.ndarray) -> float:
    """max |M - I| over the entries of a square matrix or a stack of them."""
    return float(np.max(np.abs(M - np.eye(M.shape[-1]))))


def _checked_adjoint(delta: TfLattice, adjoint: TfLattice | None) -> TfLattice:
    """``delta.adjoint``; a given ``adjoint`` must equal it."""
    if adjoint is not None and adjoint != delta.adjoint:
        raise GroupShapeError("the given adjoint is not the adjoint lattice of delta")
    return delta.adjoint


def stft(f: Window, g: Window) -> np.ndarray:
    """Short-time Fourier transform V_g f over the full plane.

    Returns a (|G|, |G|) array indexed [x_index, w_index].  The sum over t is
    one FFT along the time axes, as in ``fourier_transform``.
    """
    if f.group != g.group:
        raise GroupShapeError("windows on different groups")
    grp = f.group
    # M[t, x] = f(t) * conj(g(t - x))
    M = f.values[:, None] * np.conj(g.values[sub_index_table(grp.orders)])
    V = np.fft.fftn(M.reshape(grp.orders + (-1,)), axes=range(grp.rank))
    return V.reshape(grp.cardinality, -1).T * float(grp.weight)


def s0_norm(f: Window, g: Window) -> float:
    """Feichtinger-type norm: canonical plane integral of |V_g f|."""
    if g.is_zero():
        raise ValueError("reference window must be nonzero")
    V = stft(f, g)
    return float(np.abs(V).sum() / f.group.cardinality)


def frame_operator(g: Window, h: Window, delta: TfLattice) -> np.ndarray:
    """S f = sum_{z in Delta} <f, pi(z) g> pi(z) h, as a dense matrix.

    S is zero off the cosets of Gamma_0_perp (Walnut), so its entries are
    scattered from the Walnut blocks of ``_walnut_products``.
    """
    _check_system(delta, g, h)
    rows, blocks = _walnut_products(g, h, delta)
    S = np.zeros((g.group.cardinality,) * 2, dtype=np.complex128)
    S[rows[:, :, None], rows[:, None, :]] = blocks
    return S


def janssen_operator(g: Window, h: Window, delta: TfLattice,
                     adjoint: TfLattice | None = None) -> np.ndarray:
    """Adjoint-lattice representation of the frame-type operator.

    vol(Delta)^{-1} sum_{z in adjoint} <h, pi(z) g> pi(z); agrees with
    ``frame_operator`` entrywise up to roundoff; ``janssen-check`` and the
    oracle tests use it, frame bounds and duals do not.  The coefficient pairs
    the synthesis window against the shifted analysis window: expanding the
    rank-one operator h g^* in the (orthogonal) basis of time-frequency shift
    matrices forces this orientation, and the transposed variant already
    fails on the diagonal lattice of the Z/2 plane.  FFT route: the inverse
    FFT of the coefficient grid C[x, w] over the frequency axes is
    A[x, t] = sum_w C[x, w] <w, t>, and J[t, s] = vol^{-1} A[t - s, t].
    ``adjoint`` defaults to ``delta.adjoint``; any other lattice is refused
    with ``GroupShapeError``.
    """
    _check_system(delta, g, h)
    grp = g.group
    card = grp.cardinality
    adj = _checked_adjoint(delta, adjoint)
    C = np.zeros((card, card), dtype=np.complex128)
    C[adj.x_indices, adj.w_indices] = _adjoint_coefficients(h, g, adj)
    A = np.fft.ifftn(C.reshape((card,) + grp.orders), axes=range(1, grp.rank + 1))
    A = A.reshape(card, card) * (card / float(delta.volume))
    return A[sub_index_table(grp.orders), np.arange(card)[:, None]]


@dataclass(frozen=True)
class FrameReport:
    """Frame bounds (Walnut-block eigenvalues, or Zak extremes) and the frame verdict."""

    lower: float
    upper: float
    is_frame: bool
    condition: float | None

    @classmethod
    def from_bounds(cls, lower: float, upper: float) -> "FrameReport":
        lower = max(lower, 0.0)
        is_frame = upper > 0.0 and lower > FRAME_TOLERANCE_RATIO * upper
        condition = (upper / lower) if is_frame else None
        return cls(lower, upper, is_frame, condition)


def _walnut_products(g: Window, h: Window, delta: TfLattice) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and the blocks of S_{g,h} on them (``TfLattice._walnut``):
    S[rows[r]] = weight * |Gamma_0| * B_r(h) B_r(g)^H, B_r[a, x] = <w_x, a> g(a - x)."""
    x_idx, w_idx, gamma0, rows = delta._walnut
    B = _system_columns(g, x_idx, w_idx)[rows]
    C = B if h is g else _system_columns(h, x_idx, w_idx)[rows]
    return rows, (float(g.group.weight) * gamma0) * (C @ B.conj().swapaxes(1, 2))


def _walnut_blocks(g: Window, delta: TfLattice) -> tuple[np.ndarray, np.ndarray, FrameReport]:
    """``rows``, the blocks of S_{g,g} on them (``_walnut_products``), their report."""
    _check_system(delta, g)
    rows, S = _walnut_products(g, g, delta)
    eigs = np.linalg.eigvalsh(S)
    return rows, S, FrameReport.from_bounds(float(eigs.min()), float(eigs.max()))


def frame_bounds(g: Window, delta: TfLattice) -> FrameReport:
    """Optimal frame bounds = extreme eigenvalues of the frame operator.

    The eigenvalues are those of its Walnut blocks (see ``_walnut_blocks``).
    It is a frame when lower > ``FRAME_TOLERANCE_RATIO`` * upper.
    """
    if g.is_zero():
        raise ValueError("frame bounds of the zero window")
    return _walnut_blocks(g, delta)[2]


@dataclass(frozen=True)
class WexlerRazResult:
    holds: bool
    residual: float
    kappa: float

    def __bool__(self) -> bool:
        return self.holds


def wexler_raz_check(g: Window, h: Window, delta: TfLattice,
                     tol: float = 1e-9,
                     adjoint: TfLattice | None = None) -> WexlerRazResult:
    """Biorthogonality across the adjoint lattice characterizing dual windows.

    Verifies <g, pi(z) h> = kappa(Delta) * delta_{z,0} for z in the adjoint.
    kappa = vol(Delta): frozen after brute-force calibration against known
    dual pairs (see tests); the reciprocal constant fails already on Z/2.
    ``adjoint`` defaults to ``delta.adjoint``; any other lattice is refused
    with ``GroupShapeError``.
    """
    _check_system(delta, g, h)
    kappa = float(delta.volume)
    adj = _checked_adjoint(delta, adjoint)
    target = np.where(adj.subgroup.index_array == 0, kappa, 0.0)
    residual = float(np.max(np.abs(_adjoint_coefficients(g, h, adj) - target)))
    return WexlerRazResult(residual <= tol, residual, kappa)


def canonical_dual(g: Window, delta: TfLattice) -> Window:
    """h = S^{-1} g; the frame-type operator S_{g,h} is then the identity.

    S is solved block by block on its Walnut blocks, as in ``frame_bounds``;
    ``NotAFrameError`` when their verdict, under the same threshold, is not
    a frame.
    """
    rows, S, report = _walnut_blocks(g, delta)
    if not report.is_frame:
        raise NotAFrameError(
            f"system is not a frame (bounds {report.lower:.3e}, {report.upper:.3e})")
    out = np.empty_like(g.values)
    out[rows] = np.linalg.solve(S, g.values[rows][..., None])[..., 0]
    return Window(g.group, out)


@dataclass(frozen=True)
class DensityVerdict:
    volume: Fraction
    frame_possible: bool
    message: str


def density_check(delta: TfLattice) -> DensityVerdict:
    """Volume obstruction: no Gabor frame exists over a lattice of volume > 1."""
    vol = delta.volume
    if vol > 1:
        return DensityVerdict(vol, False, f"volume {vol} > 1: frame impossible")
    tag = "critical" if vol == 1 else "oversampled"
    return DensityVerdict(vol, True, f"volume {vol} <= 1: frame possible ({tag})")


def _require_onb(g: Window, delta: TfLattice, tol: float, who: str) -> None:
    _check_system(delta, g)
    if delta.order != g.group.cardinality:
        raise WindowNotOnbError(f"{who}: {delta.order} lattice points, not |G| = {len(g.values)}")
    defect = _identity_defect(_walnut_blocks(g, delta)[1])
    if defect > tol:
        raise WindowNotOnbError(f"{who} does not generate an orthonormal basis "
                                f"(identity defect {defect:.3e})")


def tensor_onb(g1: Window, delta1: TfLattice, g2: Window, delta2: TfLattice,
               tol: float = 1e-9) -> tuple[Window, TfLattice]:
    """Tensor of two ONB generators is an ONB generator over the product lattice."""
    _require_onb(g1, delta1, tol, "first input")
    _require_onb(g2, delta2, tol, "second input")
    lattice = _product_lattice(delta1, delta2)
    return Window(lattice.base_group, np.kron(g1.values, g2.values)), lattice


def _product_lattice(delta1: TfLattice, delta2: TfLattice) -> TfLattice:
    """delta1 x delta2 in the plane of G1 x G2, whose Haar weight is the product.

    A point ((x1, x2), (w1, w2)) has index (x1 * |G2| + x2) * |G1 x G2| +
    (w1 * |G2| + w2), so the lattice is one outer sum of index arrays.
    """
    grp1, grp2 = delta1.base_group, delta2.base_group
    product = FiniteLcaGroup(grp1.orders + grp2.orders, grp1.weight * grp2.weight)
    card2 = grp2.cardinality
    x = delta1.x_indices[:, None] * card2 + delta2.x_indices
    w = delta1.w_indices[:, None] * card2 + delta2.w_indices
    points = x * product.cardinality + w
    return TfLattice(product, Subgroup._kernel(product.plane(), points.ravel()))


@dataclass(frozen=True)
class TransferenceResult:
    """Both sides of the dual-pair equivalence and their residuals."""

    base_is_dual_pair: bool
    base_residual: float
    product_is_dual_pair: bool
    product_residual: float
    volume: Fraction

    @property
    def equivalent(self) -> bool:
        return self.base_is_dual_pair == self.product_is_dual_pair

    def __bool__(self) -> bool:
        return self.equivalent


def compact_open_surrogate(M: int, d: int) -> tuple[FiniteLcaGroup, Subgroup, Subgroup]:
    """H = Z/M with mass 1/|K| per point, K = d*Z/M and its annihilator.

    K models the maximal compact-open subgroup (integers) inside a local
    field: Z/M plays a two-sided truncation of Q_p and K its unit ball, with
    Haar measure normalized so the ball has mass 1.
    """
    if M < 1:
        raise ValueError(f"M = {M} must be at least 1")
    if d <= 0 or M % d != 0:
        raise ValueError(f"d = {d} must be a positive divisor of M = {M}")
    H = FiniteLcaGroup((M,), Fraction(d, M))
    K = enumerate_subgroup(H, [H.element((d % M,))])
    return H, K, annihilator(K)


def finite_transference_check(g: Window, h: Window, delta1: TfLattice,
                              M: int, d: int, tol: float = 1e-9) -> TransferenceResult:
    """Dual-pair transference between a base group and its product with a
    compact-open surrogate.

    Base side: the frame-type operator of (g, h) over delta1 equals the
    identity.  Product side: with g~ = g (x) 1_K and h~ = h (x) 1_K over
    delta1 x (K x K_perp), the biorthogonality <g~, pi(z) h~> =
    vol(delta1) * [base part of z is 0] holds across the product adjoint.
    The indicator inner products collapse the product condition onto the base
    one, so the two verdicts agree.  The base side is ``frame_operator``,
    scattered from its Walnut blocks; the product side is the independent
    adjoint-coefficient route.
    """
    _check_system(delta1, g, h)
    _, K, K_perp = compact_open_surrogate(M, d)
    one_k = indicator_window(K)

    base_residual = _identity_defect(frame_operator(g, h, delta1))
    base_ok = base_residual <= tol

    surrogate = TfLattice.separable(K, K_perp)
    product_lattice = _product_lattice(delta1, surrogate)
    product = product_lattice.base_group
    g_t = Window(product, np.kron(g.values, one_k.values))
    h_t = Window(product, np.kron(h.values, one_k.values))
    vol = delta1.volume
    assert product_lattice.volume == vol

    # The commutation form of a product is the product of the forms (Jakobsen-Lemvig).
    adj = _product_lattice(delta1.adjoint, surrogate.adjoint)
    # index = base index * M + surrogate index on each side of the product plane
    base_part_zero = (adj.x_indices < M) & (adj.w_indices < M)
    target = np.where(base_part_zero, float(vol), 0.0)
    values = _adjoint_coefficients(g_t, h_t, adj)
    product_residual = float(np.max(np.abs(values - target)))
    product_ok = product_residual <= tol

    return TransferenceResult(base_ok, base_residual, product_ok, product_residual, vol)


def _values_on(points: np.ndarray, modulo: Subgroup,
               values: Mapping[GroupElement, complex] | Sequence[complex]) -> np.ndarray:
    """Window values on ``points``, the sorted indices smallest in their cosets of ``modulo``.

    A sequence lists them in order.  A Mapping keys each coset by one of its
    elements, and a coset it leaves out gets 0; a key of another group, a key
    whose coset has no point, and two keys in one coset are refused.
    """
    if not isinstance(values, Mapping):
        arr = np.asarray(list(values), dtype=np.complex128)
        if arr.shape != points.shape:
            raise ValueError(f"need {len(points)} values, got {arr.shape}")
        return arr
    if any(e.group != modulo.group for e in values):
        raise GroupShapeError("values keyed by elements of another group")
    canon = _coset_minima(modulo, [e.index for e in values])
    at = np.searchsorted(points, canon).clip(max=len(points) - 1)
    if np.any(points[at] != canon):
        raise ValueError("a value is keyed outside the subgroup")
    if len(set(at.tolist())) < len(at):
        raise ValueError("two values given for one coset")
    out = np.zeros(len(points), dtype=np.complex128)
    out[at] = list(values.values())
    return out


def _gram_defect(values: np.ndarray, points: np.ndarray, modulo: Subgroup,
                 shifts: np.ndarray, chars: np.ndarray) -> float:
    """Identity defect of the Gram matrix of the system <ch, .> values(. - s).

    ``values`` is given on ``points``, the element indices that are smallest
    in their cosets of ``modulo``, so t - s is read through its coset.  The
    system runs over the element indices ``shifts`` and the dual indices
    ``chars``; the Gram matrix uses the Haar weight of the ambient group.
    """
    group = modulo.group
    orders = group.orders
    C = coords_matrix(orders)
    E, N = _pair_exponents(orders, C[points], C[chars])
    phases = _phases(E, N)
    moved = _coset_minima(modulo, _index_sum(orders, points[:, None], shifts, sign=-1))
    position = np.empty(group.cardinality, dtype=np.int64)
    position[points] = np.arange(len(points))
    V = (values[position[moved]][:, :, None] * phases[:, None, :]).reshape(len(points), -1)
    return _identity_defect(float(group.weight) * (V.conj().T @ V))


def lift_finite_index(group: FiniteLcaGroup, sub: Subgroup,
                      values: Mapping[GroupElement, complex] | Sequence[complex],
                      coset_reps: Sequence[GroupElement] | None = None,
                      lam: Subgroup | None = None,
                      tol: float = 1e-9) -> tuple[Window, TfLattice]:
    """Spread an ONB generator on a finite-index subgroup evenly over cosets.

    Given g on H with an orthonormal Gabor system over lam x lam_perp (inside
    H), the window g~(x + y_j) = g(x)/sqrt(k) over the k coset representatives
    generates an orthonormal basis over lam x lam_perp in the full group.

    ``values`` is g on ``sub`` in index order, or a Mapping from elements of
    ``sub`` (others get 0; keys off ``sub`` are refused).
    """
    if sub.group != group:
        raise GroupShapeError("subgroup belongs to a different group")
    if lam is None:
        lam = sub
    if not lam.is_subset_of(sub):
        raise ValueError("lattice must be contained in the subgroup")
    k = group.cardinality // sub.order
    if coset_reps is None:
        rep_idx = _coset_leaders(sub, np.arange(group.cardinality))
    else:
        reps = list(coset_reps)
        if len(reps) != k:
            raise ValueError(f"need {k} coset representatives, got {len(reps)}")
        for rep in reps:
            if rep.group != group:
                raise GroupShapeError("coset representative outside the group")
        rep_idx = np.array([rep.index for rep in reps], dtype=np.int64)
        if len(set(_coset_minima(sub, rep_idx).tolist())) != k:
            raise ValueError("coset representatives are not a transversal")
    trivial = trivial_subgroup(group)
    vals_on_sub = _values_on(sub.index_array, trivial, values)

    # The system runs over lam x (lam_perp modulo sub_perp): characters of the
    # subgroup are restrictions of ambient characters.
    chars = _coset_leaders(annihilator(sub), annihilator(lam).index_array)
    defect = _gram_defect(vals_on_sub, sub.index_array, trivial, lam.index_array, chars)
    if defect > tol:
        raise WindowNotOnbError(
            f"input window is not an ONB generator on the subgroup (defect {defect:.3e})")

    out = np.zeros(group.cardinality, dtype=np.complex128)
    scale = 1.0 / math.sqrt(k)
    out[_index_sum(group.orders, rep_idx[:, None], sub.index_array)] = vals_on_sub * scale
    return Window(group, out), TfLattice.separable(lam)


def push_finite_subgroup(group: FiniteLcaGroup, finite_sub: Subgroup,
                         lam: Subgroup,
                         values: Mapping[GroupElement, complex] | Sequence[complex],
                         tol: float = 1e-9) -> tuple[Window, TfLattice]:
    """Pull an ONB generator on G/F back to G; Fourier-conjugate of the lift.

    ``values`` is a window on the quotient G/F, aligned with the canonical
    transversal, or a Mapping keyed by any element of each coset (one key per
    coset; a coset left out gets 0).  Its Fourier
    transform lives on the annihilator of F, is lifted across the dual group,
    and is transformed back.  Requires F inside lam and the quotient system
    over p(lam) x p(lam)_perp to be an orthonormal basis.
    """
    if finite_sub.group != group or lam.group != group:
        raise GroupShapeError("subgroups belong to a different group")
    if not finite_sub.is_subset_of(lam):
        raise ValueError("finite subgroup must be contained in the lattice")

    rep_idx = _coset_leaders(finite_sub, np.arange(group.cardinality))
    quot_vals = _values_on(rep_idx, finite_sub, values)

    # The quotient system runs over p(lam) x p(lam)_perp; annihilator(lam)
    # lies inside annihilator(F), so it is read on G/F unchanged.
    lam_reps = _coset_leaders(finite_sub, lam.index_array)
    lam_perp = annihilator(lam)
    defect = _gram_defect(quot_vals, rep_idx, finite_sub, lam_reps, lam_perp.index_array)
    if defect > tol:
        raise WindowNotOnbError(
            f"quotient window is not an ONB generator (defect {defect:.3e})")

    # Fourier transform on the quotient: lives on annihilator(F), scaled to
    # unit norm for the dual group's weight.
    f_perp = annihilator(finite_sub)
    C = coords_matrix(group.orders)
    E, N = _pair_exponents(group.orders, C[f_perp.index_array], C[rep_idx])
    fhat = (_phases(E, N).conj() @ quot_vals) * math.sqrt(finite_sub.order)

    gamma, _ = lift_finite_index(group.dual(), f_perp, fhat, lam=lam_perp, tol=tol)
    lifted = inverse_fourier_transform(gamma)
    return lifted, TfLattice.separable(lam)


def standard_onb(group: FiniteLcaGroup) -> tuple[Window, TfLattice]:
    """Normalized delta over the full time axis: the canonical ONB of L2(G)."""
    return delta_window(group).normalized(), TfLattice.time_axis(group)
