"""Zak transform over a subgroup, quasiperiodicity verification, minimum-modulus
search and the Zak-side frame criterion for critical separable lattices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gabor import FrameReport, Window
from .groups import (
    FiniteLcaGroup,
    GroupElement,
    GroupShapeError,
    Subgroup,
    _index_sum,
    _pair_exponents,
    _phases,
    annihilator,
    coords_matrix,
)


@dataclass(frozen=True, eq=False)
class ZakGrid:
    """Full-plane values of a Zak transform, indexed [x_index, w_index].

    Storing the whole plane keeps quasiperiodicity a testable redundancy
    instead of an encoding assumption.
    """

    window_group: FiniteLcaGroup
    lattice: Subgroup
    values: np.ndarray

    def __post_init__(self):
        card = self.window_group.cardinality
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (card, card):
            raise GroupShapeError(f"Zak grid must be {card} x {card}, got {vals.shape}")
        if self.lattice.group != self.window_group:
            raise GroupShapeError(f"lattice in {self.lattice.group}, not {self.window_group}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def zak_transform(f: Window, lam: Subgroup) -> ZakGrid:
    """Zf(x, w) = sum_{l in lam} f(x + l) <w, l>."""
    if lam.group != f.group:
        raise GroupShapeError("lattice subgroup outside the window's group")
    orders = f.group.orders
    C = coords_matrix(orders)
    lam_idx = lam.index_array
    shifts = f.values[_index_sum(orders, np.arange(len(C))[:, None], lam_idx)]  # f(x + l_j)
    E, N = _pair_exponents(orders, C, C[lam_idx])   # <w, l_j> = exp(2 pi i E[w, j] / N)
    return ZakGrid(f.group, lam, shifts @ _phases(E, N).T)


def quasiperiodicity_residual(grid: ZakGrid) -> float:
    """max |F(x + l, w + t) - conj(<w, l>) F(x, w)| over generator pairs.

    The pairs are (l, 0) and (0, t) for the generators l of lam and t of
    lam_perp.  The pairing is a bicharacter, so in exact arithmetic they imply
    every pair of lam x lam_perp; being a subset, they never read more.
    """
    orders = grid.window_group.orders
    every = np.arange(grid.window_group.cardinality)
    F = grid.values
    residual = 0.0
    for l in grid.lattice.generators:
        E, N = _pair_exponents(orders, [l.coords], coords_matrix(orders))
        phase = _phases(E, N).conj()   # conj(<w, l>)
        moved = F[_index_sum(orders, every, l.index)]   # F(x + l, w)
        residual = max(residual, float(np.max(np.abs(moved - phase * F))))
    for t in annihilator(grid.lattice).generators:
        moved = F[:, _index_sum(orders, every, t.index)]   # F(x, w + t)
        residual = max(residual, float(np.max(np.abs(moved - F))))
    return residual


def min_modulus(grid: ZakGrid) -> tuple[float, tuple[GroupElement, GroupElement]]:
    """Minimum of |F| over the plane and one attaining (x, w) point."""
    mods = np.abs(grid.values)
    flat = int(np.argmin(mods))
    card = grid.window_group.cardinality
    x_idx, w_idx = divmod(flat, card)
    grp = grid.window_group
    return float(mods.flat[flat]), (grp.element_by_index(x_idx),
                                    grp.dual().element_by_index(w_idx))


def plane_quadratic_mass(grid: ZakGrid) -> float:
    """Canonical plane integral of |Zf|^2 (weight 1/|G| per plane point)."""
    return float((np.abs(grid.values) ** 2).sum()) / grid.window_group.cardinality


def zak_frame_bounds(g: Window, lam: Subgroup) -> FrameReport:
    """Frame bounds of the system over lam x lam_perp from extreme |Zg|^2.

    Normalization (|G|/|lam|) * |Zg|^2 is frozen after calibration against the
    eigenvalue route; with it the two computations agree to roundoff.  The
    verdict uses the threshold of ``frame_bounds``.
    """
    grid = zak_transform(g, lam)
    mods2 = np.abs(grid.values) ** 2
    scale = g.group.cardinality / lam.order
    return FrameReport.from_bounds(scale * float(mods2.min()), scale * float(mods2.max()))
