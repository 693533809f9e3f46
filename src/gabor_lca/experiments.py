"""Desk-scale stability and Balian-Low experiments: window-perturbation sweeps,
critical-density conditioning trends, exhaustive density tables, and the
seeded random instances shared by the verification suite and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .gabor import (
    TfLattice,
    Window,
    _adjoint_coefficients,
    _walnut_blocks,
    frame_bounds,
    frame_operator,
    janssen_operator,
    random_window,
    s0_norm,
)
from .groups import (
    FiniteLcaGroup,
    Subgroup,
    all_subgroups,
    enumerate_subgroup,
)
from .zak import min_modulus, zak_transform

#: Strict-monotonicity assertions allow this much floating-point slack.
MONOTONICITY_SLACK = 1e-9

#: Random plane lattices and subgroups have 1 to this many random generators.
PLANE_LATTICE_GENERATORS = 3
SUBGROUP_GENERATORS = 2
#: Seeded frames are kept only up to this condition number B/A.
FRAME_CONDITION_CAP = 1e4


@dataclass(frozen=True)
class SweepReport:
    """Deterministic table of sweep rows plus named pass/fail assertions."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    assertions: dict[str, bool] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def periodized_gaussian(L: int, center: float = 0.0) -> Window:
    """Sampled, periodized Gaussian on Z/L, normalized to unit l2 norm.

    g[j] = sum_k exp(-pi ((j - center)/sqrt(L) + k sqrt(L))^2) with the tail
    truncated below 1e-15; for center 0 approximately invariant under the
    Fourier transform.
    """
    if L < 2:
        raise ValueError("periodized Gaussian needs L >= 2")
    root = math.sqrt(L)
    k_max = int(math.ceil(3.5 / root)) + 2
    j = np.arange(L, dtype=np.float64)
    vals = np.zeros(L, dtype=np.float64)
    for k in range(-k_max, k_max + 1):
        vals += np.exp(-np.pi * ((j - center) / root + k * root) ** 2)
    vals /= np.linalg.norm(vals)
    return Window(FiniteLcaGroup((L,)), vals.astype(np.complex128))


def window_stability_sweep(g: Window, delta: TfLattice,
                           eps_values: Sequence[float],
                           seed: int = 0) -> SweepReport:
    """Frame bounds of g + eps*h for a fixed unit-S0-norm direction h.

    Each row also records the measured spectral-norm change of the frame
    operator (its largest over the Walnut blocks) and its adjoint-lattice
    bound vol^{-1} sum_z |<pi(z)(g'-g), g'> + <pi(z)g, g'-g>|, which must dominate.
    """
    eps_values = [float(e) for e in eps_values]
    if not all(map(math.isfinite, eps_values)):
        raise ValueError(f"eps values must be finite, got {eps_values}")
    if not eps_values or any(b <= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps grid must be non-empty and strictly increasing")
    _, S_base, base_report = _walnut_blocks(g, delta)
    if not base_report.is_frame:
        raise ValueError("stability sweep needs a frame to start from")
    rng = np.random.default_rng(seed)
    direction = random_window(g.group, rng)
    direction = direction * (1.0 / s0_norm(direction, g))
    adj = delta.adjoint
    inv_vol = 1.0 / float(delta.volume)
    base_coeffs = _adjoint_coefficients(g, g, adj)

    rows = []
    bound_ok = True
    for eps in eps_values:
        perturbed = g + float(eps) * direction
        _, S_pert, report = _walnut_blocks(perturbed, delta)
        measured = float(np.linalg.norm(S_pert - S_base, 2, axis=(1, 2)).max())
        # <pi(z)g', g'> - <pi(z)g, g> is the two-term sum of the docstring (sesquilinearity)
        coeffs = _adjoint_coefficients(perturbed, perturbed, adj) - base_coeffs
        bound = float(np.abs(coeffs).sum()) * inv_vol
        bound_ok = bound_ok and measured <= bound + 1e-10
        rows.append((float(eps), report.lower, report.upper,
                     report.is_frame, measured, bound))

    assertions = {"janssen_bound_dominates": bound_ok}
    if rows and rows[0][0] == 0.0:
        assertions["zero_eps_unchanged"] = (
            abs(rows[0][1] - base_report.lower) < 1e-12
            and abs(rows[0][2] - base_report.upper) < 1e-12)
    return SweepReport(
        "window_stability",
        ("eps", "lower", "upper", "is_frame", "operator_change", "adjoint_bound"),
        tuple(rows),
        assertions,
        {"seed": seed, "base_lower": base_report.lower, "base_upper": base_report.upper,
         "volume": str(delta.volume)},
    )


def _critical_instance(n: int) -> tuple[Window, Subgroup, TfLattice]:
    # Half-sample centering keeps the Zak zero off the grid: the symmetric
    # (center 0) Gaussian is exactly singular at critical density for even n.
    group = FiniteLcaGroup((n * n,))
    lam = enumerate_subgroup(group, [group.element((n,))])
    return periodized_gaussian(n * n, center=0.5), lam, TfLattice.separable(lam)


def _oversampled_control(n: int) -> tuple[Window, TfLattice]:
    group = FiniteLcaGroup((2 * n * n,))
    g = periodized_gaussian(2 * n * n, center=0.5)
    delta = TfLattice.from_plane_generators(group, [((n,), (0,)), ((0,), (n,))])
    assert delta.volume == Fraction(1, 2)
    return g, delta


def critical_density_trend(n_values: Sequence[int],
                           include_control: bool = True) -> SweepReport:
    """Conditioning blow-up of the periodized Gaussian at critical density.

    For G = Z/n^2 with the index-n subgroup lattice, records B/A and the Zak
    minimum as n grows; both trends are strict.  Oversampled control rows at
    volume 1/2 stay uniformly conditioned.
    """
    n_values = [int(n) for n in n_values]
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n grid must be non-empty and strictly increasing")
    rows = []
    ratios = []
    zak_mins = []
    for n in n_values:
        if n < 2:
            raise ValueError("critical-density trend needs n >= 2")
        g, lam, delta = _critical_instance(n)
        report = frame_bounds(g, delta)
        ratio = report.upper / max(report.lower, 1e-300)
        zmin, _ = min_modulus(zak_transform(g, lam))
        ratios.append(ratio)
        zak_mins.append(zmin)
        rows.append((int(n), str(g.group), "critical", str(delta.volume),
                     report.lower, report.upper, ratio, zmin))

    control_ratios = []
    if include_control:
        for n in n_values:
            g, delta = _oversampled_control(n)
            report = frame_bounds(g, delta)
            ratio = report.upper / max(report.lower, 1e-300)
            control_ratios.append(ratio)
            rows.append((int(n), str(g.group), "control", str(delta.volume),
                         report.lower, report.upper, ratio, float("nan")))

    assertions = {
        "condition_strictly_increasing": all(
            b > a + MONOTONICITY_SLACK for a, b in zip(ratios, ratios[1:])),
        "zak_min_strictly_decreasing": all(
            b < a - MONOTONICITY_SLACK for a, b in zip(zak_mins, zak_mins[1:])),
    }
    if control_ratios:
        assertions["control_within_factor_two"] = (
            max(control_ratios) <= 2.0 * min(control_ratios))
    return SweepReport(
        "critical_density_trend",
        ("n", "group", "kind", "volume", "lower", "upper", "condition", "zak_min"),
        tuple(rows),
        assertions,
        {"n_values": list(int(n) for n in n_values)},
    )


def density_exhaustive(group: FiniteLcaGroup, windows_per_lattice: int = 20,
                       seed: int = 0) -> SweepReport:
    """Try random windows over every plane subgroup; volume > 1 never frames.

    Returns one row per subgroup of the time-frequency plane with the number
    of frames found among the seeded random windows.
    """
    if group.cardinality > 16:
        raise ValueError("exhaustive density scan is limited to |G| <= 16")
    if windows_per_lattice < 1:
        raise ValueError(f"need at least one window per lattice, got {windows_per_lattice}")
    rng = np.random.default_rng(seed)
    plane = group.plane()
    rows = []
    violations = 0
    for i, sub in enumerate(all_subgroups(plane)):
        delta = TfLattice(group, sub)
        vol = delta.volume
        frames = 0
        for _ in range(windows_per_lattice):
            g = random_window(group, rng)
            if frame_bounds(g, delta).is_frame:
                frames += 1
        if vol > 1 and frames > 0:
            violations += 1
        rows.append((i, delta.order, str(vol), windows_per_lattice, frames,
                     bool(vol > 1 and frames > 0)))
    return SweepReport(
        "density_exhaustive",
        ("lattice", "order", "volume", "windows", "frames", "violates_density"),
        tuple(rows),
        {"no_frame_above_volume_one": violations == 0},
        {"group": str(group), "seed": seed, "subgroups": len(rows)},
    )


# --- seeded random instances --------------------------------------------------

_GROUP_CATALOG: tuple[tuple[int, ...], ...] = (
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (12,),
    (15,), (16,), (18,), (20,), (24,), (27,), (30,), (36,),
    (2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (4, 4), (2, 3), (3, 6),
    (2, 8), (2, 12), (4, 8), (6, 6), (2, 16), (3, 12), (5, 5), (7, 7),
    (2, 2, 4), (2, 18), (4, 9), (8, 8), (2, 32), (64,), (48,),
)


def random_group(rng: np.random.Generator, max_card: int = 36) -> FiniteLcaGroup:
    pool = [o for o in _GROUP_CATALOG if math.prod(o) <= max_card]
    if not pool:
        raise ValueError(f"max card {max_card} is below the smallest catalog order "
                         f"{min(map(math.prod, _GROUP_CATALOG))}")
    return FiniteLcaGroup(pool[int(rng.integers(len(pool)))])


def random_plane_lattice(group: FiniteLcaGroup, rng: np.random.Generator) -> TfLattice:
    plane = group.plane()
    n_gens = int(rng.integers(1, PLANE_LATTICE_GENERATORS + 1))
    gens = [plane.element_by_index(int(rng.integers(plane.cardinality)))
            for _ in range(n_gens)]
    return TfLattice(group, enumerate_subgroup(plane, gens))


def random_subgroup(group: FiniteLcaGroup, rng: np.random.Generator) -> Subgroup:
    n_gens = int(rng.integers(1, SUBGROUP_GENERATORS + 1))
    gens = [group.element_by_index(int(rng.integers(group.cardinality)))
            for _ in range(n_gens)]
    return enumerate_subgroup(group, gens)


def seeded_janssen_instances(count: int, seed: int = 0,
                             max_card: int = 36) -> Iterator[tuple[Window, Window, TfLattice]]:
    """Random (g, h, Delta) triples for checking the adjoint-lattice identity."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        group = random_group(rng, max_card)
        delta = random_plane_lattice(group, rng)
        yield random_window(group, rng), random_window(group, rng), delta


def janssen_max_defect(count: int, seed: int = 0, max_card: int = 36) -> float:
    """Worst max-entry difference between the two frame-operator computations."""
    if count < 1:
        raise ValueError(f"need at least one instance, got {count}")
    worst = 0.0
    for g, h, delta in seeded_janssen_instances(count, seed, max_card):
        S = frame_operator(g, h, delta)
        J = janssen_operator(g, h, delta)
        worst = max(worst, float(np.max(np.abs(S - J))))
    return worst


def seeded_frame_instances(count: int, seed: int = 0,
                           max_card: int = 36) -> Iterator[tuple[Window, TfLattice]]:
    """Random certified frames (volume <= 1, B/A <= ``FRAME_CONDITION_CAP``)."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        group = random_group(rng, max_card)
        delta = random_plane_lattice(group, rng)
        if delta.volume > 1:
            continue
        g = random_window(group, rng)
        report = frame_bounds(g, delta)
        if not report.is_frame or report.condition > FRAME_CONDITION_CAP:
            continue
        produced += 1
        yield g, delta


def seeded_zak_instances(count: int, seed: int = 0,
                         max_card: int = 64) -> Iterator[tuple[Window, Subgroup]]:
    """Random (window, subgroup) pairs for the critical separable lattice."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        group = random_group(rng, max_card)
        lam = random_subgroup(group, rng)
        yield random_window(group, rng), lam


def wexler_raz_flip_perturbation(h: Window, size: float = 1e-3) -> Window:
    """Bump the dual window at its largest-modulus coordinate."""
    idx = int(np.argmax(np.abs(h.values)))
    vals = h.values.copy()
    vals[idx] += size
    return Window(h.group, vals)


__all__ = [
    "MONOTONICITY_SLACK",
    "SweepReport",
    "periodized_gaussian",
    "window_stability_sweep",
    "critical_density_trend",
    "density_exhaustive",
    "random_group",
    "random_plane_lattice",
    "random_subgroup",
    "seeded_janssen_instances",
    "janssen_max_defect",
    "seeded_frame_instances",
    "seeded_zak_instances",
    "wexler_raz_flip_perturbation",
]
