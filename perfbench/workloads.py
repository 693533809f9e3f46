"""In-process workloads: seeded inputs, and one verified item per call.

Each ``setup_*`` function takes the seed and returns a ``Setup``: the items of
one batch and whether a batch starts with empty table caches.  Checks use
the library's own independent routes and golden values recorded at the seed
commit (``golden/``); nothing is imported from the repository's tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from core import Item, Setup, check
from spans import TABLE_FUNCTIONS
from gabor_lca import adeles, experiments, gabor, groups, padic, zak

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The lru-cached tables, captured before any tracing wrapper replaces them,
#: so that ``clear_tables`` reaches the caches themselves.
TABLE_CACHES = (groups.coords_matrix, groups.pair_exponent_table, groups.char_table,
                groups.add_index_table, groups.sub_index_table)


def clear_tables() -> None:
    for fn in TABLE_CACHES:
        fn.cache_clear()


def _seeded_order(items: list[Item], seed: int) -> list[Item]:
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


# --- subgroup-lattice ---------------------------------------------------------

def _multiplicative_partitions(n: int, least: int = 2):
    if n == 1:
        yield ()
        return
    for f in range(least, n + 1):
        if n % f == 0:
            for rest in _multiplicative_partitions(n // f, f):
                yield (f,) + rest


#: subgroup-lattice covers every shape below order 64.  The 11 shapes of
#: order 64 hold 4,273 of the 7,210 subgroups up to 64 and more than half the
#: time (Z2^6 alone ~4 s), which would leave too few batches per run.
SUBGROUP_MAX_ORDER = 63


def group_shapes(max_card: int = 64) -> list[tuple[int, ...]]:
    """Every shape Z/n_1 x ... x Z/n_k (n_1 <= ... <= n_k) with |G| <= max_card."""
    shapes = [(1,)]
    for n in range(2, max_card + 1):
        shapes.extend(_multiplicative_partitions(n))
    return shapes


def _shape_item(orders: tuple[int, ...], expected: int) -> dict:
    G = groups.FiniteLcaGroup(orders)
    subs = groups.all_subgroups(G)
    check(len(subs) == expected, f"{G}: {len(subs)} subgroups, golden {expected}")
    for H in subs:
        ann = groups.annihilator(H)
        check(groups.lattice_volume(H) * groups.lattice_volume(ann) == 1,
              f"{G}: vol * vol_perp != 1 for {H.generators}")
        check(H.order * ann.order == G.cardinality,
              f"{G}: |H| * |H_perp| != |G| for {H.generators}")
    return {"subgroups": len(subs), "elements": sum(H.order for H in subs)}


def _plane_adjoint_item(orders: tuple[int, ...], expected: int) -> dict:
    G = groups.FiniteLcaGroup(orders)
    subs = groups.all_subgroups(G.plane())
    check(len(subs) == expected, f"{G} plane: {len(subs)} subgroups, golden {expected}")
    for sub in subs:
        delta = gabor.TfLattice(G, sub)
        adj = gabor.adjoint_lattice(delta)
        check(delta.order * adj.order == G.cardinality ** 2,
              f"{G} plane: |Delta| * |adjoint| != |G|^2")
        check(delta.volume * adj.volume == 1, f"{G} plane: vol * vol_adjoint != 1")
    return {"subgroups": len(subs)}


def setup_subgroup_lattice(seed: int) -> Setup:
    golden = json.loads((GOLDEN / "subgroup_counts.json").read_text())
    items = [Item(str(groups.FiniteLcaGroup(o)),
                  partial(_shape_item, o, golden["shapes"][str(groups.FiniteLcaGroup(o))]))
             for o in group_shapes(SUBGROUP_MAX_ORDER)]
    items.append(Item("Z6-plane-adjoints",
                      partial(_plane_adjoint_item, (6,), golden["planes"]["Z6"])))
    return Setup(_seeded_order(items, seed), cold_tables=True)


# --- frame-ladder -------------------------------------------------------------

#: Rungs |G| = 16, 32, 64, one cyclic and one rank-2 shape each, with the
#: time-side subgroup Lambda of the critical separable lattice.
LADDER = (
    ((16,), [(4,)]),
    ((4, 4), [(1, 1)]),
    ((32,), [(4,)]),
    ((2, 16), [(1, 4)]),
    ((64,), [(8,)]),
    ((8, 8), [(1, 2)]),
)
WINDOWS_PER_LATTICE = 4
WINDOWS_FULL_PLANE = 2


def _subgroup_of_order(group, base_gens, candidates, order):
    """First <base_gens + extra> of the given order, extra one or two candidates."""
    for x in candidates:
        sub = groups.enumerate_subgroup(group, list(base_gens) + [x])
        if sub.order == order:
            return sub
    for i, x in enumerate(candidates):
        for y in candidates[i + 1:]:
            sub = groups.enumerate_subgroup(group, list(base_gens) + [x, y])
            if sub.order == order:
                return sub
    raise ValueError(f"no subgroup of order {order} in {group}")


def _ladder_lattices(orders, lam_gens):
    """(family, lattice, Lambda for the Zak route or None) for one shape."""
    G = groups.FiniteLcaGroup(orders)
    card = G.cardinality
    lam = groups.enumerate_subgroup(G, [G.element(c) for c in lam_gens])
    perp = groups.annihilator(lam)
    everything = list(G.elements())
    over2 = _subgroup_of_order(G, lam.generators, everything, 2 * lam.order)
    over4 = _subgroup_of_order(G, lam.generators, everything, 4 * lam.order)
    half_perp = _subgroup_of_order(perp.group, (), list(perp.elements), perp.order // 2)
    chirp = []
    for i in range(G.rank):
        e = tuple(int(i == j) for j in range(G.rank))
        chirp.append((e, e))
    out = [
        ("critical-separable", gabor.TfLattice.separable(lam), lam, Fraction(1)),
        ("critical-chirp", gabor.TfLattice.from_plane_generators(G, chirp), None, Fraction(1)),
        ("over-1/2", gabor.TfLattice.separable(over2, perp), None, Fraction(1, 2)),
        ("over-1/4", gabor.TfLattice.separable(over4, perp), None, Fraction(1, 4)),
        ("under-2", gabor.TfLattice.separable(lam, half_perp), None, Fraction(2)),
    ]
    if card == 64:
        out.append(("full-plane", gabor.TfLattice.full_plane(G), None, Fraction(1, card)))
    for family, delta, _, volume in out:
        if delta.volume != volume:
            raise ValueError(f"{G} {family}: volume {delta.volume}, wanted {volume}")
    return G, out


def _frame_item(delta, lam, g) -> dict:
    card = g.group.cardinality
    adj = gabor.adjoint_lattice(delta)
    check(delta.order * adj.order == card ** 2, "|Delta| * |adjoint| != |G|^2")
    rep = gabor.frame_bounds(g, delta)
    check(rep.is_frame == (delta.volume <= 1),
          f"frame verdict {rep.is_frame} at volume {delta.volume}")
    rec = {"lower": rep.lower, "upper": rep.upper, "is_frame": rep.is_frame,
           "adjoint_order": adj.order}
    h = g
    if rep.is_frame:
        h = gabor.canonical_dual(g, delta)
        wr = gabor.wexler_raz_check(g, h, delta, tol=1e-9, adjoint=adj)
        check(wr.holds, f"Wexler-Raz residual {wr.residual:.3e} > 1e-9")
        bumped = experiments.wexler_raz_flip_perturbation(h, size=1e-3)
        flip = gabor.wexler_raz_check(g, bumped, delta, tol=1e-9, adjoint=adj)
        check(not flip.holds, f"1e-3 bump left Wexler-Raz holding ({flip.residual:.3e})")
        rec.update(wr_residual=wr.residual, flip_residual=flip.residual)
    S = gabor.frame_operator(g, h, delta)
    J = gabor.janssen_operator(g, h, delta, adjoint=adj)
    rec["janssen_defect"] = float(np.max(np.abs(S - J)))
    check(rec["janssen_defect"] <= 1e-10, f"Janssen defect {rec['janssen_defect']:.3e}")
    if lam is not None:
        zr = zak.zak_frame_bounds(g, lam)
        rec["zak_gap"] = max(abs(zr.lower - rep.lower), abs(zr.upper - rep.upper))
        check(rec["zak_gap"] <= 1e-9, f"Zak vs eigen bounds differ by {rec['zak_gap']:.3e}")
        rec["quasiperiodicity"] = zak.quasiperiodicity_residual(zak.zak_transform(g, lam))
        check(rec["quasiperiodicity"] <= 1e-12,
              f"quasiperiodicity residual {rec['quasiperiodicity']:.3e}")
    return rec


def _warm_lattice(delta) -> None:
    """Fill the lattice's cached index arrays so every batch starts alike."""
    _ = delta.x_indices, delta.subgroup.index_array


def setup_frame_ladder(seed: int) -> Setup:
    rng = np.random.default_rng(seed)
    items = []
    for orders, lam_gens in LADDER:
        for name in TABLE_FUNCTIONS:
            # Through the module attribute, so a traced set-up times the builds.
            getattr(groups, name)(orders)
        G, lattices = _ladder_lattices(orders, lam_gens)
        groups.coords_matrix(orders)
        groups.coords_matrix(G.plane().orders)
        for family, delta, lam, _ in lattices:
            _warm_lattice(delta)
            if lam is not None:
                _ = lam.index_array
            count = WINDOWS_FULL_PLANE if family == "full-plane" else WINDOWS_PER_LATTICE
            for w in range(count):
                g = gabor.random_window(G, rng)
                items.append(Item(f"{G}/{family}/w{w}", partial(_frame_item, delta, lam, g)))
    return Setup(_seeded_order(items, seed), cold_tables=False)


# --- transference-adelic ------------------------------------------------------

def _transference_item(g, h, delta, M, d, base_expected) -> dict:
    res = adeles.finite_transference_check(g, h, delta, M, d, tol=1e-9)
    check(res.base_is_dual_pair == base_expected,
          f"base verdict {res.base_is_dual_pair}, known {base_expected}")
    check(res.equivalent, "base and product verdicts differ")
    return {"base": res.base_residual, "product": res.product_residual,
            "verdict": res.product_is_dual_pair}


#: L * M bound of the transference grid.  The full L * M <= 64 grid (1,180
#: instances) takes ~7 s, too long for several batches per run.
TRANSFERENCE_MAX_LM = 32


def _transference_items(rng) -> list[Item]:
    """The L * M <= TRANSFERENCE_MAX_LM grid: five (g, h, Delta) cases per (L, M, d)."""
    items = []
    for L in (2, 3, 4):
        G = groups.FiniteLcaGroup((L,))
        time_axis = gabor.TfLattice.time_axis(G)
        full = gabor.TfLattice.full_plane(G)
        d0 = gabor.delta_window(G)
        rand = gabor.random_window(G, rng)
        cases = (
            ("delta-time", d0, d0, time_axis, True),
            ("delta-zero", d0, gabor.Window(G, np.zeros(L)), time_axis, False),
            ("random-dual", rand, gabor.canonical_dual(rand, time_axis), time_axis, True),
            ("delta-full-scaled", d0, (1.0 / L) * d0, full, True),
            ("delta-full", d0, d0, full, False),
        )
        _warm_lattice(time_axis)
        _warm_lattice(full)
        for M in range(2, TRANSFERENCE_MAX_LM // L + 1):
            for d in range(1, M + 1):
                if M % d:
                    continue
                for name, g, h, delta, expected in cases:
                    items.append(Item(f"L{L}-M{M}-d{d}-{name}",
                                      partial(_transference_item, g, h, delta, M, d, expected)))
    return items


ADELIC_PLACES = (2, 3)
ADELIC_ITEMS = ((2, 8), (4, 8), (6, 8), (8, 8))  # (n, items)


def _z_s_fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), 2 ** int(rng.integers(0, 3)) * 3 ** int(rng.integers(0, 2)))


def _random_invertible(rng, n: int) -> padic.RationalMatrix:
    while True:
        m = padic.RationalMatrix.from_rows(rng.integers(-3, 4, size=(n, n)).tolist())
        if m.det != 0:
            return m


def _random_unit(rng, n: int) -> padic.RationalMatrix:
    """L * D * U with L, U unitriangular over Z(S) and D diagonal of S-units."""
    lower = [[Fraction(int(i == j)) if i <= j else _z_s_fraction(rng) for j in range(n)]
             for i in range(n)]
    upper = [[Fraction(int(i == j)) if i >= j else _z_s_fraction(rng) for j in range(n)]
             for i in range(n)]
    diag = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        sign = 1 if rng.integers(2) else -1
        diag[i][i] = sign * Fraction(2) ** int(rng.integers(-2, 3)) * Fraction(3) ** int(rng.integers(-1, 2))
    return (padic.RationalMatrix.from_rows(lower) @ padic.RationalMatrix.from_rows(diag)
            @ padic.RationalMatrix.from_rows(upper))


def _adelic_item(place_set, a, b, unit, non_unit, q) -> dict:
    lhs = adeles.global_modular(a.compose(b))
    rhs = adeles.global_modular(a) * adeles.global_modular(b)
    check(lhs.archimedean == rhs.archimedean and lhs.finite == rhs.finite,
          "modular value is not multiplicative on compose")
    lattice = adeles.AdeleLattice(a)

    def moved(r):
        change = adeles.AdeleAutomorphism(place_set, r, {p: r for p in place_set})
        return adeles.AdeleLattice(a.compose(change))

    check(adeles.lattice_equality(lattice, moved(unit)),
          "lattice changed by a GL_n(Z(S)) basis change")
    check(not adeles.lattice_equality(lattice, moved(non_unit)),
          "lattice unchanged by a basis change outside GL_n(Z(S))")
    x = lattice.element(q)
    member = adeles.lattice_membership(x, lattice)
    check(member.is_member, "lattice point not recognised as a member")
    check(lattice.element(member.witness) == x, "membership witness does not map to the point")
    p0 = place_set.primes[0]
    shifted = tuple(v + (1 if i == 0 else 0) for i, v in enumerate(x.component(p0)))
    outside = adeles.AdeleVector.create(place_set, x.at_infinity,
                                        {p: (shifted if p == p0 else x.component(p))
                                         for p in place_set})
    check(not adeles.lattice_membership(outside, lattice).is_member,
          "vector with a shifted finite component recognised as a member")
    return {"modular": str(lhs.value), "witness": [str(v) for v in member.witness]}


def _adelic_items(rng) -> list[Item]:
    place_set = adeles.PlaceSet(ADELIC_PLACES)
    items = []
    for n, count in ADELIC_ITEMS:
        for k in range(count):
            def auto():
                return adeles.AdeleAutomorphism(
                    place_set, _random_invertible(rng, n), {2: _random_invertible(rng, n)})
            a, b = auto(), auto()
            unit = _random_unit(rng, n)
            five = padic.RationalMatrix.from_rows(
                [[5 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
            q = [_z_s_fraction(rng) for _ in range(n)]
            items.append(Item(f"adelic-n{n}-{k}",
                              partial(_adelic_item, place_set, a, b, unit, five @ unit, q)))
    return items


def setup_transference_adelic(seed: int) -> Setup:
    rng = np.random.default_rng(seed)
    items = _transference_items(rng) + _adelic_items(rng)
    return Setup(_seeded_order(items, seed), cold_tables=True)


SETUPS = {
    "subgroup-lattice": setup_subgroup_lattice,
    "frame-ladder": setup_frame_ladder,
    "transference-adelic": setup_transference_adelic,
}
