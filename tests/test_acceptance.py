"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line with its measured numbers (run with -s to see them live)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import gabor_lca as gl
from gabor_lca import adeles, experiments as ex
from gabor_lca.adeles import (
    AdeleAutomorphism,
    AdeleLattice,
    PlaceSet,
    finite_transference_check,
)
from gabor_lca.gabor import TfLattice, Window
from gabor_lca.groups import FiniteLcaGroup
from gabor_lca.padic import RationalMatrix
from oracles import base_side_by_vectors, product_side_by_plane_scan, shapes_up_to


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_janssen_oracle():
    t0 = time.perf_counter()
    defect = ex.janssen_max_defect(100, seed=0, max_card=36)
    elapsed = time.perf_counter() - t0
    ok = defect <= 1e-10 and elapsed < 10.0
    report(1, ok, f"janssen max-entry defect {defect:.3e} <= 1e-10 over 100 seeded "
                  f"instances in {elapsed:.2f}s (< 10s)")


def test_criterion_02_adjoint_cardinality_z6_plane():
    G = FiniteLcaGroup((6,))
    t0 = time.perf_counter()
    subgroups = gl.all_subgroups(G.plane())
    bad = 0
    for sub in subgroups:
        delta = TfLattice(G, sub)
        adj = gl.adjoint_lattice(delta)
        if delta.order * adj.order != 36:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    report(2, ok, f"|Delta| * |adjoint| == 36 exactly for all {len(subgroups)} subgroups "
                  f"of the Z6 plane in {elapsed:.2f}s (< 5s)")


def test_criterion_03_volume_duality_exact():
    shapes = shapes_up_to(64)
    t0 = time.perf_counter()
    checked = 0
    for orders in shapes:
        G = FiniteLcaGroup(orders)
        for H in gl.all_subgroups(G):
            ann = gl.annihilator(H)
            assert gl.lattice_volume(H) * gl.lattice_volume(ann) == 1
            assert H.order * ann.order == G.cardinality
            checked += 1
    elapsed = time.perf_counter() - t0
    report(3, True, f"vol * vol_perp == 1 exactly for {checked} subgroups across "
                    f"{len(shapes)} group shapes with |G| <= 64 ({elapsed:.1f}s)")


def test_criterion_04_density_theorem_exhaustive():
    t0 = time.perf_counter()
    ok = True
    counts = []
    for orders in [(4,), (2, 2)]:
        rep = ex.density_exhaustive(FiniteLcaGroup(orders), windows_per_lattice=20, seed=0)
        ok = ok and rep.assertions["no_frame_above_volume_one"]
        counts.append(rep.summary["subgroups"])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(4, ok, f"no frame with vol > 1 over {counts[0]} Z4-plane and {counts[1]} "
                  f"Z2xZ2-plane subgroups, 20 windows each, in {elapsed:.1f}s (< 30s)")


def test_criterion_05_wexler_raz_dual_frames():
    worst = 0.0
    flipped = 0
    n = 0
    for g, delta in ex.seeded_frame_instances(50, seed=0, max_card=36):
        h = gl.canonical_dual(g, delta)
        adj = gl.adjoint_lattice(delta)
        result = gl.wexler_raz_check(g, h, delta, tol=1e-9, adjoint=adj)
        assert result.holds
        worst = max(worst, result.residual)
        bumped = ex.wexler_raz_flip_perturbation(h, size=1e-3)
        if not gl.wexler_raz_check(g, bumped, delta, tol=1e-9, adjoint=adj).holds:
            flipped += 1
        n += 1
    ok = worst <= 1e-9 and flipped == n
    report(5, ok, f"canonical duals pass Wexler-Raz on {n} seeded frames "
                  f"(worst residual {worst:.3e} <= 1e-9); 1e-3 bump flipped "
                  f"{flipped}/{n} verdicts")


def test_criterion_06_onb_constructions():
    # (a) delta over the time axis of Z/8
    G8 = FiniteLcaGroup((8,))
    g, delta = gl.standard_onb(G8)
    d_a = float(np.max(np.abs(gl.frame_operator(g, g, delta) - np.eye(8))))
    # (b) finite-index lift on Z/4
    G4 = FiniteLcaGroup((4,))
    H = gl.enumerate_subgroup(G4, [G4.element((2,))])
    lifted, lat_b = gl.lift_finite_index(G4, H, [1.0, 0.0])
    d_b = float(np.max(np.abs(gl.frame_operator(lifted, lifted, lat_b) - np.eye(4))))
    # (c) tensor product on Z/2 x Z/3
    g2, dl2 = gl.standard_onb(FiniteLcaGroup((2,)))
    g3, dl3 = gl.standard_onb(FiniteLcaGroup((3,)))
    tens, lat_c = gl.tensor_onb(g2, dl2, g3, dl3)
    d_c = float(np.max(np.abs(gl.frame_operator(tens, tens, lat_c) - np.eye(6))))
    ok = max(d_a, d_b, d_c) <= 1e-12
    report(6, ok, f"frame operator identity defects: time-axis {d_a:.2e}, "
                  f"finite-index lift {d_b:.2e}, tensor {d_c:.2e} (all <= 1e-12)")


def test_criterion_07_balian_low_trend():
    t0 = time.perf_counter()
    rep = ex.critical_density_trend([2, 3, 4, 5])
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 20.0
    conds = [row[6] for row in rep.rows if row[2] == "critical"]
    zmins = [row[7] for row in rep.rows if row[2] == "critical"]
    report(7, ok, f"critical B/A strictly increases {[f'{c:.2f}' for c in conds]}, "
                  f"zak minima strictly decrease {[f'{z:.3f}' for z in zmins]}, "
                  f"control stays within factor 2, in {elapsed:.1f}s (< 20s)")


def test_criterion_08_zak_consistency():
    worst_gap = 0.0
    worst_residual = 0.0
    for g, lam in ex.seeded_zak_instances(50, seed=0, max_card=64):
        grid = gl.zak_transform(g, lam)
        worst_residual = max(worst_residual, gl.quasiperiodicity_residual(grid))
        zak_rep = gl.zak_frame_bounds(g, lam)
        eig_rep = gl.frame_bounds(g, TfLattice.separable(lam))
        worst_gap = max(worst_gap, abs(zak_rep.lower - eig_rep.lower),
                        abs(zak_rep.upper - eig_rep.upper))
    ok = worst_gap <= 1e-9 and worst_residual <= 1e-12
    report(8, ok, f"zak vs eigenvalue bounds agree to {worst_gap:.3e} (<= 1e-9) and "
                  f"quasiperiodicity residual {worst_residual:.3e} (<= 1e-12) "
                  f"on 50 seeded critical instances")


def test_criterion_09_padic_adelic_arithmetic():
    rng = np.random.default_rng(0)
    # product formula, exact, 200 seeded rationals
    for _ in range(200):
        num = int(rng.integers(-10 ** 6, 10 ** 6)) or 1
        den = int(rng.integers(1, 10 ** 4))
        q = Fraction(num, den)
        support = set()
        for n in (q.numerator, q.denominator):
            n, d = abs(n), 2
            while d * d <= n:
                if n % d == 0:
                    support.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                support.add(n)
        product = abs(q)
        for p in support:
            product *= gl.padic_abs(q, p)
        assert product == 1
    # modular homomorphism, exact
    S = PlaceSet((2, 3))
    for _ in range(20):
        def rand_auto():
            while True:
                rows = rng.integers(-4, 5, size=(2, 2)).tolist()
                try:
                    a_inf = RationalMatrix.from_rows(rows)
                    if a_inf.det == 0:
                        continue
                    return AdeleAutomorphism(
                        S, a_inf, {2: a_inf.inverse(), 3: RationalMatrix.identity(2)})
                except ValueError:
                    continue
        a, b = rand_auto(), rand_auto()
        lhs = adeles.global_modular(a.compose(b))
        rhs = adeles.global_modular(a) * adeles.global_modular(b)
        assert lhs.archimedean == rhs.archimedean and lhs.finite == rhs.finite
    # the multiplication-by-3 example
    S3 = PlaceSet((3,))
    three = RationalMatrix.from_rows([[3]])
    alpha = AdeleAutomorphism(S3, three, {3: three})
    mv = adeles.global_modular(alpha)
    base = AdeleLattice.standard(1, S3)
    moved = AdeleLattice(alpha.compose(base.automorphism))
    ok = (mv.value == Fraction(1)
          and adeles.lattice_volume(moved) == adeles.lattice_volume(base) == 1
          and adeles.lattice_equality(moved, base))
    report(9, ok, "product formula exact on 200 rationals; modular homomorphism exact; "
                  "S={3}, A_inf=A_3=3 has modular value exactly 1 and fixes the lattice")


def test_criterion_10_transference_exhaustive():
    t0 = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(0)
    instances = 0
    for L in (2, 3, 4):
        G = FiniteLcaGroup((L,))
        delta_time = TfLattice.time_axis(G)
        delta_full = TfLattice.full_plane(G)
        d0 = gl.delta_window(G)
        zero = Window(G, np.zeros(L))
        rand = gl.random_window(G, rng)
        rand_dual = gl.canonical_dual(rand, delta_time)
        cases = [
            (d0, d0, delta_time),
            (d0, zero, delta_time),
            (rand, rand_dual, delta_time),
            (d0, 1.0 / L * d0, delta_full),
            (d0, d0, delta_full),
        ]
        for M in range(2, 64 // L + 1):
            for d in range(1, M + 1):
                if M % d != 0:
                    continue
                for g, h, delta1 in cases:
                    result = finite_transference_check(g, h, delta1, M, d, tol=tol)
                    assert result.base_is_dual_pair == base_side_by_vectors(g, h, delta1, tol)
                    assert result.product_is_dual_pair == product_side_by_plane_scan(
                        g, h, delta1, M, d, tol)
                    assert result.equivalent
                    instances += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(10, ok, f"transference verdicts match the independent full-plane brute force "
                   f"on all {instances} instances with L*M <= 64 in {elapsed:.1f}s (< 60s)")


def test_criterion_11_deformation_margin_closed_form():
    rng = np.random.default_rng(0)
    checked = 0
    S = PlaceSet(())
    worst = 0.0
    for n in (1, 2):
        dim = 2 * n
        eye = RationalMatrix.identity(dim)
        assert adeles.deformation_margin(AdeleLattice(AdeleAutomorphism(S, eye))) == 0.0
        checked += 1
        for _ in range(9):
            num = int(rng.integers(1, 12))
            den = int(rng.integers(num, 24))
            vol = Fraction(num, den)  # <= 1
            rows = [[vol if i == j == 0 else Fraction(int(i == j)) for j in range(dim)]
                    for i in range(dim)]
            lattice = AdeleLattice(AdeleAutomorphism(S, RationalMatrix.from_rows(rows)))
            got = adeles.deformation_margin(lattice)
            expected = math.exp(math.log(float(1 / vol)) / dim) - 1.0
            if vol == 1:
                assert got == 0.0
            worst = max(worst, abs(got - expected))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
            checked += 1
    report(11, True, f"deformation margin matches the closed form on {checked} "
                     f"rational-volume cases (worst gap {worst:.2e}); exactly 0 at vol 1")
