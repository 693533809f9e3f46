import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gabor_lca as gl
from gabor_lca.experiments import (
    random_group,
    random_plane_lattice,
    random_subgroup,
    seeded_frame_instances,
    seeded_janssen_instances,
)
from gabor_lca.gabor import (
    NotAFrameError,
    TfLattice,
    Window,
    WindowNotOnbError,
    _adjoint_coefficients,
    _product_lattice,
    _system_columns,
    _walnut_blocks,
    compact_open_surrogate,
)
from gabor_lca.groups import (
    FiniteLcaGroup,
    GroupShapeError,
    Subgroup,
    _coset_minima,
    _greedy_generators,
    _joined_minima,
    add_index_table,
    char_table,
    pair_exponent_table,
    sub_index_table,
)
from oracles import (
    Z,
    adjoint_full_scan,
    assert_kernel_matches,
    coefficients_by_shifts,
    commutation_exponent_by_coords,
    frame_operator_by_columns,
    lift_defect_by_elements,
    product_by_points,
    product_indices_by_points,
    push_by_characters,
    quotient_defect_by_elements,
    separable_by_points,
    symmetrized_delta_side,
    wexler_raz_residual_by_shifts,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


def identity_defect(S):
    return float(np.max(np.abs(S - np.eye(S.shape[0]))))


def assert_verdict_flips_at(call, defect, message):
    """The Gram check of ``call(tol)`` whose error starts with ``message``
    passes just above ``defect`` and fails just below it."""
    try:
        call(defect * (1 + 1e-9) + 1e-12)
    except WindowNotOnbError as exc:
        assert not str(exc).startswith(message), exc
    if defect > 1e-9:
        with pytest.raises(WindowNotOnbError, match="^" + message):
            call(defect * (1 - 1e-9))


class TestWindowsAndFourier:
    def test_norm_uses_weight(self):
        G = Z(4)
        assert gl.delta_window(G).norm() == pytest.approx(1.0)
        u = gl.constant_window(G.dual())
        assert u.norm() == pytest.approx(1.0)  # 4 points of mass 1/4

    def test_fourier_of_delta_is_constant(self):
        G = Z(5)
        fhat = gl.fourier_transform(gl.delta_window(G))
        assert fhat.group == G.dual()
        assert np.allclose(fhat.values, 1.0)

    def test_fourier_of_constant_is_scaled_delta(self):
        G = Z(6)
        fhat = gl.fourier_transform(gl.constant_window(G))
        expected = np.zeros(6, dtype=complex)
        expected[0] = 6.0
        assert np.allclose(fhat.values, expected, atol=1e-12)

    def test_plancherel_random(self):
        G = Z(6)
        f = gl.random_window(G, rng_for(0))
        fhat = gl.fourier_transform(f)
        assert fhat.norm() == pytest.approx(f.norm(), rel=1e-12)

    def test_fourier_round_trip(self):
        G = Z(3, 4)
        f = gl.random_window(G, rng_for(1))
        back = gl.inverse_fourier_transform(gl.fourier_transform(f))
        assert back.group == G
        assert np.allclose(back.values, f.values, atol=1e-13)

    def test_window_requires_finite_values(self):
        with pytest.raises(ValueError):
            Window(Z(2), np.array([np.nan, 1.0]))

    def test_window_refuses_overflowing_norm(self):
        for vals in ([1e200, 1, 0, 0], [1e308, 1e308, 0, 0]):
            with pytest.raises(ValueError, match="norm"):
                Window(Z(4), np.array(vals))


class TestTfShift:
    def test_zero_shift_is_identity(self):
        G = Z(4)
        f = gl.random_window(G, rng_for(2))
        out = gl.tf_shift(G.zero(), G.dual().zero(), f)
        assert np.allclose(out.values, f.values)

    def test_shift_of_delta(self):
        G = Z(4)
        for x in G.elements():
            for om in G.dual().elements():
                out = gl.tf_shift(x, om, gl.delta_window(G))
                expected = np.zeros(4, dtype=complex)
                expected[x.index] = gl.pairing(om, x)
                assert np.allclose(out.values, expected, atol=1e-14)

    def test_unitary(self):
        G = Z(2, 3)
        f = gl.random_window(G, rng_for(3))
        z = G.plane().element((1, 2, 1, 1))
        assert gl.tf_shift_plane(z, f).norm() == pytest.approx(f.norm(), rel=1e-12)

    def test_shape_check(self):
        G, H = Z(4), Z(5)
        with pytest.raises(GroupShapeError):
            gl.tf_shift(H.element((1,)), G.dual().element((0,)), gl.delta_window(G))

    def test_matches_table_gather_oracle(self):
        # Oracle: the character-table row times the window gathered through
        # the subtraction table, bit for bit.
        rng = rng_for(4)
        for _ in range(300):
            G = random_group(rng, 64)
            f = gl.random_window(G, rng)
            x = G.element_by_index(int(rng.integers(G.cardinality)))
            omega = G.dual().element_by_index(int(rng.integers(G.cardinality)))
            table = char_table(G.orders)[omega.index, :] \
                * f.values[sub_index_table(G.orders)[:, x.index]]
            assert np.array_equal(gl.tf_shift(x, omega, f).values, table)


class TestCommutation:
    def test_self_defect_is_one(self):
        G = Z(6)
        z = G.plane().element((2, 3))
        assert gl.commutation_defect(z, z) == pytest.approx(1.0)

    def test_z4_noncommuting_pair(self):
        G = Z(4)
        plane = G.plane()
        z = plane.element((1, 0))
        w = plane.element((0, 1))
        assert gl.commutation_defect(z, w) == pytest.approx(1j)

    def test_antisymmetry(self):
        G = Z(3, 4)
        plane = G.plane()
        rng = rng_for(4)
        for _ in range(20):
            z = plane.element_by_index(int(rng.integers(plane.cardinality)))
            w = plane.element_by_index(int(rng.integers(plane.cardinality)))
            prod = gl.commutation_defect(z, w) * gl.commutation_defect(w, z)
            assert prod == pytest.approx(1.0)

    def test_defect_detects_commutation_of_matrices(self):
        G = Z(4)
        plane = G.plane()
        rng = rng_for(5)
        f = gl.random_window(G, rng)
        for _ in range(10):
            z = plane.element_by_index(int(rng.integers(plane.cardinality)))
            w = plane.element_by_index(int(rng.integers(plane.cardinality)))
            zw = gl.tf_shift_plane(z, gl.tf_shift_plane(w, f))
            wz = gl.tf_shift_plane(w, gl.tf_shift_plane(z, f))
            commutes = np.allclose(zw.values, wz.values, atol=1e-12)
            assert commutes == (abs(gl.commutation_defect(z, w) - 1) < 1e-12)


    @pytest.mark.parametrize("orders", [(4,), (6,), (2, 2), (3, 4)])
    def test_exponent_matches_coordinate_loop(self, orders):
        points = list(FiniteLcaGroup(orders).plane().elements())
        for z in points:
            for w in points:
                assert gl.gabor.commutation_exponent(z, w) == commutation_exponent_by_coords(z, w)


class TestAdjointLattice:
    def test_self_adjoint_example(self):
        G = Z(4)
        delta = TfLattice.from_plane_generators(G, [((2,), (0,)), ((0,), (2,))])
        adj = gl.adjoint_lattice(delta)
        assert adj.subgroup == delta.subgroup

    def test_full_plane_of_z2(self):
        G = Z(2)
        adj = gl.adjoint_lattice(TfLattice.full_plane(G))
        assert adj.order == 1

    def test_involution_and_counting_z6(self):
        G = Z(6)
        for sub in gl.all_subgroups(G.plane()):
            delta = TfLattice(G, sub)
            adj = gl.adjoint_lattice(delta)
            assert delta.order * adj.order == 36
            assert gl.adjoint_lattice(adj).subgroup == delta.subgroup
            assert adj.volume == 1 / delta.volume

    @pytest.mark.parametrize("orders", [(4,), (6,), (2, 2)])
    def test_generator_scan_matches_full_scan(self, orders):
        G = FiniteLcaGroup(orders)
        for sub in gl.all_subgroups(G.plane()):
            delta = TfLattice(G, sub)
            fast = gl.adjoint_lattice(delta).subgroup
            slow = adjoint_full_scan(delta).subgroup
            assert [z.coords for z in fast.elements] == [z.coords for z in slow.elements]


class TestStftAndS0:
    def test_stft_of_deltas(self):
        G = Z(4)
        V = gl.stft(gl.delta_window(G), gl.delta_window(G))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, :] = 1.0
        assert np.allclose(V, expected, atol=1e-14)

    def test_moyal_identity(self):
        G = Z(6)
        rng = rng_for(6)
        f, g = gl.random_window(G, rng), gl.random_window(G, rng)
        V = gl.stft(f, g)
        mass = float((np.abs(V) ** 2).sum()) / G.cardinality
        assert mass == pytest.approx((f.norm() * g.norm()) ** 2, rel=1e-12)

    def test_covariance_modulus(self):
        G = Z(8)
        rng = rng_for(7)
        f, g = gl.random_window(G, rng), gl.random_window(G, rng)
        z = G.plane().element((3, 5))
        V0 = np.abs(gl.stft(f, g))
        V1 = np.abs(gl.stft(gl.tf_shift_plane(z, f), g))
        rolled = np.roll(np.roll(V0, 3, axis=0), 5, axis=1)
        assert np.allclose(V1, rolled, atol=1e-12)

    def test_s0_norm_of_delta(self):
        for n in (3, 5, 8):
            G = Z(n)
            d = gl.delta_window(G)
            assert gl.s0_norm(d, d) == pytest.approx(1.0, rel=1e-12)

    def test_s0_homogeneity(self):
        G = Z(6)
        rng = rng_for(8)
        f, g = gl.random_window(G, rng), gl.random_window(G, rng)
        assert gl.s0_norm(2.5j * f, g) == pytest.approx(2.5 * gl.s0_norm(f, g), rel=1e-12)

    def test_s0_zero_reference_rejected(self):
        G = Z(4)
        with pytest.raises(ValueError):
            gl.s0_norm(gl.delta_window(G), Window(G, np.zeros(4)))

    def test_two_window_equivalence_constants_z8(self):
        # c ||f||_{g2} <= ||f||_{g1} <= C ||f||_{g2} with
        # c = ||g1||^2 / ||g2||_{S0,g1} and C = ||g1||_{S0,g2} / ||g2||^2.
        G = Z(8)
        rng = rng_for(9)
        g1, g2 = gl.random_window(G, rng), gl.random_window(G, rng)
        c = g1.norm() ** 2 / gl.s0_norm(g2, g1)
        C = gl.s0_norm(g1, g2) / g2.norm() ** 2
        for _ in range(25):
            f = gl.random_window(G, rng)
            n1, n2 = gl.s0_norm(f, g1), gl.s0_norm(f, g2)
            assert c * n2 <= n1 * (1 + 1e-10)
            assert n1 <= C * n2 * (1 + 1e-10)


class TestFrameOperator:
    def test_time_axis_onb(self):
        G = Z(4)
        g, delta = gl.standard_onb(G)
        assert identity_defect(gl.frame_operator(g, g, delta)) < 1e-14

    def test_full_plane_z2_is_twice_identity(self):
        G = Z(2)
        d0 = gl.delta_window(G)
        S = gl.frame_operator(d0, d0, TfLattice.full_plane(G))
        assert np.allclose(S, 2 * np.eye(2), atol=1e-14)

    def test_rank_bound(self):
        G = Z(6)
        rng = rng_for(10)
        g = gl.random_window(G, rng)
        delta = TfLattice.from_plane_generators(G, [((2,), (3,))])
        S = gl.frame_operator(g, g, delta)
        assert np.linalg.matrix_rank(S, tol=1e-10) <= delta.order

    def test_commutes_with_lattice_shifts(self):
        G = Z(6)
        rng = rng_for(11)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        delta = TfLattice.from_plane_generators(G, [((1,), (2,)), ((3,), (0,))])
        S = gl.frame_operator(g, h, delta)
        for z in delta.elements:
            P = np.column_stack([
                gl.tf_shift_plane(z, Window(G, np.eye(6)[:, j])).values for j in range(6)])
            assert np.max(np.abs(S @ P - P @ S)) < 1e-10

    def test_full_plane_memory_is_the_diagonal(self):
        """On the Z64 full plane Gamma_0_perp = {0}, so S is 64 blocks of size 1;
        the sum over Delta's 4,096 columns peaks at 14 MB."""
        G = Z(64)
        rng = rng_for(16)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        delta = TfLattice.full_plane(G)
        gl.frame_operator(g, h, delta)  # the lattice's Walnut structure and G's tables
        tracemalloc.start()
        try:
            S = gl.frame_operator(g, h, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(S - np.diag(np.diag(S))) == 0
        assert peak < 2**20

    def test_bilinearity(self):
        G = Z(5)
        rng = rng_for(12)
        g, h1, h2 = (gl.random_window(G, rng) for _ in range(3))
        delta = TfLattice.from_plane_generators(G, [((1,), (1,))])
        S = gl.frame_operator(g, h1 + h2, delta)
        assert np.allclose(S, gl.frame_operator(g, h1, delta) + gl.frame_operator(g, h2, delta),
                           atol=1e-12)


class TestJanssen:
    def test_random_z6_instances(self):
        G = Z(6)
        rng = rng_for(13)
        for _ in range(10):
            g, h = gl.random_window(G, rng), gl.random_window(G, rng)
            plane = G.plane()
            gens = [plane.element_by_index(int(rng.integers(plane.cardinality)))
                    for _ in range(2)]
            delta = TfLattice(G, gl.enumerate_subgroup(plane, gens))
            S = gl.frame_operator(g, h, delta)
            J = gl.janssen_operator(g, h, delta)
            assert np.max(np.abs(S - J)) < 1e-10

    def test_full_plane_z2_example(self):
        G = Z(2)
        d0 = gl.delta_window(G)
        delta = TfLattice.full_plane(G)
        J = gl.janssen_operator(d0, d0, delta)
        assert np.allclose(J, 2 * np.eye(2), atol=1e-14)

    def test_diagonal_lattice_distinguishes_coefficient_orientation(self):
        # On the diagonal of the Z/2 plane the transposed coefficient
        # convention produces the wrong off-diagonal sign.
        G = Z(2)
        delta = TfLattice.from_plane_generators(G, [((1,), (1,))])
        g = Window(G, np.array([1.0, 1.0j]) / math.sqrt(2))
        S = gl.frame_operator(g, g, delta)
        J = gl.janssen_operator(g, g, delta)
        assert np.max(np.abs(S - J)) < 1e-14
        assert abs(S[0, 1]) > 0.5  # the off-diagonal entry is actually exercised

    def test_operator_norm_bound(self):
        G = Z(6)
        rng = rng_for(14)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        delta = TfLattice.from_plane_generators(G, [((2,), (0,)), ((0,), (3,))])
        adj = gl.adjoint_lattice(delta)
        J = gl.janssen_operator(g, h, delta)
        bound = sum(abs(h.inner(gl.tf_shift_plane(z, g))) for z in adj.elements)
        bound /= float(delta.volume)
        assert np.linalg.norm(J, 2) <= bound + 1e-12

    def test_weighted_group(self):
        # identity also holds for non-counting Haar normalizations
        G = FiniteLcaGroup((6,), Fraction(1, 3))
        rng = rng_for(15)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        delta = TfLattice.from_plane_generators(G, [((1,), (4,))])
        assert np.max(np.abs(gl.frame_operator(g, h, delta)
                             - gl.janssen_operator(g, h, delta))) < 1e-12


class TestFrameBounds:
    def test_onb_bounds(self):
        G = Z(4)
        g, delta = gl.standard_onb(G)
        report = gl.frame_bounds(g, delta)
        assert report.lower == pytest.approx(1.0, abs=1e-12)
        assert report.upper == pytest.approx(1.0, abs=1e-12)
        assert report.is_frame and report.condition == pytest.approx(1.0)

    def test_rank_deficient_not_frame(self):
        G = Z(4)
        rng = rng_for(16)
        delta = TfLattice.from_plane_generators(G, [((2,), (2,))])
        assert delta.order < 4
        report = gl.frame_bounds(gl.random_window(G, rng), delta)
        assert report.lower == pytest.approx(0.0, abs=1e-12)
        assert not report.is_frame

    def test_full_plane_z2(self):
        G = Z(2)
        report = gl.frame_bounds(gl.delta_window(G), TfLattice.full_plane(G))
        assert (report.lower, report.upper) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_invariance_under_lattice_shift_of_window(self):
        G = Z(6)
        rng = rng_for(17)
        g = gl.random_window(G, rng)
        delta = TfLattice.from_plane_generators(G, [((2,), (1,))])
        base = gl.frame_bounds(g, delta)
        for z in delta.elements:
            moved = gl.frame_bounds(gl.tf_shift_plane(z, g), delta)
            assert moved.lower == pytest.approx(base.lower, abs=1e-10)
            assert moved.upper == pytest.approx(base.upper, abs=1e-10)

    def test_zero_window_rejected(self):
        G = Z(4)
        with pytest.raises(ValueError):
            gl.frame_bounds(Window(G, np.zeros(4)), TfLattice.time_axis(G))


class TestWexlerRaz:
    def test_normalization_calibration(self):
        """Brute-force resolution of the kappa ambiguity: on lattices of
        non-unit volume with a known dual pair, only kappa = vol(Delta) works;
        the reciprocal fails by orders of magnitude."""
        for G, delta in [
            (Z(2), TfLattice.full_plane(Z(2))),
            (Z(4), TfLattice.full_plane(Z(4))),
            (Z(4), TfLattice.separable(gl.enumerate_subgroup(Z(4), [Z(4).element((1,))]),
                                       gl.full_subgroup(Z(4).dual()))),
        ]:
            g = gl.delta_window(G)
            h = gl.canonical_dual(g, delta)
            adj = gl.adjoint_lattice(delta)
            vol = float(delta.volume)
            assert vol != 1.0
            resid_vol = max(abs(g.inner(gl.tf_shift_plane(z, h)) - (vol if z.is_zero() else 0))
                            for z in adj.elements)
            resid_inv = max(abs(g.inner(gl.tf_shift_plane(z, h)) - (1 / vol if z.is_zero() else 0))
                            for z in adj.elements)
            assert resid_vol < 1e-12
            assert resid_inv > 0.1

    def test_onb_case(self):
        G = Z(4)
        g, delta = gl.standard_onb(G)
        result = gl.wexler_raz_check(g, g, delta)
        assert result.holds and result.residual < 1e-12 and result.kappa == 1.0

    def test_canonical_dual_passes(self):
        G = Z(6)
        rng = rng_for(18)
        g = gl.random_window(G, rng)
        delta = TfLattice.separable(gl.enumerate_subgroup(G, [G.element((2,))]))
        h = gl.canonical_dual(g, delta)
        assert gl.wexler_raz_check(g, h, delta).holds

    def test_synthesis_window_on_another_group_refused(self):
        # the same four values on Z2xZ2 are no window of a system over Z4
        G = Z(4)
        g = gl.random_window(G, rng_for(31))
        h = Window(Z(2, 2), g.values)
        delta = TfLattice.time_axis(G)
        for call in (gl.wexler_raz_check, gl.janssen_operator, gl.frame_operator):
            with pytest.raises(GroupShapeError):
                call(g, h, delta)

    def test_undersampled_delta_pair_fails(self):
        G = Z(4)
        d0 = gl.delta_window(G)
        delta = TfLattice.from_plane_generators(G, [((2,), (0,))])
        assert delta.volume > 1
        assert not gl.wexler_raz_check(d0, d0, delta).holds

    def test_equivalence_with_identity_frame_operator(self):
        G = Z(6)
        rng = rng_for(19)
        delta = TfLattice.separable(gl.enumerate_subgroup(G, [G.element((3,))]))
        for _ in range(10):
            g, h = gl.random_window(G, rng), gl.random_window(G, rng)
            S = gl.frame_operator(g, h, delta)
            is_identity = identity_defect(S) <= 1e-9
            assert gl.wexler_raz_check(g, h, delta).holds == is_identity
            if gl.frame_bounds(g, delta).is_frame:
                hd = gl.canonical_dual(g, delta)
                assert gl.wexler_raz_check(g, hd, delta).holds


    def test_residual_matches_shift_oracle(self):
        for g, h, delta in seeded_janssen_instances(20, seed=21, max_card=24):
            residual = gl.wexler_raz_check(g, h, delta).residual
            assert abs(residual - wexler_raz_residual_by_shifts(g, h, delta)) <= 1e-12
        for g, delta in seeded_frame_instances(10, seed=22, max_card=24):
            h = gl.canonical_dual(g, delta)
            result = gl.wexler_raz_check(g, h, delta)
            assert result.holds
            assert abs(result.residual - wexler_raz_residual_by_shifts(g, h, delta)) <= 1e-12


class TestAdjointCoefficients:
    def test_weighted_group(self):
        G = FiniteLcaGroup((2, 4), Fraction(1, 5))
        rng = rng_for(24)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        delta = TfLattice.from_plane_generators(G, [((1, 0), (0, 2)), ((0, 1), (1, 1))])
        adj = gl.adjoint_lattice(delta)
        fast = _adjoint_coefficients(g, h, adj)
        assert np.max(np.abs(fast - coefficients_by_shifts(g, h, adj))) <= 1e-12


class TestCanonicalDual:
    def test_onb_is_self_dual(self):
        G = Z(4)
        g, delta = gl.standard_onb(G)
        h = gl.canonical_dual(g, delta)
        assert np.allclose(h.values, g.values, atol=1e-12)

    def test_reconstruction_identity(self):
        G = Z(6)
        rng = rng_for(20)
        delta = TfLattice.separable(gl.enumerate_subgroup(G, [G.element((2,))]))
        g = gl.random_window(G, rng)
        h = gl.canonical_dual(g, delta)
        assert identity_defect(gl.frame_operator(g, h, delta)) < 1e-10

    def test_commutes_with_lattice_shifts(self):
        G = Z(6)
        rng = rng_for(21)
        delta = TfLattice.separable(gl.enumerate_subgroup(G, [G.element((3,))]))
        g = gl.random_window(G, rng)
        h = gl.canonical_dual(g, delta)
        for z in delta.elements:
            moved = gl.canonical_dual(gl.tf_shift_plane(z, g), delta)
            assert np.allclose(moved.values, gl.tf_shift_plane(z, h).values, atol=1e-9)

    def test_not_a_frame_raises(self):
        G = Z(4)
        delta = TfLattice.from_plane_generators(G, [((2,), (0,))])
        with pytest.raises(NotAFrameError):
            gl.canonical_dual(gl.delta_window(G), delta)


class TestDensityCheck:
    def test_critical(self):
        G = Z(4)
        verdict = gl.density_check(gl.standard_onb(G)[1])
        assert verdict.volume == 1 and verdict.frame_possible

    def test_impossible(self):
        G = Z(4)
        delta = TfLattice.from_plane_generators(G, [((2,), (0,))])
        verdict = gl.density_check(delta)
        assert verdict.volume == 2 and not verdict.frame_possible
        assert "impossible" in verdict.message

    def test_exhaustive_z4_no_frame_above_one(self):
        G = Z(4)
        rng = rng_for(22)
        for sub in gl.all_subgroups(G.plane()):
            delta = TfLattice(G, sub)
            if delta.volume <= 1:
                continue
            for _ in range(5):
                assert not gl.frame_bounds(gl.random_window(G, rng), delta).is_frame


class TestOnbConstructions:
    def test_tensor_onb(self):
        G1, G2 = Z(2), Z(3)
        g1, d1 = gl.standard_onb(G1)
        g2, d2 = gl.standard_onb(G2)
        g, delta = gl.tensor_onb(g1, d1, g2, d2)
        assert g.group.orders == (2, 3)
        assert identity_defect(gl.frame_operator(g, g, delta)) < 1e-12

    def test_tensor_norm_multiplicative(self):
        G1, G2 = Z(2), Z(3)
        g1, d1 = gl.standard_onb(G1)
        g2, d2 = gl.standard_onb(G2)
        g, _ = gl.tensor_onb(g1, d1, g2, d2)
        assert g.norm() == pytest.approx(g1.norm() * g2.norm(), rel=1e-12)

    def test_tensor_stft_factorizes(self):
        G1, G2 = Z(2), Z(3)
        g1, d1 = gl.standard_onb(G1)
        g2, d2 = gl.standard_onb(G2)
        g, _ = gl.tensor_onb(g1, d1, g2, d2)
        V = gl.stft(g, g)
        V1, V2 = gl.stft(g1, g1), gl.stft(g2, g2)
        for x1 in range(2):
            for x2 in range(3):
                for w1 in range(2):
                    for w2 in range(3):
                        assert V[x1 * 3 + x2, w1 * 3 + w2] == pytest.approx(
                            V1[x1, w1] * V2[x2, w2], abs=1e-12)
        # weight bookkeeping: the plane integral still matches Moyal
        assert float((np.abs(V) ** 2).sum()) / 6 == pytest.approx(1.0, rel=1e-12)

    def test_tensor_rejects_non_onb(self):
        G1, G2 = Z(2), Z(3)
        g1, d1 = gl.standard_onb(G1)
        bad = gl.random_window(G2, rng_for(23))
        with pytest.raises(WindowNotOnbError):
            gl.tensor_onb(g1, d1, bad, TfLattice.time_axis(G2))

    def test_tensor_rejects_parseval_frame_that_is_not_a_basis(self):
        # delta / sqrt(2) over the full Z/2 plane has S = I, but 4 points
        G = Z(2)
        g, full = gl.delta_window(G) * (1 / math.sqrt(2)), TfLattice.full_plane(G)
        assert identity_defect(gl.frame_operator(g, g, full)) < 1e-14
        with pytest.raises(WindowNotOnbError, match="4 lattice points"):
            gl.tensor_onb(g, full, g, full)

    def test_lift_explicit_z4_example(self):
        G = Z(4)
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        lifted, delta = gl.lift_finite_index(G, H, [1.0, 0.0])
        s = 1 / math.sqrt(2)
        assert np.allclose(lifted.values, [s, s, 0, 0], atol=1e-14)
        system = _system_columns(lifted, delta.x_indices, delta.w_indices)
        expected = {(s, s, 0, 0), (0, 0, s, s), (s, -s, 0, 0), (0, 0, s, -s)}
        got = {tuple(np.round(system[:, j].real, 10)) for j in range(4)}
        assert {tuple(np.round(v, 10) for v in col) for col in expected} == got
        assert identity_defect(gl.frame_operator(lifted, lifted, delta)) < 1e-12

    def test_lift_trivial_index(self):
        G = Z(4)
        H = gl.full_subgroup(G)
        g = gl.delta_window(G)
        lifted, _ = gl.lift_finite_index(G, H, list(g.values))
        assert np.allclose(lifted.values, g.values)

    def test_lift_preserves_norm(self):
        G = Z(2, 4)
        H = gl.enumerate_subgroup(G, [G.element((0, 2)), G.element((1, 0))])
        vals = np.zeros(H.order, dtype=complex)
        vals[0] = 1.0
        lifted, _ = gl.lift_finite_index(G, H, vals)
        assert lifted.norm() == pytest.approx(1.0, rel=1e-12)

    def test_lift_rejects_bad_transversal(self):
        G = Z(4)
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        with pytest.raises(ValueError):
            gl.lift_finite_index(G, H, [1.0, 0.0], coset_reps=[G.zero(), G.element((2,))])

    def test_lift_rejects_non_onb_input(self):
        G = Z(4)
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        with pytest.raises(WindowNotOnbError):
            gl.lift_finite_index(G, H, [1.0, 1.0])

    def test_lift_reads_a_mapping_like_the_sequence(self):
        G = Z(8)
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        lam = gl.enumerate_subgroup(G, [G.element((4,))])
        s = 1 / math.sqrt(2)
        by_list, _ = gl.lift_finite_index(G, H, [s, s, 0.0, 0.0], lam=lam)
        by_key, _ = gl.lift_finite_index(G, H, {G.zero(): s, G.element((2,)): s}, lam=lam)
        assert np.array_equal(by_list.values, by_key.values)

    def test_lift_refuses_mapping_keys_off_the_subgroup(self):
        G = Z(4)
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        with pytest.raises(ValueError, match="outside the subgroup"):
            gl.lift_finite_index(G, H, {G.zero(): 1.0, G.element((1,)): 0.5})
        # (2,) in Z8 is not the element (2,) of Z4
        with pytest.raises(GroupShapeError):
            gl.lift_finite_index(G, H, {Z(8).element((2,)): 1.0})

    def test_push_reads_a_mapping_by_cosets(self):
        G = Z(4)
        F = gl.enumerate_subgroup(G, [G.element((2,))])
        s = 1 / math.sqrt(2)
        by_list, _ = gl.push_finite_subgroup(G, F, F, [s, s])
        # (3,) stands for its coset {1, 3}
        by_key, _ = gl.push_finite_subgroup(G, F, F, {G.zero(): s, G.element((3,)): s})
        assert np.array_equal(by_list.values, by_key.values)

    def test_push_refuses_two_keys_in_one_coset(self):
        G = Z(4)
        F = gl.enumerate_subgroup(G, [G.element((2,))])
        s = 1 / math.sqrt(2)
        with pytest.raises(ValueError, match="two values"):
            gl.push_finite_subgroup(G, F, F, {G.element((1,)): s, G.element((3,)): s})
        with pytest.raises(GroupShapeError):
            gl.push_finite_subgroup(G, F, F, {Z(8).element((1,)): s})

    def test_push_round_trip_trivial_subgroup(self):
        G = Z(4)
        g = gl.delta_window(G)
        pushed, delta = gl.push_finite_subgroup(G, gl.trivial_subgroup(G),
                                                gl.full_subgroup(G), list(g.values))
        assert np.allclose(pushed.values, g.values, atol=1e-12)
        assert delta.volume == 1

    def test_push_z4_example(self):
        # quotient window (1,1)/sqrt(2) on Z/4 / {0,2}; its quotient Fourier
        # transform is delta-type, so the pushed window generates an ONB.
        G = Z(4)
        F = gl.enumerate_subgroup(G, [G.element((2,))])
        s = 1 / math.sqrt(2)
        pushed, delta = gl.push_finite_subgroup(G, F, F, [s, s])
        assert identity_defect(gl.frame_operator(pushed, pushed, delta)) < 1e-12
        assert pushed.norm() == pytest.approx(1.0, rel=1e-12)

    def test_push_rejects_delta_quotient_window(self):
        # modulates of a delta on the quotient are collinear, never an ONB
        G = Z(4)
        F = gl.enumerate_subgroup(G, [G.element((2,))])
        with pytest.raises(WindowNotOnbError):
            gl.push_finite_subgroup(G, F, F, [1.0, 0.0])

    def test_push_requires_containment(self):
        G = Z(4)
        F = gl.enumerate_subgroup(G, [G.element((2,))])
        with pytest.raises(ValueError):
            gl.push_finite_subgroup(G, F, gl.trivial_subgroup(G), [1.0, 0.0])

    def test_push_with_strict_containment(self):
        # F = {0,4} strictly inside lam = {0,2,4,6} on Z/8
        G = Z(8)
        F = gl.enumerate_subgroup(G, [G.element((4,))])
        lam = gl.enumerate_subgroup(G, [G.element((2,))])
        s = 1 / math.sqrt(2)
        pushed, delta = gl.push_finite_subgroup(G, F, lam, [s, s, 0.0, 0.0])
        assert delta.volume == 1
        assert identity_defect(gl.frame_operator(pushed, pushed, delta)) < 1e-12

    def test_lift_with_strict_containment(self):
        # lam = {0,4} strictly inside H = {0,2,4,6} on Z/8
        G = Z(8)
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        lam = gl.enumerate_subgroup(G, [G.element((4,))])
        s = 1 / math.sqrt(2)
        lifted, delta = gl.lift_finite_index(G, H, [s, s, 0.0, 0.0], lam=lam)
        assert delta.volume == 1
        assert identity_defect(gl.frame_operator(lifted, lifted, delta)) < 1e-12

    def test_push_fourier_invariance_of_s0(self):
        G = Z(4)
        F = gl.enumerate_subgroup(G, [G.element((2,))])
        s = 1 / math.sqrt(2)
        pushed, _ = gl.push_finite_subgroup(G, F, F, [s, s])
        ref = gl.random_window(G, rng_for(24))
        lhs = gl.s0_norm(pushed, ref)
        rhs = gl.s0_norm(gl.fourier_transform(pushed), gl.fourier_transform(ref))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestIndexArithmeticOracles:
    """Lattices and Gram checks built on index arithmetic against the
    element-by-element code they replaced."""

    def test_separable_matches_point_oracle(self):
        rng = rng_for(41)
        for _ in range(25):
            G = random_group(rng, max_card=24)
            lam = random_subgroup(G, rng)
            for dual_part in (gl.annihilator(lam), random_subgroup(G.dual(), rng)):
                fast = TfLattice.separable(lam, dual_part)
                slow = separable_by_points(lam, dual_part)
                assert fast == slow
                assert fast.subgroup.generators == slow.subgroup.generators

    def test_separable_rejects_dual_part_of_another_shape(self):
        lam = gl.full_subgroup(Z(4))
        with pytest.raises(GroupShapeError):
            TfLattice.separable(lam, gl.full_subgroup(Z(2, 2).dual()))

    def test_product_lattice_matches_point_oracle(self):
        rng = rng_for(42)
        for _ in range(20):
            G1 = random_group(rng, max_card=6)
            G2 = random_group(rng, max_card=6)
            d1, d2 = random_plane_lattice(G1, rng), random_plane_lattice(G2, rng)
            fast, slow = _product_lattice(d1, d2), product_by_points(d1, d2)
            assert fast == slow
            assert fast.base_group == slow.base_group
            assert fast.subgroup.generators == slow.subgroup.generators
            # the route the transference harness takes: the adjoint from the factors
            by_factors, by_scan = _product_lattice(d1.adjoint, d2.adjoint), gl.adjoint_lattice(fast)
            assert by_factors == by_scan and by_factors.base_group == by_scan.base_group
            assert by_factors.subgroup.generators == by_scan.subgroup.generators

    def test_tensor_onb_lattice_matches_point_oracle(self):
        for o1, o2 in [((2,), (3,)), ((4,), (2,)), ((2, 2), (3,))]:
            g1, d1 = gl.standard_onb(FiniteLcaGroup(o1))
            g2, d2 = gl.standard_onb(FiniteLcaGroup(o2))
            g, delta = gl.tensor_onb(g1, d1, g2, d2)
            slow = product_by_points(d1, d2)
            assert delta == slow and delta.subgroup.generators == slow.subgroup.generators
            assert g.group == slow.base_group

    def test_lift_gram_check_matches_element_oracle(self):
        rng = rng_for(43)
        for _ in range(15):
            G = random_group(rng, max_card=16)
            sub = random_subgroup(G, rng)
            lam = gl.enumerate_subgroup(G, [sub.elements[int(rng.integers(sub.order))]])
            vals = rng.standard_normal(sub.order) + 1j * rng.standard_normal(sub.order)
            defect = lift_defect_by_elements(G, sub, vals, lam)
            assert_verdict_flips_at(
                lambda tol: gl.lift_finite_index(G, sub, vals, lam=lam, tol=tol), defect,
                "input window is not an ONB generator")

    def test_push_matches_character_loop_oracle(self):
        s = 1 / math.sqrt(2)
        G4, G8 = Z(4), Z(8)
        F4 = gl.enumerate_subgroup(G4, [G4.element((2,))])
        F8 = gl.enumerate_subgroup(G8, [G8.element((4,))])
        lam8 = gl.enumerate_subgroup(G8, [G8.element((2,))])
        cases = [(G4, gl.trivial_subgroup(G4), gl.full_subgroup(G4), [1.0, 0.0, 0.0, 0.0], 1e-9),
                 (G4, F4, F4, [s, s], 1e-9), (G8, F8, lam8, [s, s, 0.0, 0.0], 1e-9)]
        # Seeded quotient windows are not ONB generators: the Gram checks
        # are switched off so that every transform is compared.
        rng = rng_for(45)
        for _ in range(15):
            G = random_group(rng, max_card=16)
            F = random_subgroup(G, rng)
            extra = G.element_by_index(int(rng.integers(G.cardinality)))
            lam = gl.enumerate_subgroup(G, list(F.generators) + [extra])
            m = G.cardinality // F.order
            cases.append((G, F, lam, rng.standard_normal(m) + 1j * rng.standard_normal(m), np.inf))
        for G, F, lam, vals, tol in cases:
            pushed, _ = gl.push_finite_subgroup(G, F, lam, vals, tol=tol)
            slow = push_by_characters(G, F, lam, vals)
            assert np.max(np.abs(pushed.values - slow.values)) <= 1e-12

    def test_quotient_gram_check_matches_element_oracle(self):
        rng = rng_for(44)
        for _ in range(15):
            G = random_group(rng, max_card=16)
            F = random_subgroup(G, rng)
            extra = G.element_by_index(int(rng.integers(G.cardinality)))
            lam = gl.enumerate_subgroup(G, list(F.generators) + [extra])
            m = G.cardinality // F.order
            vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            defect = quotient_defect_by_elements(G, F, lam, vals)
            assert_verdict_flips_at(
                lambda tol: gl.push_finite_subgroup(G, F, lam, vals, tol=tol), defect,
                "quotient window is not an ONB generator")


def seeded_lattices_by_volume(seed, volumes, per_volume, max_card=64):
    """(g, Delta) pairs, ``per_volume`` random plane lattices of each volume."""
    rng = rng_for(seed)
    found = {v: [] for v in volumes}
    for _ in range(5000):
        if all(len(v) == per_volume for v in found.values()):
            break
        G = random_group(rng, max_card)
        delta = random_plane_lattice(G, rng)
        bucket = found.get(delta.volume)
        if bucket is not None and len(bucket) < per_volume:
            bucket.append((gl.random_window(G, rng), delta))
    assert all(len(v) == per_volume for v in found.values())
    return found


def scattered_walnut_blocks(g, delta):
    """The Walnut blocks written into a |G| x |G| matrix, and the mask they cover."""
    rows, S, _ = _walnut_blocks(g, delta)
    card = g.group.cardinality
    assert np.array_equal(np.sort(rows, axis=None), np.arange(card))
    full = np.zeros((card, card), dtype=np.complex128)
    covered = np.zeros((card, card), dtype=bool)
    full[rows[:, :, None], rows[:, None, :]] = S
    covered[rows[:, :, None], rows[:, None, :]] = True
    return full, covered


class TestWalnutBlocks:
    """The block-diagonal frame operator against the dense sum over Delta."""

    def cases(self):
        cases = [(g, delta) for seed in range(4)
                 for g, _, delta in seeded_janssen_instances(60, seed=seed, max_card=64)]
        rng = rng_for(56)
        for M, d in [(4, 2), (6, 3), (8, 2), (9, 3)]:
            H, K, K_perp = compact_open_surrogate(M, d)
            surrogate = TfLattice.separable(K, K_perp)
            cases.append((gl.random_window(H, rng), surrogate))
            cases.append((gl.random_window(H, rng), random_plane_lattice(H, rng)))
            product = _product_lattice(random_plane_lattice(Z(4), rng), surrogate)
            cases.append((gl.random_window(product.base_group, rng), product))
        for G in (Z(64), Z(8, 8)):
            cases.append((gl.random_window(G, rng), TfLattice.full_plane(G)))
        return cases

    def test_scattered_blocks_match_dense_oracle(self):
        split = 0
        for g, delta in self.cases():
            full, covered = scattered_walnut_blocks(g, delta)
            dense = frame_operator_by_columns(g, g, delta)
            assert np.max(np.abs(full - dense)) <= 1e-10
            if not covered.all():
                split += 1
                assert np.max(np.abs(dense[~covered])) <= 1e-12
        assert split >= 164

    def test_chirp_without_frequency_kernel_is_one_block(self):
        rng = rng_for(57)
        for G, gens in [(Z(16), [((1,), (1,))]),
                        (Z(4, 4), [((1, 0), (1, 0)), ((0, 1), (0, 1))])]:
            delta = TfLattice.from_plane_generators(G, gens)
            assert delta.volume == 1 and delta._walnut[2] == 1
            g = gl.random_window(G, rng)
            full, covered = scattered_walnut_blocks(g, delta)
            assert covered.all()
            assert np.max(np.abs(full - frame_operator_by_columns(g, g, delta))) <= 1e-10

    def test_frame_operator_matches_column_oracle(self):
        """S_{g,h} with g != h, and exactly 0 where a - b is outside Gamma_0_perp."""
        rng = rng_for(59)
        triples = [t for seed in range(4) for t in seeded_janssen_instances(60, seed=seed)]
        for G in (Z(64), Z(8, 8)):
            triples.append((gl.random_window(G, rng), gl.random_window(G, rng),
                            TfLattice.full_plane(G)))
        for g, h, delta in triples:
            S = gl.frame_operator(g, h, delta)
            oracle = frame_operator_by_columns(g, h, delta)
            assert np.max(np.abs(S - oracle)) <= 1e-12 * np.max(np.abs(oracle))
            orders = g.group.orders
            gamma0 = delta.w_indices[delta.x_indices == 0]
            perp = ~pair_exponent_table(orders)[gamma0].any(axis=0)
            assert not S[~perp[sub_index_table(orders)]].any()

    def test_structure_is_computed_on_first_use(self):
        G = Z(8)
        delta = TfLattice.separable(gl.enumerate_subgroup(G, [G.element((4,))]))
        assert "_walnut" not in delta.__dict__
        gl.frame_bounds(gl.random_window(G, rng_for(58)), delta)
        x_idx, w_idx, gamma0, rows = delta._walnut
        assert gamma0 == 4 and rows.shape == (4, 2)
        assert x_idx.tolist() == [0, 4] and w_idx.tolist() == [0, 0]


class TestSmallerSideRoute:
    """Frame bounds and duals from the Walnut blocks, on lattices on either side
    of critical density."""

    VOLUMES = (Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(2))

    def cases(self):
        found = seeded_lattices_by_volume(50, self.VOLUMES, per_volume=6)
        cases = [c for v in self.VOLUMES for c in found[v]]
        rng = rng_for(51)
        for G in (Z(64), Z(8, 8)):
            cases.append((gl.random_window(G, rng), TfLattice.full_plane(G)))
        return cases

    def test_matches_delta_side_oracle(self):
        for g, delta in self.cases():
            rows, S, _ = _walnut_blocks(g, delta)
            dense = frame_operator_by_columns(g, g, delta)
            assert np.max(np.abs(S - dense[rows[:, :, None], rows[:, None, :]])) <= 1e-10
            oracle = symmetrized_delta_side(g, delta)
            eigs = np.linalg.eigvalsh(oracle)
            bounds = gl.frame_bounds(g, delta)
            assert abs(bounds.lower - max(float(eigs[0]), 0.0)) <= 1e-9
            assert abs(bounds.upper - float(eigs[-1])) <= 1e-9
            assert bounds.is_frame == (delta.volume <= 1)
            if bounds.is_frame:
                h = gl.canonical_dual(g, delta)
                assert np.max(np.abs(h.values - np.linalg.solve(oracle, g.values))) <= 1e-12

    def test_route_follows_point_count(self, monkeypatch):
        rng = rng_for(52)
        found = seeded_lattices_by_volume(53, (Fraction(1, 2), Fraction(1), Fraction(2)),
                                          per_volume=3)

        def refuse(*args, **kwargs):
            raise AssertionError("dense or Janssen assembly behind frame bounds or duals")

        for module in ("gabor", "experiments"):
            monkeypatch.setattr(f"gabor_lca.{module}.frame_operator", refuse)
            monkeypatch.setattr(f"gabor_lca.{module}.janssen_operator", refuse)
        cases = [c for v in found.values() for c in v]
        for G in (Z(64), Z(8, 8)):
            cases.append((gl.random_window(G, rng), TfLattice.full_plane(G)))
        for g, delta in cases:
            report = gl.frame_bounds(g, delta)
            assert report.is_frame == (delta.volume <= 1)
            if report.is_frame:
                h = gl.canonical_dual(g, delta)
                assert gl.wexler_raz_check(g, h, delta).holds
        G = Z(8)
        sweep = gl.window_stability_sweep(gl.random_window(G, rng), TfLattice.full_plane(G),
                                          [0.0, 0.1])
        assert sweep.passed
        window, lattice = gl.tensor_onb(*gl.standard_onb(Z(2)), *gl.standard_onb(Z(3)))
        assert lattice.order == window.group.cardinality == 6

    def test_adjoint_is_cached_on_the_lattice(self):
        rng = rng_for(54)
        for _ in range(10):
            G = random_group(rng, 36)
            delta = random_plane_lattice(G, rng)
            adj = delta.adjoint
            assert delta.adjoint is adj
            assert adj == gl.adjoint_lattice(delta)

    def test_wrong_adjoint_refused(self):
        G = Z(4)
        rng = rng_for(55)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        delta = TfLattice.full_plane(G)
        for wrong in (gl.adjoint_lattice(TfLattice.time_axis(G)),
                      gl.adjoint_lattice(TfLattice.full_plane(Z(2)))):
            with pytest.raises(GroupShapeError, match="not the adjoint lattice"):
                gl.janssen_operator(g, h, delta, adjoint=wrong)
            with pytest.raises(GroupShapeError, match="not the adjoint lattice"):
                gl.wexler_raz_check(g, h, delta, adjoint=wrong)
        # an equal lattice built separately is accepted and changes nothing
        fresh = gl.adjoint_lattice(delta)
        assert fresh is not delta.adjoint
        assert np.array_equal(gl.janssen_operator(g, h, delta, adjoint=fresh),
                              gl.janssen_operator(g, h, delta))
        assert gl.wexler_raz_check(g, h, delta, adjoint=fresh) == gl.wexler_raz_check(g, h, delta)


class TestKernelSubgroups:
    """Adjoint, separable and product lattices are closed by construction:
    built without a closure walk, they recover ``from_indices``'s greedy
    generators on first read."""

    @pytest.mark.parametrize("orders", [(4,), (6,), (2, 2)])
    def test_adjoints_match_from_indices_oracle(self, orders):
        G = FiniteLcaGroup(orders)
        for sub in gl.all_subgroups(G.plane()):
            delta = TfLattice(G, sub)
            oracle = adjoint_full_scan(delta).subgroup
            assert_kernel_matches(gl.adjoint_lattice(delta).subgroup, oracle)

    def test_separable_lattices_match_from_indices_oracle(self):
        rng = rng_for(61)
        for _ in range(25):
            G = random_group(rng, max_card=36)
            lam = random_subgroup(G, rng)
            for dual_part in (gl.annihilator(lam), random_subgroup(G.dual(), rng)):
                points = [x * G.cardinality + w for x in lam.index_array.tolist()
                          for w in dual_part.index_array.tolist()]
                oracle = Subgroup.from_indices(G.plane(), rng.permutation(points))
                assert_kernel_matches(TfLattice.separable(lam, dual_part).subgroup, oracle)

    def test_tensor_lattices_match_from_indices_oracle(self):
        def frequency_onb(G):
            return Window(G, np.ones(G.cardinality)).normalized(), TfLattice.frequency_axis(G)

        unsorted = 0
        for o1, o2 in [((2,), (3,)), ((4,), (2,)), ((2, 2), (3,)), ((3,), (2, 2))]:
            G1, G2 = FiniteLcaGroup(o1), FiniteLcaGroup(o2)
            for (g1, d1), (g2, d2) in [(gl.standard_onb(G1), frequency_onb(G2)),
                                       (frequency_onb(G1), gl.standard_onb(G2))]:
                _, delta = gl.tensor_onb(g1, d1, g2, d2)
                points = product_indices_by_points(d1, d2)
                unsorted += points != sorted(points)
                oracle = Subgroup.from_indices(delta.subgroup.group, points)
                assert_kernel_matches(delta.subgroup, oracle)
        assert unsorted == 4

    def test_kernel_builders_close_nothing_until_generators_are_read(self, monkeypatch):
        G = Z(2, 4)
        lam = gl.enumerate_subgroup(G, [G.element((1, 2))])
        delta = TfLattice.from_plane_generators(G, [((1, 0), (0, 1)), ((0, 2), (1, 0))])
        other = TfLattice.frequency_axis(Z(3))
        builders = [lambda: gl.annihilator(lam),
                    lambda: gl.adjoint_lattice(delta).subgroup,
                    lambda: TfLattice.separable(lam).subgroup,
                    lambda: _product_lattice(delta, other).subgroup]

        def refuse(*args):
            raise AssertionError("subgroup growth step while building a kernel subgroup")

        monkeypatch.setattr("gabor_lca.groups._joined_minima", refuse)
        built = [build() for build in builders]
        monkeypatch.setattr("gabor_lca.groups._joined_minima", _joined_minima)
        for build, sub in zip(builders, built):
            assert sub == build() and hash(sub) == hash(build())
            assert gl.lattice_volume(sub) * sub.order == sub.group.total_mass
            last = sub.group.element_by_index(int(sub.index_array[-1]))
            assert last in sub and sub.group.zero() in sub
            minima = add_index_table(sub.group.orders)[:, sub.index_array].min(axis=1)
            assert np.array_equal(_coset_minima(sub, np.arange(sub.group.cardinality)), minima)
            assert "None" not in repr(sub) and "<on first read>" in repr(sub)
        assert [sub.order for sub in built] == [4, 8, 8, 24]

        recoveries = []

        def counted(*args):
            recoveries.append(args)
            return _greedy_generators(*args)

        monkeypatch.setattr("gabor_lca.groups._greedy_generators", counted)
        for sub in built:
            gens = sub.generators
            assert sub.generators is gens
            assert gl.enumerate_subgroup(sub.group, gens) == sub
            assert "<on first read>" not in repr(sub)
        assert len(recoveries) == len(built)
