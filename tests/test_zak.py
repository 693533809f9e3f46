import numpy as np
import pytest

import gabor_lca as gl
from gabor_lca.experiments import periodized_gaussian, seeded_zak_instances
from gabor_lca.gabor import TfLattice
from gabor_lca.groups import FiniteLcaGroup, GroupShapeError
from gabor_lca.zak import ZakGrid
from oracles import Z, quasiperiodicity_full_scan


class TestZakTransform:
    def test_delta_over_full_group(self):
        G = Z(4)
        grid = gl.zak_transform(gl.delta_window(G), gl.full_subgroup(G))
        for x in G.elements():
            for w in G.dual().elements():
                assert grid.values[x.index, w.index] == pytest.approx(
                    np.conj(gl.pairing(w, x)), abs=1e-14)
        assert np.allclose(np.abs(grid.values), 1.0)

    def test_trivial_lattice_reproduces_window(self):
        G = Z(6)
        f = gl.random_window(G, np.random.default_rng(0))
        grid = gl.zak_transform(f, gl.trivial_subgroup(G))
        for w_idx in range(6):
            assert np.allclose(grid.values[:, w_idx], f.values)

    def test_linearity(self):
        G = Z(6)
        rng = np.random.default_rng(1)
        f, g = gl.random_window(G, rng), gl.random_window(G, rng)
        lam = gl.enumerate_subgroup(G, [G.element((2,))])
        lhs = gl.zak_transform(f + g, lam).values
        rhs = gl.zak_transform(f, lam).values + gl.zak_transform(g, lam).values
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestQuasiperiodicity:
    def test_transform_outputs_satisfy_it(self):
        rng = np.random.default_rng(2)
        for orders in [(4,), (6,), (2, 4), (3, 3)]:
            G = FiniteLcaGroup(orders)
            f = gl.random_window(G, rng)
            lam = gl.enumerate_subgroup(G, [G.element_by_index(int(rng.integers(G.cardinality)))])
            grid = gl.zak_transform(f, lam)
            assert gl.quasiperiodicity_residual(grid) <= 1e-12

    def test_delta_full_lattice_is_tight(self):
        G = Z(4)
        grid = gl.zak_transform(gl.delta_window(G), gl.full_subgroup(G))
        assert gl.quasiperiodicity_residual(grid) <= 1e-15

    def test_perturbed_grid_fails(self):
        G = Z(4)
        lam = gl.enumerate_subgroup(G, [G.element((2,))])
        grid = gl.zak_transform(gl.delta_window(G), lam)
        vals = grid.values.copy()
        vals[1, 1] += 0.25
        assert gl.quasiperiodicity_residual(ZakGrid(G, lam, vals)) > 0.1


    def test_generator_pairs_bounded_by_full_scan(self):
        for f, lam in seeded_zak_instances(25, seed=11, max_card=64):
            grid = gl.zak_transform(f, lam)
            residual = gl.quasiperiodicity_residual(grid)
            assert residual <= quasiperiodicity_full_scan(grid) <= 1e-12

    def test_single_entry_bump_is_seen(self):
        rng = np.random.default_rng(12)
        size = 1e-3
        for f, lam in seeded_zak_instances(25, seed=13, max_card=64):
            vals = gl.zak_transform(f, lam).values.copy()
            x, w = rng.integers(f.group.cardinality, size=2)
            vals[x, w] += size
            bumped = ZakGrid(f.group, lam, vals)
            assert gl.quasiperiodicity_residual(bumped) >= size - 1e-12

    def test_frequency_periodicity_is_checked(self):
        # over the trivial lattice only the generators of lam_perp see the bump
        G = Z(4)
        lam = gl.trivial_subgroup(G)
        vals = gl.zak_transform(gl.delta_window(G), lam).values.copy()
        vals[1, 2] += 1e-3
        assert gl.quasiperiodicity_residual(ZakGrid(G, lam, vals)) >= 1e-3 - 1e-12

    def test_residual_at_1024_points(self):
        G = Z(1024)
        lam = gl.enumerate_subgroup(G, [G.element((32,))])
        assert lam.order == 32
        f = gl.random_window(G, np.random.default_rng(14))
        assert gl.quasiperiodicity_residual(gl.zak_transform(f, lam)) <= 1e-12

    def test_lattice_of_another_group_refused(self):
        for other in (Z(2), Z(8)):
            with pytest.raises(GroupShapeError):
                ZakGrid(Z(4), gl.full_subgroup(other), np.ones((4, 4)))


class TestMinModulus:
    def test_nowhere_zero_delta(self):
        G = Z(4)
        value, _ = gl.min_modulus(gl.zak_transform(gl.delta_window(G), gl.full_subgroup(G)))
        assert value == pytest.approx(1.0)

    def test_planted_zero(self):
        G = Z(4)
        lam = gl.full_subgroup(G)
        vals = gl.zak_transform(gl.delta_window(G), lam).values.copy()
        vals[2, 3] = 0.0
        value, (x, w) = gl.min_modulus(ZakGrid(G, lam, vals))
        assert value == 0.0
        assert (x.index, w.index) == (2, 3)

    def test_gaussian_minimum_decays(self):
        mins = []
        for n in (2, 3, 4, 5):
            G = Z(n * n)
            lam = gl.enumerate_subgroup(G, [G.element((n,))])
            g = periodized_gaussian(n * n, center=0.5)
            mins.append(gl.min_modulus(gl.zak_transform(g, lam))[0])
        assert all(b < a for a, b in zip(mins, mins[1:]))


class TestZakFrameBounds:
    def test_delta_onb_case(self):
        G = Z(4)
        report = gl.zak_frame_bounds(gl.delta_window(G), gl.full_subgroup(G))
        assert report.lower == pytest.approx(1.0, abs=1e-12)
        assert report.upper == pytest.approx(1.0, abs=1e-12)
        oracle = gl.frame_bounds(gl.delta_window(G),
                                 TfLattice.separable(gl.full_subgroup(G)))
        assert report.lower == pytest.approx(oracle.lower, abs=1e-12)

    def test_symmetric_gaussian_on_z4_has_exact_zak_zero(self):
        # a centered (symmetric) window at critical density on an even group
        # has a Zak zero, hence no frame
        G = Z(4)
        lam = gl.enumerate_subgroup(G, [G.element((2,))])
        g = periodized_gaussian(4, center=0.0)
        zmin, _ = gl.min_modulus(gl.zak_transform(g, lam))
        assert zmin < 1e-14
        report = gl.zak_frame_bounds(g, lam)
        assert not report.is_frame
        assert not gl.frame_bounds(g, TfLattice.separable(lam)).is_frame

    def test_gaussian_z16_matches_eigenvalue_oracle(self):
        G = Z(16)
        lam = gl.enumerate_subgroup(G, [G.element((4,))])
        g = periodized_gaussian(16, center=0.5)
        zak_report = gl.zak_frame_bounds(g, lam)
        eig_report = gl.frame_bounds(g, TfLattice.separable(lam))
        assert zak_report.lower == pytest.approx(eig_report.lower, abs=1e-9)
        assert zak_report.upper == pytest.approx(eig_report.upper, abs=1e-9)

    def test_agreement_on_seeded_instances(self):
        for g, lam in seeded_zak_instances(15, seed=5, max_card=36):
            zak_report = gl.zak_frame_bounds(g, lam)
            eig_report = gl.frame_bounds(g, TfLattice.separable(lam))
            assert zak_report.lower == pytest.approx(eig_report.lower, abs=1e-9)
            assert zak_report.upper == pytest.approx(eig_report.upper, abs=1e-9)


class TestZakUnitarity:
    def test_plane_mass_identity(self):
        rng = np.random.default_rng(3)
        for orders, gen in [((6,), (2,)), ((8,), (2,)), ((2, 4), (1, 2))]:
            G = FiniteLcaGroup(orders)
            lam = gl.enumerate_subgroup(G, [G.element(gen)])
            f = gl.random_window(G, rng)
            mass = gl.plane_quadratic_mass(gl.zak_transform(f, lam))
            assert mass == pytest.approx(lam.order * f.norm() ** 2, rel=1e-12)
