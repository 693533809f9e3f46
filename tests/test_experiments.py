import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gabor_lca as gl
from gabor_lca import experiments as ex
from gabor_lca.gabor import TfLattice, _adjoint_coefficients
from gabor_lca.groups import FiniteLcaGroup
from oracles import frame_operator_by_columns


class TestPeriodizedGaussian:
    def test_symmetry(self):
        g = ex.periodized_gaussian(16)
        for j in range(16):
            assert g.values[j] == pytest.approx(g.values[(16 - j) % 16], abs=1e-15)

    def test_positivity_and_norm(self):
        g = ex.periodized_gaussian(9)
        assert np.all(g.values.real > 0)
        assert g.norm() == pytest.approx(1.0, rel=1e-14)

    def test_fourier_self_duality(self):
        g = ex.periodized_gaussian(16)
        ghat = gl.fourier_transform(g)
        assert np.max(np.abs(np.abs(ghat.values) / 4.0 - np.abs(g.values))) < 1e-10

    def test_small_length_rejected(self):
        with pytest.raises(ValueError):
            ex.periodized_gaussian(1)


class TestWindowStabilitySweep:
    def make(self, seed=0):
        g = ex.periodized_gaussian(16, center=0.5)
        delta = TfLattice.from_plane_generators(g.group, [((2,), (0,)), ((0,), (4,))])
        return g, delta

    def test_zero_eps_identical_and_bound_dominates(self):
        g, delta = self.make()
        report = ex.window_stability_sweep(g, delta, [0.0, 0.01, 0.02], seed=0)
        assert report.assertions["zero_eps_unchanged"]
        assert report.assertions["janssen_bound_dominates"]

    def test_control_keeps_frame_property(self):
        g, delta = self.make()
        assert delta.volume < 1
        report = ex.window_stability_sweep(g, delta, [0.0, 0.005, 0.01, 0.02, 0.04], seed=1)
        assert all(row[3] for row in report.rows)  # is_frame survives the grid

    def test_bound_controls_frame_bound_drift(self):
        # eigenvalues move at most by the operator-norm change (Weyl), which
        # the adjoint-side bound dominates
        g, delta = self.make()
        report = ex.window_stability_sweep(g, delta, [0.0, 0.01, 0.02], seed=2)
        a0, b0 = report.summary["base_lower"], report.summary["base_upper"]
        for _, lower, upper, _, measured, bound in report.rows:
            assert abs(lower - a0) <= bound + 1e-10
            assert abs(upper - b0) <= bound + 1e-10
            assert measured <= bound + 1e-10

    def test_deterministic_csv(self):
        g, delta = self.make()
        a = ex.window_stability_sweep(g, delta, [0.0, 0.01], seed=3).to_csv()
        b = ex.window_stability_sweep(g, delta, [0.0, 0.01], seed=3).to_csv()
        assert a == b

    def test_rows_match_separate_frame_bounds_and_operator(self):
        # Oracle: the route that assembled S twice per grid point, once in
        # frame_bounds and once, unsymmetrized, as the column sum over Delta.
        g, delta = self.make()
        eps_values = [0.0, 0.01, 0.02]
        report = ex.window_stability_sweep(g, delta, eps_values, seed=4)
        direction = gl.random_window(g.group, np.random.default_rng(4))
        direction = direction * (1.0 / gl.s0_norm(direction, g))
        S_base = frame_operator_by_columns(g, g, delta)
        for eps, row in zip(eps_values, report.rows):
            perturbed = g + eps * direction
            bounds = gl.frame_bounds(perturbed, delta)
            measured = np.linalg.norm(
                frame_operator_by_columns(perturbed, perturbed, delta) - S_base, 2)
            assert abs(row[1] - bounds.lower) <= 1e-12
            assert abs(row[2] - bounds.upper) <= 1e-12
            assert row[3] == bounds.is_frame
            assert abs(row[4] - measured) <= 1e-12

    def test_bound_matches_two_term_formula(self):
        # Oracle: the bound summed as the docstring writes it, from g' - g
        g, delta = self.make()
        eps_values = [0.0, 0.0025, 0.005, 0.01, 0.02, 0.04]  # the run_sweeps.py defaults
        report = ex.window_stability_sweep(g, delta, eps_values, seed=0)
        direction = gl.random_window(g.group, np.random.default_rng(0))
        direction = direction * (1.0 / gl.s0_norm(direction, g))
        adj = delta.adjoint
        for eps, row in zip(eps_values, report.rows):
            perturbed = g + eps * direction
            diff = perturbed - g
            coeffs = _adjoint_coefficients(diff, perturbed, adj) + _adjoint_coefficients(g, diff, adj)
            bound = float(np.abs(coeffs).sum()) * (1.0 / float(delta.volume))
            assert abs(row[5] - bound) <= 1e-12 * bound

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_eps_refused(self, bad):
        g = ex.periodized_gaussian(8)
        lam = gl.enumerate_subgroup(g.group, [g.group.element((2,))])
        with pytest.raises(ValueError, match="eps"):
            ex.window_stability_sweep(g, TfLattice.separable(lam), [0.0, bad])

    def test_requires_frame(self):
        g = ex.periodized_gaussian(4)  # symmetric: singular at critical density
        lam = gl.enumerate_subgroup(g.group, [g.group.element((2,))])
        with pytest.raises(ValueError):
            ex.window_stability_sweep(g, TfLattice.separable(lam), [0.0])


class TestCriticalDensityTrend:
    def test_assertions_hold(self):
        report = ex.critical_density_trend([2, 3, 4])
        assert report.passed, report.assertions

    def test_rows_cover_critical_and_control(self):
        report = ex.critical_density_trend([2, 3])
        kinds = [row[2] for row in report.rows]
        assert kinds.count("critical") == 2 and kinds.count("control") == 2
        vols = {row[2]: row[3] for row in report.rows}
        assert vols["critical"] == "1" and vols["control"] == "1/2"

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            ex.critical_density_trend([1, 2])


class TestDensityExhaustive:
    def test_z4_clean(self):
        report = ex.density_exhaustive(FiniteLcaGroup((4,)), windows_per_lattice=5)
        assert report.assertions["no_frame_above_volume_one"]
        assert report.summary["subgroups"] == 15

    def test_singleton_lattice_never_frames(self):
        report = ex.density_exhaustive(FiniteLcaGroup((4,)), windows_per_lattice=5)
        singleton_rows = [row for row in report.rows if row[1] == 1]
        assert singleton_rows and all(row[4] == 0 for row in singleton_rows)

    def test_critical_separable_frames_match_zak_criterion(self):
        G = FiniteLcaGroup((4,))
        rng = np.random.default_rng(9)
        for lam in gl.all_subgroups(G):
            delta = TfLattice.separable(lam)
            for _ in range(5):
                g = gl.random_window(G, rng)
                assert gl.frame_bounds(g, delta).is_frame == \
                    gl.zak_frame_bounds(g, lam).is_frame

    def test_size_cap(self):
        with pytest.raises(ValueError):
            ex.density_exhaustive(FiniteLcaGroup((5, 5)))


#: SHA-256 of the ``seeded_frame_instances(40, seed)`` stream for seeds 0-3,
#: recorded while frame bounds were assembled densely or by Janssen's sum.
#: A change of route that flips a borderline frame verdict changes it.
FRAME_INSTANCES_SHA256 = "35500e14ba59b139526ba69830623e192757044fa6d664144dd484e24e2839ca"


class TestSeededInstances:
    def test_frame_instances_digest_is_pinned(self):
        digest = hashlib.sha256()
        for seed in range(4):
            for g, delta in ex.seeded_frame_instances(40, seed=seed):
                digest.update(repr(g.group.orders).encode())
                digest.update(g.values.tobytes())
                digest.update(delta.subgroup.index_array.tobytes())
        assert digest.hexdigest() == FRAME_INSTANCES_SHA256

    def test_janssen_defect_small(self):
        assert ex.janssen_max_defect(10, seed=0) < 1e-10

    def test_generators_are_deterministic(self):
        a = [(g.values.tobytes(), d.subgroup.index_array.tobytes())
             for g, d in ex.seeded_frame_instances(5, seed=1)]
        b = [(g.values.tobytes(), d.subgroup.index_array.tobytes())
             for g, d in ex.seeded_frame_instances(5, seed=1)]
        assert a == b

    def test_frame_instances_are_frames(self):
        for g, delta in ex.seeded_frame_instances(5, seed=2):
            report = gl.frame_bounds(g, delta)
            assert report.is_frame and delta.volume <= 1
            assert report.condition <= 1e4

    def test_flip_perturbation_hits_largest_coordinate(self):
        G = FiniteLcaGroup((4,))
        h = gl.Window(G, np.array([0.1, 0.9, 0.2, 0.3], dtype=complex))
        bumped = ex.wexler_raz_flip_perturbation(h, size=1e-3)
        assert bumped.values[1] == pytest.approx(0.9 + 1e-3)


class TestSweepScript:
    def test_two_runs_are_bit_identical(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        path = filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            done = subprocess.run(
                [sys.executable, str(repo / "scripts" / "run_sweeps.py"), "--out", str(out),
                 "--n-list", "2,3", "--eps", "0,0.01", "--density-groups", "Z2"],
                env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"critical_density_trend.csv", "window_stability.csv",
                                   "density_exhaustive_Z2.csv", "summary.json"}

    @pytest.mark.parametrize("flag, value, named", [
        ("--density-groups", "Z2,", "blank entry"),
        ("--density-groups", "Z2,G4", "bad group spec"),
        ("--n-list", "2,x", "'x'"),
        ("--eps", "0,,0.01", "blank entry"),
        ("--eps", "0.01,0", "strictly increasing"),
    ])
    def test_bad_lists_exit_2_and_write_nothing(self, tmp_path, capsys, flag, value, named):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"
        spec = importlib.util.spec_from_file_location("run_sweeps", script)
        run_sweeps = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_sweeps)
        out = tmp_path / "out"
        code = run_sweeps.main(["--out", str(out), "--n-list", "2", "--eps", "0,0.01",
                                "--density-groups", "Z2", flag, value])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and named in err
        assert not out.exists()
