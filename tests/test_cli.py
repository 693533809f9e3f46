import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gabor_lca
from gabor_lca import adeles, cli, gabor
from gabor_lca.groups import FiniteLcaGroup


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out.strip(), err
    return code, json.loads(out.strip().splitlines()[-1])


class TestFrameBoundsCommand:
    def test_onb_case(self, capsys):
        code, payload = run_json(capsys, "frame-bounds", "--group", "Z4",
                                 "--window", "delta0", "--lattice", "time-axis")
        assert code == 0
        assert payload["lower"] == pytest.approx(1.0)
        assert payload["upper"] == pytest.approx(1.0)
        assert payload["is_frame"] is True

    def test_plane_gens_literal_styles(self, capsys):
        for literal in ["plane-gens=((1),(0))", "plane-gens=((1,0))", "plane-gens=((1,0))x((0,0))"]:
            code, payload = run_json(capsys, "frame-bounds", "--group", "Z4",
                                     "--window", "delta0", "--lattice", literal)
            assert code == 0
            assert payload["is_frame"] is True

    def test_lattice_literal_round_trip(self, capsys):
        code, payload = run_json(capsys, "frame-bounds", "--group", "Z4",
                                 "--window", "gauss", "--lattice",
                                 "plane-gens=((2),(0));((0),(2))")
        assert code == 0
        group = FiniteLcaGroup((4,))
        reparsed = cli.parse_lattice_literal(group, payload["lattice"])
        original = cli.parse_lattice_literal(group, "plane-gens=((2),(0));((0),(2))")
        assert reparsed.subgroup == original.subgroup
        assert Fraction(payload["volume"]) == original.volume

    def test_trivial_lattice_round_trip(self, capsys):
        code, payload = run_json(capsys, "adjoint", "--group", "Z2", "--lattice", "full-plane")
        assert code == 0
        assert payload["adjoint"] == "plane-gens=(())"
        code, bounds = run_json(capsys, "frame-bounds", "--group", "Z2",
                                "--window", "delta0", "--lattice", payload["adjoint"])
        assert code == 0
        assert bounds["lattice"] == "plane-gens=(())"
        assert Fraction(bounds["volume"]) == 2
        assert bounds["is_frame"] is False
        group = FiniteLcaGroup((2,))
        assert cli.parse_lattice_literal(group, "plane-gens=(())").order == 1

    def test_bad_group_is_exit_2(self, capsys):
        code, out, err = run(capsys, "frame-bounds", "--group", "G4",
                             "--window", "delta0", "--lattice", "time-axis")
        assert code == 2 and "error" in err

    def test_bad_window_is_exit_2(self, capsys):
        code, out, err = run(capsys, "frame-bounds", "--group", "Z4",
                             "--window", "nope", "--lattice", "time-axis")
        assert code == 2


class TestChecksAndExitCodes:
    def test_janssen_check_passes(self, capsys):
        code, payload = run_json(capsys, "janssen-check", "--count", "10", "--seed", "0")
        assert code == 0 and payload["ok"] is True
        assert payload["max_defect"] <= 1e-10

    def test_janssen_check_default_hundred_instances(self, capsys):
        code, payload = run_json(capsys, "janssen-check")
        assert code == 0 and payload["instances"] == 100 and payload["seed"] == 0

    def test_wexler_raz_default_canonical_dual(self, capsys):
        code, payload = run_json(capsys, "wexler-raz", "--group", "Z4",
                                 "--window", "gauss", "--lattice", "full-plane")
        assert code == 0 and payload["holds"] is True

    def test_wexler_raz_failure_exit_1(self, capsys):
        code, payload = run_json(capsys, "wexler-raz", "--group", "Z4",
                                 "--window", "delta0", "--dual-window", "delta0",
                                 "--lattice", "plane-gens=((2),(0))")
        assert code == 1 and payload["holds"] is False

    def test_transference_check(self, capsys):
        code, payload = run_json(capsys, "transference-check", "--group", "Z4",
                                 "--window", "delta0", "--dual-window", "delta0",
                                 "--lattice", "time-axis", "--M", "4", "--d", "2")
        assert code == 0
        assert payload["base_is_dual_pair"] and payload["product_is_dual_pair"]

    def test_unknown_command_exit_2(self, capsys):
        assert run(capsys, "not-a-command")[0] == 2


class TestAdjointAndZak:
    def test_adjoint_round_trip(self, capsys):
        code, payload = run_json(capsys, "adjoint", "--group", "Z4",
                                 "--lattice", "plane-gens=((2),(0));((0),(2))")
        assert code == 0
        assert payload["order"] * payload["adjoint_order"] == 16
        group = FiniteLcaGroup((4,))
        adj = cli.parse_lattice_literal(group, payload["adjoint"])
        assert adj.order == payload["adjoint_order"]

    def test_zak_csv_shape(self, capsys):
        code, out, _ = run(capsys, "zak", "--group", "Z4", "--window", "delta0",
                           "--subgroup", "gens=(2)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x0,w0,re,im,modulus"
        assert len(lines) == 1 + 16 + 1
        assert lines[-1].startswith("summary,")
        # cells are plain parseable numbers
        first = lines[1].split(",")
        assert [int(first[0]), int(first[1])] == [0, 0]
        assert float(first[2]) == pytest.approx(1.0)

    def test_zak_csv_rank_two(self, capsys):
        code, out, _ = run(capsys, "zak", "--group", "Z2xZ2", "--window", "delta0",
                           "--subgroup", "gens=(1,0)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x0,x1,w0,w1,re,im,modulus"
        assert len(lines) == 1 + 16 + 1

    def test_zak_min(self, capsys):
        code, payload = run_json(capsys, "zak-min", "--group", "Z4",
                                 "--window", "delta0", "--subgroup", "gens=(1)")
        assert code == 0
        assert payload["min_modulus"] == pytest.approx(1.0)
        assert payload["quasiperiodicity_residual"] <= 1e-12

    def test_s0_norm(self, capsys):
        code, payload = run_json(capsys, "s0-norm", "--group", "Z8", "--window", "delta0")
        assert code == 0
        assert payload["s0_norm"] == pytest.approx(1.0)


class TestPadicAndAdeleCommands:
    def test_padic_abs(self, capsys):
        code, out, _ = run(capsys, "padic-abs", "12", "2")
        assert code == 0 and out.strip() == "1/4"
        code, out, _ = run(capsys, "padic-abs", "1/6", "3")
        assert code == 0 and out.strip() == "3"

    def test_padic_abs_bad_prime(self, capsys):
        code, _, err = run(capsys, "padic-abs", "12", "6")
        assert code == 2

    @pytest.fixture
    def auto_file(self, tmp_path):
        path = tmp_path / "auto.txt"
        path.write_text("S = 3\nAinf = [[3]]\nA3 = [[3]]\n", encoding="utf-8")
        return str(path)

    def test_adele_vol(self, capsys, auto_file):
        code, payload = run_json(capsys, "adele-vol", "--file", auto_file)
        assert code == 0
        assert payload["modular"] == "1"
        assert Fraction(payload["finite_part"]) == Fraction(1, 3)
        assert payload["volume"] == "1"

    def test_adele_member(self, capsys, auto_file):
        code, payload = run_json(capsys, "adele-member", "--file", auto_file,
                                 "--vector", "diag=(3)")
        assert code == 0 and payload["is_member"] is True
        assert payload["witness"] == ["1"]
        code, payload = run_json(capsys, "adele-member", "--file", auto_file,
                                 "--vector", "inf=(1);3=(3)")
        assert payload["is_member"] is False

    def test_adele_equal(self, capsys, tmp_path):
        f1 = tmp_path / "a.txt"
        f2 = tmp_path / "b.txt"
        f1.write_text("S = 2\nAinf = [[1]]\n", encoding="utf-8")
        f2.write_text("S = 2\nAinf = [[2]]\nA2 = [[2]]\n", encoding="utf-8")
        code, payload = run_json(capsys, "adele-equal", "--file", str(f1), "--file2", str(f2))
        assert code == 0 and payload["equal"] is True

    def test_blt_classify(self, capsys):
        code, payload = run_json(capsys, "blt-classify", "A_Q{S=2; n=1}")
        assert code == 0 and payload["blt_holds"] is True
        code, payload = run_json(capsys, "blt-classify", "Q_S{S=2; n=1}")
        assert payload["blt_holds"] is False

    def test_deform_margin(self, capsys, tmp_path):
        path = tmp_path / "plane.txt"
        path.write_text("S =\nAinf = [[1/2, 0], [0, 1]]\n", encoding="utf-8")
        code, payload = run_json(capsys, "deform-margin", "--file", str(path))
        assert code == 0
        assert payload["margin"] == pytest.approx(2 ** 0.5 - 1)

    def test_deform_margin_volume_above_one(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("S =\nAinf = [[2, 0], [0, 1]]\n", encoding="utf-8")
        code, _, err = run(capsys, "deform-margin", "--file", str(path))
        assert code == 2


class TestSweepCommands:
    def test_sweep_window_csv(self, capsys):
        code, out, _ = run(capsys, "sweep-window", "--group", "Z8", "--window", "gauss",
                           "--lattice", "plane-gens=((2),(0));((0),(2))",
                           "--eps", "0,0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("eps,")
        assert len([l for l in lines if not l.startswith("#")]) == 3

    def test_sweep_window_deterministic(self, capsys):
        argv = ["sweep-window", "--group", "Z8", "--window", "gauss",
                "--lattice", "plane-gens=((2),(0));((0),(2))", "--eps", "0,0.01"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_sweep_critical(self, capsys):
        code, out, _ = run(capsys, "sweep-critical", "--n-list", "2,3", "--format", "json")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["assertions"]["condition_strictly_increasing"] is True

    def test_density_exhaust(self, capsys):
        code, out, _ = run(capsys, "density-exhaust", "--group", "Z4",
                           "--windows", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["assertions"]["no_frame_above_volume_one"] is True


class TestRefusedInputs:
    """Malformed input exits 2 with an ``error:`` line and no traceback."""

    def assert_refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""

    def test_zero_denominator_rational(self, capsys):
        self.assert_refused(capsys, "padic-abs", "1/0", "2")

    def test_zero_denominator_in_automorphism_file(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("S = 2\nAinf = [[1/0]]\n", encoding="utf-8")
        self.assert_refused(capsys, "adele-vol", "--file", str(path))

    def test_zero_denominator_in_adele_vector(self, capsys, tmp_path):
        path = tmp_path / "auto.txt"
        path.write_text("S = 3\nAinf = [[3]]\n", encoding="utf-8")
        self.assert_refused(capsys, "adele-member", "--file", str(path),
                            "--vector", "diag=(1/0)")

    def test_non_prime_place(self, capsys):
        self.assert_refused(capsys, "blt-classify", "A_Q{S=4;n=1}")
        self.assert_refused(capsys, "blt-classify", "Q_S{S=2,9; n=1}")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_window_count_below_one(self, capsys, count):
        self.assert_refused(capsys, "density-exhaust", "--group", "Z2",
                            "--windows", count, "--format", "json")

    @pytest.mark.parametrize("argv", [
        ["janssen-check", "--count", "0"],
        ["janssen-check", "--count", "-3"],
        ["sweep-window", "--group", "Z8", "--window", "gauss",
         "--lattice", "plane-gens=((2),(0));((0),(2))", "--eps", ","],
        ["sweep-critical", "--n-list", ","],
    ])
    def test_vacuous_experiment_refused(self, capsys, argv):
        self.assert_refused(capsys, *argv)

    def test_max_card_below_catalog(self, capsys):
        code, out, err = run(capsys, "janssen-check", "--max-card", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "smallest catalog order 2" in err


class TestRepeatedKeys:
    """A key given twice is refused instead of the last value winning."""

    assert_refused = TestRefusedInputs.assert_refused

    @pytest.mark.parametrize("document", [
        "S = 2\nAinf = [[1]]\nA2 = [[2]]\nA2 = [[1]]\n",
        "S = 2\nAinf = [[1]]\nA2 = [[2]]\nA02 = [[1]]\n",
        "S = 2\nAinf = [[1]]\nAinf = [[2]]\n",
        "S = 2\nAinf = [[1]]\nA_inf = [[2]]\n",
        "S = 2\nS = 3\nAinf = [[1]]\n",
        "S = 2,2\nAinf = [[1]]\n",
    ])
    def test_automorphism_document(self, capsys, tmp_path, document):
        path = tmp_path / "auto.txt"
        path.write_text(document, encoding="utf-8")
        self.assert_refused(capsys, "adele-vol", "--file", str(path))

    @pytest.mark.parametrize("vector", [
        "inf=(1,2); inf=(3,1/5); default=(1,2)",
        "inf=(1,2); 2=(1,2); 2=(3,4); default=(1,2)",
        "inf=(1,2); 2=(1,2); 02=(3,4); default=(1,2)",
        "inf=(1,2); default=(1,2); default=(3,4)",
    ])
    def test_adele_vector(self, capsys, tmp_path, vector):
        path = tmp_path / "auto.txt"
        path.write_text("S = 2,3\nAinf = [[1,0],[0,1]]\n", encoding="utf-8")
        self.assert_refused(capsys, "adele-member", "--file", str(path), "--vector", vector)

    @pytest.mark.parametrize("spec", [
        "A_Q{S=2;S=3;n=1;n=2}",
        "A_Q{S=2;n=1;n=2}",
        "A_Q{S=2,2,3;n=2}",
        "Q_S{S=3;S=3;n=1}",
    ])
    def test_group_spec(self, capsys, spec):
        self.assert_refused(capsys, "blt-classify", spec)

    def test_single_keys_still_accepted(self, capsys, tmp_path):
        path = tmp_path / "auto.txt"
        path.write_text("S = 2,3\nAinf = [[1,0],[0,1]]\nA02 = [[1,0],[0,1]]\n",
                        encoding="utf-8")
        code, payload = run_json(capsys, "adele-member", "--file", str(path),
                                 "--vector", "inf=(1,2); 2=(1,2); default=(1,2)")
        assert code == 0 and payload["is_member"] is True
        code, payload = run_json(capsys, "blt-classify", "A_Q{S=3,2; n=2}")
        assert code == 0 and payload["real_dimension"] == 2


class TestVectorComponentOutsidePlaceSet:
    def test_refused(self, capsys, tmp_path):
        path = tmp_path / "auto.txt"
        path.write_text("S = 2,3\nAinf = [[1,0],[0,1]]\n", encoding="utf-8")
        code, out, err = run(capsys, "adele-member", "--file", str(path),
                             "--vector", "inf=(1,2); 5=(1,2); default=(1,2)")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "outside the place set" in err


class TestWindowLiteral:
    def test_real_valued_pairs(self, capsys):
        code, payload = run_json(capsys, "frame-bounds", "--group", "Z2",
                                 "--window", "values=(0.5,0),(1,0)",
                                 "--lattice", "time-axis")
        assert code == 0
        # time-axis frame bounds are the extreme values of |g^|^2 = |0.5 +- 1|^2
        assert payload["lower"] == pytest.approx(0.25)
        assert payload["upper"] == pytest.approx(2.25)

    def test_values_parsed_exactly(self):
        group = FiniteLcaGroup((3,))
        win = cli.parse_window_literal(group, "values=(0.5,0),(1,-2.5e-1),( -3 , 1 )")
        assert list(win.values) == [0.5, 1 - 0.25j, -3 + 1j]

    @pytest.mark.parametrize("literal", ["values=(1,0,0),(1,0)", "values=1,0", "values=(a,0),(1,0)"])
    def test_malformed_pairs_refused(self, capsys, literal):
        code, _, err = run(capsys, "frame-bounds", "--group", "Z2",
                           "--window", literal, "--lattice", "time-axis")
        assert code == 2 and err.startswith("error:")


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code: str, *args: str, cwd=None) -> str:
    """stdout of ``python -c code args`` in a new interpreter that finds ``src``."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: The README's automorphism file, and that file times [[1, 1], [0, 1]].
AUTO = "S = 2,3\nAinf = [[1/2, 0], [0, 2]]\nA2 = [[2, 0], [0, 1]]\n"
AUTO_REBASED = ("S = 2,3\nAinf = [[1/2, 1/2], [0, 2]]\nA2 = [[2, 2], [0, 1]]\n"
                "A3 = [[1, 1], [0, 1]]\n")

#: (argv, exit code, stdout) of the exact subcommands and two exact refusals.
EXACT_RUNS = [
    (["padic-abs", "12", "2"], 0, "1/4\n"),
    (["adele-vol", "--file", "auto.txt"], 0,
     '{"archimedean": "1", "exact": true, "finite_part": "1/2", "modular": "1/2", '
     '"volume": "1/2"}\n'),
    (["adele-member", "--file", "auto.txt", "--vector", "diag=(5/2,1)"], 0,
     '{"is_member": false, "witness": null}\n'),
    (["adele-equal", "--file", "auto.txt", "--file2", "rebased.txt"], 0, '{"equal": true}\n'),
    (["blt-classify", "A_Q{S=2,3; n=2}"], 0,
     '{"blt_holds": true, "compact_identity_component": false, "message": "BLT holds: '
     'noncompact identity component; no well-localized frame exists over any lattice of '
     'volume 1", "real_dimension": 2, "spec": "A_Q{S=2,3; n=2}"}\n'),
    (["deform-margin", "--file", "auto.txt"], 0,
     '{"dim": 2, "margin": 0.41421356237309515, "volume": "1/2"}\n'),
    (["padic-abs", "12", "4"], 2, ""),
    (["adele-member", "--file", "auto.txt", "--vector", "diag=(5/2)"], 2, ""),
]

RUN_IN_FRESH_PROCESS = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from gabor_lca import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "numpy": "numpy" in sys.modules}))
"""

#: Every name the package exported when it imported its submodules eagerly,
#: with the submodule it came from.
EAGER_EXPORTS = {
    "groups": ["CARDINALITY_CAP", "CardinalityCapError", "DualElement", "FiniteLcaGroup",
               "GroupElement", "GroupShapeError", "Subgroup", "all_subgroups",
               "annihilator", "coset_transversal", "enumerate_subgroup", "full_subgroup",
               "lattice_volume", "pairing", "pairing_is_one", "parse_group_spec",
               "trivial_subgroup"],
    "gabor": ["FrameReport", "NotAFrameError", "TfLattice", "WexlerRazResult", "Window",
              "WindowNotOnbError", "adjoint_lattice", "canonical_dual",
              "commutation_defect", "constant_window", "delta_window", "density_check",
              "fourier_transform", "frame_bounds", "frame_operator", "indicator_window",
              "inverse_fourier_transform", "janssen_operator", "lift_finite_index",
              "push_finite_subgroup", "random_window", "s0_norm", "standard_onb", "stft",
              "tensor_onb", "tf_shift", "tf_shift_plane", "wexler_raz_check"],
    "zak": ["ZakGrid", "min_modulus", "plane_quadratic_mass", "quasiperiodicity_residual",
            "zak_frame_bounds", "zak_transform"],
    "padic": ["NotPrimeError", "PadicScalar", "Place", "RationalMatrix",
              "SingularMatrixError", "certify_prime", "in_gl_n_zp", "local_modular",
              "padic_abs", "valuation"],
    "adeles": ["AdeleAutomorphism", "AdeleLattice", "AdeleVector", "BalianLowVerdict",
               "ModularValue", "PlaceSet", "balian_low_classifier", "deformation_margin",
               "finite_transference_check", "global_modular", "lattice_equality",
               "lattice_membership", "parse_lca_group_spec"],
    "experiments": ["SweepReport", "critical_density_trend", "density_exhaustive",
                    "periodized_gaussian", "window_stability_sweep"],
}

HARNESS = ("TransferenceResult", "compact_open_surrogate", "finite_transference_check")


class TestExactLayerWithoutNumpy:
    def test_exact_subcommands_load_no_numpy(self, tmp_path):
        (tmp_path / "auto.txt").write_text(AUTO, encoding="utf-8")
        (tmp_path / "rebased.txt").write_text(AUTO_REBASED, encoding="utf-8")
        argvs = [argv for argv, _, _ in EXACT_RUNS]
        result = json.loads(fresh_python(RUN_IN_FRESH_PROCESS, json.dumps(argvs),
                                         cwd=tmp_path))
        assert result["numpy"] is False
        for (argv, code, stdout), (got_code, got_out, got_err) in zip(EXACT_RUNS,
                                                                      result["runs"]):
            assert (got_code, got_out) == (code, stdout), argv
            assert got_err.startswith("error:") if code == 2 else got_err == "", argv

    def test_bare_package_import_loads_no_numpy(self):
        assert fresh_python("import sys, gabor_lca; print('numpy' in sys.modules)") == "False\n"


class TestLazyPackage:
    @pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
    def test_every_eager_export_resolves_to_its_object(self, module):
        sub = getattr(gabor_lca, module)
        assert sub is sys.modules[f"gabor_lca.{module}"]
        for name in EAGER_EXPORTS[module]:
            assert getattr(gabor_lca, name) is getattr(sub, name), name
        assert set(EAGER_EXPORTS[module]) <= set(dir(gabor_lca))

    def test_alias_and_unknown_names(self):
        assert gabor_lca.adele_lattice_volume is adeles.lattice_volume
        assert gabor_lca.lattice_volume is gabor_lca.groups.lattice_volume
        with pytest.raises(AttributeError):
            gabor_lca.no_such_name
        with pytest.raises(AttributeError):
            adeles.no_such_name

    def test_harness_is_one_object_from_adeles_and_gabor(self):
        for name in HARNESS:
            assert getattr(adeles, name) is getattr(gabor, name), name
            assert name not in vars(adeles)

    def test_swapped_functions_are_seen_and_not_cached(self, monkeypatch):
        # A tracer swaps a function where it is bound and restores it later;
        # the package and adeles must hand out whatever is bound now.
        assert callable(gabor_lca.frame_bounds)
        assert "frame_bounds" not in vars(gabor_lca)
        swapped_bounds, swapped_check = object(), object()
        monkeypatch.setattr(gabor, "frame_bounds", swapped_bounds)
        monkeypatch.setattr(gabor, "finite_transference_check", swapped_check)
        assert gabor_lca.frame_bounds is swapped_bounds
        assert gabor_lca.finite_transference_check is swapped_check
        assert adeles.finite_transference_check is swapped_check
        monkeypatch.undo()
        assert gabor_lca.frame_bounds is gabor.frame_bounds is not swapped_bounds
