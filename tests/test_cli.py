import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gabor_lca
from gabor_lca import adeles, cli, gabor
from gabor_lca.groups import FiniteLcaGroup
from oracles import (
    AUTO,
    AUTO_REBASED,
    FUZZ_DOCUMENTS,
    FUZZ_EPS,
    FUZZ_FILES,
    FUZZ_FORMATS,
    FUZZ_GROUPS,
    FUZZ_LATTICES,
    FUZZ_N_LISTS,
    FUZZ_NUMBERS,
    FUZZ_RATIONALS,
    FUZZ_SPECS,
    FUZZ_SUBGROUPS,
    FUZZ_VECTORS,
    FUZZ_WINDOWS,
)


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

    def test_deform_margin_past_the_float_range(self, capsys, tmp_path):
        """1/vol = 10^400 is no float, its square root is; 10^350 has none."""
        for exponent, margin in [(400, 1e200), (700, None)]:
            path = tmp_path / f"tiny{exponent}.txt"
            path.write_text(f"S =\nAinf = [[1/{10 ** exponent}, 0], [0, 1]]\n",
                            encoding="utf-8")
            code, out, err = run(capsys, "deform-margin", "--file", str(path))
            if margin is None:
                assert code == 2 and out == "" and err.startswith("error:")
                assert "float range" in err and "Traceback" not in err
            else:
                assert code == 0
                assert json.loads(out)["margin"] == pytest.approx(margin, rel=1e-12)


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

    def test_window_norm_overflow(self, capsys):
        code, out, err = run(capsys, "frame-bounds", "--group", "Z4", "--window",
                             "values=(1e308,0),(1e308,0),(0,0),(0,0)", "--lattice", "time-axis")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "norm" in err and "Traceback" not in err

    def test_transference_modulus_below_one(self, capsys):
        argv = ["transference-check", "--group", "Z4", "--window", "delta0",
                "--dual-window", "delta0", "--lattice", "time-axis", "--M", "0", "--d", "1"]
        self.assert_refused(capsys, *argv)
        assert "M = 0" in run(capsys, *argv)[2]

    def test_max_card_below_catalog(self, capsys):
        code, out, err = run(capsys, "janssen-check", "--max-card", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "smallest catalog order 2" in err

    @pytest.mark.parametrize("literal", [
        "plane-gens=junk",
        "plane-gens=",
        "plane-gens=((1),(2)) junk ((0),(1))",
        "plane-gens=;((1),(2))",
        "plane-gens=((1),(2));",
    ])
    def test_garbage_lattice_literal(self, capsys, literal):
        self.assert_refused(capsys, "adjoint", "--group", "Z4", "--lattice", literal)

    @pytest.mark.parametrize("argv, unread", [
        (["zak-min", "--group", "Z4", "--window", "delta0", "--subgroup", "gens=(2)junk(1)"],
         "junk(1)"),
        (["frame-bounds", "--group", "Z4", "--window", "values=(1,0)junk(0,0),(0,0),(0,0)",
          "--lattice", "time-axis"], "junk(0,0)"),
        (["frame-bounds", "--group", "Z4", "--window", "delta0",
          "--lattice", "separable:gens=(2)banana"], "banana"),
        (["frame-bounds", "--group", "Z4", "--window", "values=(1,,0),(0,0),(0,0),(0,0)",
          "--lattice", "time-axis"], "(1,,0)"),
        (["adele-vol", "--file", "unread.txt"], "junk[0, 2]]"),
        (["adele-vol", "--file", "blank.txt"], "2,,3"),
        (["blt-classify", "A_Q{S=2,,3; n=2}"], "2,,3"),
        (["sweep-critical", "--n-list", "2,,3"], "2,,3"),
        (["sweep-window", "--group", "Z8", "--window", "gauss",
          "--lattice", "plane-gens=((2),(0));((0),(2))", "--eps", "0,0.01,"], "0,0.01,"),
    ])
    def test_unread_text_refused_and_named(self, capsys, tmp_path, monkeypatch, argv, unread):
        (tmp_path / "unread.txt").write_text("S = 2,3\nAinf = [[1/2, 0]junk[0, 2]]\n",
                                             encoding="utf-8")
        (tmp_path / "blank.txt").write_text("S = 2,,3\nAinf = [[1]]\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        self.assert_refused(capsys, *argv)
        assert unread in run(capsys, *argv)[2]

    @pytest.mark.parametrize("argv, named", [
        (["adele-member", "--file", "auto.txt", "--vector", "inf=(5/2,1);;default=(5/2,1)"],
         "blank item"),
        (["adele-member", "--file", "auto.txt", "--vector", "inf=(5/2,1);default=(5/2,1);"],
         "blank item"),
        (["blt-classify", "A_Q{S=2,3;; n=2}"], "blank item"),
        (["blt-classify", "A_Q{ ; }"], "blank item"),
        (["blt-classify", "A_Q{S; n=2}"], "expected key=value, got 'S'"),
    ])
    def test_blank_or_keyless_item_refused(self, capsys, tmp_path, monkeypatch, argv, named):
        (tmp_path / "auto.txt").write_text("S = 2,3\nAinf = [[1,0],[0,1]]\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        self.assert_refused(capsys, *argv)
        assert named in run(capsys, *argv)[2]

    @pytest.mark.parametrize("literal", ["plane-gens=(())", "plane-gens=((1,0))x((0,0))",
                                         "plane-gens=((2),(0)) ; ((0),(2))"])
    def test_separators_still_accepted(self, capsys, literal):
        assert run(capsys, "adjoint", "--group", "Z4", "--lattice", literal)[0] == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "abc"])
    @pytest.mark.parametrize("argv", [
        ["janssen-check", "--count", "2"],
        ["wexler-raz", "--group", "Z4", "--window", "gauss", "--lattice", "full-plane"],
        ["transference-check", "--group", "Z4", "--window", "delta0",
         "--dual-window", "delta0", "--lattice", "time-axis", "--M", "4", "--d", "2"],
    ])
    def test_bad_tolerance(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 2 and out == ""
        assert "error: argument --tol" in err and "Traceback" not in err

    def test_zero_tolerance_accepted(self, capsys):
        code, payload = run_json(capsys, "transference-check", "--group", "Z4",
                                 "--window", "delta0", "--dual-window", "delta0",
                                 "--lattice", "time-axis", "--M", "4", "--d", "2", "--tol", "0")
        assert code == 0 and payload["equivalent"] is True

    @pytest.mark.parametrize("eps", ["0,nan", "0,inf"])
    def test_non_finite_eps(self, capsys, eps):
        argv = ["sweep-window", "--group", "Z8", "--window", "gauss",
                "--lattice", "plane-gens=((2),(0));((0),(2))", "--eps", eps]
        self.assert_refused(capsys, *argv)
        assert "eps" in run(capsys, *argv)[2]

    @pytest.mark.parametrize("argv, plane", [
        (["frame-bounds", "--group", "Z64xZ64", "--window", "delta0",
          "--lattice", "time-axis"], "the plane of Z64xZ64 has 16777216 points"),
        (["sweep-critical", "--n-list", "9"], "the plane of Z81 has 6561 points"),
    ])
    def test_plane_refusal_names_the_plane(self, capsys, argv, plane):
        self.assert_refused(capsys, *argv)
        assert plane in run(capsys, *argv)[2]


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
     '{"dim": 2, "margin": 0.41421356237309503, "volume": "1/2"}\n'),
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
    "padic": ["NotPrimeError", "Place", "RationalMatrix", "SingularMatrixError",
              "certify_prime", "in_gl_n_zp", "local_modular", "padic_abs", "valuation"],
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
        assert gabor_lca.adeles.lattice_volume is adeles.lattice_volume
        assert "adele_lattice_volume" not in dir(gabor_lca)
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


#: Subcommand -> (option or None for a positional, pool or None for a flag).
FUZZ_COMMANDS = {
    "frame-bounds": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
                     ("--lattice", FUZZ_LATTICES)],
    "janssen-check": [("--count", FUZZ_NUMBERS), ("--seed", FUZZ_NUMBERS),
                      ("--max-card", FUZZ_NUMBERS), ("--tol", FUZZ_NUMBERS)],
    "wexler-raz": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
                   ("--lattice", FUZZ_LATTICES), ("--dual-window", FUZZ_WINDOWS),
                   ("--tol", FUZZ_NUMBERS)],
    "adjoint": [("--group", FUZZ_GROUPS), ("--lattice", FUZZ_LATTICES)],
    "zak": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
            ("--subgroup", FUZZ_SUBGROUPS)],
    "zak-min": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
                ("--subgroup", FUZZ_SUBGROUPS)],
    "s0-norm": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
                ("--reference", FUZZ_WINDOWS)],
    "padic-abs": [(None, FUZZ_RATIONALS), (None, FUZZ_NUMBERS)],
    "adele-vol": [("--file", FUZZ_FILES), ("--spec", FUZZ_SPECS)],
    "adele-member": [("--file", FUZZ_FILES), ("--vector", FUZZ_VECTORS),
                     ("--spec", FUZZ_SPECS)],
    "adele-equal": [("--file", FUZZ_FILES), ("--file2", FUZZ_FILES), ("--spec", FUZZ_SPECS)],
    "blt-classify": [(None, FUZZ_SPECS)],
    "deform-margin": [("--file", FUZZ_FILES), ("--spec", FUZZ_SPECS)],
    "transference-check": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
                           ("--dual-window", FUZZ_WINDOWS), ("--lattice", FUZZ_LATTICES),
                           ("--M", FUZZ_NUMBERS), ("--d", FUZZ_NUMBERS),
                           ("--tol", FUZZ_NUMBERS)],
    "sweep-window": [("--group", FUZZ_GROUPS), ("--window", FUZZ_WINDOWS),
                     ("--lattice", FUZZ_LATTICES), ("--eps", FUZZ_EPS),
                     ("--seed", FUZZ_NUMBERS), ("--format", FUZZ_FORMATS)],
    "sweep-critical": [("--n-list", FUZZ_N_LISTS), ("--no-control", None),
                       ("--format", FUZZ_FORMATS)],
    "density-exhaust": [("--group", FUZZ_GROUPS), ("--windows", FUZZ_NUMBERS),
                        ("--seed", FUZZ_NUMBERS), ("--format", FUZZ_FORMATS)],
}


@st.composite
def fuzz_argv(draw, folder):
    """A subcommand with each of its options present or not (mostly present)."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command]
    for option, pool in FUZZ_COMMANDS[command]:
        if not draw(st.sampled_from([True, True, True, False])):
            continue
        if pool is None:
            argv.append(option)
            continue
        value = draw(st.sampled_from(pool))
        if pool is FUZZ_FILES:
            value = str(folder / value)
        argv += [value] if option is None else [option, value]
    return argv


class TestArgvFuzz:
    """The CLI contract on drawn argv: exit code 0, 1 or 2, no escaping exception."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, tmp_path, data):
        for name, text in FUZZ_DOCUMENTS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = data.draw(fuzz_argv(tmp_path))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "error:" in err.getvalue() and out.getvalue() == "", argv


REQUIRED, OPTIONAL = (True, None, None, None, None), (False, None, None, None, None)
SEED, FORMAT = (False, 0, int, None, None), (False, "csv", None, ("csv", "json"), None)
SYSTEM = {"--group": REQUIRED, "--window": REQUIRED, "--lattice": REQUIRED}
DOCUMENT = {"--file": REQUIRED, "--spec": OPTIONAL}

#: Subcommand -> option -> (required, default, type, choices, nargs), as the
#: parser declared them one subcommand at a time.
ARGUMENTS = {
    "frame-bounds": SYSTEM,
    "janssen-check": {"--count": (False, 100, int, None, None), "--seed": SEED,
                      "--max-card": (False, 36, int, None, None),
                      "--tol": (False, 1e-10, cli._tolerance, None, None)},
    "wexler-raz": {**SYSTEM, "--dual-window": OPTIONAL,
                   "--tol": (False, 1e-9, cli._tolerance, None, None)},
    "adjoint": {"--group": REQUIRED, "--lattice": REQUIRED},
    "zak": {"--group": REQUIRED, "--window": REQUIRED, "--subgroup": REQUIRED},
    "zak-min": {"--group": REQUIRED, "--window": REQUIRED, "--subgroup": REQUIRED},
    "s0-norm": {"--group": REQUIRED, "--window": REQUIRED, "--reference": OPTIONAL},
    "padic-abs": {"rational": REQUIRED, "prime": (True, None, int, None, None)},
    "adele-vol": DOCUMENT,
    "adele-member": {**DOCUMENT, "--vector": REQUIRED},
    "adele-equal": {**DOCUMENT, "--file2": REQUIRED},
    "blt-classify": {"spec": REQUIRED},
    "deform-margin": DOCUMENT,
    "transference-check": {**SYSTEM, "--dual-window": REQUIRED,
                           "--M": (True, None, int, None, None),
                           "--d": (True, None, int, None, None),
                           "--tol": (False, 1e-9, cli._tolerance, None, None)},
    "sweep-window": {**SYSTEM, "--eps": REQUIRED, "--seed": SEED, "--format": FORMAT},
    "sweep-critical": {"--n-list": REQUIRED, "--no-control": (False, False, None, None, 0),
                       "--format": FORMAT},
    "density-exhaust": {"--group": REQUIRED, "--windows": (False, 20, int, None, None),
                        "--seed": SEED, "--format": FORMAT},
}


class TestParserArguments:
    def test_every_subcommand_keeps_its_arguments(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {(a.option_strings or [a.dest])[0]: (a.required, a.default, a.type,
                                                        a.choices, a.nargs)
                   for a in p._actions if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()}
        assert declared == ARGUMENTS
