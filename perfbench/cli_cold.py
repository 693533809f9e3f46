"""The cli-cold workload: one fresh ``python -m gabor_lca.cli`` process per item.

A batch runs all 17 subcommands once, plus malformed inputs that must exit 2
with an ``error:`` message and no traceback, in an order drawn from the
seed.  Each stdout is compared with the payload recorded at the seed commit
(``golden/cli_payloads.json``), numbers to a relative 1e-9.

The inputs are the invocations documented in the repository's README.md.
Where the README names a file, ``data/automorphism.txt`` is the README's
example automorphism file; ``data/automorphism_rebased.txt`` (the second
file of ``adele-equal``, which the README does not show) is that file times
the basis change [[1, 1], [0, 1]] in GL_2(Z(S)), so the lattices are equal.
The README has no ``zak-min`` example; it gets the README's ``zak`` inputs.
The README's ``adele-member --vector "diag=(5/2)"`` has one coordinate and
the example file is two-dimensional, so the CLI refuses it: it is a
malformed item here, and ``adele-member`` gets the two-coordinate example
from ``cli.parse_adele_vector``'s docstring, ``diag=(5/2,1)``.

Malformed inputs that break the exit-code contract at the seed commit
(traceback and exit 1, or exit 0 on input that must be refused) are not
timed items: a benchmark workload runs no operation that fails.  They run
once per run as a probe and are reported as ``cli.malformed.contract_breaks``.

This module imports nothing from ``gabor_lca`` at import time, so the
benchmark process stays small next to the CLI processes it measures.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from core import Item, Setup, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = "perfbench/data"
AUTO = f"{DATA}/automorphism.txt"

#: (subcommand, argv) for every subcommand; exit code and stdout are golden.
SUBCOMMAND_ITEMS = (
    ("frame-bounds", ["frame-bounds", "--group", "Z4", "--window", "delta0",
                      "--lattice", "time-axis"]),
    ("adjoint", ["adjoint", "--group", "Z4", "--lattice", "plane-gens=((2),(0));((0),(2))"]),
    ("janssen-check", ["janssen-check", "--count", "100", "--seed", "0"]),
    ("wexler-raz", ["wexler-raz", "--group", "Z4", "--window", "gauss",
                    "--lattice", "full-plane"]),
    ("zak", ["zak", "--group", "Z4", "--window", "delta0", "--subgroup", "gens=(2)"]),
    ("zak-min", ["zak-min", "--group", "Z4", "--window", "delta0", "--subgroup", "gens=(2)"]),
    ("s0-norm", ["s0-norm", "--group", "Z8", "--window", "gauss"]),
    ("padic-abs", ["padic-abs", "12", "2"]),
    ("adele-vol", ["adele-vol", "--file", AUTO]),
    ("adele-member", ["adele-member", "--file", AUTO, "--vector", "diag=(5/2,1)"]),
    ("adele-equal", ["adele-equal", "--file", AUTO,
                     "--file2", f"{DATA}/automorphism_rebased.txt"]),
    ("blt-classify", ["blt-classify", "A_Q{S=2,3; n=2}"]),
    ("deform-margin", ["deform-margin", "--file", AUTO]),
    ("transference-check", ["transference-check", "--group", "Z4", "--window", "delta0",
                            "--dual-window", "delta0", "--lattice", "time-axis",
                            "--M", "4", "--d", "2"]),
    ("sweep-window", ["sweep-window", "--group", "Z16", "--window", "gauss",
                      "--lattice", "plane-gens=((2),(0));((0),(4))",
                      "--eps", "0,0.01,0.02"]),
    ("sweep-critical", ["sweep-critical", "--n-list", "2,3,4,5"]),
    ("density-exhaust", ["density-exhaust", "--group", "Z4", "--windows", "20"]),
)

#: Malformed inputs the CLI refuses correctly at the seed commit.
MALFORMED_ITEMS = (
    ("malformed-vector", ["adele-member", "--file", AUTO, "--vector", "diag=(5/2)"]),
    ("malformed-group", ["frame-bounds", "--group", "G4", "--window", "delta0",
                         "--lattice", "time-axis"]),
    ("malformed-prime", ["padic-abs", "12", "4"]),
)

#: Malformed inputs that break the contract at the seed commit.
DEFECT_PROBES = (
    ("zero-denominator", ["padic-abs", "1/0", "2"]),
    ("zero-denominator-matrix", ["adele-vol", "--file", f"{DATA}/zero_division.txt"]),
    ("non-prime-place", ["blt-classify", "A_Q{S=4;n=1}"]),
    ("zero-windows", ["density-exhaust", "--group", "Z2", "--windows", "0",
                      "--format", "json"]),
)

_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def same_payload(got: str, want: str) -> bool:
    """Equal text, except that numbers may differ by a relative 1e-9."""
    if got == want:
        return True
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if not math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12):
            return False
    return True


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """A fresh ``python -m gabor_lca.cli`` process: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "gabor_lca.cli", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process with stdout and stderr captured."""
    from gabor_lca import cli
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def refused_cleanly(code: int, stderr: str) -> bool:
    return code == 2 and "Traceback" not in stderr and "error:" in stderr


def _cli_item(key: str, argv: list[str], golden: dict | None, runner) -> Item:
    def run() -> dict:
        code, stdout, stderr = runner(argv)
        if golden is None:
            check(refused_cleanly(code, stderr),
                  f"exit {code}, stderr {stderr.strip()[-200:]!r}")
        else:
            check(code == golden["code"], f"exit {code}, golden {golden['code']}")
            check(same_payload(stdout, golden["stdout"]), "stdout differs from the golden payload")
        return {"code": code, "stdout": stdout}

    return Item(key, run)


def setup(seed: int) -> Setup:
    """One batch: every subcommand and malformed item once, in a seeded order.
    The traced run times the same calls in-process."""
    golden = json.loads((HERE / "golden" / "cli_payloads.json").read_text())
    specs = [(key, argv, golden[key]) for key, argv in SUBCOMMAND_ITEMS]
    specs += [(key, argv, None) for key, argv in MALFORMED_ITEMS]
    random.Random(seed).shuffle(specs)
    return Setup([_cli_item(*spec, run_cli) for spec in specs],
                 traced_items=[_cli_item(*spec, run_inprocess) for spec in specs])


def probe_defects() -> list[dict]:
    """Run each known-defective malformed input once; report how it ends."""
    out = []
    for key, argv in DEFECT_PROBES:
        code, _, stderr = run_cli(argv)
        out.append({"input": key, "argv": argv, "exit": code,
                    "traceback": "Traceback" in stderr,
                    "breaks_contract": not refused_cleanly(code, stderr)})
    return out
