"""The benchmark's own checks.

    python3 perfbench/selftest.py [--seconds S]

1. For every workload, a traced run (``--trace 1``) must report
   ``correct: true`` and ``trace_parity: true``: traced batches give the
   untraced batches' verdicts, residuals (bit for bit) and counts.
2. ``BENCHMARK.json`` lists exactly the metrics the runs print, in both modes.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=600)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, w, args.seconds, trace)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            if not result["correct"]:
                problems.append(f"{w} trace {trace}: not correct: {detail}")
            if trace and not detail["trace_parity"]:
                problems.append(f"{w}: traced results differ from untraced ones")
            if set(result["metrics"]) != want[trace]:
                problems.append(f"{w} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ want[trace])}")
            print(f"{w} trace {trace}: ok", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], args.seconds, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("benchmark ran without the library sources")
        else:
            print(f"without sources: exit {proc.returncode}, no result: ok")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
