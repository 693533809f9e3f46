"""Record the golden values the benchmark checks against.

    python3 perfbench/record_golden.py

Writes ``golden/subgroup_counts.json`` (subgroups per group shape with
|G| <= 64, and of the Z6 plane) and ``golden/cli_payloads.json`` (exit code
and stdout of every cli-cold subcommand item).  Run it only at a commit whose
results are trusted; the committed files were recorded at the seed commit.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in every benchmark run

import cli_cold  # noqa: E402
from workloads import group_shapes  # noqa: E402

from gabor_lca import groups  # noqa: E402


def main() -> int:
    shapes = {}
    for orders in group_shapes():
        G = groups.FiniteLcaGroup(orders)
        shapes[str(G)] = len(groups.all_subgroups(G))
    planes = {"Z6": len(groups.all_subgroups(groups.FiniteLcaGroup((6,)).plane()))}
    counts = {"shapes": shapes, "planes": planes, "total": sum(shapes.values())}
    (HERE / "golden" / "subgroup_counts.json").write_text(json.dumps(counts, indent=1) + "\n")

    payloads = {}
    for key, argv in cli_cold.SUBCOMMAND_ITEMS:
        code, stdout, stderr = cli_cold.run_cli(argv)
        if code != 0 or "Traceback" in stderr:
            raise SystemExit(f"{key}: exit {code}\n{stderr}")
        payloads[key] = {"argv": argv, "code": code, "stdout": stdout}
    (HERE / "golden" / "cli_payloads.json").write_text(json.dumps(payloads, indent=1) + "\n")
    print(f"{len(shapes)} shapes, {counts['total']} subgroups; {len(payloads)} CLI payloads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
