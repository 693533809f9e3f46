#!/usr/bin/env python3
"""Regenerate the deformation / critical-density experiment tables as CSV.

Writes into --out (default results/): critical_density_trend.csv,
window_stability.csv and one density_exhaustive_<group>.csv per scanned group,
plus a JSON summary with every assertion verdict.  Output is deterministic for
a fixed seed.
"""

import argparse
import json
import sys
from pathlib import Path

from gabor_lca import experiments as ex
from gabor_lca._literals import read_list, scalars
from gabor_lca.gabor import TfLattice
from gabor_lca.groups import parse_group_spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-list", default="2,3,4,5")
    parser.add_argument("--eps", default="0,0.0025,0.005,0.01,0.02,0.04")
    parser.add_argument("--density-groups", default="Z4,Z2xZ2")
    args = parser.parse_args(argv)

    # Every list is read before any sweep runs, and every sweep runs before
    # any file is written, so bad input leaves no partial output behind.
    try:
        ns = [int(v) for v in scalars(read_list(args.n_list))]
        eps = [float(v) for v in scalars(read_list(args.eps))]
        specs = scalars(read_list(args.density_groups))
        groups = [parse_group_spec(spec) for spec in specs]
        g = ex.periodized_gaussian(16, center=0.5)
        delta = TfLattice.from_plane_generators(g.group, [((2,), (0,)), ((0,), (4,))])
        trend = ex.critical_density_trend(ns)
        sweep = ex.window_stability_sweep(g, delta, eps, seed=args.seed)
        scans = [ex.density_exhaustive(group, windows_per_lattice=20, seed=args.seed)
                 for group in groups]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {"critical_density_trend.csv": trend, "window_stability.csv": sweep,
             **{f"density_exhaustive_{spec}.csv": scan for spec, scan in zip(specs, scans)}}
    for name, report in files.items():
        (out / name).write_text(report.to_csv(), encoding="utf-8")
    reports = list(files.values())

    summary = {rep.name if rep.name != "density_exhaustive" else
               f"{rep.name}_{rep.summary.get('group')}":
               {"assertions": rep.assertions, **rep.summary} for rep in reports}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
