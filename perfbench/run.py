"""Benchmark of gabor_lca: time to a verified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads:

  subgroup-lattice     all_subgroups + annihilator over every shape |G| <= 63
  frame-ladder         frame bounds, duals, Wexler-Raz, Janssen, Zak at |G| = 16..64
  transference-adelic  the L*M <= 32 transference grid plus exact S-adelic items
  cli-cold             one fresh ``python -m gabor_lca.cli`` process per item

All loops are closed: one item at a time, in one process, BLAS pinned to one
thread.  A batch is the workload's fixed list of items; batches repeat until
``--seconds`` is used up, and at least MIN_BATCHES times.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` the
run alternates untraced and traced batches and reports per-layer metrics,
the tracing overhead, and whether the traced batches reproduced the
untraced results bit for bit.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("subgroup-lattice", "frame-ladder", "transference-adelic", "cli-cold")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_BATCHES = 5
CLI_PROBE_REPEATS = 3
NOOP_ITEMS = 2000

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))

perf_counter = time.perf_counter


@dataclass
class Batch:
    wall: float
    latencies: list[float]
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n items above
    it, by nearest rank."""
    return max(0, 100 * (n - 10) // n)


def item_stats(batches: list[Batch]) -> tuple[float, float, int]:
    """Median and tail item latency (s) over the items of all batches.  The
    tail percentile is fixed by MIN_BATCHES batches, so it is the same in
    every run of a workload."""
    pooled = sorted(lat for b in batches for lat in b.latencies)
    pct = tail_percentile(MIN_BATCHES * len(batches[0].latencies))
    rank = max(1, -(-pct * len(pooled) // 100))
    return statistics.median(pooled), pooled[rank - 1], pct


def freeze(obj):
    """Records with floats as exact hex strings, for bitwise comparison."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: freeze(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [freeze(v) for v in obj]
    return obj


def timed_loop(seconds: float, run_one, at_least: int = 1) -> list:
    """Call run_one() at least ``at_least`` times, then until the next call
    would likely overrun ``seconds``."""
    start = perf_counter()
    out = []
    while True:
        t0 = perf_counter()
        out.append(run_one())
        last = perf_counter() - t0
        if len(out) >= at_least and perf_counter() - start >= seconds - 0.5 * last:
            return out


def run_batch(items, tracer=None, cold_tables: bool = False) -> Batch:
    if cold_tables:
        import workloads
        workloads.clear_tables()
    span = tracer.span if tracer else (lambda name: nullcontext())
    latencies, records, failures = [], [], []
    start = perf_counter()
    with span("bench.batch"):
        for item in items:
            if tracer:
                tracer.item = item.id
            t0 = perf_counter()
            with span("bench.item"):
                try:
                    records.append(item.run())
                except Exception:  # noqa: BLE001 - a failed item is counted, never fatal
                    failures.append((item.id, traceback.format_exc(limit=4)))
                    records.append({"failed": True})
            latencies.append(perf_counter() - t0)
    return Batch(perf_counter() - start, latencies, records, failures)


def setup_workload(name: str, seed: int):
    if name == "cli-cold":
        import cli_cold  # keeps the library out of the benchmark process
        return cli_cold.setup(seed)
    import workloads
    return workloads.SETUPS[name](seed)


# --- setup time and environment -----------------------------------------------

def measure_setup(name: str, seed: int) -> float:
    """Time from starting a fresh process to its first timed item."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--workload", name, "--seed", str(seed), "--setup-only"],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.read()
    proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup-only child failed with exit {proc.returncode}")
    return elapsed


def cli_probe_ms(code: str) -> float:
    import cli_cold
    times = []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_cold.cli_env(),
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(args) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- untraced runs ------------------------------------------------------------

def untraced(args) -> tuple[dict, dict, int, int]:
    setup = setup_workload(args.workload, args.seed)
    # Set-up children run between batches, so they sample the machine at
    # several moments of the run rather than one.
    setups = []

    def batch_then_setup() -> Batch:
        batch = run_batch(setup.items, cold_tables=setup.cold_tables)
        if len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(args.workload, args.seed))
        return batch

    batches = timed_loop(args.seconds, batch_then_setup, MIN_BATCHES)
    cli = args.workload == "cli-cold"
    # For cli-cold this is the largest child: a CLI process, since set-up
    # children of cli-cold import neither numpy nor gabor_lca.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if cli
                                 else resource.RUSAGE_SELF).ru_maxrss
    p50, tail, pct = item_stats(batches)
    values = {"setup_s": statistics.median(setups),
              "run_s": statistics.median(b.wall for b in batches),
              "item_p50_ms": 1e3 * p50, "item_tail_ms": 1e3 * tail,
              "peak_rss_mb": peak_kb / 1024}
    attempted = sum(len(b.latencies) for b in batches)
    failed = sum(len(b.failures) for b in batches)
    detail = {
        "items_per_batch": len(setup.items), "batches": len(batches),
        "batch_walls_s": [b.wall for b in batches],
        "item_tail_percentile": f"p{pct}", "failed_frac": failed / attempted,
        "failures": [f for b in batches for f in b.failures][:5],
    }
    if cli:
        import cli_cold
        detail["malformed_contract_breaks"] = [
            d for d in cli_cold.probe_defects() if d["breaks_contract"]]
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return metrics, detail, attempted, failed


# --- traced runs --------------------------------------------------------------

def _layer_metrics(tracer_selfs: list[dict], counts: dict, setup_selfs: dict) -> dict:
    import spans
    out = {}
    for name in spans.TIMED:
        calls = setup_selfs.get(name, [0, 0.0])[0] + tracer_selfs[0].get(name, [0, 0.0])[0]
        self_s = setup_selfs.get(name, [0, 0.0])[1] + statistics.median(
            s.get(name, [0, 0.0])[1] for s in tracer_selfs)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(counts)
    return out


def _batch_counts(tracer, installation, cache_before) -> dict:
    hits, misses = installation.cache_stats()
    hits -= cache_before[0]
    misses -= cache_before[1]
    c = tracer.counts
    found, attempted = c.get("_subgroups_found", 0), c.get("_closures_attempted", 0)
    return {
        "groups.annihilator.points_scanned": c.get("groups.annihilator.points_scanned", 0),
        "groups.tables.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "groups.tables.bytes": sum(tracer.table_bytes.values()),
        "groups.elements_materialized": c.get("groups.elements_materialized", 0),
        "groups.all_subgroups.useful_ratio": found / attempted if attempted else 0.0,
        "groups.dual_plane.calls": c.get("groups.dual_plane.calls", 0),
        **{name: c.get(name, 0) for name in (
            "gabor.adjoint_lattice.points_scanned", "gabor.frame_operator.macs",
            "gabor.frame_bounds.eig_dim", "gabor.wexler_raz_check.adjoint_points",
            "gabor.janssen_operator.adjoint_points",
            "adeles.finite_transference_check.product_plane_points")},
    }


@dataclass
class TracedPair:
    """One untraced and one traced batch over the same items, and for
    cli-cold a batch of fresh CLI processes before them."""
    fresh: Batch | None
    plain: Batch
    traced: Batch
    counts: dict
    spans: list

    @property
    def same(self) -> bool:
        """Traced results equal the untraced ones bit for bit."""
        return freeze(self.plain.records) == freeze(self.traced.records)

    @property
    def batches(self) -> list[Batch]:
        return [b for b in (self.fresh, self.plain, self.traced) if b is not None]


def _pair(setup, tracer) -> TracedPair:
    import spans
    fresh = run_batch(setup.items) if setup.traced_items else None
    items = setup.traced_items or setup.items
    plain = run_batch(items, cold_tables=setup.cold_tables)
    if setup.cold_tables:
        import workloads
        workloads.clear_tables()  # so the traced batch counts cache hits from zero
    tracer.reset()
    inst = spans.Installation(tracer)
    before = inst.cache_stats()
    try:
        traced = run_batch(items, tracer, setup.cold_tables)
    finally:
        counts = _batch_counts(tracer, inst, before)
        inst.uninstall()
    return TracedPair(fresh, plain, traced, counts, list(tracer.spans))


def loop_overhead_s(tracer) -> float:
    """The benchmark's own cost per item under tracing: a traced batch of
    no-op items, per item, median of three."""
    from core import Item
    noop = [Item(f"noop{i}", dict) for i in range(NOOP_ITEMS)]
    per_item = []
    for _ in range(3):
        tracer.reset()
        per_item.append(run_batch(noop, tracer).wall / NOOP_ITEMS)
    tracer.reset()
    return statistics.median(per_item)


def _append_spans(all_spans: list, new: list) -> None:
    """Concatenate span lists, keeping parent indices valid."""
    offset = len(all_spans)
    all_spans += [(name, start, end, parent + offset if parent >= 0 else -1, item)
                  for name, start, end, parent, item in new]


def _by_id(items, batches) -> dict[str, list[float]]:
    out: dict[str, list] = {}
    for batch in batches:
        for item, lat in zip(items, batch.latencies):
            out.setdefault(item.id, []).append(lat)
    return out


def traced(args) -> tuple[dict, dict, int, int]:
    import spans
    # Imported before wrappers go in: every library module, the CLI too, so
    # that each module's ``from .x import y`` copies are found and wrapped;
    # and workloads, so that its TABLE_CACHES are the caches, not wrappers.
    import gabor_lca.cli  # noqa: F401
    import workloads  # noqa: F401

    tracer = spans.Tracer()
    all_spans: list = []
    values = {f"cli.{sub}.{kind}": 0.0 for sub in spans.CLI_SUBCOMMANDS
              for kind in ("p50_ms", "inproc_ms")}
    values["cli.malformed.contract_breaks"] = 0

    tracer.item = "setup"
    inst = spans.Installation(tracer)
    try:
        with tracer.span("bench.setup"):
            setup = setup_workload(args.workload, args.seed)
    finally:
        inst.uninstall()
    setup_selfs = spans.self_times(tracer.spans)
    _append_spans(all_spans, tracer.spans)
    per_item_overhead = loop_overhead_s(tracer)

    pairs = timed_loop(args.seconds, lambda: _pair(setup, tracer))
    selfs = [spans.self_times(p.spans) for p in pairs]
    for p in pairs:
        _append_spans(all_spans, p.spans)
    counts = pairs[0].counts
    parity = all(p.same and p.counts == counts for p in pairs)
    untraced_s = statistics.median(p.plain.wall for p in pairs)
    traced_s = statistics.median(p.traced.wall for p in pairs)
    items = setup.traced_items or setup.items
    bench_loop_s = per_item_overhead * len(items)

    values.update(_layer_metrics(selfs, counts, setup_selfs))
    values["bench.loop.self_s"] = bench_loop_s
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    # Traced batch time that neither a layer's wrapped functions nor the
    # benchmark's own loop account for: library code outside every wrapper
    # and the items' check code.
    values["trace.attribution_gap_s"] = statistics.median(
        p.traced.wall - bench_loop_s
        - sum(v[1] for name, v in s.items() if not name.startswith("bench."))
        for p, s in zip(pairs, selfs))
    values["cli.interpreter_ms"] = cli_probe_ms("pass")
    values["cli.import_ms"] = cli_probe_ms("import gabor_lca.cli")
    detail = {}
    if setup.traced_items:  # cli-cold
        import cli_cold
        fresh = _by_id(setup.items, [p.fresh for p in pairs])
        inproc = _by_id(items, [p.plain for p in pairs])
        for sub in spans.CLI_SUBCOMMANDS:
            values[f"cli.{sub}.p50_ms"] = 1e3 * statistics.median(fresh[sub])
            values[f"cli.{sub}.inproc_ms"] = 1e3 * statistics.median(inproc[sub])
        values["cli.malformed.contract_breaks"] = sum(
            d["breaks_contract"] for d in cli_cold.probe_defects())
        # Share of a cold call not spent in the subcommand itself: interpreter
        # start-up plus imports.
        detail["startup_share"] = {
            sub: 1 - values[f"cli.{sub}.inproc_ms"] / values[f"cli.{sub}.p50_ms"]
            for sub in spans.CLI_SUBCOMMANDS}

    write_spans(args, all_spans)
    metrics = {name: metric(values[name], unit) for name, unit in spans.per_layer_metrics()}
    failures = [f for p in pairs for b in p.batches for f in b.failures]
    detail.update({"pairs": len(pairs), "untraced_run_s": untraced_s, "traced_run_s": traced_s,
                   "loop_overhead_per_item_s": per_item_overhead,
                   "trace_parity": parity, "spans": len(all_spans), "failures": failures[:5]})
    attempted = sum(len(b.latencies) for p in pairs for b in p.batches)
    failed = len(failures) + (0 if parity else 1)
    return metrics, detail, attempted, failed


def write_spans(args, all_spans) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, (name, start, end, parent, item) in enumerate(all_spans):
            fh.write(json.dumps([i, name, start, end, parent, item]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "gabor_lca" / "__init__.py").is_file():
        print(f"error: no gabor_lca sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Pin BLAS before numpy is imported, here and in every child process.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_only:
        setup_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    run = traced if args.trace else untraced
    metrics, detail, attempted, failed = run(args)
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
