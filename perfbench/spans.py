"""Timing spans around the library's public functions, installed from outside.

``Installation(tracer)`` replaces each traced function with a wrapper at
every place the library binds it: the defining module, every ``gabor_lca``
module that imported it with ``from .x import y``, and the classes for
methods, class methods and the ``RationalMatrix.det`` cached property.
``uninstall()`` puts the originals back.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, item)``.  Spans stay in memory; the
caller writes them out when the run ends.  A span's self time is its
duration minus the durations of its direct children.

Counts (points scanned, MACs, elements materialized, ...) are computed from
each call's inputs and outputs, not measured inside the library.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter

#: Table functions behind ``groups.tables``; their ``lru_cache`` statistics
#: give ``groups.tables.hit_ratio``.
TABLE_FUNCTIONS = ("pair_exponent_table", "char_table", "add_index_table", "sub_index_table")

#: Experiment helpers that build instances, and the sweeps the CLI runs.
GENERATOR_FUNCTIONS = ("periodized_gaussian", "random_group", "random_plane_lattice",
                       "random_subgroup", "wexler_raz_flip_perturbation")
SWEEP_FUNCTIONS = ("window_stability_sweep", "critical_density_trend",
                   "density_exhaustive", "janssen_max_defect")

CLI_SUBCOMMANDS = (
    "frame-bounds", "janssen-check", "wexler-raz", "adjoint", "zak", "zak-min",
    "s0-norm", "padic-abs", "adele-vol", "adele-member", "adele-equal",
    "blt-classify", "deform-margin", "transference-check", "sweep-window",
    "sweep-critical", "density-exhaust",
)

#: Span names whose calls and self time are reported, in report order.
TIMED = (
    "groups.all_subgroups", "groups.annihilator", "groups.enumerate_subgroup",
    "groups.Subgroup.from_elements", "groups.tables",
    "gabor.adjoint_lattice", "gabor.frame_operator", "gabor.frame_bounds",
    "gabor.canonical_dual", "gabor.wexler_raz_check", "gabor.janssen_operator",
    "gabor.tf_shift_plane", "gabor.TfLattice",
    "zak.zak_transform", "zak.quasiperiodicity_residual", "zak.zak_frame_bounds",
    "padic.RationalMatrix.det", "padic.RationalMatrix.inverse",
    "adeles.global_modular", "adeles.lattice_equality", "adeles.lattice_membership",
    "adeles.finite_transference_check",
    "experiments.generators", "experiments.sweeps",
)

#: Computed counts, in report order, with their units.
COUNTS = (
    ("groups.annihilator.points_scanned", "count"),
    ("groups.tables.hit_ratio", "ratio"),
    ("groups.tables.bytes", "bytes"),
    ("groups.elements_materialized", "count"),
    ("groups.all_subgroups.useful_ratio", "ratio"),
    ("groups.dual_plane.calls", "count"),
    ("gabor.adjoint_lattice.points_scanned", "count"),
    ("gabor.frame_operator.macs", "count"),
    ("gabor.frame_bounds.eig_dim", "count"),
    ("gabor.wexler_raz_check.adjoint_points", "count"),
    ("gabor.janssen_operator.adjoint_points", "count"),
    ("adeles.finite_transference_check.product_plane_points", "count"),
)

#: Metrics of the benchmark itself and of the CLI layer.
OWN = (
    ("bench.loop.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attribution_gap_s", "s"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.malformed.contract_breaks", "count"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric a traced run reports, as (name, unit), in report order."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += list(COUNTS) + list(OWN)
    for sub in CLI_SUBCOMMANDS:
        out += [(f"cli.{sub}.p50_ms", "ms"), (f"cli.{sub}.inproc_ms", "ms")]
    return out


class Tracer:
    """In-memory span recorder plus computed counters."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.item: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.table_bytes: dict[tuple, int] = {}

    def _open(self, name: str) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, perf_counter()

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.item)

    @contextmanager
    def span(self, name: str):
        sid, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, start)

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, start = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start)
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        return traced

    def counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.table_bytes.clear()


def self_times(spans) -> dict[str, list]:
    """name -> [calls, self seconds] over closed spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, parent, item) in enumerate(spans):
        agg = out[name]
        agg[0] += 1
        agg[1] += (end - start) - child[i]
    return out


# --- computed counts ----------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_annihilator(tr, args, kwargs, out):
    sub = _arg(args, kwargs, 0, "sub")
    tr.counts["groups.annihilator.points_scanned"] += sub.group.cardinality * sub.order


def _count_elements(tr, args, kwargs, out):
    tr.counts["groups.elements_materialized"] += len(out.elements)


def _count_all_subgroups(tr, args, kwargs, out):
    card = _arg(args, kwargs, 0, "group").cardinality
    tr.counts["_subgroups_found"] += len(out)
    tr.counts["_closures_attempted"] += sum(card - h.order for h in out)


def _count_table(name):
    def count(tr, args, kwargs, out):
        tr.table_bytes[(name, _arg(args, kwargs, 0, "orders"))] = out.nbytes
    return count


def _count_adjoint(tr, args, kwargs, out):
    delta = _arg(args, kwargs, 0, "delta")
    tr.counts["gabor.adjoint_lattice.points_scanned"] += \
        delta.base_group.cardinality ** 2 * delta.order


def _count_frame_operator(tr, args, kwargs, out):
    delta = _arg(args, kwargs, 2, "delta")
    tr.counts["gabor.frame_operator.macs"] += delta.base_group.cardinality ** 2 * delta.order


def _count_eig_dim(tr, args, kwargs, out):
    tr.counts["gabor.frame_bounds.eig_dim"] += _arg(args, kwargs, 0, "g").group.cardinality


def _count_adjoint_points(name):
    def count(tr, args, kwargs, out):
        delta = _arg(args, kwargs, 2, "delta")
        tr.counts[name] += delta.base_group.cardinality ** 2 // delta.order
    return count


def _count_product_plane(tr, args, kwargs, out):
    card = _arg(args, kwargs, 0, "g").group.cardinality
    M = _arg(args, kwargs, 3, "M")
    tr.counts["adeles.finite_transference_check.product_plane_points"] += (card * M) ** 2


# (span name, module, attribute path, counter)
_FUNCTIONS = (
    ("groups.all_subgroups", "groups", "all_subgroups", _count_all_subgroups),
    ("groups.annihilator", "groups", "annihilator", _count_annihilator),
    ("groups.enumerate_subgroup", "groups", "enumerate_subgroup", _count_elements),
    ("groups.Subgroup.from_elements", "groups", "Subgroup.from_elements", _count_elements),
    *(("groups.tables", "groups", t, _count_table(t)) for t in TABLE_FUNCTIONS),
    ("gabor.adjoint_lattice", "gabor", "adjoint_lattice", _count_adjoint),
    ("gabor.frame_operator", "gabor", "frame_operator", _count_frame_operator),
    ("gabor.frame_bounds", "gabor", "frame_bounds", _count_eig_dim),
    ("gabor.canonical_dual", "gabor", "canonical_dual", None),
    ("gabor.wexler_raz_check", "gabor", "wexler_raz_check",
     _count_adjoint_points("gabor.wexler_raz_check.adjoint_points")),
    ("gabor.janssen_operator", "gabor", "janssen_operator",
     _count_adjoint_points("gabor.janssen_operator.adjoint_points")),
    ("gabor.tf_shift_plane", "gabor", "tf_shift_plane", None),
    *(("gabor.TfLattice", "gabor", f"TfLattice.{m}", None)
      for m in ("from_plane_generators", "time_axis", "frequency_axis",
                "full_plane", "separable")),
    ("zak.zak_transform", "zak", "zak_transform", None),
    ("zak.quasiperiodicity_residual", "zak", "quasiperiodicity_residual", None),
    ("zak.zak_frame_bounds", "zak", "zak_frame_bounds", None),
    ("padic.RationalMatrix.det", "padic", "RationalMatrix.det", None),
    ("padic.RationalMatrix.inverse", "padic", "RationalMatrix.inverse", None),
    ("adeles.global_modular", "adeles", "global_modular", None),
    ("adeles.lattice_equality", "adeles", "lattice_equality", None),
    ("adeles.lattice_membership", "adeles", "lattice_membership", None),
    ("adeles.finite_transference_check", "adeles", "finite_transference_check",
     _count_product_plane),
    *(("experiments.generators", "experiments", f, None) for f in GENERATOR_FUNCTIONS),
    *(("experiments.sweeps", "experiments", f, None) for f in SWEEP_FUNCTIONS),
)


class Installation:
    """Wrappers installed for one tracer; ``uninstall`` restores the library."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []
        groups = sys.modules["gabor_lca.groups"]
        self._tables = [getattr(groups, t) for t in TABLE_FUNCTIONS]  # the lru_cache objects
        sites = [m for name, m in list(sys.modules.items())
                 if m is not None and (name == "gabor_lca" or name.startswith("gabor_lca."))]
        for span_name, mod_name, path, count in _FUNCTIONS:
            self._install(sites, span_name, sys.modules[f"gabor_lca.{mod_name}"], path, count)
        lca = groups.FiniteLcaGroup
        for meth in ("dual", "plane"):
            raw = lca.__dict__[meth]
            self._set(lca, meth, tracer.counting("groups.dual_plane.calls", raw), raw)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _install(self, sites, span_name, module, path, count):
        if "." not in path:
            orig = getattr(module, path)
            wrapped = self.tracer.wrap(span_name, orig, count)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is orig:
                        self._set(site, key, wrapped, orig)
            return
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.tracer.wrap(span_name, raw.__func__, count)), raw)
        elif isinstance(raw, functools.cached_property):
            # cached_property.__get__ calls self.func, so swap the function in place.
            self._set(raw, "func", self.tracer.wrap(span_name, raw.func, count), raw.func)
        else:
            self._set(cls, attr, self.tracer.wrap(span_name, raw, count), raw)

    def cache_stats(self) -> tuple[int, int]:
        hits = misses = 0
        for fn in self._tables:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
