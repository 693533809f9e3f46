"""Command-line surface: every operation is reachable as a subcommand with
machine-readable JSON or CSV output.

Exit codes: 0 success, 1 assertion/check failure, 2 parse or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Only the exact layer is imported here, so that the exact subcommands start
# without numpy.  The float handlers and the literal parsers import numpy,
# groups, gabor, zak and experiments where they use them.
from . import adeles, padic
from ._literals import coord_tuples, key_values, read_list, scalars

if TYPE_CHECKING:
    from . import experiments, gabor
    from .groups import FiniteLcaGroup


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if np is not None and isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON-serializable: {value!r}")


def _emit(payload) -> None:
    print(json.dumps(payload, default=_json_default, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


# --- literals -----------------------------------------------------------------

def parse_window_literal(group: FiniteLcaGroup, text: str) -> gabor.Window:
    """'delta0', 'gauss', 'const', or 'values=(re,im),(re,im),...'."""
    import numpy as np

    from . import gabor
    from .groups import FiniteLcaGroup, parse_coord_tuples
    body = text.strip()
    if body == "delta0":
        return gabor.delta_window(group)
    if body == "const":
        return gabor.constant_window(group).normalized()
    if body == "gauss":
        from . import experiments  # the other literals need no import of it
        win = None
        for n in group.orders:
            factor = experiments.periodized_gaussian(n)
            win = factor if win is None else gabor.Window(
                FiniteLcaGroup(win.group.orders + (n,)),
                np.kron(win.values, factor.values))
        return win
    if body.startswith("values="):
        pairs = parse_coord_tuples(body[len("values="):], float)
        if any(len(p) != 2 for p in pairs):
            raise ValueError(f"window values must be (re,im) pairs, got {pairs}")
        return gabor.Window(group, np.array([complex(*p) for p in pairs], dtype=np.complex128))
    raise ValueError(f"unknown window literal {text!r}")


def parse_lattice_literal(group: FiniteLcaGroup, text: str) -> gabor.TfLattice:
    """Plane-lattice grammar.

    Keywords 'time-axis', 'frequency-axis', 'full-plane';
    'separable:gens=(..),(..)' for Lambda x Lambda_perp; or
    'plane-gens=((x),(w));((x),(w))' with ((x-coords),(w-coords)) generators
    (flat 2k-coordinate tuples are accepted too); 'plane-gens=(())' has no
    generators and is the trivial lattice.
    """
    from . import gabor
    from .groups import parse_subgroup_spec
    body = text.strip()
    if body == "time-axis":
        return gabor.TfLattice.time_axis(group)
    if body == "frequency-axis":
        return gabor.TfLattice.frequency_axis(group)
    if body == "full-plane":
        return gabor.TfLattice.full_plane(group)
    if body.startswith("separable:"):
        lam = parse_subgroup_spec(group, body[len("separable:"):])
        return gabor.TfLattice.separable(lam)
    if body.startswith("plane-gens="):
        body = body[len("plane-gens="):].strip()
        if body == "(())":
            return gabor.TfLattice.from_plane_generators(group, [])
        k = group.rank
        generators = []
        for item in read_list(body, separators=";x"):
            if isinstance(item, str):
                raise ValueError(f"plane generator {item!r} is not bracketed in {body!r}")
            tuples = coord_tuples(item)
            if len(tuples) == 1 and len(tuples[0]) == 2 * k:
                tuples = [tuples[0][:k], tuples[0][k:]]
            if [len(t) for t in tuples] != [k, k]:
                raise ValueError(f"plane generator needs {k}+{k} coordinates, got {tuples}")
            generators.append(tuple(tuples))
        if not generators:
            raise ValueError(f"expected plane generators such as ((1),(0)), got {body!r}")
        return gabor.TfLattice.from_plane_generators(group, generators)
    raise ValueError(f"unknown lattice literal {text!r}")


def format_lattice_literal(delta: gabor.TfLattice) -> str:
    k = delta.base_group.rank
    parts = []
    for gen in delta.subgroup.generators:
        x = ",".join(str(c) for c in gen.coords[:k])
        w = ",".join(str(c) for c in gen.coords[k:])
        parts.append(f"(({x}),({w}))")
    return "plane-gens=" + ";".join(parts) if parts else "plane-gens=(())"


def _rationals(text: str) -> list[Fraction]:
    """'(5/2,1)', or the bare '5/2,1', as a list of rationals."""
    items = read_list(text)
    if len(items) == 1 and isinstance(items[0], list):
        items = items[0]
    if not items:
        raise ValueError(f"empty vector component {text!r}")
    return [adeles._parse_rational(v) for v in scalars(items)]


def parse_adele_vector(place_set: adeles.PlaceSet, text: str) -> adeles.AdeleVector:
    """'diag=(5/2,1)' or 'inf=(5/2); 2=(5/2); 3=(1/3,...)'.

    Each component is one bracketed (or bare, '5/2,1') list of rationals, read
    whole: '(5/2,1)junk', '((5/2,1))' and '(5/2,,1)' are refused.
    """
    body = text.strip()
    if body.startswith("diag="):
        return adeles.AdeleVector.diagonal(place_set, _rationals(body[len("diag="):]))
    items = key_values(body, key=lambda k: k if k in ("inf", "default") else int(k))
    comps = {key: _rationals(value) for key, value in items.items()}
    inf = comps.pop("inf", None)
    default = comps.pop("default", None)
    if inf is None:
        raise ValueError("adele vector needs an inf=(...) component")
    return adeles.AdeleVector.create(place_set, inf, comps, default=default)


# --- command handlers ----------------------------------------------------------

def _cmd_frame_bounds(args) -> int:
    from . import gabor
    group, g, delta = _system_of_args(args)
    report = gabor.frame_bounds(g, delta)
    _emit({"group": str(group), "lattice": format_lattice_literal(delta),
           "volume": delta.volume, "lower": report.lower, "upper": report.upper,
           "is_frame": report.is_frame, "condition": report.condition})
    return 0


def _cmd_janssen_check(args) -> int:
    from . import experiments
    defect = experiments.janssen_max_defect(args.count, args.seed, args.max_card)
    ok = defect <= args.tol
    _emit({"instances": args.count, "seed": args.seed, "max_defect": defect,
           "tolerance": args.tol, "ok": ok})
    return 0 if ok else 1


def _cmd_wexler_raz(args) -> int:
    from . import gabor
    group, g, delta = _system_of_args(args)
    if args.dual_window is not None:
        h = parse_window_literal(group, args.dual_window)
    else:
        h = gabor.canonical_dual(g, delta)
    result = gabor.wexler_raz_check(g, h, delta, tol=args.tol)
    _emit({"holds": result.holds, "residual": result.residual, "kappa": result.kappa,
           "volume": delta.volume})
    return 0 if result.holds else 1


def _cmd_adjoint(args) -> int:
    from . import gabor
    from .groups import coords_matrix, parse_group_spec
    group = parse_group_spec(args.group)
    delta = parse_lattice_literal(group, args.lattice)
    adj = gabor.adjoint_lattice(delta)
    _emit({"group": str(group), "order": delta.order, "adjoint_order": adj.order,
           "volume": delta.volume, "adjoint_volume": adj.volume,
           "adjoint": format_lattice_literal(adj),
           "adjoint_elements": coords_matrix(adj.subgroup.group.orders)[
               adj.subgroup.index_array].tolist()})
    return 0


def _system_of_args(args):
    """The group, window and lattice named by ``--group``, ``--window`` and
    ``--lattice``, parsed in that order."""
    from .groups import parse_group_spec
    group = parse_group_spec(args.group)
    g = parse_window_literal(group, args.window)
    return group, g, parse_lattice_literal(group, args.lattice)


def _zak_of_args(args):
    """The Zak grid named by the arguments, its minimum modulus with an
    attaining (x, w), and its quasiperiodicity residual."""
    from . import zak
    from .groups import parse_group_spec, parse_subgroup_spec
    group = parse_group_spec(args.group)
    g = parse_window_literal(group, args.window)
    grid = zak.zak_transform(g, parse_subgroup_spec(group, args.subgroup))
    value, argmin = zak.min_modulus(grid)
    return grid, value, argmin, zak.quasiperiodicity_residual(grid)


def _cmd_zak(args) -> int:
    from .groups import coords_matrix
    grid, value, (x, w), residual = _zak_of_args(args)
    k = grid.window_group.rank
    cols = [f"x{i}" for i in range(k)] + [f"w{i}" for i in range(k)] + ["re", "im", "modulus"]
    print(",".join(cols))
    coords = [[str(c) for c in row]
              for row in coords_matrix(grid.window_group.orders).tolist()]
    for xi, x_cells in enumerate(coords):
        for wi, w_cells in enumerate(coords):
            v = complex(grid.values[xi, wi])
            print(",".join(x_cells + w_cells + [repr(v.real), repr(v.imag), repr(abs(v))]))
    print(f"summary,min_modulus={value!r},argmin_x={x},argmin_w={w},"
          f"quasiperiodicity_residual={residual!r}")
    return 0


def _cmd_zak_min(args) -> int:
    _, value, (x, w), residual = _zak_of_args(args)
    _emit({"min_modulus": value, "argmin_x": list(x.coords), "argmin_w": list(w.coords),
           "quasiperiodicity_residual": residual})
    return 0


def _cmd_s0_norm(args) -> int:
    from . import gabor
    from .groups import parse_group_spec
    group = parse_group_spec(args.group)
    f = parse_window_literal(group, args.window)
    g = parse_window_literal(group, args.reference) if args.reference else \
        gabor.delta_window(group)
    _emit({"s0_norm": gabor.s0_norm(f, g)})
    return 0


def _cmd_padic_abs(args) -> int:
    value = padic.padic_abs(adeles._parse_rational(args.rational), args.prime)
    print(str(value))
    return 0


def _load_automorphism(path: str, spec: str | None) -> adeles.AdeleAutomorphism:
    place_set = None
    if spec is not None:
        desc = adeles.parse_lca_group_spec(spec)
        place_set = adeles.PlaceSet(desc.primes)
    with open(path, "r", encoding="utf-8") as fh:
        return adeles.parse_automorphism_document(fh.read(), place_set)


def _cmd_adele_vol(args) -> int:
    auto = _load_automorphism(args.file, args.spec)
    mod = adeles.global_modular(auto)
    lattice = adeles.AdeleLattice(auto)
    _emit({"archimedean": mod.archimedean, "finite_part": mod.finite,
           "modular": mod.value, "volume": adeles.lattice_volume(lattice),
           "exact": mod.is_exact})
    return 0


def _cmd_adele_member(args) -> int:
    auto = _load_automorphism(args.file, args.spec)
    lattice = adeles.AdeleLattice(auto)
    x = parse_adele_vector(lattice.place_set, args.vector)
    result = adeles.lattice_membership(x, lattice)
    _emit({"is_member": result.is_member,
           "witness": [str(v) for v in result.witness] if result.witness else None})
    return 0


def _cmd_adele_equal(args) -> int:
    auto1 = _load_automorphism(args.file, args.spec)
    auto2 = _load_automorphism(args.file2, args.spec)
    equal = adeles.lattice_equality(adeles.AdeleLattice(auto1), adeles.AdeleLattice(auto2))
    _emit({"equal": equal})
    return 0


def _cmd_blt_classify(args) -> int:
    verdict = adeles.balian_low_classifier(args.spec)
    _emit({"spec": args.spec, "real_dimension": verdict.real_dimension,
           "compact_identity_component": verdict.compact_identity_component,
           "blt_holds": verdict.blt_holds, "message": verdict.message})
    return 0


def _cmd_deform_margin(args) -> int:
    auto = _load_automorphism(args.file, args.spec)
    lattice = adeles.AdeleLattice(auto)
    margin = adeles.deformation_margin(lattice)
    _emit({"volume": adeles.lattice_volume(lattice), "dim": lattice.dim,
           "margin": margin})
    return 0


def _cmd_transference_check(args) -> int:
    from . import gabor
    group, g, delta = _system_of_args(args)
    h = parse_window_literal(group, args.dual_window)
    result = gabor.finite_transference_check(g, h, delta, args.M, args.d, tol=args.tol)
    _emit({"base_is_dual_pair": result.base_is_dual_pair,
           "base_residual": result.base_residual,
           "product_is_dual_pair": result.product_is_dual_pair,
           "product_residual": result.product_residual,
           "volume": result.volume, "equivalent": result.equivalent})
    return 0 if result.equivalent else 1


def _print_report(report: experiments.SweepReport, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
        summary = {"assertions": report.assertions, **report.summary}
        print("# " + json.dumps(summary, default=_json_default, sort_keys=True))
    else:
        _emit({"name": report.name, "columns": list(report.columns),
               "rows": [list(r) for r in report.rows],
               "assertions": report.assertions, "summary": report.summary})


def _cmd_sweep_window(args) -> int:
    from . import experiments
    _, g, delta = _system_of_args(args)
    eps = [float(v) for v in scalars(read_list(args.eps))]
    report = experiments.window_stability_sweep(g, delta, eps, seed=args.seed)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def _cmd_sweep_critical(args) -> int:
    from . import experiments
    ns = [int(v) for v in scalars(read_list(args.n_list))]
    report = experiments.critical_density_trend(ns, include_control=not args.no_control)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def _cmd_density_exhaust(args) -> int:
    from . import experiments
    from .groups import parse_group_spec
    group = parse_group_spec(args.group)
    report = experiments.density_exhaustive(group, args.windows, seed=args.seed)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gabor-lca",
        description="Gabor frame analysis on finite LCA groups with exact "
                    "p-adic and S-adelic lattice arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The argument sets that several subcommands share, each declared once.
    system, zak_system, document, output = (argparse.ArgumentParser(add_help=False)
                                            for _ in range(4))
    for name in ("--group", "--window", "--lattice"):
        system.add_argument(name, required=True)
    for name in ("--group", "--window", "--subgroup"):
        zak_system.add_argument(name, required=True)
    document.add_argument("--file", required=True)
    document.add_argument("--spec", default=None)
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    def add(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(func=func)
        return p

    add("frame-bounds", _cmd_frame_bounds, "optimal frame bounds of a Gabor system", system)

    p = add("janssen-check", _cmd_janssen_check,
            "compare the lattice-sum and adjoint-lattice forms of the frame operator "
            "on seeded random instances")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-card", type=int, default=36)
    p.add_argument("--tol", type=_tolerance, default=1e-10)

    p = add("wexler-raz", _cmd_wexler_raz,
            "biorthogonality test for a window and (by default) its canonical dual", system)
    p.add_argument("--dual-window", default=None)
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add("adjoint", _cmd_adjoint, "adjoint lattice of a plane lattice")
    p.add_argument("--group", required=True)
    p.add_argument("--lattice", required=True)

    add("zak", _cmd_zak, "Zak transform as CSV rows plus a summary line", zak_system)
    add("zak-min", _cmd_zak_min, "minimum modulus of a Zak transform", zak_system)

    p = add("s0-norm", _cmd_s0_norm,
            "time-frequency concentration norm of a window")
    p.add_argument("--group", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--reference", default=None)

    p = add("padic-abs", _cmd_padic_abs, "exact p-adic absolute value")
    p.add_argument("rational")
    p.add_argument("prime", type=int)

    add("adele-vol", _cmd_adele_vol,
        "modular value and covolume of an adelic lattice", document)
    p = add("adele-member", _cmd_adele_member, "membership test with witness", document)
    p.add_argument("--vector", required=True)
    p = add("adele-equal", _cmd_adele_equal, "semantic equality of two adelic lattices",
            document)
    p.add_argument("--file2", required=True)

    p = add("blt-classify", _cmd_blt_classify,
            "Balian-Low dichotomy for a group specification")
    p.add_argument("spec")

    add("deform-margin", _cmd_deform_margin,
        "largest volume-preserving deformation margin of an adelic lattice", document)

    p = add("transference-check", _cmd_transference_check,
            "dual-pair transference between a base group and its compact-open product", system)
    p.add_argument("--dual-window", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add("sweep-window", _cmd_sweep_window, "window-perturbation stability sweep",
            system, output)
    p.add_argument("--eps", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("sweep-critical", _cmd_sweep_critical,
            "conditioning trend at critical density with an oversampled control", output)
    p.add_argument("--n-list", required=True)
    p.add_argument("--no-control", action="store_true")

    p = add("density-exhaust", _cmd_density_exhaust,
            "exhaustive density-theorem scan over all plane subgroups", output)
    p.add_argument("--group", required=True)
    p.add_argument("--windows", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
