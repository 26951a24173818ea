"""Command-line interface.

Subcommands: ``analyze`` (moment criteria for a degree distribution),
``gf`` (generating-function fixed point and component-size law),
``evolve`` (closed-form growth-process analysis), ``flory`` (classical
gelation parameters), ``simulate`` (Monte Carlo), ``barycentric``
(transition-class grid over a three-atom mixture simplex).

Every run is deterministic given its flags; the default seed is the fixed
constant ``DEFAULT_SEED``.  JSON output carries floats with 17 significant
digits so values round-trip exactly.  Exit codes: 0 success, 2 unparsable
input, 3 invalid input, 4 non-convergence, 5 unreachable target.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import criteria, evolution, flory, gfsolver, mcgraph
from .degdist import BivariateDegreeDist, require_edge_balanced
from .errors import (
    ConversionOutOfRange,
    Exhausted,
    NoConvergence,
    ParseError,
    Supercritical,
    ValidationError,
    WeakGiantError,
)
from .evolution import BoundDist

DEFAULT_SEED = 12345


class _Rows(tuple):
    """Columns of a table, written as a JSON list of rows: the integer key
    columns, then the float column, each a list."""


def _rows(table) -> _Rows:
    """The rows of a sparse table, sorted by key."""
    return _Rows(a.tolist() for a in table.support)


def _json17(obj) -> str:
    """JSON text of a CLI payload, with floats to 17 significant digits.

    Takes the shapes the CLI emits: a dict whose values are None, bools,
    ints, floats, strings, dicts of these, lists of floats or :class:`_Rows`.
    A non-finite float raises :class:`ValueError` naming the first one.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _finite(format(obj, ".17g"), (obj,))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json17(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, _Rows):
        row = "[" + "{}, " * (len(obj) - 1) + "{:.17g}]"
        return _finite("[" + ", ".join(map(row.format, *obj)) + "]", obj[-1])
    if isinstance(obj, list):
        return _finite("[" + ", ".join(map("{:.17g}".format, obj)) + "]", obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _finite(text: str, floats) -> str:
    """``text``, the JSON of ``floats`` (and of integers), once no float in
    it is non-finite.  Only inf and nan write an "n", so one scan of the
    text checks them all."""
    if "n" in text:
        bad = next(x for x in floats if not math.isfinite(x))
        raise ValueError(f"non-finite value {bad!r} in JSON output")
    return text


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_output(text: str, out: str | None, dumps) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None
    or "-", and each (path, text) pair of ``dumps`` to its file.

    Every file is opened, without truncating it, before any is written, so
    a target that cannot be opened fails the request before a file changes.
    Files are written next, the result file before the dumps, and stdout
    last.  A failed request removes the files it created and no other.
    """
    if not text.endswith("\n"):
        text += "\n"
    to_stdout = out is None or out == "-"
    files = dumps if to_stdout else [(out, text), *dumps]
    created = []
    try:
        for path, _ in files:
            existed = os.path.lexists(path)
            with open(path, "a"):
                pass
            if not existed:
                created.append(path)
        for path, body in files:
            Path(path).write_text(body)
    except OSError:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise
    if to_stdout:
        sys.stdout.write(text)


def _parse_atom(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"atom {text!r} must look like 'n,k'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"atom {text!r} must hold two integers") from None


# Each command returns its result text and the (path, text) dump files that
# main writes with it once the whole request has succeeded.


def _cmd_analyze(args) -> tuple[str, list]:
    d = BivariateDegreeDist.from_text(_read_text(args.dist), tol=args.tol)
    report = criteria.criteria_report(d, balance_tol=args.tol)
    return _json17(report.to_json_dict()), []


def _cmd_gf(args) -> tuple[str, list]:
    d = BivariateDegreeDist.from_text(_read_text(args.dist), tol=args.tol)
    sol = gfsolver.interior_fixed_point(
        d, tol=args.fp_tol, max_iter=args.max_iter, balance_tol=args.tol
    )
    sizes = gfsolver.weak_size_distribution(d, args.order, balance_tol=args.tol)
    return _json17(
        {
            "s_in": sol.s_in,
            "s_out": sol.s_out,
            "giant_fraction": sol.giant_fraction,
            "size_distribution": sizes,
        }
    ), []


def _cmd_evolve(args) -> tuple[str, list]:
    P = BoundDist.from_text(_read_text(args.bounds), tol=args.tol)
    if args.critical:
        tc = evolution.transition_class(P)
        return _json17(
            {
                "class": tc.kind,
                "c_n_crit": tc.c_n_crit,
                "c_k_crit": tc.c_k_crit,
                "t_crit": tc.t_crit,
            }
        ), []
    if args.at_time is not None:
        state = evolution.degree_state_at(P, args.at_time)
    else:
        # The output needs a finite time: the supremum itself is unreachable.
        evolution.check_reachable(P, args.at_conversion)
        state = evolution.degree_state_at_conversion(P, args.at_conversion)
    marginal = evolution.marginal_degree_dist(state)
    report = criteria.criteria_report(marginal, balance_tol=max(args.tol, 1e-9))
    return _json17(
        {
            "t": state.t,
            "mu": state.mu,
            "c_n": state.c_n,
            "c_k": state.c_k,
            "marginal": _rows(marginal),
            "report": report.to_json_dict(),
        }
    ), []


def _cmd_flory(args) -> tuple[str, list]:
    mix = flory.FloryMixture(args.f1, args.f2, args.f3, args.n)
    params = flory.flory_parameters(mix)
    c_crit = flory.gel_conversion(mix)
    p_a, p_b = flory.gel_point_pa(params)
    gelled = flory.is_gelled(args.pa, params) if args.pa is not None else None
    return _json17(
        {
            "alpha_c": params.alpha_c,
            "rho": params.rho,
            "r": params.r,
            "c_n_crit": c_crit,
            "p_A_crit": p_a,
            "p_B_crit": p_b,
            "gelled": gelled,
        }
    ), []


def _graph_text(graph: mcgraph.DirectedMultigraph) -> str:
    lines = [str(graph.vertex_count)]
    lines.extend(f"{src} {dst}" for src, dst in graph.edges.tolist())
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> tuple[str, list]:
    text = _read_text(args.input)
    if args.mode == "config":
        if args.t_end is not None or args.target_conversion is not None:
            raise ValidationError("stop flags apply to kmc mode only")
        if args.dump_trajectory is not None:
            raise ValidationError("trajectory dump applies to kmc mode only")
        d = BivariateDegreeDist.from_text(text, tol=args.tol)
        require_edge_balanced(d, args.tol)
        graph = mcgraph.sample_configuration(d, args.vertices, args.seed)
        t_final = None
    else:
        P = BoundDist.from_text(text, tol=args.tol)
        result = mcgraph.kmc_simulate(
            P,
            args.vertices,
            args.seed,
            t_end=args.t_end,
            c_n_target=args.target_conversion,
            record_trajectory=args.dump_trajectory is not None,
        )
        graph, times, t_final = result.graph, result.times, result.state.t
        del result  # the capacities are not needed for labelling
    sizes = mcgraph.weak_component_sizes(graph)
    hist = mcgraph.size_histogram(sizes)
    dumps = []
    if args.dump_graph is not None:
        dumps.append((args.dump_graph, _graph_text(graph)))
    if args.dump_trajectory is not None:
        rows = ["# t mu_hat"]
        # mu_hat after event e is (e + 1) / N
        rows.extend(f"{t:.17g}\t{(e + 1) / args.vertices:.17g}" for e, t in enumerate(times.tolist()))
        dumps.append((args.dump_trajectory, "\n".join(rows) + "\n"))
    return _json17(
        {
            "mode": args.mode,
            "vertices": graph.vertex_count,
            "edges": int(graph.edges.shape[0]),
            "seed": args.seed,
            "t_final": t_final,
            "mu_hat": graph.edges.shape[0] / graph.vertex_count,
            "largest_weak_fraction": float(sizes.max()) / graph.vertex_count,
            "size_histogram": _rows(hist),
        }
    ), dumps


def _cmd_barycentric(args) -> tuple[str, list]:
    atoms = [_parse_atom(a) for a in args.atoms]
    points = evolution.barycentric_grid(atoms, args.resolution)
    lines = ["# f1 f2 f3 class c_n_crit t_crit"]
    for pt in points:
        tc = pt.transition
        c = format(tc.c_n_crit, ".17g") if tc.c_n_crit is not None else ""
        t = format(tc.t_crit, ".17g") if tc.t_crit is not None else ""
        lines.append(
            f"{pt.f1:.17g}\t{pt.f2:.17g}\t{pt.f3:.17g}\t{tc.kind}\t{c}\t{t}"
        )
    return "\n".join(lines), []


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every request shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="validation tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="weakgiant",
        description="Giant weak components of directed random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="moment criteria for a degree distribution")
    p.add_argument("dist", help="degree distribution file ('n k prob' lines; '-' for stdin)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gf", parents=[common], help="generating-function fixed point and size law")
    p.add_argument("dist", help="degree distribution file ('-' for stdin)")
    p.add_argument("--order", type=int, default=100, help="series truncation order (default 100)")
    p.add_argument("--fp-tol", type=float, default=gfsolver.FP_TOL, help="scalar fixed-point tolerance only")
    p.add_argument("--max-iter", type=int, default=gfsolver.MAX_ITER, help="scalar fixed-point iteration budget only")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("evolve", parents=[common], help="closed-form growth-process analysis")
    p.add_argument("bounds", help="bound distribution file ('n_max k_max prob'; '-' for stdin)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--critical", action="store_true", help="report the transition class")
    mode.add_argument("--at-time", type=float, default=None, metavar="T")
    mode.add_argument("--at-conversion", type=float, default=None, metavar="C")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("flory", parents=[common], help="classical gelation parameters")
    p.add_argument("--f1", type=float, required=True, help="fraction of linear A-A units")
    p.add_argument("--f2", type=float, required=True, help="fraction of linear B-B units")
    p.add_argument("--f3", type=float, required=True, help="fraction of n-functional A units")
    p.add_argument("--n", type=int, required=True, help="branch functionality")
    p.add_argument("--pa", type=float, default=None, help="A-group conversion to test for gelation")
    p.set_defaults(func=_cmd_flory)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo sampling")
    p.add_argument("input", help="degree or bound distribution file ('-' for stdin)")
    p.add_argument("--mode", choices=("config", "kmc"), required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--t-end", type=float, default=None, help="kmc: stop at this time")
    p.add_argument("--target-conversion", type=float, default=None, help="kmc: stop at this in-conversion")
    p.add_argument("--dump-graph", default=None, metavar="PATH")
    p.add_argument("--dump-trajectory", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("barycentric", parents=[common], help="transition classes over a mixture simplex")
    p.add_argument("--atoms", nargs=3, required=True, metavar="N,K", help="three capacity atoms")
    p.add_argument("--resolution", type=int, required=True, help="lattice spacing denominator (>= 2)")
    p.set_defaults(func=_cmd_barycentric)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, dumps = args.func(args)
        _write_output(text, args.out, dumps)
    except (WeakGiantError, OSError) as exc:
        code = failure_code(exc)
        if code is None:
            raise
        return code
    return 0


#: Exit code and message label of each expected failure, first match wins.
_FAILURES = (
    (ParseError, 2, "parse error"),
    (OSError, 2, "i/o error"),
    ((ValidationError, Supercritical), 3, "invalid input"),
    (NoConvergence, 4, "no convergence"),
    ((ConversionOutOfRange, Exhausted), 5, "unreachable target"),
)


def failure_code(exc: BaseException) -> int | None:
    """Exit code of an expected failure, after its one-line message on
    stderr; None, with nothing printed, for any other exception."""
    for kinds, code, label in _FAILURES:
        if isinstance(exc, kinds):
            print(f"weakgiant: {label}: {exc}", file=sys.stderr)
            return code
    return None


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
