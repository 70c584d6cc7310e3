"""Command-line front end.

Subcommands: ``stats`` (measures of an input field), ``simplify`` (the
collapse algorithm), ``baseline`` (smoothing filters and Loop
subdivision), ``render`` (SVG), ``graph`` (neighborhood graph export),
and ``compare`` (measures table across inputs and methods).

Exit codes: 0 success, 2 input/validation error, 64 usage error, which
the parser reports before any input is read. Every command that writes
an output file also writes ``<output>.manifest.json`` recording the
invocation (``stats`` and ``compare`` only with ``--out``). Each
``cmd_*`` handler returns only its exit code; :func:`main` times it and
derives the manifest from the parsed options: the ``outputs`` are
``--out`` and ``--report``, and the ``parameters`` every other option
but the input(s), in parser order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from time import perf_counter

import numpy as np

from . import __version__
from .baselines import KernelCutWarning, binomial_filter, gaussian_filter, loop_subdivide
from .collapse import simplify
from .fileio import (
    ParseError,
    load_bsf,
    load_field,
    load_sgf,
    save_bsf,
    save_sgf,
    sgf_field,
    sniff_format,
)
from .jacobi import compute_jacobi_set, jacobi_measures, measures
from .mesh import MeshError
from .regions import VARIANTS, build_regions, graph_to_dot, graph_to_json, neighborhood_graph
from .render import render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64

_INPUT_ERRORS = (ParseError, MeshError, OSError, ValueError)
_METHODS = ("original", "ca-a", "ca-b", "ca-c", "ca-d", "binomial", "gaussian", "loop")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _graph_path(path: str) -> str:
    """The ``graph --out`` path, whose suffix picks the format."""
    if not path.endswith((".dot", ".gv", ".json")):
        raise argparse.ArgumentTypeError("must end in .dot, .gv, or .json")
    return path


def _add_baseline_options(p) -> None:
    """The smoothing and subdivision options of ``baseline`` and ``compare``."""
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--sigma", type=float, default=1000.0)
    p.add_argument("--truncation", type=float, default=3.0)
    p.add_argument("--boundary", choices=("clamp", "mirror"), default="clamp")
    p.add_argument("--steps", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jacobiset", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jacobiset {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stats", help="measures of an input field")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--out", help="also write the measures as JSON")

    p = sub.add_parser("simplify", help="collapse low-hypervolume regions")
    p.add_argument("input")
    p.add_argument("--variant", choices=VARIANTS, default="A")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True, help="simplified field (BSF)")
    p.add_argument("--report", help="collapse report (JSON)")
    p.add_argument("--epsilon", type=float, default=0.0)

    p = sub.add_parser("baseline", help="smoothing filters / Loop subdivision")
    p.add_argument("input")
    p.add_argument("--method", choices=("binomial", "gaussian", "loop"), required=True)
    _add_baseline_options(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="render the field to SVG")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--show-jacobi", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--saturation-scale", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.0)

    p = sub.add_parser("graph", help="export the neighborhood graph")
    p.add_argument("input")
    p.add_argument("--variant", choices=VARIANTS, default="A")
    p.add_argument("--out", type=_graph_path, required=True, help="*.dot or *.json")
    p.add_argument("--epsilon", type=float, default=0.0)

    p = sub.add_parser("compare", help="measures table across inputs and methods")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--methods", nargs="+", choices=_METHODS, required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--out", help="write the table to a file instead of stdout")
    p.add_argument("--threshold", type=float, default=0.0001)
    _add_baseline_options(p)
    p.add_argument("--epsilon", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "stats": cmd_stats,
        "simplify": cmd_simplify,
        "baseline": cmd_baseline,
        "render": cmd_render,
        "graph": cmd_graph,
        "compare": cmd_compare,
    }[args.command]
    t0 = perf_counter()
    try:
        code = handler(args)
    except _INPUT_ERRORS as exc:
        print(f"jacobiset {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    parameters = dict(vars(args))
    del parameters["command"]
    inputs = parameters.pop("inputs", None) or [parameters.pop("input")]
    outputs = [path for path in (parameters.pop("out"), parameters.pop("report", None)) if path]
    if outputs:
        manifest = {
            "command": args.command,
            "tool_version": __version__,
            "inputs": inputs,
            "parameters": parameters,
            "outputs": outputs,
            "elapsed_ms": (perf_counter() - t0) * 1000.0,
        }
        _write_json(f"{outputs[0]}.manifest.json", manifest)
    return code


def run() -> None:
    sys.exit(main())


def cmd_stats(args):
    field = load_field(args.input)
    js = compute_jacobi_set(field, args.epsilon)
    stats = jacobi_measures(field, js)
    regions_per_variant = {v: len(build_regions(field, js.assigned, variant=v)) for v in VARIANTS}
    payload = {
        "length": stats["length"],
        "components": stats["components"],
        "triangles": field.n_triangles,
        "regions_per_variant": regions_per_variant,
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_simplify(args):
    field = load_field(args.input)
    report = simplify(
        field, variant=args.variant, threshold=args.threshold, epsilon=args.epsilon
    )
    save_bsf(field, args.out)
    if args.report:
        # The report file stays byte-reproducible across runs; wall time
        # lives in the manifest instead.
        _write_json(args.report, report.to_dict())
    print(
        f"simplify: {report.status.value}, collapsed {report.collapsed_cells} cells "
        f"in {report.iterations} sweeps; components "
        f"{report.before['components']} -> {report.after['components']}, "
        f"length {report.before['length']:.6g} -> {report.after['length']:.6g}"
    )
    return EXIT_OK


def _filtered(grid, method: str, args, source: str = ""):
    """``grid`` smoothed by the ``binomial`` or ``gaussian`` filter, which
    reads only its own options. A kernel cut at the grid extent is reported
    on stderr, after ``source``; other warnings pass through as they came."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KernelCutWarning)
        if method == "gaussian":
            smooth = gaussian_filter(grid, args.sigma, args.truncation, args.boundary)
        else:
            smooth = binomial_filter(grid, args.radius, args.boundary)
    for w in caught:
        if issubclass(w.category, KernelCutWarning):
            print(f"warning: {source}{w.message}", file=sys.stderr)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return smooth


def cmd_baseline(args):
    if args.method == "loop":
        save_bsf(loop_subdivide(load_field(args.input), args.steps), args.out)
        return EXIT_OK
    if sniff_format(args.input) != "sgf":
        raise ValueError(f"--method {args.method} requires structured grid (SGF) input")
    save_sgf(_filtered(load_sgf(args.input), args.method, args), args.out)
    return EXIT_OK


def cmd_render(args):
    field = load_field(args.input)
    svg = render_svg(
        field,
        show_jacobi=args.show_jacobi,
        saturation_scale=args.saturation_scale,
        epsilon=args.epsilon,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_graph(args):
    field = load_field(args.input)
    _, _, _, graph = neighborhood_graph(field, args.variant, args.epsilon)
    if args.out.endswith(".json"):
        _write_json(args.out, graph_to_json(graph))
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(graph_to_dot(graph))
    return EXIT_OK


def _load_compare_input(path):
    """Parse one ``compare`` input once: ``(grid, field)``, where ``grid`` is
    the SGF grid (None for BSF input) and ``field`` the triangle field.
    A load that fails leaves its error in ``field``, and in ``grid`` too
    if the file did not load at all; every cell reports it."""
    try:
        grid = load_sgf(path) if sniff_format(path) == "sgf" else None
    except _INPUT_ERRORS as exc:
        return exc, exc
    try:
        field = load_bsf(path) if grid is None else sgf_field(path, grid)
    except _INPUT_ERRORS as exc:
        field = exc
    return grid, field


def _compare_cell(path, method: str, grid, field, args) -> dict:
    filters = method in ("binomial", "gaussian")
    if filters and grid is None:
        raise ValueError(f"{method} requires structured grid (SGF) input")
    if isinstance(field, Exception):
        raise field
    eps = args.epsilon
    if filters:
        smooth = _filtered(grid, method, args, f"{path}: ")
        # The filters keep the grid's size and spacing: only values change.
        values = np.column_stack([smooth.f.ravel(), smooth.g.ravel()])
        return measures(field.with_values(values), eps)
    if method == "original":
        return measures(field, eps)
    if method.startswith("ca-"):
        # simplify mutates its field; the loaded one serves every cell.
        report = simplify(
            field.copy(), variant=method[-1].upper(), threshold=args.threshold, epsilon=eps
        )
        return report.after
    return measures(loop_subdivide(field, args.steps), eps)


def cmd_compare(args):
    results = {}
    for path in args.inputs:
        grid, field = _load_compare_input(path)
        for method in args.methods:
            try:
                results[(path, method)] = _compare_cell(path, method, grid, field, args)
            except _INPUT_ERRORS as exc:
                results[(path, method)] = {"error": str(exc)}

    ok = sum(1 for r in results.values() if "error" not in r)
    table = _format_compare(args, results)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    else:
        print(table, end="")
    return EXIT_OK if ok else EXIT_INPUT


def _format_compare(args, results) -> str:
    rows = []
    for path in args.inputs:
        done = [r for m in args.methods if "error" not in (r := results[(path, m)])]
        best_len = min((r["length"] for r in done), default=None)
        best_comp = min((r["components"] for r in done), default=None)
        for method in args.methods:
            r = results[(path, method)]
            if "error" in r:
                rows.append((path, method, f"error: {r['error']}", "", False, False))
            else:
                rows.append(
                    (
                        path,
                        method,
                        f"{r['length']:.6g}",
                        str(r["components"]),
                        r["length"] == best_len,
                        r["components"] == best_comp,
                    )
                )
    if args.format == "csv":
        # csv quotes a cell holding a comma, e.g. a ParseError's message.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["input", "method", "length", "components"])
        writer.writerows(row[:4] for row in rows)
        return buf.getvalue()
    out = [
        "| Input | Method | Length of Jacobi sets | # of components |",
        "| --- | --- | --- | --- |",
    ]
    for path, method, length, comp, is_best_len, is_best_comp in rows:
        length_cell = f"**{length}**" if is_best_len else length
        comp_cell = f"**{comp}**" if is_best_comp else comp
        cells = (path, method, length_cell, comp_cell)
        out.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    return "\n".join(out) + "\n"
