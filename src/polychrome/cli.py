"""Command-line interface: one binary, file-to-file subcommands.

Exit codes: 0 clean, 1 usage or I/O error, 2 finding (bad faces exist,
bounds-only chromatic result, non-unimodular lift, failed pipeline
assertion). Scripts can branch on findings without parsing output.

Each subparser binds its handler (and each gen subparser its builder) with
set_defaults. Only main touches files: it loads every declared input, each file
once per loader, refuses outputs it cannot write before any work, dispatches,
and writes the outputs a command returns, all or none. Commands return (exit
code, JSON data, table lines, *outputs), one (serialize.save_*, value) pair per
output argument in declared order, optional ones last; only main prints, either
as JSON or as a table. Tables that grow with the input are lazy generators.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from pathlib import Path

from . import gf2, serialize
from .charmap import MODES, PRESET_NAMES, CharMap, bad_faces, lift_determinant_report, preset
from .chromatic import DEFAULT_TIME_BUDGET, chromatic_number
from .generators import dual_cyclic, product, segment
from .pipelines import TARGETS, product_with_segment, reproduce
from .polytope import _face_label, euler_expected, euler_sum, f_vector
from .resolution import DEFAULT_BUDGET, resolve


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychrome",
        description="Simple polytopes, GF(2) characteristic maps, truncation "
        "resolution, and exact chromatic certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt, poly, cmap, out = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    fmt.add_argument("--format", choices=("table", "json"), default="table")
    poly.add_argument("polytope")
    cmap.add_argument("map")
    out.add_argument("-o", "--output", required=True)

    gen = sub.add_parser("gen", help="construct a starting polytope")
    gen.set_defaults(run=_cmd_gen)
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    g = gen_sub.add_parser("dual-cyclic", parents=[out], help="dual of a cyclic polytope")
    g.set_defaults(build=lambda a: dual_cyclic(a.dim, a.facets))
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--facets", type=int, required=True)
    g = gen_sub.add_parser("product", parents=[out], help="product of two polytope files")
    g.set_defaults(build=lambda a: product(a.left, a.right))
    g.add_argument("left")
    g.add_argument("right")
    g = gen_sub.add_parser("segment", parents=[out], help="the 1-dimensional segment")
    g.set_defaults(build=lambda a: segment())

    p = sub.add_parser("decorate", parents=[poly, out],
                       help="write a named preset characteristic map")
    p.set_defaults(run=_cmd_decorate)
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--mode", choices=MODES)

    sub.add_parser("check", parents=[fmt, poly, cmap],
                   help="detect bad faces of a characteristic map").set_defaults(run=_cmd_check)
    sub.add_parser("fvector", parents=[fmt, poly],
                   help="face counts and Euler check").set_defaults(run=_cmd_fvector)

    p = sub.add_parser("resolve", parents=[poly, cmap], help="truncate bad faces until none remain")
    p.set_defaults(run=_cmd_resolve)
    p.add_argument("-o", "--output", nargs=2, required=True,
                   metavar=("OUT_POLYTOPE", "OUT_MAP"))
    p.add_argument("--trace")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("chromatic", parents=[fmt, poly],
                       help="certified chromatic number of the facet graph")
    p.set_defaults(run=_cmd_chromatic)
    p.add_argument("--hint")
    p.add_argument("--time-budget", type=float, default=DEFAULT_TIME_BUDGET)

    p = sub.add_parser("lift-check", parents=[fmt, poly, cmap],
                       help="integer determinants of the naive 0/1 lift")
    p.set_defaults(run=_cmd_lift_check)

    p = sub.add_parser("reproduce", parents=[fmt], help="run a scripted end-to-end pipeline")
    p.set_defaults(run=_cmd_reproduce)
    p.add_argument("target", choices=TARGETS)
    p.add_argument("-o", "--output", help="also write the summary JSON here")
    p.add_argument("--with-product", action="store_true",
                   help="also certify the product with a segment")
    return parser


def _cmd_gen(args):
    P = args.build(args)
    return 0, None, [f"wrote {args.output}: dim {P.dim}, {P.num_facets} facets, "
                     f"{len(P.vertices)} vertices"], (serialize.save_polytope, P)


def _cmd_decorate(args):
    L = preset(args.preset, args.polytope)
    if args.mode and args.mode != L.mode:
        L = CharMap(L.n, L.vectors, args.mode)
    return 0, None, [f"wrote {args.output}: {len(L.vectors)} vectors, mode {L.mode}"], (
        serialize.save_charmap, L)


def _cmd_check(args):
    P, L = args.polytope, args.map
    bad = bad_faces(P, L)
    def table():
        if not bad:
            yield "no bad faces: the map is non-singular at every vertex"
            return
        yield f"{len(bad)} bad faces:"
        yield f"{'size':>4}  {'face':<24} {'vectors':<32} witness vertex"
        for b in bad:
            label = _face_label(P, b.face)
            vecs = " ".join(gf2.vector_str(L.vectors[i]) for i in b.face)
            yield f"{b.circuit_size:>4}  {label:<24} {vecs:<32} {list(b.witness_vertex)}"
    return 2 if bad else 0, [vars(b) for b in bad], table()


def _cmd_fvector(args):
    P = args.polytope  # load_polytope refused any polytope with diagnostics
    fv = f_vector(P)
    alternating, expected = euler_sum(fv), euler_expected(P.dim)
    data = {"dim": P.dim, "f_vector": fv, "euler_alternating_sum": alternating,
            "euler_consistent": alternating == expected, "diagnostics": []}
    lines = [f"f = {fv}", f"euler alternating sum = {alternating} (expected {expected})"]
    return 0 if data["euler_consistent"] else 2, data, lines


def _cmd_resolve(args):
    report = resolve(args.polytope, args.map, budget=args.budget)
    return 0 if report.terminated == "success" else 2, None, [
        f"{report.terminated}: {len(report.steps)} steps from {report.initial_bad_count} "
        f"bad faces; final polytope has {report.final_polytope.num_facets} facets, "
        f"{len(report.final_polytope.vertices)} vertices"
    ], (serialize.save_polytope, report.final_polytope), (
        serialize.save_charmap, report.final_map), (serialize.save_report, report)


def _cmd_chromatic(args):
    cert = chromatic_number(args.polytope, hint=args.hint, time_budget=args.time_budget)
    def table():
        yield f"chi = {cert.chi} ({cert.status}; bounds {cert.lower}..{cert.upper})"
        yield f"clique ({len(cert.clique)}): {list(cert.clique)}"
        yield f"coloring: {list(cert.coloring)}"
    return 0 if cert.status == "exact" else 2, vars(cert), table()


def _cmd_lift_check(args):
    rep = lift_determinant_report(args.polytope, args.map)
    data = {
        "determinants": list(rep.determinants),
        "all_unimodular": rep.all_unimodular,
        "all_odd": all(d % 2 != 0 for d in rep.determinants),
        "non_unimodular_vertices": [list(v) for v in rep.non_unimodular],
    }
    def table():
        yield f"vertices: {len(rep.determinants)}, all |det| = 1: {rep.all_unimodular}"
        if rep.non_unimodular:
            yield f"{len(rep.non_unimodular)} vertices where the naive 0/1 lift is not unimodular:"
            for v in rep.non_unimodular:
                yield f"  {list(v)}"
    return 0 if rep.all_unimodular else 2, data, table()


def _reproduce_table(s: dict):
    if "reference" in s:
        yield (
            f"bad edges: {s['initial_bad_edges']} (reference lists "
            f"{s['reference']['bad_edges']}), bad vertices: {s['initial_bad_vertices']}, "
            f"steps: {s['steps']}, f = {s['f_vector']}, chi = {s['chi']}"
        )
        yield f"bad edges pairwise vertex-disjoint: {s['bad_edges_vertex_disjoint']}"
    elif "oriented" in s:
        yield (
            f"oriented: {s['oriented']}, steps: {s['steps']}, "
            f"f = {s['f_vector']}, chi = {s['chi']}"
        )
        yield ", ".join(
            f"size-{key.removeprefix('size').split('_')[0]} circuits observed: {count}"
            for key, count in s.items() if key.endswith("_circuits_observed")
        )
    yield f"euler: sum {s['euler_alternating_sum']}, consistent: {s['euler_consistent']}"
    yield f"chi status: {s['chi_status']} (clique {s['clique_size']}, colors {s['colors_used']})"
    for note in s.get("notes", []):
        yield f"note: {note}"
    if "product_with_segment" in s:
        p = s["product_with_segment"]
        yield (
            f"product with segment: dim {p['dim']}, {p['facets']} facets, "
            f"chi = {p['chi']} ({p['chi_status']})"
        )
    for failure in s["failures"]:
        yield f"FAILED: {failure}"


def _cmd_reproduce(args):
    result = reproduce(args.target)
    summary = dict(result.summary)
    if args.with_product:
        Q, _, cert = product_with_segment(result)
        summary["product_with_segment"] = {
            "dim": Q.dim,
            "facets": Q.num_facets,
            "f0": len(Q.vertices),
            "chi": cert.chi,
            "chi_status": cert.status,
        }
    return 0 if result.ok else 2, summary, _reproduce_table(summary), (serialize.save_json, summary)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage maps to 1 here
        return 0 if exc.code == 0 else 1
    out = getattr(args, "output", None)  # -o takes one path, or two for resolve
    paths = [Path(p) for p in (*(out if isinstance(out, list) else [out]),
                               getattr(args, "trace", None)) if p is not None]
    written, loaded = [], {}
    try:
        for name, load in (("polytope", serialize.load_polytope), ("left", serialize.load_polytope),
                           ("right", serialize.load_polytope), ("map", serialize.load_charmap),
                           ("hint", serialize.load_charmap)):
            if (path := getattr(args, name, None)) is not None:  # each file once per loader
                if (key := (load, os.path.realpath(path))) not in loaded:
                    loaded[key] = load(path)
                setattr(args, name, loaded[key])
        for i, path in enumerate(paths):  # refuse what could not be written before any work
            if path.resolve() in {p.resolve() for p in paths[:i]}:
                raise ValueError(f"two outputs name the same file: {path}")
            try:  # the OS's own errno; the trailing slash refuses a parent that is a file
                os.stat(os.path.join(path.parent, ""))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            if path.is_dir():
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        code, data, lines, *outputs = args.run(args)
        for path, (save, value) in zip(paths, outputs):  # a missing optional path drops its output
            save(value, path)
            written.append(path)
    except (OSError, ValueError) as exc:
        for path in written:  # all outputs or none: remove the ones already written
            path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "format", "table") == "json":
        print(serialize.dumps(data), end="")
    else:
        print(*lines, sep="\n")
    return code


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
