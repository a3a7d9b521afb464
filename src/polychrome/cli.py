"""Command-line interface: one binary, file-to-file subcommands.

Exit codes: 0 clean, 1 usage or I/O error, 2 finding (bad faces exist,
bounds-only chromatic result, non-unimodular lift, failed pipeline
assertion). Scripts can branch on findings without parsing output.

Commands return (exit code, JSON data, table lines); only main prints, either
as JSON or as a table. Tables that grow with the input are lazy generators.
"""

from __future__ import annotations

import argparse
import sys

from . import gf2, serialize
from .charmap import MODES, PRESET_NAMES, CharMap, bad_faces, lift_determinant_report, preset
from .chromatic import DEFAULT_TIME_BUDGET, chromatic_number
from .generators import dual_cyclic, product, segment
from .pipelines import TARGETS, product_with_segment, reproduce
from .polytope import _face_label, euler_expected, euler_sum, f_vector
from .resolution import DEFAULT_BUDGET, resolve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychrome",
        description="Simple polytopes, GF(2) characteristic maps, truncation "
        "resolution, and exact chromatic certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json"), default="table")

    gen = sub.add_parser("gen", help="construct a starting polytope")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    g = gen_sub.add_parser("dual-cyclic", help="dual of a cyclic polytope")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--facets", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g = gen_sub.add_parser("product", help="product of two polytope files")
    g.add_argument("left")
    g.add_argument("right")
    g.add_argument("-o", "--output", required=True)
    g = gen_sub.add_parser("segment", help="the 1-dimensional segment")
    g.add_argument("-o", "--output", required=True)

    p = sub.add_parser("decorate", help="write a named preset characteristic map")
    p.add_argument("polytope")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("check", parents=[fmt], help="detect bad faces of a characteristic map")
    p.add_argument("polytope")
    p.add_argument("map")

    p = sub.add_parser("fvector", parents=[fmt], help="face counts and Euler check")
    p.add_argument("polytope")

    p = sub.add_parser("resolve", help="truncate bad faces until none remain")
    p.add_argument("polytope")
    p.add_argument("map")
    p.add_argument("-o", "--output", nargs=2, required=True,
                   metavar=("OUT_POLYTOPE", "OUT_MAP"))
    p.add_argument("--trace")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("chromatic", parents=[fmt],
                       help="certified chromatic number of the facet graph")
    p.add_argument("polytope")
    p.add_argument("--hint")
    p.add_argument("--time-budget", type=float, default=DEFAULT_TIME_BUDGET)

    p = sub.add_parser("lift-check", parents=[fmt],
                       help="integer determinants of the naive 0/1 lift")
    p.add_argument("polytope")
    p.add_argument("map")

    p = sub.add_parser("reproduce", parents=[fmt], help="run a scripted end-to-end pipeline")
    p.add_argument("target", choices=TARGETS)
    p.add_argument("-o", "--output", help="also write the summary JSON here")
    p.add_argument("--with-product", action="store_true",
                   help="also certify the product with a segment")
    return parser


def _cmd_gen(args):
    if args.generator == "dual-cyclic":
        P = dual_cyclic(args.dim, args.facets)
    elif args.generator == "product":
        P = product(serialize.load_polytope(args.left), serialize.load_polytope(args.right))
    else:
        P = segment()
    serialize.save_polytope(P, args.output)
    return 0, None, [f"wrote {args.output}: dim {P.dim}, {P.num_facets} facets, "
                     f"{len(P.vertices)} vertices"]


def _cmd_decorate(args):
    P = serialize.load_polytope(args.polytope)
    L = preset(args.preset, P)
    if args.mode and args.mode != L.mode:
        L = CharMap(L.n, L.vectors, args.mode)
    serialize.save_charmap(L, args.output)
    return 0, None, [f"wrote {args.output}: {len(L.vectors)} vectors, mode {L.mode}"]


def _cmd_check(args):
    P = serialize.load_polytope(args.polytope)
    L = serialize.load_charmap(args.map)
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
    P = serialize.load_polytope(args.polytope)  # refuses any polytope with diagnostics
    fv = f_vector(P)
    alternating, expected = euler_sum(fv), euler_expected(P.dim)
    data = {"dim": P.dim, "f_vector": fv, "euler_alternating_sum": alternating,
            "euler_consistent": alternating == expected, "diagnostics": []}
    lines = [f"f = {fv}", f"euler alternating sum = {alternating} (expected {expected})"]
    return 0 if data["euler_consistent"] else 2, data, lines


def _cmd_resolve(args):
    P = serialize.load_polytope(args.polytope)
    L = serialize.load_charmap(args.map)
    report = resolve(P, L, budget=args.budget)
    serialize.save_polytope(report.final_polytope, args.output[0])
    serialize.save_charmap(report.final_map, args.output[1])
    if args.trace:
        serialize.save_report(report, args.trace)
    return 0 if report.terminated == "success" else 2, None, [
        f"{report.terminated}: {len(report.steps)} steps from {report.initial_bad_count} "
        f"bad faces; final polytope has {report.final_polytope.num_facets} facets, "
        f"{len(report.final_polytope.vertices)} vertices"
    ]


def _cmd_chromatic(args):
    P = serialize.load_polytope(args.polytope)
    hint = serialize.load_charmap(args.hint) if args.hint else None
    cert = chromatic_number(P, hint=hint, time_budget=args.time_budget)
    def table():
        yield f"chi = {cert.chi} ({cert.status}; bounds {cert.lower}..{cert.upper})"
        yield f"clique ({len(cert.clique)}): {list(cert.clique)}"
        yield f"coloring: {list(cert.coloring)}"
    return 0 if cert.status == "exact" else 2, vars(cert), table()


def _cmd_lift_check(args):
    P = serialize.load_polytope(args.polytope)
    L = serialize.load_charmap(args.map)
    rep = lift_determinant_report(P, L)
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
    if args.output:
        serialize.save_json(summary, args.output)
    return 0 if result.ok else 2, summary, _reproduce_table(summary)


_COMMANDS = {
    "gen": _cmd_gen,
    "decorate": _cmd_decorate,
    "check": _cmd_check,
    "fvector": _cmd_fvector,
    "resolve": _cmd_resolve,
    "chromatic": _cmd_chromatic,
    "lift-check": _cmd_lift_check,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage maps to 1 here
        return 0 if exc.code == 0 else 1
    try:
        code, data, lines = _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
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
