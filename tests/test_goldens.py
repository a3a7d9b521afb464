"""Byte-for-byte goldens of the command line and the demos.

The files in tests/goldens/ pin what a user sees: the `reproduce` summaries
as JSON and as tables, main's also with its product with a segment, `check`
and `fvector` on the reference decoration, `check` on a map with
rank-deficiency-2 vertices, the polytope files `gen dual-cyclic` writes in an
even and an odd dimension, the one-line reports of
`gen`, `decorate` and `resolve`, `lift-check` and `chromatic --hint` as JSON
and as tables, the demos' standard output, the `resolve --trace` files, and
the chromatic layer's greedy colouring, maximum clique and certificate on
seeded random graphs and two facet graphs (every branch-and-bound certificate
pins the search tree that found it). A refactor must leave every one of them
identical.

When an output change is intended, regenerate with
`PYTHONPATH=src python tests/test_goldens.py` and name the change in
CHANGES.md.
"""

import contextlib
import io
import dataclasses
import json
import random
import runpy
import tempfile
from pathlib import Path

import pytest

from polychrome.chromatic import chromatic_of_graph, greedy_coloring, max_clique
from polychrome.cli import main
from polychrome.generators import dual_cyclic
from polychrome.polytope import facet_adjacency

GOLDENS = Path(__file__).parent / "goldens"
DEMOS = Path(__file__).parent.parent / "demos"
GRAPH_SEED = 20261018


def _stdout(fn, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    return out.getvalue()


def _cli(*argv) -> str:
    return _stdout(main, list(argv))


def _gen(tmp: Path, dim: int, facets: int) -> Path:
    poly = tmp / f"dc-{dim}-{facets}.json"
    _cli("gen", "dual-cyclic", "--dim", str(dim), "--facets", str(facets), "-o", str(poly))
    return poly


def _inputs(tmp: Path, dim: int, facets: int, preset: str) -> tuple[str, str]:
    poly, cmap = _gen(tmp, dim, facets), tmp / f"{preset}.json"
    _cli("decorate", str(poly), "--preset", preset, "-o", str(cmap))
    return str(poly), str(cmap)


def _resolve(tmp: Path, dim: int, facets: int, preset: str, *extra) -> tuple[str, str]:
    """The resolved polytope and map files of the preset on dc(dim, facets)."""
    poly, cmap = _inputs(tmp, dim, facets, preset)
    out = str(tmp / "out-poly.json"), str(tmp / "out-map.json")
    _cli("resolve", poly, cmap, "-o", *out, *extra)
    return out


def _trace(tmp: Path, dim: int, facets: int, preset: str) -> str:
    trace = tmp / "trace.json"
    _resolve(tmp, dim, facets, preset, "--trace", str(trace))
    return trace.read_text(encoding="utf-8")


def _chromatic(tmp: Path, *fmt) -> str:
    poly, cmap = _resolve(tmp, 4, 8, "identity-first")
    return _cli("chromatic", poly, "--hint", cmap, *fmt)


def _reports(tmp: Path) -> str:
    """What gen, decorate and resolve print, with the scratch directory shown as TMP."""
    poly, cmap = tmp / "poly.json", tmp / "map.json"
    text = (
        _cli("gen", "dual-cyclic", "--dim", "4", "--facets", "8", "-o", str(poly))
        + _cli("decorate", str(poly), "--preset", "identity-first", "-o", str(cmap))
        + _cli("resolve", str(poly), str(cmap), "-o", str(tmp / "rp.json"), str(tmp / "rm.json"))
    )
    return text.replace(str(tmp), "TMP")


def _demo(name: str) -> str:
    return _stdout(runpy.run_path, str(DEMOS / name), None, "__main__")


def _graph_certificates(tmp: Path) -> str:
    """One JSON line per graph: G(n, p) drawn from GRAPH_SEED, then two facet graphs."""
    rng = random.Random(GRAPH_SEED)
    graphs = []
    for n in (20, 30, 40):
        for p in (0.3, 0.5, 0.7, 0.9):
            for k in range(2 if n == 40 else 1):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                graphs.append((f"G({n},{p})#{k}", n, edges))
    for dim, facets in ((4, 8), (5, 12)):
        rows = facet_adjacency(dual_cyclic(dim, facets))
        edges = [(u, v) for u in range(facets) for v in range(u + 1, facets) if (rows[u] >> v) & 1]
        graphs.append((f"facets of dc({dim},{facets})", facets, edges))
    lines = []
    for name, n, edges in graphs:
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        lines.append(json.dumps({
            "graph": name,
            "greedy_coloring": greedy_coloring(adj),
            "max_clique": max_clique(adj),
            "certificate": dataclasses.asdict(chromatic_of_graph(n, edges)),
        }, sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


CASES = {
    "reproduce-main.json": lambda tmp: _cli("reproduce", "main", "--format", "json"),
    "reproduce-main.txt": lambda tmp: _cli("reproduce", "main"),
    "reproduce-main2.json": lambda tmp: _cli("reproduce", "main2", "--format", "json"),
    "reproduce-main2.txt": lambda tmp: _cli("reproduce", "main2"),
    "reproduce-main3.json": lambda tmp: _cli("reproduce", "main3", "--format", "json"),
    "reproduce-main3.txt": lambda tmp: _cli("reproduce", "main3"),
    "reproduce-main-with-product.json": lambda tmp: _cli(
        "reproduce", "main", "--with-product", "--format", "json"
    ),
    "reproduce-main-with-product.txt": lambda tmp: _cli("reproduce", "main", "--with-product"),
    "check-dc4-15-paper-example.json": lambda tmp: _cli(
        "check", *_inputs(tmp, 4, 15, "paper-example"), "--format", "json"
    ),
    "check-dc4-15-paper-example.txt": lambda tmp: _cli(
        "check", *_inputs(tmp, 4, 15, "paper-example")
    ),
    "check-dc5-12-identity-first.json": lambda tmp: _cli(
        "check", *_inputs(tmp, 5, 12, "identity-first"), "--format", "json"
    ),
    "gen-dc6-13.json": lambda tmp: _gen(tmp, 6, 13).read_bytes().decode("utf-8"),
    "gen-dc7-12.json": lambda tmp: _gen(tmp, 7, 12).read_bytes().decode("utf-8"),
    "fvector-dc4-15.json": lambda tmp: _cli(
        "fvector", _inputs(tmp, 4, 15, "paper-example")[0], "--format", "json"
    ),
    "fvector-dc4-15.txt": lambda tmp: _cli("fvector", _inputs(tmp, 4, 15, "paper-example")[0]),
    "reports-dc4-8-identity-first.txt": _reports,
    "lift-check-dc4-8-identity-first.json": lambda tmp: _cli(
        "lift-check", *_inputs(tmp, 4, 8, "identity-first"), "--format", "json"
    ),
    "lift-check-dc4-8-identity-first.txt": lambda tmp: _cli(
        "lift-check", *_inputs(tmp, 4, 8, "identity-first")
    ),
    "chromatic-dc4-8-identity-first-resolved.json": lambda tmp: _chromatic(tmp, "--format", "json"),
    "chromatic-dc4-8-identity-first-resolved.txt": _chromatic,
    "demo-worked_example.txt": lambda tmp: _demo("worked_example.py"),
    "graph-certificates.json": _graph_certificates,
    "demo-oriented_small_covers.txt": lambda tmp: _demo("oriented_small_covers.py"),
    "demo-surgery_and_counts.txt": lambda tmp: _demo("surgery_and_counts.py"),
    "trace-dc4-15-paper-example.json": lambda tmp: _trace(tmp, 4, 15, "paper-example"),
    "trace-dc5-16-odd-bijection.json": lambda tmp: _trace(tmp, 5, 16, "odd-bijection"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert CASES[name](tmp_path) == (GOLDENS / name).read_bytes().decode("utf-8")


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, produce in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDENS / name).write_bytes(produce(Path(tmp)).encode("utf-8"))
        print(f"wrote {GOLDENS / name}")
