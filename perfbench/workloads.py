"""The benchmark's workloads: seeded inputs, timed instances and their checks.

An instance is one job a user waits for. ``setup(seed, workdir)`` builds
every input a workload needs, so the library only ever receives generated
inputs; each instance's ``run`` is what gets timed and its ``check`` runs
afterwards, outside the timed region. Checks are memoised on the complete
answer, so an answer identical to one already checked reuses its verdict.

Library calls go through module attributes (``pc.resolve``, ``cli.main``)
at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from typing import Callable, NamedTuple

import polychrome as pc
from polychrome import cli

import checker

DEFAULT_SEED = 0


class Instance(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


class Verdicts:
    """Check each distinct answer once; identical answers share the verdict."""

    def __init__(self) -> None:
        self._seen: dict = {}

    def __call__(self, key, compute: Callable[[], list[str]]) -> list[str]:
        if key not in self._seen:
            self._seen[key] = compute()
        return self._seen[key]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def _resolution_problems(report, P, L, cert, steps, fv, chi) -> list[str]:
    """Pins and independent checks shared by every resolve-and-certify answer."""
    problems: list[str] = []
    _expect(problems, "terminated", report.terminated, "success")
    _expect(problems, "steps", len(report.steps), steps)
    _expect(problems, "f-vector", checker.f_vector(P.vertices, P.dim), fv)
    _expect(problems, "chi", cert.chi, chi)
    problems += checker.resolved_problems(P, L, pc.validate)
    problems += checker.certificate_problems(
        checker.facet_neighbours(P.vertices, P.num_facets), cert
    )
    return problems


# -- paper: the three headline reproductions ----------------------------------

# target: (steps, final f-vector, chi); seed-independent
PAPER_PINS = {
    "main": (31, [197, 394, 243, 46], 15),
    "main2": (8, [44, 88, 60, 16], 8),
    "main3": (46, [432, 1080, 984, 396, 62], 16),
}
PRODUCT_WITH_SEGMENT_PIN = ([394, 985, 880, 335, 48], 16)


def paper(seed: int, workdir: str) -> list[Instance]:
    verdicts = Verdicts()

    def reproduce_problems(target: str, r) -> list[str]:
        steps, fv, chi = PAPER_PINS[target]
        problems = [f"pipeline: {f}" for f in r.summary["failures"]]
        return problems + _resolution_problems(
            r.report, r.polytope, r.charmap, r.certificate, steps, fv, chi
        )

    def product_problems(P5, L5, cert) -> list[str]:
        fv, chi = PRODUCT_WITH_SEGMENT_PIN
        problems: list[str] = []
        _expect(problems, "product f-vector", checker.f_vector(P5.vertices, P5.dim), fv)
        _expect(problems, "product chi", cert.chi, chi)
        problems += checker.resolved_problems(P5, L5, pc.validate)
        return problems + checker.certificate_problems(
            checker.facet_neighbours(P5.vertices, P5.num_facets), cert
        )

    def run_main():
        r = pc.reproduce("main")
        return r, pc.product_with_segment(r)

    def check_main(answer) -> list[str]:
        r, (P5, L5, cert5) = answer
        key = (json.dumps(r.summary, sort_keys=True), r.polytope, r.charmap, r.certificate,
               P5, L5, cert5)
        return verdicts(key, lambda: reproduce_problems("main", r) + product_problems(P5, L5, cert5))

    def reproduce_instance(target: str) -> Instance:
        def check(r) -> list[str]:
            key = (target, json.dumps(r.summary, sort_keys=True), r.polytope, r.charmap,
                   r.certificate)
            return verdicts(key, lambda: reproduce_problems(target, r))

        return Instance(target, lambda: pc.reproduce(target), check)

    return [
        Instance("main+product", run_main, check_main),
        reproduce_instance("main2"),
        reproduce_instance("main3"),
    ]


# -- products: paper starting maps stacked with small seeded factors ----------

# base (dim, facets), preset, chi of the resolved base, resolution steps,
# factor sizes (2 = segment, k > 2 = k-gon); oriented bases take only segments
# and even polygons, since Z_2^2 has just two odd vectors
PRODUCT_BASES = (
    ((4, 15), "paper-example", 15, 31, (2, 4, 5)),
    ((5, 16), "odd-bijection", 16, 46, (2, 4)),
)
# final f-vectors, seed-independent: a non-singular factor adds no bad face
PRODUCT_F_VECTORS = {
    ((4, 15), 2): [394, 985, 880, 335, 48],
    ((4, 15), 4): [788, 2364, 2745, 1550, 431, 50],
    ((4, 15), 5): [985, 2955, 3382, 1839, 478, 51],
    ((5, 16), 2): [864, 2592, 3048, 1776, 520, 64],
    ((5, 16), 4): [1728, 6048, 8688, 6600, 2816, 648, 66],
}


def factor_polytope(k: int):
    return pc.segment() if k == 2 else pc.dual_cyclic(2, k)


def factor_map(k: int, oriented: bool, rng: random.Random):
    """A seeded non-singular map on the segment (k = 2) or the k-gon.

    On a polygon, non-singular means adjacent edges get distinct nonzero
    vectors of Z_2^2; oriented maps alternate e1 and e2 from a random phase.
    """
    mode = "oriented" if oriented else "general"
    if k == 2:
        return pc.segment_map(mode)
    if oriented:
        phase = rng.randrange(2)
        return pc.CharMap(2, [1 << ((i + phase) % 2) for i in range(k)], mode)
    while True:
        vectors = [rng.choice((1, 2, 3)) for _ in range(k)]
        if all(vectors[i] != vectors[(i + 1) % k] for i in range(k)):
            return pc.CharMap(2, vectors, mode)


def factor_chi(k: int) -> int:
    """Chromatic number of the factor's facet graph: segment 1, even 2, odd 3."""
    return 1 if k == 2 else 2 + k % 2


def products(seed: int, workdir: str) -> list[Instance]:
    rng = random.Random(seed)
    verdicts = Verdicts()
    instances = []
    for (n, m), preset_name, base_chi, steps, sizes in PRODUCT_BASES:
        B = pc.dual_cyclic(n, m)
        LB = pc.preset(preset_name, B)
        for k in sizes:
            F, LF = factor_polytope(k), factor_map(k, LB.mode == "oriented", rng)
            pins = (steps, PRODUCT_F_VECTORS[(n, m), k], base_chi + factor_chi(k))

            def run(B=B, F=F, LB=LB, LF=LF):
                report = pc.resolve(pc.product(B, F), pc.stack(LB, LF))
                return report, pc.chromatic_number(report.final_polytope, hint=report.final_map)

            def check(answer, pins=pins) -> list[str]:
                report, cert = answer
                P, L = report.final_polytope, report.final_map
                key = (report, cert)
                return verdicts(key, lambda: _resolution_problems(report, P, L, cert, *pins))

            instances.append(Instance(f"dc({n},{m})+{preset_name}x{k}-gon", run, check))
    return instances


# -- graphs: the chromatic layer's own branch and bound -----------------------

GRAPH_SIZES = (40, 50)
GRAPH_DENSITIES = (0.3, 0.5, 0.7, 0.9)
GRAPHS_PER_CELL = 4
# Colouring effort is heavy-tailed: over 20 seeds, a pass over 64 freshly
# drawn G(n, p) graphs of this grid took 4.2 s to 10.3 s (quartile spread 37%
# of the median), and relabelling one fixed set moved it from 3.0 s to 6.1 s.
# Either would swamp any regression bound, so the graphs are drawn once from
# this constant and --seed only shuffles the order instances run in.
GRAPH_FAMILY_SEED = 20230209


def graph_family() -> list[tuple[int, float, list[tuple[int, int]]]]:
    rng = random.Random(GRAPH_FAMILY_SEED)
    return [
        (n, p, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for n in GRAPH_SIZES
        for p in GRAPH_DENSITIES
        for _ in range(GRAPHS_PER_CELL)
    ]


def graphs(seed: int, workdir: str) -> list[Instance]:
    family = graph_family()
    random.Random(seed).shuffle(family)
    verdicts = Verdicts()
    instances = []
    for i, (n, p, edges) in enumerate(family):
        nbrs = checker.graph_neighbours(n, edges)

        def check(cert, i=i, nbrs=nbrs) -> list[str]:
            return verdicts((i, cert), lambda: checker.certificate_problems(nbrs, cert))

        instances.append(Instance(
            f"G({n},{p})#{i}",
            lambda n=n, edges=edges: pc.chromatic_of_graph(n, edges),
            check,
        ))
    return instances


# -- check: gen and check through the command line, in process ---------------

# (dim, facets, mode, f_0); each map is a random injection of the facets into
# the nonzero vectors of Z_2^dim (odd-weight ones when oriented)
CHECK_SPECS = (
    (6, 32, "oriented", 4032),
    (5, 31, "general", 756),
    (7, 20, "general", 1120),
)
# bad faces by circuit size at DEFAULT_SEED
CHECK_HISTOGRAMS = {
    (6, 32): {4: 435, 6: 129},
    (5, 31): {3: 50, 4: 66, 5: 15},
    (7, 20): {3: 13, 4: 26, 5: 35, 6: 29, 7: 6},
}


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check(seed: int, workdir: str) -> list[Instance]:
    rng = random.Random(seed)
    verdicts = Verdicts()
    instances = []
    for n, m, mode, f0 in CHECK_SPECS:
        pool = [v for v in range(1, 1 << n) if mode == "general" or v.bit_count() % 2]
        vectors = rng.sample(pool, m)
        map_path = os.path.join(workdir, f"map-{n}-{m}.json")
        poly_path = os.path.join(workdir, f"dc-{n}-{m}.json")
        with open(map_path, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "n": n, "vectors": vectors}, fh, indent=2, sort_keys=True)
        histogram = CHECK_HISTOGRAMS[n, m] if seed == DEFAULT_SEED else None

        def run(n=n, m=m, poly_path=poly_path, map_path=map_path):
            gen_code, _ = _cli(["gen", "dual-cyclic", "--dim", str(n), "--facets", str(m),
                                "-o", poly_path])
            return (gen_code,) + _cli(["check", poly_path, map_path, "--format", "json"])

        def check_answer(answer, n=n, f0=f0, vectors=vectors, histogram=histogram,
                         poly_path=poly_path) -> list[str]:
            with open(poly_path, "rb") as fh:
                poly_bytes = fh.read()

            def compute() -> list[str]:
                gen_code, check_code, check_out = answer
                problems: list[str] = []
                _expect(problems, "gen exit code", gen_code, 0)
                d = json.loads(poly_bytes)
                P = pc.Polytope(d["dim"], tuple(d["facets"]), tuple(map(tuple, d["vertices"])))
                _expect(problems, "dimension", P.dim, n)
                _expect(problems, "vertices", len(P.vertices), f0)
                problems += checker.polytope_problems(P, pc.validate)
                bad = json.loads(check_out)
                _expect(problems, "check exit code", check_code, 2 if bad else 0)
                problems += checker.bad_face_problems(P.vertices, vectors, bad)
                if histogram is not None:
                    sizes = dict(sorted(Counter(b["circuit_size"] for b in bad).items()))
                    _expect(problems, "bad faces by size", sizes, histogram)
                return problems

            return verdicts((poly_bytes, answer), compute)

        instances.append(Instance(f"dc({n},{m})", run, check_answer))
    return instances


WORKLOADS = {"paper": paper, "products": products, "graphs": graphs, "check": check}
