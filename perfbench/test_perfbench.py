"""Tests of the benchmark itself: self-time arithmetic, the tracer and the checker.

Run from the root of a checkout: PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import polychrome as pc  # noqa: E402
from polychrome import resolution  # noqa: E402

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, outer=None):
    outer_start, outer_end = outer or (start, end)
    return tracing.Span(name, start, end, parent, "i", outer_start, outer_end)


def test_self_time_subtracts_each_childs_wrapper_interval():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0, outer=(8, 42)),
        span("b", 50, 70, parent=0, outer=(49, 71)),
        span("c", 15, 25, parent=1, outer=(14, 26)),
    ]
    times = {k: (round(s * 1e9), round(self_s * 1e9))
             for k, (s, self_s) in tracing.layer_times(spans).items()}
    assert times == {"root": (100, 100 - 34 - 22), "a": (30, 30 - 12), "b": (20, 20), "c": (10, 10)}


def test_inclusive_time_counts_a_self_nested_layer_once():
    spans = [span("f", 0, 50), span("g", 5, 45, parent=0), span("f", 10, 30, parent=1)]
    times = tracing.layer_times(spans)
    assert round(times["f"][0] * 1e9) == 50
    assert round(times["f"][1] * 1e9) == (50 - 40) + 20


def test_tracer_wraps_every_import_name_and_restores_them():
    original = resolution.bad_faces
    P = pc.dual_cyclic(4, 8)
    L = pc.preset("odd-bijection", P)
    tr = tracing.Tracer()
    with tr:
        assert resolution.bad_faces is not original
        pc.resolve(P, L)  # outside an instance: not recorded
        assert tr.spans == []
        tr.open_instance("0")
        report = pc.resolve(P, L)
        tr.close_instance()
    assert resolution.bad_faces is original and pc.resolve.__name__ == "resolve"
    steps = len(report.steps)
    assert tr.counts["resolution.resolve.steps"] == steps == 8
    assert tr.counts["charmap.bad_faces.calls"] == steps + 1
    assert tr.counts["polytope.truncate_face.calls"] == steps
    assert tr.counts["polytope.validate.calls"] == steps
    names = {s.name for s in tr.spans}
    assert {"resolution.resolve", "charmap.bad_faces", "gf2.circuits",
            "resolution.resolution_vector"} <= names
    root = [s for s in tr.spans if s.parent < 0]
    assert [s.name for s in root] == ["resolution.resolve"]
    inclusive, self_s = tr.layer_times()["resolution.resolve"]
    assert 0 < self_s < inclusive


def test_work_counts_repeat_exactly():
    P = pc.dual_cyclic(4, 15)
    L = pc.preset("paper-example", P)
    counts = []
    with tracing.Tracer() as tr:
        for i in range(2):
            tr.open_instance(str(i))
            pc.chromatic_number(pc.resolve(P, L).final_polytope)
            tr.close_instance()
            counts.append(dict(tr.counts))
            tr.counts.clear()
    assert counts[0] == counts[1]
    assert counts[0]["resolution.resolve.steps"] == 31


def small_graph_certificate():
    # the 5-cycle plus one pendant node: clique 2, chi 3
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]
    cert = pc.chromatic_of_graph(6, edges)
    return checker.graph_neighbours(6, edges), cert


def test_checker_accepts_a_true_certificate_that_needs_a_lower_bound_proof():
    nbrs, cert = small_graph_certificate()
    assert cert.chi == 3 and len(cert.clique) == 2
    assert checker.certificate_problems(nbrs, cert) == []


def test_checker_rejects_a_tampered_colouring():
    nbrs, cert = small_graph_certificate()
    colouring = list(cert.coloring)
    colouring[1] = colouring[0]
    tampered = cert.__class__(cert.chi, cert.clique, tuple(colouring), cert.status,
                              cert.lower, cert.upper)
    problems = checker.certificate_problems(nbrs, tampered)
    assert any("not proper" in p for p in problems)


def test_checker_rejects_a_chi_that_is_not_optimal():
    nbrs, cert = small_graph_certificate()
    four = (0, 1, 2, 3, 1, 2)  # proper, 4 colours, but 3 suffice
    inflated = cert.__class__(4, cert.clique, four, "exact", 4, 4)
    problems = checker.certificate_problems(nbrs, inflated)
    assert any("fewer than 4 colours" in p for p in problems)


def test_checker_rejects_a_non_clique():
    nbrs, cert = small_graph_certificate()
    fake = cert.__class__(cert.chi, (0, 1, 2), cert.coloring, cert.status, 3, 3)
    assert any("not pairwise adjacent" in p for p in checker.certificate_problems(nbrs, fake))


def test_checker_rejects_a_non_minimal_circuit():
    vectors = [1, 2, 3, 4, 4]  # e1 + e2 + (e1+e2) = 0 already inside the 5-set
    vertices = [(0, 1, 2, 3, 4)]

    def entry(face):
        return {"face": list(face), "circuit_size": len(face), "witness_vertex": [0, 1, 2, 3, 4]}

    assert checker.bad_face_problems(vertices, vectors, [entry((0, 1, 2))]) == []
    assert checker.bad_face_problems(vertices, vectors, [entry((3, 4))]) == []
    problems = checker.bad_face_problems(vertices, vectors, [entry((0, 1, 2, 3, 4))])
    assert any("not minimal" in p for p in problems)
    problems = checker.bad_face_problems(vertices, vectors, [entry((0, 1, 3))])
    assert any("XOR to" in p for p in problems)


def test_colourable_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        nbrs = checker.graph_neighbours(n, edges)
        for k in range(1, n + 1):
            brute = any(
                all(c[u] != c[v] for u, v in edges)
                for c in itertools.product(range(k), repeat=n)
            )
            assert checker.colourable(nbrs, k) == brute


def test_rank_matches_the_library():
    rng = random.Random(3)
    for _ in range(200):
        vecs = [rng.randrange(1, 64) for _ in range(rng.randint(1, 6))]
        assert checker.rank(vecs) == pc.gf2.rank(vecs, 6)


@pytest.mark.parametrize("name", ["paper", "check"])
def test_default_seed_answers_pass_every_check(name, tmp_path):
    for inst in workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path)):
        assert inst.check(inst.run()) == [], inst.name
