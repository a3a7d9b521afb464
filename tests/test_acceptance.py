"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.

Criteria 2, 3 and 7 assert the quoted reference values verbatim. The quoted
bad-edge list provably omits {F3, F6, F7} (its three vectors XOR to zero and
it is an edge of the quoted vertex families), so the correct detector finds
14 bad edges, the resolution needs 31 steps, and the downstream counts shift
accordingly (see tests/reference.py). Those three tests therefore FAIL
honestly rather than hard-coding either side; every mathematically forced
property of the construction is covered by the criteria that pass.
"""

import functools
import itertools
import json
import random
import time

import pytest

from polychrome import gf2
from polychrome.charmap import (
    bad_faces,
    induced_coloring,
    is_nonsingular_at,
    lift_determinant_report,
    preset,
)
from polychrome.chromatic import chromatic_of_graph, max_clique
from polychrome.generators import dual_cyclic, product, segment
from polychrome.pipelines import product_with_segment, replay_bad_history
from polychrome.polytope import (
    InvariantError,
    f_vector,
    facet_adjacency,
    truncate_face,
    validate,
)
from polychrome.serialize import (
    SchemaError,
    charmap_from_dict,
    load_charmap,
    load_polytope,
    load_report,
    polytope_from_dict,
    save_charmap,
    save_polytope,
    save_report,
)

from . import reference
from .oracles import (
    bad_faces_bruteforce,
    chromatic_bruteforce,
    circuits_bruteforce,
    is_proper,
    validate_from_scratch,
)


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:
                first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                print(f"\nACCEPTANCE {num:>2} FAIL: {title} [{first}]")
                raise
            note = f" ({value})" if isinstance(value, str) else ""
            print(f"\nACCEPTANCE {num:>2} PASS: {title}{note}")

        return run

    return wrap


@criterion(1, "Gale generation of the dual of C^4(15)")
def test_criterion_01_gale_generation():
    t0 = time.perf_counter()
    P = dual_cyclic(4, 15)
    elapsed = time.perf_counter() - t0
    assert len(P.vertices) == 90
    fam1 = {(0, x, x + 1, 14) for x in range(1, 13)}
    fam2 = {(x, x + 1, y, y + 1) for x in range(14) for y in range(x + 2, 14)}
    assert set(P.vertices) == fam1 | fam2
    assert elapsed < 1.0


@criterion(2, "bad-face detection matches the quoted lists verbatim")
def test_criterion_02_bad_face_detection():
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    t0 = time.perf_counter()
    bad = bad_faces(P, L)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    verts = {b.face for b in bad if b.circuit_size == 4}
    assert verts == reference.BAD_VERTICES_QUOTED
    edges = {b.face for b in bad if b.circuit_size == 3}
    assert edges == reference.BAD_EDGES_QUOTED, (
        f"detector found {sorted(edges - reference.BAD_EDGES_QUOTED)} beyond the "
        f"quoted 13 edges"
    )


@criterion(3, "resolution reaches the quoted step and face counts")
def test_criterion_03_resolution(main_run):
    result, elapsed = main_run
    assert elapsed < 5.0
    s = result.summary
    assert s["terminated"] == "success"
    assert any(str(reference.RIDGES_PRINTED) in note for note in s["notes"]), (
        "the report must flag the quoted ridge count as Euler-inconsistent"
    )
    assert (s["steps"], s["f_vector"]) == (
        reference.STEPS_QUOTED,
        reference.F_VECTOR_QUOTED,
    ), f"computed {s['steps']} steps with f-vector {s['f_vector']}"


@criterion(4, "15-color certificate for the resolved 4-polytope")
def test_criterion_04_fifteen_color_certificate(main_run):
    result, elapsed = main_run
    t0 = time.perf_counter()
    P, L = result.polytope, result.charmap
    assert all(is_nonsingular_at(P, L, V) for V in P.vertices)
    col = induced_coloring(P, L)
    assert col.proper
    assert col.colors_used == 15
    clique = max_clique(facet_adjacency(P))
    assert len(clique) >= 15
    cert = result.certificate
    assert cert.status == "exact"
    assert cert.chi == 15
    assert elapsed + (time.perf_counter() - t0) < 10.0


@criterion(5, "oriented 4-dimensional pipeline certifies chi = 8")
def test_criterion_05_main2(main2_run):
    result, elapsed = main2_run
    assert elapsed < 10.0
    assert result.ok, result.failures
    assert result.summary["oriented"] is True
    assert result.charmap.mode == "oriented"
    assert all(gf2.parity(v) for v in result.charmap.vectors)
    cert = result.certificate
    assert cert.status == "exact"
    assert cert.chi == 8
    return f"steps recorded: {result.summary['steps']}"


@criterion(6, "oriented 5-dimensional pipeline certifies chi = 16")
def test_criterion_06_main3(main3_run):
    result, elapsed = main3_run
    assert elapsed < 60.0
    assert result.ok, result.failures
    assert result.summary["size3_circuits_observed"] == 0
    assert result.summary["size5_circuits_observed"] == 0
    assert result.summary["oriented"] is True
    cert = result.certificate
    assert cert.status == "exact"
    assert cert.chi == 16
    return f"steps recorded: {result.summary['steps']}"


@criterion(7, "product with a segment: 47 facets and chi = 16")
def test_criterion_07_product_remark(main_run):
    result, _ = main_run
    t0 = time.perf_counter()
    P5, _, cert = product_with_segment(result)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert P5.dim == 5
    assert validate(P5) == []
    assert validate_from_scratch(P5) == []
    assert cert.status == "exact"
    assert cert.chi == 16
    assert P5.num_facets == 47, (
        f"computed {P5.num_facets} facets (the resolved polytope has "
        f"{result.polytope.num_facets})"
    )


@criterion(8, "structural property suites over the whole corpus")
def test_criterion_08_property_suites(corpus, decorated, main_run, main2_run, main3_run):
    for name, P in corpus:
        assert validate(P) == [], f"{name}: structural diagnostics"
        assert validate_from_scratch(P) == [], f"{name}: structural diagnostics, full scan"
        fv = f_vector(P)
        alternating = sum(f if d % 2 == 0 else -f for d, f in enumerate(fv))
        assert alternating == (0 if P.dim % 2 == 0 else 2), f"{name}: Euler relation"
        if P.dim >= 2:
            assert P.dim * fv[0] == 2 * fv[1], f"{name}: simplicity degree count"
        # edge condition is part of validate; re-check one consequence directly
        for V in P.vertices[:20]:
            for S in itertools.combinations(V, P.dim - 1):
                hits = sum(1 for W in P.vertices if set(S) <= set(W))
                assert hits == 2, f"{name}: edge {S} has {hits} endpoints"

    # truncation preserves validity on every corpus member that has faces to cut
    for name, P in corpus:
        if P.dim < 2 or len(P.vertices) > 250:
            continue
        for k in (2, P.dim):
            S = P.vertices[0][:k]
            Q, _ = truncate_face(P, S)
            assert validate(Q) == [], f"{name}: truncation of {S}"
            assert validate_from_scratch(Q) == [], f"{name}: truncation of {S}, full scan"

    # bad-face counts strictly decrease along every recorded resolution
    for result, P0, L0 in (
        (main_run[0], dual_cyclic(4, 15), preset("paper-example", dual_cyclic(4, 15))),
        (main2_run[0], dual_cyclic(4, 8), preset("odd-bijection", dual_cyclic(4, 8))),
        (main3_run[0], dual_cyclic(5, 16), preset("odd-bijection", dual_cyclic(5, 16))),
    ):
        history = replay_bad_history(P0, L0, result.report)
        counts = [len(h) for h in history]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 0

    # detector and circuit enumeration agree with brute force on small instances
    for name, P, L in decorated:
        if len(P.vertices) > 100:
            continue
        expected = bad_faces_bruteforce(P, L)
        got = {b.face: b.witness_vertex for b in bad_faces(P, L)}
        assert got == expected, f"{name}: bad-face oracle mismatch"
        for V in P.vertices:
            vecs = [L.vectors[i] for i in V]
            assert gf2.circuits(vecs, L.n) == circuits_bruteforce(vecs), (
                f"{name}: circuit oracle mismatch at {V}"
            )


@criterion(9, "chromatic solver agrees with brute force on 100 random graphs")
def test_criterion_09_chromatic_oracle():
    rng = random.Random(1534)
    t0 = time.perf_counter()
    for i in range(100):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        ]
        cert = chromatic_of_graph(n, edges)
        assert cert.status == "exact", f"graph {i}: not solved exactly"
        expected = chromatic_bruteforce(n, edges)
        assert cert.chi == expected, f"graph {i}: chi {cert.chi} != {expected}"
        assert is_proper(n, edges, cert.coloring)
    assert time.perf_counter() - t0 < 30.0


@criterion(10, "JSON persistence: byte-stable round trips, named rejections")
def test_criterion_10_persistence(tmp_path, main2_run):
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    report = main2_run[0].report
    for name, obj, save, load in (
        ("poly", P, save_polytope, load_polytope),
        ("map", L, save_charmap, load_charmap),
        ("report", report, save_report, load_report),
    ):
        path = tmp_path / f"{name}.json"
        save(obj, path)
        first = path.read_bytes()
        reloaded = load(path)
        assert reloaded == obj
        save(reloaded, path)
        assert path.read_bytes() == first, f"{name}: round trip not byte-identical"

    with pytest.raises(InvariantError, match=r"vectors\[1\]"):
        charmap_from_dict({"n": 4, "mode": "general", "vectors": [1, 0]})
    square = product(segment(), segment())
    with pytest.raises(InvariantError, match="duplicate-vertex"):
        polytope_from_dict(
            {
                "dim": 2,
                "facets": list(square.facet_labels),
                "vertices": [list(v) for v in square.vertices] + [[0, 2]],
            }
        )
    with pytest.raises(InvariantError, match="vertex-arity"):
        polytope_from_dict(
            {
                "dim": 2,
                "facets": list(square.facet_labels),
                "vertices": [[0], [0, 3], [1, 2], [1, 3]],
            }
        )
    with pytest.raises(SchemaError, match="unexpected"):
        polytope_from_dict(
            {"dim": 1, "facets": ["a", "b"], "vertices": [[0], [1]], "x": 0}
        )
    bad = tmp_path / "broken.json"
    bad.write_text("{]", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        load_polytope(bad)


@criterion(11, "integer-lift report runs; every determinant is odd")
def test_criterion_11_lift_report(main_run):
    result, _ = main_run
    rep = lift_determinant_report(result.polytope, result.charmap)
    assert len(rep.determinants) == len(result.polytope.vertices)
    assert all(d % 2 != 0 for d in rep.determinants)
    # unimodularity of the naive 0/1 lift is reported, never asserted
    return (
        f"all |det| = 1: {rep.all_unimodular}; "
        f"{len(rep.non_unimodular)} vertices with |det| > 1"
    )
