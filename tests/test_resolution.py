from collections import Counter
from functools import cache
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, target
from hypothesis import strategies as st

from polychrome import gf2, polytope, resolution
from polychrome.charmap import CharMap, bad_faces, odd_vectors, preset, segment_map, stack
from polychrome.generators import dual_cyclic, product, segment
from polychrome.pipelines import replay_bad_history
from polychrome.polytope import (
    InvariantError,
    Polytope,
    default_labels,
    f_vector,
    truncate_face,
    validate,
)
from polychrome.resolution import NoVectorFound, resolution_vector, resolve

from .oracles import in_span_by_subsets, rank_by_span, validate_from_scratch


def stub(dim, num_facets, vertices):
    """Bare incidence structure for exercising the vector search on a normal
    form; not a valid polytope and never validated by resolution_vector."""
    return Polytope(dim, default_labels(num_facets), tuple(vertices))


def candidates_bruteforce(P, L, face):
    """All vectors passing the prospective-vertex independence definition."""
    hosts = [V for V in P.vertices if set(face) <= set(V)]
    good = []
    for w in range(1, 1 << L.n):
        if L.mode == "oriented" and not gf2.parity(w):
            continue
        ok = all(
            rank_by_span([L.vectors[i] for i in V if i != s] + [w]) == L.n
            for V in hosts
            for s in face
        )
        if ok:
            good.append(w)
    return good


def test_resolution_vector_bad_vertex_normal_form():
    # vectors e1, e2, e3, e1+e2+e3 at a single vertex: e4 resolves it
    P = stub(4, 4, [(0, 1, 2, 3)])
    L = CharMap(4, (1, 2, 4, 7))
    assert resolution_vector(P, L, (0, 1, 2, 3)) == 8


def test_resolution_vector_bad_edge_normal_form():
    # S-vectors e1, e2, e1+e2; endpoint extras e1+e3 and e2+e4
    P = stub(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)])
    L = CharMap(4, (1, 2, 3, 5, 10))
    w = resolution_vector(P, L, (0, 1, 2))
    assert w == 12  # e3+e4; e3 and e4 each collide with one endpoint
    assert candidates_bruteforce(P, L, (0, 1, 2))[0] == 12


def test_resolution_vector_oriented_vertex_case():
    # four odd vectors summing to zero; the answer must be odd and outside
    # their common 3-dimensional span
    P = stub(4, 4, [(0, 1, 2, 3)])
    L = CharMap(4, (1, 2, 4, 7), "oriented")
    w = resolution_vector(P, L, (0, 1, 2, 3))
    assert w == 8
    assert gf2.parity(w) == 1
    assert not in_span_by_subsets(w, [1, 2, 4])


def test_resolution_vector_rejects_nonface():
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    with pytest.raises(ValueError):
        resolution_vector(P, L, (0, 2, 4))


@pytest.mark.parametrize("S, message", [
    ((3,), "can only truncate faces of codimension 2..4, got 1 facets"),
    ((3, 3), "can only truncate faces of codimension 2..4, got 1 facets"),
    ((0, 1, 2, 3, 4), "can only truncate faces of codimension 2..4, got 5 facets"),
    ((4, 2, 0), "[0, 2, 4] is not a face of the polytope"),
    ([0, 1, "x"], "face [0, 1, 'x']: facet 'x' is not an integer"),
    ([[0], [1]], "face [[0], [1]]: facet [0] is not an integer"),
    ([0, 1.0, 3], "face [0, 1.0, 3]: facet 1.0 is not an integer"),
    ([0, True, 3], "face [0, True, 3]: facet True is not an integer"),
    (5, "face 5: expected a sequence of facet indices"),
], ids=["facet", "repeated-facet", "too-wide", "non-face", "str", "list", "float", "bool",
        "not-iterable"])
def test_resolution_vector_refuses_what_truncate_face_refuses(S, message):
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    for cut in (lambda: resolution_vector(P, L, S), lambda: polytope.truncate_face(P, S)):
        with pytest.raises(ValueError) as exc:
            cut()
        assert str(exc.value) == message


@pytest.mark.parametrize("fit, message", [
    (lambda L: CharMap(4, L.vectors[:7]), "map has 7 vectors but the polytope has 8 facets"),
    (lambda L: CharMap(5, L.vectors), "map width 5 != polytope dimension 4"),
    (lambda L: CharMap(4, L.vectors + (15,)), "map has 9 vectors but the polytope has 8 facets"),
], ids=["7-vectors", "width-5", "9-vectors"])
def test_resolution_vector_refuses_a_map_that_bad_faces_refuses(fit, message):
    P = dual_cyclic(4, 8)
    L = fit(preset("identity-first", P))
    for call in (lambda: resolution_vector(P, L, (0, 1, 2)), lambda: bad_faces(P, L)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_resolution_vector_no_candidate():
    # the vertex hosts two circuits ({0,3} and {0,1,2}), so removing facet 0
    # leaves a dependent triple that no new vector can repair
    P = stub(4, 4, [(0, 1, 2, 3)])
    L = CharMap(4, (1, 2, 3, 1))
    with pytest.raises(NoVectorFound):
        resolution_vector(P, L, (0, 3))


def test_resolve_simplex_single_bad_edge():
    P = dual_cyclic(4, 5)
    L = preset("identity-first", P)  # F4 = e1+e2 makes {F0,F1,F4} a bad edge
    report = resolve(P, L)
    assert report.terminated == "success"
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.face == (0, 1, 4)
    assert step.circuit_size == 3
    assert step.chosen_vector == 12  # e3+e4: endpoints carry e3 and e4
    assert (step.vertices_removed, step.vertices_added) == (2, 6)
    assert validate(report.final_polytope) == []
    assert validate_from_scratch(report.final_polytope) == []
    assert bad_faces(report.final_polytope, report.final_map) == []
    assert f_vector(report.final_polytope) == [9, 18, 15, 6]


def test_resolve_validates_each_cut_locally_once_the_start_is_certified():
    P = dual_cyclic(5, 16)
    L = preset("odd-bijection", P)
    uncertified = Polytope(P.dim, P.facet_labels, P.vertices)
    for start, full_scans in ((P, 0), (uncertified, 1)):
        with mock.patch.object(polytope, "_scan", wraps=polytope._scan) as scan:
            report = resolve(start, L)
        assert report.terminated == "success" and len(report.steps) > 1
        # an uncertified start is scanned once, at its first cut
        assert scan.call_count == full_scans
        assert validate_from_scratch(report.final_polytope) == []


def test_resolve_clean_input_is_identity():
    sq = product(segment(), segment())
    L = stack(segment_map(), segment_map())
    report = resolve(sq, L)
    assert report.terminated == "success"
    assert report.steps == ()
    assert report.final_polytope == sq
    assert report.final_map == L


def test_resolve_budget_exhaustion():
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    report = resolve(P, L, budget=1)
    assert report.terminated == "budget_exhausted"
    assert len(report.steps) == 1
    for budget in (0, 2.5, True):
        with pytest.raises(ValueError) as exc:
            resolve(P, L, budget=budget)
        assert str(exc.value) == f"budget must be an integer at least 1, got {budget}"


def test_resolve_no_vector_found_returns_partial_report():
    P = stub(4, 4, [(0, 1, 2, 3)])
    L = CharMap(4, (1, 2, 3, 1))
    report = resolve(P, L)
    assert report.terminated == "no_vector_found"
    assert report.steps == ()
    assert report.final_polytope == P


def test_resolve_reference_decoration():
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    report = resolve(P, L)
    assert report.terminated == "success"
    assert report.initial_bad_count == 31  # 14 edges + 17 vertices
    assert len(report.steps) == 31
    sizes = [s.circuit_size for s in report.steps]
    assert sizes == sorted(sizes)  # edges (size 3) before vertices (size 4)
    for step in report.steps:
        if step.circuit_size == 3:
            assert (step.vertices_removed, step.vertices_added) == (2, 6)
        else:
            assert (step.vertices_removed, step.vertices_added) == (1, 4)
    assert report.final_polytope.num_facets == 46
    assert f_vector(report.final_polytope) == [197, 394, 243, 46]


def test_resolve_preserves_original_vectors():
    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    report = resolve(P, L)
    assert report.final_map.vectors[:15] == L.vectors
    assert len(set(report.final_map.vectors[:15])) == 15


def test_resolve_is_deterministic_and_replayable():
    P = dual_cyclic(4, 8)
    L = preset("odd-bijection", P)
    first = resolve(P, L)
    second = resolve(P, L)
    assert first == second
    history = replay_bad_history(P, L, first)
    counts = [len(state) for state in history]
    assert counts == sorted(counts, reverse=True)
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_oriented_resolution_chooses_odd_vectors():
    P = dual_cyclic(4, 8)
    L = preset("odd-bijection", P)
    report = resolve(P, L)
    assert report.terminated == "success"
    assert all(gf2.parity(s.chosen_vector) == 1 for s in report.steps)
    assert report.final_map.mode == "oriented"


def test_created_vertices_are_nonsingular_at_creation():
    from polychrome.charmap import is_nonsingular_at
    from polychrome.polytope import truncate_face

    P = dual_cyclic(4, 8)
    L = preset("odd-bijection", P)
    report = resolve(P, L)
    for step in report.steps:
        Q, _ = truncate_face(P, step.face)
        M = L.extended(step.chosen_vector)
        for V in Q.vertices:
            if Q.num_facets - 1 in V:
                assert is_nonsingular_at(Q, M, V)
        P, L = Q, M


def test_each_host_vertex_yields_one_vertex_per_face_facet(main_run, main2_run, main3_run):
    for result, _ in (main_run, main2_run, main3_run):
        assert result.report.steps
        for step in result.report.steps:
            assert step.vertices_removed >= 1
            assert step.vertices_added == step.vertices_removed * len(step.face), step


def test_resolve_leaves_the_checked_rank_to_callers(monkeypatch):
    # CharMap validates every width once; the per-vertex rank tests of
    # bad_faces and resolution_vector skip gf2's argument check
    def checked(*args):
        raise AssertionError("checked gf2 call on a hot path")

    P = dual_cyclic(4, 15)
    L = preset("paper-example", P)
    monkeypatch.setattr(gf2, "rank", checked)
    report = resolve(P, L)
    assert (report.terminated, len(report.steps)) == ("success", 31)


def test_local_check_names_the_step_face_and_singular_vertex(monkeypatch):
    # the second cut reuses the vector of the face's first facet, so every
    # created vertex that keeps that facet carries it twice
    real = resolution_vector
    calls = []

    def faulty(P, L, S):
        calls.append(S)
        return real(P, L, S) if len(calls) == 1 else L.vectors[S[0]]

    monkeypatch.setattr(resolution, "resolution_vector", faulty)
    P = dual_cyclic(4, 8)
    with pytest.raises(InvariantError) as err:
        resolve(P, preset("odd-bijection", P))
    assert str(err.value) == (
        "step 2: cutting [0, 1, 4, 5] created the singular vertex [0, 1, 4, 9] "
        "with circuit [0, 9]"
    )


def test_resolve_rescans_only_the_created_vertices(monkeypatch):
    calls = []

    def spy(P, L, vertices=None):
        calls.append(vertices)
        return bad_faces(P, L, vertices)

    monkeypatch.setattr(resolution, "bad_faces", spy)
    P = dual_cyclic(5, 16)
    report = resolve(P, preset("odd-bijection", P))
    assert report.terminated == "success" and report.steps
    assert calls[0] is None
    scanned = calls[1:]
    assert len(scanned) == len(report.steps)
    assert sum(map(len, scanned)) == sum(s.vertices_added for s in report.steps)
    for step, created in zip(report.steps, scanned):
        assert len(created) == step.vertices_added
        assert all(V[-1] == step.new_facet_index for V in created)


def test_resolve_scans_the_hosts_once_per_step():
    # resolution_vector and truncate_face share the step's one cut
    P = dual_cyclic(4, 8)
    with mock.patch.object(polytope, "hosts", wraps=polytope.hosts) as scan:
        report = resolve(P, preset("odd-bijection", P))
    assert report.terminated == "success" and len(report.steps) == 8
    assert scan.call_count == len(report.steps)


@cache
def _small_polytopes():
    polygons = [dual_cyclic(2, k) for k in (3, 4, 5)]
    shapes = ((3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (4, 8), (5, 7), (5, 8))
    items = [dual_cyclic(n, m) for n, m in shapes]
    items += [product(a, segment()) for a in polygons]
    items += [product(a, b) for a in polygons for b in polygons if a.num_facets <= b.num_facets]
    return items


@st.composite
def decorated_polytopes(draw):
    """A small dual cyclic polytope or polygon product with random vectors,
    general or oriented, repeats allowed."""
    P = draw(st.sampled_from(_small_polytopes()))
    mode = draw(st.sampled_from(("general", "oriented")))
    pool = odd_vectors(P.dim) if mode == "oriented" else list(range(1, 1 << P.dim))
    m = P.num_facets
    if m > len(pool):
        vectors = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    else:
        # a few repeats on top of distinct vectors: many repeats seldom resolve
        vectors = draw(st.permutations(pool))[:m]
        for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
            vectors[i] = draw(st.sampled_from(pool))
    return P, CharMap(P.dim, tuple(vectors), mode)


def first_valid_candidate(P, L, S):
    """The first candidate, in increasing order, under which every vertex that
    truncate_face(P, S) creates has full rank by span size; None if none does."""
    created = truncate_face(P, S)[1]
    for w in range(1, 1 << L.n):
        if L.mode == "oriented" and not gf2.parity(w):
            continue
        vectors = L.extended(w).vectors
        if all(rank_by_span([vectors[i] for i in C]) == L.n for C in created):
            return w
    return None


@st.composite
def decorated_faces(draw):
    """A decorated polytope with one of its faces of codimension 2..n."""
    P, L = draw(decorated_polytopes())
    k = draw(st.integers(2, P.dim))
    return P, L, draw(st.sampled_from(sorted(set(polytope._faces(P.vertices, k)))))


PAPER = dual_cyclic(4, 15)
PAPER_MAP = preset("paper-example", PAPER)


@given(decorated_faces())
@example((PAPER, PAPER_MAP, (0, 1, 2)))
@example((PAPER, PAPER_MAP, (3, 6, 7)))
@settings(max_examples=300, deadline=None)
def test_resolution_vector_is_smallest_valid_candidate(case):
    P, L, S = case
    expected = first_valid_candidate(P, L, S)
    event("no vector" if expected is None else "a vector")
    if expected is None:
        with pytest.raises(NoVectorFound):
            resolution_vector(P, L, S)
    else:
        assert resolution_vector(P, L, S) == expected


@given(decorated_polytopes())
@settings(max_examples=150, deadline=None)
def test_each_cut_removes_exactly_its_own_bad_face(case):
    # the bad faces before step k, recomputed from scratch, are the initial
    # list from position k on, witnesses included
    P, L = case
    report = resolve(P, L)
    target(len(report.steps))
    history = replay_bad_history(P, L, report)
    initial = history[0]
    assert report.initial_bad_count == len(initial)
    for k, step in enumerate(report.steps):
        assert history[k] == initial[k:]
        assert step.face == initial[k].face
        by_size = Counter(b.circuit_size for b in history[k])
        assert step.bad_by_size == tuple(sorted(by_size.items()))
    assert history[-1] == initial[len(report.steps):]
    assert (report.terminated == "success") == (history[-1] == [])
