import random
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from polychrome import gf2
from polychrome.charmap import (
    MODES,
    PAPER_EXAMPLE_VECTORS,
    BadFace,
    CharMap,
    bad_faces,
    induced_coloring,
    is_nonsingular_at,
    lift_determinant_report,
    odd_vectors,
    preset,
    segment_map,
    stack,
    _lanes_win,
    _zero_subsets,
)
from polychrome.generators import dual_cyclic, product, segment
from polychrome.polytope import InvariantError, Polytope, default_labels

from .oracles import bad_faces_bruteforce, det_by_permutations
from .reference import BAD_EDGES_COMPUTED, BAD_VERTICES_QUOTED


@pytest.fixture(scope="module")
def reference_pair():
    P = dual_cyclic(4, 15)
    return P, preset("paper-example", P)


def test_charmap_rejects_zero_vector():
    with pytest.raises(InvariantError, match=r"vectors\[1\]"):
        CharMap(4, (1, 0, 2))


def test_charmap_rejects_overwide_vector():
    with pytest.raises(InvariantError, match=r"vectors\[0\]"):
        CharMap(3, (8, 1, 2))


def test_charmap_rejects_even_vector_in_oriented_mode():
    with pytest.raises(InvariantError, match="odd"):
        CharMap(4, (1, 3, 2), "oriented")


@pytest.mark.parametrize("mode, v, message", [
    ("general", 0, "vectors[15]: zero vector is not allowed"),
    ("general", True, "vectors[15]: expected an integer, got True"),
    ("general", 16, "vectors[15]: 16 does not fit in 4 bits"),
    ("oriented", 3, "vectors[15]: 3 has even weight; oriented maps need odd weights"),
])
def test_extended_refuses_the_appended_vector_as_the_constructor_would(mode, v, message):
    vectors = (1, 2, 4, 8, 7, 11, 13, 14, 1, 2, 4, 8, 7, 11, 13)  # odd weights only
    L = CharMap(4, vectors, mode)
    for build in (lambda: L.extended(v), lambda: CharMap(4, vectors + (v,), mode)):
        with pytest.raises(InvariantError) as exc:
            build()
        assert str(exc.value) == message
    assert L.extended(7) == CharMap(4, vectors + (7,), mode)


@pytest.mark.parametrize("vectors", ["ab", 5, {1: 2}, range(1, 3)])
def test_charmap_refuses_vectors_that_are_not_a_list_or_tuple(vectors):
    with pytest.raises(InvariantError) as exc:
        CharMap(4, vectors)
    assert str(exc.value) == f"vectors: expected a list or tuple, got {type(vectors).__name__}"


def test_charmap_rejects_unknown_mode():
    with pytest.raises(InvariantError, match="mode"):
        CharMap(4, (1, 2), "weird")


def test_paper_example_preset_vectors(reference_pair):
    _, L = reference_pair
    assert L.vectors == PAPER_EXAMPLE_VECTORS
    assert (L.vectors[0], L.vectors[1], L.vectors[2], L.vectors[14]) == (1, 3, 4, 15)
    assert sorted(L.vectors) == list(range(1, 16))  # bijection onto Z_2^4 - 0
    assert L.mode == "general"


def test_preset_size_mismatch():
    for name, P, message in [
        ("paper-example", dual_cyclic(4, 8),
         "paper-example needs a 4-polytope with 15 facets, got (4, 8)"),
        ("odd-bijection", dual_cyclic(4, 15), "odd-bijection needs m = 2^(n-1) = 8 facets, got 15"),
        ("identity-first", dual_cyclic(4, 16), "identity-first needs m <= 2^n - 1 = 15, got 16"),
        ("unknown", dual_cyclic(4, 8), "unknown preset 'unknown'; expected one of "
                                       "('paper-example', 'odd-bijection', 'identity-first')"),
    ]:
        with pytest.raises(ValueError) as exc:
            preset(name, P)
        assert str(exc.value) == message


def test_odd_bijection_preset():
    L = preset("odd-bijection", dual_cyclic(4, 8))
    assert L.vectors == (1, 2, 4, 7, 8, 11, 13, 14)
    assert L.mode == "oriented"
    L5 = preset("odd-bijection", dual_cyclic(5, 16))
    assert len(L5.vectors) == 16
    assert L5.mode == "oriented" and all(map(gf2.parity, L5.vectors))


def test_identity_first_preset():
    L = preset("identity-first", dual_cyclic(4, 5))
    assert L.vectors == (1, 2, 4, 8, 3)
    assert len(preset("identity-first", dual_cyclic(4, 15)).vectors) == 15
    with pytest.raises(ValueError):
        preset("identity-first", dual_cyclic(4, 16))  # 16 > 2^4 - 1


def test_identity_first_matches_its_definition_oracle():
    # preset reads only dim and num_facets, so an unvalidated polytope is enough
    for n in range(1, 9):
        for m in range(1, 1 << n):
            basis = [1 << i for i in range(min(n, m))]
            rest = sorted(set(range(1, 1 << n)) - set(basis))[: m - len(basis)]
            L = preset("identity-first", Polytope(n, default_labels(m), ()))
            assert L.vectors == tuple(basis + rest), (n, m)


def test_is_nonsingular_at(reference_pair):
    P, L = reference_pair
    assert not is_nonsingular_at(P, L, (3, 4, 5, 6))
    assert is_nonsingular_at(P, L, (0, 1, 2, 14))
    # a non-face, a repeated facet, a face with more than one vertex, indexes out of range
    for V in [(0, 2, 4, 6), (0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 15), (0, 1, 2, 99)]:
        with pytest.raises(ValueError) as exc:
            is_nonsingular_at(P, L, V)
        assert str(exc.value) == f"{list(V)} is not a vertex of the polytope"
    # True would read as facet 1 of the vertex (0, 1, 2, 14); "a" would not sort
    for V, bad in [((0, True, 2, 14), "True"), ((0, "a", 2, 14), "'a'")]:
        with pytest.raises(ValueError, match=f"^face .*: facet {bad} is not an integer$"):
            is_nonsingular_at(P, L, V)
    with pytest.raises(ValueError, match="^face 5: expected a sequence of facet indices$"):
        is_nonsingular_at(P, L, 5)


@pytest.mark.parametrize("V", [(0, 2, 4, 6), (0, 1, 2, 99)], ids=["non-vertex", "out-of-range"])
def test_bad_faces_refuses_a_vertex_that_is_not_the_polytopes(V):
    P = dual_cyclic(4, 8)
    L = preset("odd-bijection", P)
    with pytest.raises(ValueError) as exc:
        bad_faces(P, L, [(0, 1, 2, 3), V])
    assert str(exc.value) == f"{list(V)} is not a vertex of the polytope"
    # a vertex is found in any facet order, and reported sorted
    assert bad_faces(P, L, [(3, 2, 1, 0)]) == bad_faces(P, L, [(0, 1, 2, 3)])
    assert bad_faces(P, L, [(3, 2, 1, 0)])[0].witness_vertex == (0, 1, 2, 3)


@pytest.mark.parametrize("vertices", [5, 1.5, True], ids=["int", "float", "bool"])
def test_bad_faces_refuses_vertices_that_are_not_iterable(vertices):
    P = dual_cyclic(4, 8)
    L = preset("odd-bijection", P)
    with pytest.raises(ValueError) as exc:
        bad_faces(P, L, vertices)
    assert str(exc.value) == f"vertices {vertices!r}: expected an iterable of vertices"
    # any iterable of P's vertices serves, a generator as well as a list
    assert bad_faces(P, L, iter(P.vertices)) == bad_faces(P, L, list(P.vertices)) == bad_faces(P, L)


def test_bad_faces_reference_decoration(reference_pair):
    P, L = reference_pair
    bad = bad_faces(P, L)
    edges = {b.face for b in bad if b.circuit_size == 3}
    verts = {b.face for b in bad if b.circuit_size == 4}
    assert edges == BAD_EDGES_COMPUTED
    assert verts == BAD_VERTICES_QUOTED
    assert all(b.circuit_size in (3, 4) for b in bad)
    # sorted by (size, face); witnesses host their faces
    assert [b.face for b in bad] == sorted(edges) + sorted(verts)
    for b in bad:
        assert set(b.face) <= set(b.witness_vertex)


@st.composite
def decorated(draw):
    """dc(n, m) for n = 2..6 and m <= 14, or a polytope of dimension n - 1 times a
    segment, with a random general or oriented map (repeats allowed). For n = 4..6,
    both reach 2^(n+1) vertices, where bad_faces scans on lanes."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        P = dual_cyclic(n, draw(st.sampled_from(range(n + 1, 15))))
    else:
        left = segment() if n == 2 else dual_cyclic(n - 1, draw(st.sampled_from(range(n, 15))))
        P = product(left, segment())
    mode = draw(st.sampled_from(MODES))
    pool = odd_vectors(n) if mode == "oriented" else range(1, 1 << n)
    vectors = draw(st.lists(st.sampled_from(pool), min_size=P.num_facets,
                            max_size=P.num_facets))
    return P, CharMap(n, tuple(vectors), mode)


@given(decorated())
@example((dual_cyclic(4, 15), CharMap(4, PAPER_EXAMPLE_VECTORS)))
@settings(max_examples=150, deadline=None)
def test_bad_faces_matches_bruteforce(case):
    """Both scans, lane-parallel and per vertex."""
    P, L = case
    event("lanes" if _lanes_win(P.dim, len(P.vertices)) else "per vertex")
    got = {b.face: b.witness_vertex for b in bad_faces(P, L)}
    assert got == bad_faces_bruteforce(P, L)


def zero_subsets_by_row(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nonempty position set whose entries XOR to zero, from the XOR of every subset."""
    xor = [0] * (1 << len(row))
    for mask in range(1, len(xor)):
        low = mask & -mask
        xor[mask] = xor[mask ^ low] ^ row[low.bit_length() - 1]
    return [tuple(i for i in range(len(row)) if mask >> i & 1)
            for mask in range(1, len(xor)) if xor[mask] == 0]


def edge_rows(n: int) -> list[tuple[int, ...]]:
    """Rows of n 8-bit entries: the unit vectors with the byte lane's edge values 0x80,
    0x7F and 0xFF (and 0) put in, so each row has few zero subsets. At n = 8, 0x7F
    after e1..e7 makes all 8 positions one zero subset."""
    units = [1 << i for i in range(n)]
    rows = [(*units[:-1], v) for v in (0x80, 0x7F, 0xFF, 0)]
    if n >= 2:
        rows += [(0xFF, 0xFF, *units[2:]), (0x80, *units[1:-1], 0x80)]
    if n >= 3:
        rows.append((0x80, 0x7F, 0xFF, *units[3:]))
    return rows


@pytest.mark.parametrize("n", [1, 2, 7, 8])
@pytest.mark.parametrize("count", [1, 2, 1000])
def test_the_lane_scan_finds_each_rows_zero_subsets_at_the_width_edges(n, count):
    """_zero_subsets hits each (row, zero subset of that row) once. bad_faces takes the
    lanes only for n = 4..8, so only this test covers them at n = 1 and 2, and bit 7
    of a lane below n = 8; at n = 7 and 8, e7 = 0x40 is the top bit the low mask keeps."""
    pool = edge_rows(n)
    by_row = {row: zero_subsets_by_row(row) for row in pool}
    if count < 1000:  # each row alone, or with the next one
        lists = [[row, pool[(i + 1) % len(pool)]][:count] for i, row in enumerate(pool)]
    else:
        rng = random.Random(n)
        lists = [[rng.choice(pool) for _ in range(count)]]
    for rows in lists:
        expected = sorted((k, S) for k, row in enumerate(rows) for S in by_row[row])
        got = sorted((k, tuple(i for i in range(n) if s >> i & 1))
                     for k, masks in _zero_subsets(list(zip(*rows))).items() for s in masks)
        assert got == expected
    if count == 1000:
        assert expected


# dual cyclic polytopes with enough vertices for the lanes, one per n = 4..7
LANE_SIZES = {4: 10, 5: 12, 6: 13, 7: 15}


@st.composite
def nested_zero_subsets(draw):
    """A lane-sized dc(n, m), freshly built, with vectors drawn from at most four, so
    that its rows reach deficiency 2 or more and zero subsets lie inside others."""
    n = draw(st.sampled_from(sorted(LANE_SIZES)))
    P = dual_cyclic(n, LANE_SIZES[n])
    few = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=4, unique=True))
    vectors = draw(st.lists(st.sampled_from(few), min_size=P.num_facets,
                            max_size=P.num_facets))
    return P, CharMap(n, tuple(vectors))


@given(nested_zero_subsets())
@example((dual_cyclic(7, 15), CharMap(7, (1, 2, 3, 4) * 3 + (1, 2, 3))))
@settings(max_examples=30, deadline=None)
def test_the_lane_scan_keeps_only_the_minimal_zero_subsets_of_each_row(case):
    """A full lane scan against the brute force and against the per-vertex loop (one
    vertex per call, below _lanes_win): the same faces and witnesses, and the hosts it
    records on P are the loop's, in vertex order."""
    P, L = case
    assert _lanes_win(P.dim, len(P.vertices))
    hosts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for V in P.vertices:
        for b in bad_faces(P, L, [V]):
            hosts.setdefault(b.face, []).append(V)
    ranks = [gf2.rank([L.vectors[i] for i in V], P.dim) for V in P.vertices]
    event(f"deficiency {P.dim - min(ranks)}")
    full = bad_faces(P, L)
    assert {b.face: b.witness_vertex for b in full} == bad_faces_bruteforce(P, L)
    assert full == sorted((BadFace(F, len(F), on[0]) for F, on in hosts.items()),
                          key=lambda b: (b.circuit_size, b.face))
    assert P.__dict__["_hosts"] == hosts


def test_both_scans_keep_circuits_by_one_minimality_test():
    """gf2._minimal decides for both: the lane scan calls it once per row with a zero
    subset, the per-vertex loop once per singular vertex through gf2.circuits, and
    neither keeps a face it drops."""
    P = dual_cyclic(4, 15)  # fresh: a full scan records its hosts on P
    L = CharMap(4, PAPER_EXAMPLE_VECTORS)
    singular = [V for V in P.vertices if not is_nonsingular_at(P, L, V)]
    few = singular[:8]
    assert _lanes_win(4, len(P.vertices)) and not _lanes_win(4, len(few))
    assert bad_faces(P, L, few)
    with mock.patch.object(gf2, "_minimal", return_value=[]) as minimal:
        assert bad_faces(P, L, P.vertices) == []
        assert minimal.call_count == len(singular)
        assert bad_faces(P, L, few) == []
        assert minimal.call_count == len(singular) + len(few)


SCANNED = (dual_cyclic(4, 7), dual_cyclic(5, 9), product(dual_cyclic(2, 4), dual_cyclic(2, 5)))


@st.composite
def scanned_subsets(draw):
    """A decorated polytope (random vectors, repeats allowed) and a shuffled
    subset of its vertices."""
    P = draw(st.sampled_from(SCANNED))
    m = P.num_facets
    vectors = draw(st.lists(st.integers(1, (1 << P.dim) - 1), min_size=m, max_size=m))
    subset = draw(st.lists(st.sampled_from(P.vertices), unique=True))
    return P, CharMap(P.dim, tuple(vectors)), subset


@given(scanned_subsets())
@settings(max_examples=200, deadline=None)
def test_bad_faces_of_a_vertex_subset(case):
    P, L, subset = case
    full = bad_faces(P, L)
    assert bad_faces(P, L, P.vertices) == full
    assert bad_faces(P, L, []) == []
    expected = []
    for b in full:
        on = [V for V in subset if set(b.face) <= set(V)]
        if on:
            expected.append(BadFace(b.face, b.circuit_size, min(on)))
    assert bad_faces(P, L, subset) == expected


def test_bad_faces_empty_for_product_of_segment_maps():
    sq = product(segment(), segment())
    L = stack(segment_map(), segment_map())
    assert bad_faces(sq, L) == []


def test_oriented_map_has_no_size3_circuits():
    P = dual_cyclic(4, 8)
    L = preset("odd-bijection", P)
    assert all(b.circuit_size != 3 for b in bad_faces(P, L))


def test_induced_coloring_reference(reference_pair):
    P, L = reference_pair
    col = induced_coloring(P, L)
    assert col.proper
    assert col.colors_used == 15


def test_induced_coloring_improper():
    P = dual_cyclic(4, 5)
    col = induced_coloring(P, CharMap(4, (1, 1, 1, 1, 1)))
    assert not col.proper
    assert col.colors_used == 1


def test_oriented_valid(reference_pair):
    # CharMap owns the odd-weight rule of oriented mode
    assert CharMap(4, (1, 2, 4, 8, 7, 11), "oriented").vectors == (1, 2, 4, 8, 7, 11)
    with pytest.raises(InvariantError, match=r"^vectors\[1\]: 3 has even weight; oriented"):
        CharMap(4, (1, 3, 4), "oriented")
    _, L = reference_pair
    with pytest.raises(InvariantError, match=r"^vectors\[1\]: 3 has even weight"):
        CharMap(4, L.vectors, "oriented")  # e1+e2 on F1


def test_stack_shifts_right_factor():
    L = stack(CharMap(2, (1, 2, 3)), segment_map())
    assert L.n == 3
    assert L.vectors == (1, 2, 3, 4, 4)
    assert L.mode == "general"
    both = stack(CharMap(2, (1, 2), "oriented"), segment_map("oriented"))
    assert both.mode == "oriented"


def test_lift_determinant_identity_vertex():
    P = dual_cyclic(4, 5)
    L = CharMap(4, (1, 2, 4, 8, 15))
    rep = lift_determinant_report(P, L)
    i = P.vertices.index((0, 1, 2, 3))
    assert abs(rep.determinants[i]) == 1


def test_lift_determinant_matches_permutation_oracle(reference_pair):
    P, L = reference_pair
    rep = lift_determinant_report(P, L)
    for V, det in zip(P.vertices, rep.determinants):
        rows = [[(L.vectors[j] >> r) & 1 for j in V] for r in range(4)]
        assert det == det_by_permutations(rows)


def test_lift_determinant_beyond_five_dimensions():
    P = dual_cyclic(6, 8)
    L = preset("identity-first", P)
    rep = lift_determinant_report(P, L)
    assert len(rep.determinants) == len(P.vertices)
    for V, det in zip(P.vertices, rep.determinants):
        rows = [[(L.vectors[j] >> r) & 1 for j in V] for r in range(L.n)]
        assert det == det_by_permutations(rows)


def test_lift_determinant_mixed_columns():
    # columns e1+e2, e2+e3, e3+e4, e1+e2+e3
    rows = [[(v >> r) & 1 for v in (3, 6, 12, 7)] for r in range(4)]
    assert det_by_permutations(rows) == -1


def test_gf2_nonsingular_vertices_have_odd_determinants(reference_pair):
    P, L = reference_pair
    rep = lift_determinant_report(P, L)
    for V, det in zip(P.vertices, rep.determinants):
        if is_nonsingular_at(P, L, V):
            assert det % 2 != 0
