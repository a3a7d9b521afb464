import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychrome import gf2
from polychrome.charmap import (
    PAPER_EXAMPLE_VECTORS,
    BadFace,
    CharMap,
    bad_faces,
    induced_coloring,
    is_nonsingular_at,
    lift_determinant_report,
    preset,
    segment_map,
    stack,
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
    with pytest.raises(ValueError):
        preset("paper-example", dual_cyclic(4, 8))
    with pytest.raises(ValueError):
        preset("odd-bijection", dual_cyclic(4, 15))
    with pytest.raises(ValueError):
        preset("unknown", dual_cyclic(4, 8))


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
    with pytest.raises(ValueError):
        is_nonsingular_at(P, L, (0, 2, 4, 6))  # not a vertex
    # a repeated facet, a face with more than one vertex, an index out of range
    for V in [(0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 15)]:
        with pytest.raises(ValueError):
            is_nonsingular_at(P, L, V)


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


def test_bad_faces_matches_bruteforce(reference_pair):
    P, L = reference_pair
    expected = bad_faces_bruteforce(P, L)
    got = {b.face: b.witness_vertex for b in bad_faces(P, L)}
    assert got == expected


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
