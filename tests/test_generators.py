import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychrome import polytope
from polychrome.generators import dual_cyclic, product, segment
from polychrome.polytope import Polytope, f_vector, hosts, truncate_face, validate

from .oracles import gale_pairwise, validate_from_scratch


def test_pentagon():
    P = dual_cyclic(2, 5)
    assert set(P.vertices) == {tuple(sorted((i, (i + 1) % 5))) for i in range(5)}


def test_simplex_is_dual_cyclic():
    P = dual_cyclic(4, 5)
    assert set(P.vertices) == set(itertools.combinations(range(5), 4))


def test_dual_cyclic_4_8_has_20_vertices():
    assert len(dual_cyclic(4, 8).vertices) == 20


def test_dual_cyclic_4_15_families():
    P = dual_cyclic(4, 15)
    fam1 = {(0, x, x + 1, 14) for x in range(1, 13)}
    fam2 = {
        (x, x + 1, y, y + 1)
        for x in range(0, 14)
        for y in range(x + 2, 14)
    }
    assert set(P.vertices) == fam1 | fam2
    assert len(P.vertices) == 90


def test_dual_cyclic_4_vertex_count_formula():
    # a simplicial 4-polytope with m vertices has m(m-3)/2 facets
    for m in range(5, 16):
        assert len(dual_cyclic(4, m).vertices) == m * (m - 3) // 2


def test_gale_filter_matches_pairwise_oracle():
    for n in range(2, 9):
        for m in range(n + 1, 15):
            P = dual_cyclic(n, m)
            # combinations come in lexicographic order: the vertex order too, not only the set
            expected = tuple(
                S
                for S in itertools.combinations(range(m), n)
                if gale_pairwise(S, m)
            )
            assert P.vertices == expected
            assert_built_as_the_constructor_builds(P)


def cyclic_facet_count(n: int, m: int) -> int:
    """Facets of the cyclic polytope C^n(m), by the closed form."""
    k = n // 2
    if n % 2:
        return 2 * math.comb(m - k - 1, k)
    return m * math.comb(m - k, k) // (m - k)


def test_dual_cyclic_vertex_count_is_cyclic_facet_count():
    for n in range(2, 10):
        for m in range(n + 1, 25):
            assert len(dual_cyclic(n, m).vertices) == cyclic_facet_count(n, m), (n, m)
    for (n, m), count in {(6, 32): 4032, (5, 31): 756, (7, 20): 1120}.items():
        P = dual_cyclic(n, m)
        assert len(P.vertices) == cyclic_facet_count(n, m) == count
        # with the count, distinct Gale-even vertices make the full set
        assert all(gale_pairwise(V, m) for V in P.vertices)


def test_dual_cyclic_5_16():
    P = dual_cyclic(5, 16)
    assert P.dim == 5
    assert P.num_facets == 16
    oracle = sum(1 for S in itertools.combinations(range(16), 5) if gale_pairwise(S, 16))
    assert len(P.vertices) == oracle == 156


def test_dual_cyclic_is_neighborly():
    # every floor(n/2)-subset of facets meets
    for n, m in ((4, 8), (5, 7), (2, 6)):
        P = dual_cyclic(n, m)
        for S in itertools.combinations(range(m), n // 2):
            assert hosts(P, S)


def test_dual_cyclic_rejects_bad_sizes():
    with pytest.raises(ValueError):
        dual_cyclic(4, 4)
    with pytest.raises(ValueError):
        dual_cyclic(1, 5)
    for n, m in [(True, 3), (4.0, 8), ("4", 8), (4, 8.0), (2, True)]:
        with pytest.raises(ValueError, match="^sizes must be integers, got n="):
            dual_cyclic(n, m)


def test_segment():
    S = segment()
    assert S.dim == 1
    assert S.vertices == ((0,), (1,))
    assert f_vector(S) == [2]
    assert_built_as_the_constructor_builds(S)


def test_square():
    sq = product(segment(), segment())
    assert sq.num_facets == 4
    assert len(sq.vertices) == 4
    assert validate(sq) == []


def test_pentagonal_prism():
    prism = product(dual_cyclic(2, 5), segment())
    assert prism.num_facets == 7
    assert len(prism.vertices) == 10
    assert validate(prism) == []


def test_product_vertex_count_multiplies():
    A = dual_cyclic(3, 5)
    B = dual_cyclic(2, 6)
    assert len(product(A, B).vertices) == len(A.vertices) * len(B.vertices)


def test_product_facet_blocks():
    A = dual_cyclic(2, 5)
    B = segment()
    AB = product(A, B)
    assert AB.facet_labels == A.facet_labels + B.facet_labels
    # every vertex is a pentagon vertex joined with one segment facet
    for V in AB.vertices:
        assert len([i for i in V if i >= 5]) == 1


def test_product_associative_up_to_relabeling():
    A, B, C = dual_cyclic(2, 4), segment(), dual_cyclic(2, 5)
    left = product(product(A, B), C)
    right = product(A, product(B, C))
    assert left.vertices == right.vertices
    assert left.dim == right.dim


def assert_built_as_the_constructor_builds(P):
    """P is canonical, field for field what the public constructor makes of its fields,
    is built certified, and passes a full scan from scratch."""
    fresh = Polytope(P.dim, P.facet_labels, P.vertices)
    assert vars(P) == {**vars(fresh), "_certified": True}
    assert validate_from_scratch(P) == []


FACTORS = (segment(),) + tuple(dual_cyclic(2, k) for k in range(3, 7)) + tuple(
    dual_cyclic(n, m) for n, m in ((3, 4), (3, 5), (3, 6), (4, 6), (4, 7)))


@st.composite
def cut_of(draw, P, most: int):
    """P after 0..most cuts of drawn faces of drawn codimension, each checked as built."""
    for _ in range(draw(st.integers(0, most if P.dim > 1 else 0))):
        k = draw(st.integers(2, P.dim))
        P, _ = truncate_face(P, draw(st.sampled_from(sorted(set(polytope._faces(P.vertices, k))))))
        assert_built_as_the_constructor_builds(P)
    return P


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_products_and_their_cuts_are_built_canonical_and_valid(data):
    left = data.draw(cut_of(data.draw(st.sampled_from(FACTORS)), 2), label="left")
    right = data.draw(cut_of(data.draw(st.sampled_from(FACTORS)), 2), label="right")
    P = product(left, right)
    assert_built_as_the_constructor_builds(P)
    data.draw(cut_of(P, 2), label="cuts of the product")
