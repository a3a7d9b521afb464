import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychrome.charmap import CharMap
from polychrome.chromatic import (
    ChromaticCertificate,
    _verify,
    chromatic_number,
    chromatic_of_graph,
    max_clique,
)
from polychrome.generators import dual_cyclic, product, segment
from polychrome.pipelines import reproduce

from .oracles import chromatic_bruteforce, is_proper


def test_pentagon_needs_three_colors():
    cert = chromatic_number(dual_cyclic(2, 5))
    assert cert.chi == 3
    assert cert.status == "exact"
    # odd cycle: the proof is by search, not by a 3-clique
    assert len(cert.clique) == 2


def test_hexagon_needs_two_colors():
    cert = chromatic_number(dual_cyclic(2, 6))
    assert cert.chi == 2
    assert cert.status == "exact"


def test_dual_cyclic_4_15_is_a_15_clique():
    cert = chromatic_number(dual_cyclic(4, 15))
    assert cert.chi == 15
    assert cert.status == "exact"
    assert list(cert.clique) == list(range(15))


def test_simplex_chromatic_equals_facet_count():
    cert = chromatic_number(dual_cyclic(4, 5))
    assert cert.chi == 5
    assert cert.status == "exact"


def test_chi_at_least_dimension():
    for P in (dual_cyclic(2, 6), dual_cyclic(3, 6), dual_cyclic(4, 7),
              product(dual_cyclic(2, 5), segment())):
        cert = chromatic_number(P)
        assert cert.status == "exact"
        assert cert.chi >= P.dim


def test_hint_closes_the_gap():
    result = reproduce("main2")
    cert = chromatic_number(result.polytope, hint=result.charmap)
    assert cert.chi == 8
    assert cert.status == "exact"


def test_improper_hint_gives_the_unhinted_certificate():
    P = dual_cyclic(4, 8)
    # one colour for every facet: taken as an upper bound it would undercut the clique
    one_colour = CharMap(4, (1,) * 8)
    assert chromatic_number(P, hint=one_colour) == chromatic_number(P)


def test_misaligned_hint_is_refused():
    P = dual_cyclic(4, 8)
    with pytest.raises(ValueError, match="^map has 7 vectors but the polytope has 8 facets$"):
        chromatic_number(P, hint=CharMap(4, (1,) * 7))
    with pytest.raises(ValueError, match="^map width 5 != polytope dimension 4$"):
        chromatic_number(P, hint=CharMap(5, (1,) * 8))


def test_certificate_is_self_consistent():
    cert = chromatic_number(product(dual_cyclic(2, 5), segment()))
    m = 7
    assert len(cert.coloring) == m
    assert len(set(cert.coloring)) == cert.chi
    # canonical colour ids appear in first-occurrence order
    seen = []
    for c in cert.coloring:
        if c not in seen:
            seen.append(c)
    assert seen == list(range(cert.chi))


def test_zero_budget_downgrades_to_bounds_only():
    cert = chromatic_number(dual_cyclic(2, 5), time_budget=0.0)
    assert cert.status == "bounds_only"
    assert cert.lower == 2
    assert cert.upper == 3
    assert cert.chi == cert.upper


def test_graph_api_known_small_cases():
    assert chromatic_of_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]).chi == 4
    assert chromatic_of_graph(5, [(i, (i + 1) % 5) for i in range(5)]).chi == 3
    assert chromatic_of_graph(3, []).chi == 1
    assert chromatic_of_graph(1, []).chi == 1
    empty = ChromaticCertificate(0, (), (), "exact", 0, 0)
    assert chromatic_of_graph(0, []) == empty
    assert chromatic_of_graph(0, [], time_budget=0) == empty
    with pytest.raises(ValueError, match="^node count must be at least 0, got -1$"):
        chromatic_of_graph(-1, [])
    for n, edges, message in (
        (True, [], "node count must be an integer, got True"),
        (2.0, [], "node count must be an integer, got 2.0"),
        (3, [(True, 2)], "edge (True, 2) has an endpoint that is not an integer"),
        (3, [(0, 1.0)], "edge (0, 1.0) has an endpoint that is not an integer"),
    ):
        with pytest.raises(ValueError) as exc:
            chromatic_of_graph(n, edges)
        assert str(exc.value) == message
    assert chromatic_of_graph(3, [(0, 1)], time_budget=float("inf")).chi == 2
    for budget in (float("nan"), -1.0, True):
        with pytest.raises(ValueError) as exc:
            chromatic_of_graph(3, [(0, 1)], time_budget=budget)
        assert str(exc.value) == f"time budget must be a number at least 0, got {budget!r}"


@pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 1)])
def test_graph_api_names_an_edge_with_an_endpoint_out_of_range(edge):
    message = f"edge {edge} has an endpoint outside [0, 3)"
    with pytest.raises(ValueError) as exc:
        chromatic_of_graph(3, [(0, 1), edge])
    assert str(exc.value) == message


def test_max_clique_on_known_graphs():
    # K4 with a pendant vertex hanging off node 3
    n = 5
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert max_clique(masks) == [0, 1, 2, 3]
    assert len(max_clique([0, 0, 0])) == 1  # edgeless graph: a single node
    assert max_clique([]) == []


def test_random_graphs_match_bruteforce():
    rng = random.Random(20260808)
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))
        ]
        cert = chromatic_of_graph(n, edges)
        assert cert.status == "exact"
        assert cert.chi == chromatic_bruteforce(n, edges)
        assert is_proper(n, edges, cert.coloring)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@given(small_graphs())
@settings(max_examples=300)
def test_certificates_match_bruteforce(graph):
    n, edges = graph
    cert = chromatic_of_graph(n, edges)
    assert cert.status == "exact"
    assert cert.chi == cert.lower == cert.upper == chromatic_bruteforce(n, edges)
    assert len(cert.coloring) == n and is_proper(n, edges, cert.coloring)
    assert len(set(cert.coloring)) == cert.chi


def test_long_odd_cycle_is_coloured_without_recursion():
    # refuting two colours walks the whole cycle, one search level per node
    n = 1501
    cert = chromatic_of_graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert cert.chi == 3
    assert cert.status == "exact"


def test_clique_search_honours_the_budget():
    rng = random.Random(7)
    n = 120
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9]
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    t0 = time.monotonic()
    cert = chromatic_of_graph(n, edges, time_budget=0.5)
    assert time.monotonic() - t0 < 3
    assert cert.status == "bounds_only"
    assert cert.lower == len(cert.clique) < cert.upper
    _verify(masks, cert)
