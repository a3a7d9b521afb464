import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychrome import chromatic
from polychrome.charmap import CharMap
from polychrome.chromatic import (
    ChromaticCertificate,
    _dsatur,
    _verify,
    chromatic_number,
    chromatic_of_graph,
    greedy_coloring,
    max_clique,
)
from polychrome.generators import dual_cyclic, product, segment
from polychrome.pipelines import reproduce

from .oracles import chromatic_bruteforce, dsatur_by_buckets, is_proper


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
        (3, [5], "edge 5 is not a pair of nodes"),
        (3, [(0, 1, 2)], "edge (0, 1, 2) is not a pair of nodes"),
    ):
        with pytest.raises(ValueError) as exc:
            chromatic_of_graph(n, edges)
        assert str(exc.value) == message
    assert chromatic_of_graph(3, [(0, 1)], time_budget=float("inf")).chi == 2
    for budget in (float("nan"), -1.0, True, "1", None, [1]):
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
    masks = _masks(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
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
    n = 120
    edges = _gnp(n, 0.9, 7)
    t0 = time.monotonic()
    cert = chromatic_of_graph(n, edges, time_budget=0.5)
    assert time.monotonic() - t0 < 3
    assert cert.status == "bounds_only"
    assert cert.lower == len(cert.clique) < cert.upper
    _verify(_masks(n, edges), cert)


def _masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _gnp(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


@st.composite
def dsatur_calls(draw):
    n = draw(st.integers(0, 24))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    adj = _masks(n, _gnp(n, p, draw(st.integers(0, 2**32))))
    clique = max_clique(adj) if draw(st.booleans()) else []
    lower = draw(st.integers(len(clique), n))
    return adj, clique, draw(st.integers(lower + 1, n + 1)), lower


@given(dsatur_calls())
@settings(max_examples=300, deadline=None)
def test_dsatur_returns_what_the_bucket_search_returns(call):
    # best colouring and finished flag alike, for a proof search (lower = the
    # clique) as for greedy's first descent (lower = n, best_k = n + 1)
    assert _dsatur(*call, None) == dsatur_by_buckets(*call, None)


def test_graph_certificates_match_the_bucket_search(monkeypatch):
    graphs = [(40, p, _gnp(40, p, seed)) for p in (0.3, 0.5, 0.7, 0.9) for seed in (1, 2)]
    certs = [chromatic_of_graph(n, edges) for n, _, edges in graphs]
    monkeypatch.setattr(chromatic, "_dsatur", dsatur_by_buckets)
    for (n, p, edges), cert in zip(graphs, certs):
        assert cert == chromatic_of_graph(n, edges), f"G(40, {p})"
        assert cert.status == "exact"


@given(st.integers(0, 30), st.sampled_from((0.2, 0.5, 0.8, 1.0)), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_greedy_is_the_first_leaf_of_a_search_bounded_by_n(n, p, seed):
    # greedy bounds its search, and so its colour fields, by the maximum degree
    adj = _masks(n, _gnp(n, p, seed))
    assert greedy_coloring(adj) == dsatur_by_buckets(adj, (), n + 1, n, None)[0]


@pytest.mark.parametrize("n, widths", [(20, {2}), (30, {2, 3}), (36, {3})])
def test_dsatur_on_colour_fields_of_two_and_three_bytes(n, widths):
    # greedy needs 11 to 20 colours on these G(n, 0.9), where dsatur_calls
    # rarely pass 8: the fields of neighbour colours take 2 or 3 bytes a node
    seen = set()
    for seed in range(6):
        adj = _masks(n, _gnp(n, 0.9, seed))
        best_k = len(set(greedy_coloring(adj)))
        seen.add(-(-best_k // 8))
        clique = max_clique(adj)
        calls = [(adj, (), best_k, 0)]
        if len(clique) < best_k:
            calls.append((adj, clique, best_k, len(clique)))
        for call in calls:
            assert _dsatur(*call, None) == dsatur_by_buckets(*call, None)
    assert seen == widths


@given(small_graphs(), st.data())
@settings(max_examples=300)
def test_is_proper_is_the_check_edge_by_edge(graph, data):
    n, edges = graph
    adj = _masks(n, edges)
    # hint colours are map vectors, so a colour may be any int, however large
    palette = st.sampled_from((0, 1, 2, 2**64, 2**64 + 1, 2**200))
    colors = data.draw(st.lists(palette, min_size=n, max_size=n))
    assert chromatic._is_proper(adj, colors) == is_proper(n, edges, colors)
    assert chromatic._is_proper(adj, [2**100 + c for c in greedy_coloring(adj)])
    # one colour per node: none short, none over
    if n:
        assert not chromatic._is_proper(adj, colors[:-1])
    assert not chromatic._is_proper(adj, colors + [0])


def _mycielski(k: int) -> tuple[int, list[tuple[int, int]]]:
    """M_k: triangle-free with chromatic number k, from M_2 = K_2."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        edges = (edges + [(a, n + b) for a, b in edges] + [(b, n + a) for a, b in edges]
                 + [(n + i, 2 * n) for i in range(n)])
        n = 2 * n + 1
    return n, edges


@pytest.mark.parametrize("k", [4, 5])
def test_mycielski_graphs_are_certified_by_search(k):
    n, edges = _mycielski(k)
    cert = chromatic_of_graph(n, edges)
    # a 2-clique bounds nothing: only the exhausted search proves chi = k
    assert (cert.chi, cert.status, cert.lower, len(cert.clique)) == (k, "exact", k, 2)
    assert is_proper(n, edges, cert.coloring)


def test_colouring_search_honours_the_budget():
    n, edges = _mycielski(6)  # 47 nodes; proving chi = 6 outlasts the budget
    t0 = time.monotonic()
    cert = chromatic_of_graph(n, edges, time_budget=0.1)
    assert time.monotonic() - t0 < 2
    assert cert.status == "bounds_only"
    assert cert.lower == len(cert.clique) == 2 < cert.upper
    assert is_proper(n, edges, cert.coloring)
    _verify(_masks(n, edges), cert)
