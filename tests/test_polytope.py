import itertools
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from polychrome import polytope
from polychrome.charmap import CharMap, _lanes_win, bad_faces, induced_coloring
from polychrome.chromatic import chromatic_number
from polychrome.generators import dual_cyclic, product, segment
from polychrome.polytope import (
    InvariantError,
    Polytope,
    default_labels,
    f_vector,
    facet_adjacency,
    hosts,
    require_valid,
    truncate_face,
    validate,
)
from polychrome.serialize import polytope_from_dict, polytope_to_dict

from .oracles import faces_bruteforce, hosts_by_scan, truncate_by_definition, validate_from_scratch


def test_vertices_canonicalized_on_construction():
    P = Polytope(2, default_labels(3), ((2, 0), (1, 0), (2, 1)))
    assert P.vertices == ((0, 1), (0, 2), (1, 2))


def test_validate_generated_polytope_is_clean():
    assert validate(dual_cyclic(4, 15)) == []


def test_validate_duplicate_vertex():
    tri = dual_cyclic(2, 3)
    P = Polytope(2, tri.facet_labels, tri.vertices + (tri.vertices[0],))
    diags = validate(P)
    assert any(d.startswith("duplicate-vertex") for d in diags)


def test_validate_edge_condition():
    # pentagon plus a chord vertex: facets 0 and 2 now lie on three vertices
    pent = dual_cyclic(2, 5)
    P = Polytope(2, pent.facet_labels, pent.vertices + ((0, 2),))
    diags = validate(P)
    assert any(d.startswith("edge-condition") for d in diags)


def test_validate_lists_failing_edges_in_sorted_order():
    # every other vertex of dc(4, 10) removed: many edges lose an endpoint
    full = dual_cyclic(4, 10)
    P = Polytope(4, full.facet_labels, full.vertices[::2])
    expected = []
    for S in itertools.combinations(range(10), 3):
        count = sum(1 for V in P.vertices if set(S) <= set(V))
        if count not in (0, 2):
            expected.append(
                f"edge-condition: facets {list(S)} lie on {count} common vertices, expected 2"
            )
    diags = [d for d in validate(P) if d.startswith("edge-condition")]
    assert len(expected) > 10
    assert diags == expected


def test_validate_vertex_arity_and_range():
    P = Polytope(3, default_labels(4), ((0, 1), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert any(d.startswith("vertex-arity") for d in validate(P))
    P = Polytope(3, default_labels(4), ((0, 1, 7), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert any(d.startswith("index-range") for d in validate(P))


def test_validate_facet_count_and_coverage():
    P = Polytope(3, default_labels(3), ((0, 1, 2),))
    diags = validate(P)
    assert any(d.startswith("facet-count") for d in diags)
    # facet 4 unused
    sim = dual_cyclic(3, 4)
    P = Polytope(3, default_labels(5), sim.vertices)
    assert any(d.startswith("facet-coverage") for d in validate(P))


def test_is_face_known_edge():
    P = dual_cyclic(4, 15)
    assert hosts(P, (2, 7, 8))
    assert hosts(P, (0, 2, 4)) == []
    assert hosts(P, P.vertices[0]) == [P.vertices[0]]


@pytest.mark.parametrize("labels, vertices, message", [
    (None, (), "facet_labels: expected a list or tuple, got NoneType"),
    (("a", "b", "c"), 5, "vertices: expected a list or tuple, got int"),
    (("a", "b", "c"), [1, 2], "vertices: expected lists or tuples, got int"),
    (("a", "b", "c"), [(0, 1), None, "ab"],
     "vertices: expected lists or tuples, got NoneType, str"),
], ids=["labels-none", "vertices-int", "vertex-int", "vertex-none-and-str"])
def test_the_constructor_names_a_field_that_is_not_a_list_or_tuple(labels, vertices, message):
    with pytest.raises(InvariantError) as exc:
        Polytope(2, labels, vertices)
    assert str(exc.value) == message


@pytest.mark.parametrize("vertices, kinds", [
    ([(0, "a"), (1, 2)], "str"),
    ([(0, 1), ("a", "b")], "str"),
    ([(0, 1.5), ("a", None)], "NoneType, float, str"),
], ids=["mixed-in-a-vertex", "mixed-across-vertices", "three-kinds"])
def test_the_constructor_names_indices_that_do_not_sort(vertices, kinds):
    """The sort fails only on a non-int index; the error is validate's own diagnostic."""
    with pytest.raises(InvariantError) as exc:
        Polytope(2, ("a", "b", "c"), vertices)
    assert str(exc.value) == f"index-type: facet indices must be integers, got {kinds}"
    assert exc.value.__cause__ is None and exc.value.__suppress_context__


def test_is_face_rejects_bad_input():
    P = dual_cyclic(2, 5)
    with pytest.raises(ValueError, match="^face set must be nonempty$"):
        hosts(P, ())
    with pytest.raises(ValueError, match=r"^facet index 9 out of range \[0, 5\)$"):
        hosts(P, (0, 9))
    with pytest.raises(ValueError, match=r"^facet index -1 out of range \[0, 5\)$"):
        hosts(P, (-1,))
    with pytest.raises(ValueError, match=r"^face \[0, True\]: facet True is not an integer$"):
        hosts(P, (0, True))
    with pytest.raises(ValueError, match=r"^face \['a'\]: facet 'a' is not an integer$"):
        hosts(P, ("a",))
    with pytest.raises(ValueError, match="^face None: expected a sequence of facet indices$"):
        hosts(P, None)


def test_hosts_match_the_subset_oracle():
    cases = [
        dual_cyclic(4, 8),
        dual_cyclic(5, 12),
        truncate_face(dual_cyclic(4, 5), (0, 1, 2))[0],
        product(dual_cyclic(2, 5), segment()),
    ]
    # built from unsorted vertex tuples in reverse order
    Q = dual_cyclic(4, 7)
    cases.append(Polytope(Q.dim, Q.facet_labels, tuple(V[::-1] for V in Q.vertices[::-1])))
    for P in cases:
        faces = [S for k in range(1, P.dim + 1) for S in faces_bruteforce(P, k)]
        face_set = set(faces)
        non_faces = [
            S for S in itertools.combinations(range(P.num_facets), 3) if S not in face_set
        ] + [tuple(range(P.num_facets))]
        assert len(non_faces) > 1
        for S in faces + non_faces:
            expected = [V for V in P.vertices if set(S) <= set(V)]
            for query in (S, S[::-1], S + S[-1:]):
                assert hosts(P, query) == expected, query


def recorded(P) -> dict:
    """The hosts P records, face -> vertex list: none unless a full scan or a cut left some."""
    return P.__dict__.get("_hosts", {})


@given(st.integers(2, 6), st.integers(1, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_a_scan_records_every_bad_faces_hosts_and_each_cut_shares_them_unchanged(n, extra, data):
    P = dual_cyclic(n, n + extra)
    event("lanes" if _lanes_win(n, len(P.vertices)) else "per vertex")
    vectors = data.draw(st.lists(st.integers(1, (1 << n) - 1),
                                 min_size=P.num_facets, max_size=P.num_facets))
    bad = bad_faces(P, CharMap(n, tuple(vectors)))
    table = {F: list(H) for F, H in recorded(P).items()}
    assert table == {b.face: hosts_by_scan(P, b.face) for b in bad}
    assert all(b.witness_vertex == table[b.face][0] for b in bad)
    cut_away = set()
    for _ in range(data.draw(st.integers(0, 6))):
        k = data.draw(st.integers(2, P.dim))
        standing = [F for F, H in table.items() if cut_away.isdisjoint(H)]
        faces = sorted(set(polytope._faces(P.vertices, k))) + standing
        face = data.draw(st.sampled_from(faces))  # any face, or a bad one whose hosts remain
        cut_away.update(hosts_by_scan(P, face))
        P, _ = truncate_face(P, face)
        assert recorded(P) == table  # handed on unchanged
        # a list that lost a host is not served; one that lost none is still exact
        for F, H in table.items():
            assert hosts(P, F) == hosts_by_scan(P, F)
            if cut_away.isdisjoint(H):
                assert H == hosts_by_scan(P, F)
            else:
                event("a list lost a host")


def test_require_valid_returns_the_polytope_or_lists_every_diagnostic():
    P = dual_cyclic(4, 6)
    assert require_valid(P, "unused: ") is P
    doubled = Polytope(P.dim, P.facet_labels, P.vertices + (P.vertices[-1],))
    diags = "; ".join(validate(doubled))
    assert diags.startswith("duplicate-vertex")
    with pytest.raises(InvariantError) as exc:
        require_valid(doubled, "what: ")
    assert str(exc.value) == "what: " + diags
    # each caller keeps its own prefix
    calls = [
        ("truncating [0, 1, 2] broke the polytope: ", lambda: truncate_face(doubled, (0, 1, 2))),
        ("left factor is invalid: ", lambda: product(doubled, segment())),
        ("right factor is invalid: ", lambda: product(segment(), doubled)),
        ("polytope: ", lambda: polytope_from_dict(polytope_to_dict(doubled))),
        ("polytope is invalid: ", lambda: chromatic_number(doubled)),
    ]
    for prefix, call in calls:
        with pytest.raises(InvariantError) as exc:
            call()
        assert str(exc.value).startswith(prefix + "duplicate-vertex"), str(exc.value)


def test_faces_of_codim_counts():
    P = dual_cyclic(4, 15)
    assert f_vector(P)[2:] == [105, 15]
    assert all(hosts(P, S) for S in itertools.combinations(range(15), 2))  # 2-neighborly
    assert hosts(P, (2, 7, 8)) and hosts(P, (0, 1, 7))


def test_faces_of_codim_matches_bruteforce_on_small():
    square = product(segment(), segment())
    cube = product(square, segment())
    simplex, dc57 = dual_cyclic(4, 5), dual_cyclic(5, 7)
    cuts = [(simplex, (0, 1, 2)), (simplex, (0, 1, 2, 3)), (dc57, dc57.vertices[0])]
    truncated = [truncate_face(P, S)[0] for P, S in cuts]
    for P in (dual_cyclic(2, 5), dual_cyclic(3, 6), dual_cyclic(4, 7), square, cube, *truncated):
        for k in range(1, P.dim + 1):
            assert sorted(set(polytope._faces(P.vertices, k))) == faces_bruteforce(P, k)
        assert f_vector(P) == [len(faces_bruteforce(P, P.dim - d)) for d in range(P.dim)]


def test_f_vector_dual_cyclic_4_15():
    assert f_vector(dual_cyclic(4, 15)) == [90, 180, 105, 15]


def test_f_vector_simplex():
    assert f_vector(dual_cyclic(4, 5)) == [5, 10, 10, 5]


def test_f_vector_segment():
    assert f_vector(segment()) == [2]


def test_facet_adjacency_complete_for_neighborly():
    adj = facet_adjacency(dual_cyclic(4, 15))
    assert all((adj[i] >> j) & 1 == (i != j) for i in range(15) for j in range(15))


def test_facet_adjacency_tesseract():
    seg = segment()
    cube4 = product(product(product(seg, seg), seg), seg)
    adj = facet_adjacency(cube4)
    assert len(adj) == 8
    # facets pair up as opposites (2k, 2k+1); everything else is adjacent
    for i in range(8):
        for j in range(8):
            assert (adj[i] >> j) & 1 == (i // 2 != j // 2)


TRUNCATED = tuple(dual_cyclic(4, m) for m in range(5, 9)) + (dual_cyclic(5, 7), dual_cyclic(5, 8))
PRISMS = tuple(product(dual_cyclic(2, k), segment()) for k in range(3, 9))
FOUR_DIM_PRODUCTS = (
    product(PRISMS[1], segment()),
    product(dual_cyclic(2, 4), dual_cyclic(2, 5)),
    product(dual_cyclic(3, 5), segment()),
)


@st.composite
def non_neighbourly(draw):
    """A prism, or a neighbourly dual cyclic polytope cut at a vertex and maybe one more face.

    The facet cut off a vertex misses every facet not at that vertex, and
    truncation never makes old facets adjacent, so the result is never neighbourly.
    """
    P = draw(st.sampled_from(TRUNCATED + PRISMS))
    if P in TRUNCATED:
        P, _ = truncate_face(P, draw(st.sampled_from(P.vertices)))
        if draw(st.booleans()):
            faces = [S for k in range(2, P.dim + 1)
                     for S in sorted(set(polytope._faces(P.vertices, k)))]
            P, _ = truncate_face(P, draw(st.sampled_from(faces)))
    return P


def _ridge_rows(P):
    rows = [0] * P.num_facets
    for i, j in faces_bruteforce(P, 2):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


@given(non_neighbourly())
@settings(max_examples=100, deadline=None)
def test_facet_adjacency_matches_codim2_faces(P):
    expected = _ridge_rows(P)
    # some pair of facets misses, so a spurious bit would show
    full = (1 << P.num_facets) - 1
    assert any(row | 1 << i != full for i, row in enumerate(expected))
    assert facet_adjacency(P) == expected


# vertex [0, 0] repeats a facet: a bit sum over a vertex's facets would carry into
# facet 1's bit and give row 0 a neighbour that row 1 lacks
MALFORMED = Polytope(2, ("a", "b", "c"), [(0, 0), (1, 2), (0, 2), (1, 1)])


@st.composite
def adjacency_cases(draw):
    """dc(n, m), a product of two small polytopes, or dc(n, m) cut at one of its faces."""
    kind = draw(st.sampled_from(("dual-cyclic", "product", "cut")))
    if kind == "product":
        small = [segment()] + [dual_cyclic(n, m) for n, m in ((2, 3), (2, 5), (3, 5))]
        return product(draw(st.sampled_from(small)), draw(st.sampled_from(small)))
    n = draw(st.integers(2, 5))
    P = dual_cyclic(n, draw(st.integers(n + 1, n + 4)))
    if kind == "cut":
        faces = sorted(set(polytope._faces(P.vertices, draw(st.integers(2, n)))))
        P, _ = truncate_face(P, draw(st.sampled_from(faces)))
    return P


@given(adjacency_cases())
@example(MALFORMED)
@settings(max_examples=60, deadline=None)
def test_facet_adjacency_is_symmetric_loop_free_and_has_one_edge_per_codim2_face(P):
    rows = facet_adjacency(P)
    m = P.num_facets
    assert all(rows[i] >> j & 1 == rows[j] >> i & 1 for i in range(m) for j in range(m))
    assert not any(row >> i & 1 for i, row in enumerate(rows))
    if not validate(P):  # a repeated facet is a "face" f_vector counts, but no edge
        assert sum(map(int.bit_count, rows)) == 2 * f_vector(P)[P.dim - 2]


def test_a_malformed_polytope_has_symmetric_rows_and_no_chromatic_number():
    assert facet_adjacency(MALFORMED) == [4, 4, 3]
    with pytest.raises(InvariantError) as exc:
        chromatic_number(MALFORMED)
    assert str(exc.value) == "polytope is invalid: " + "; ".join(validate(MALFORMED))
    assert str(exc.value).startswith(
        "polytope is invalid: vertex-arity: vertex [0, 0] must list exactly 2 distinct facets; ")


@given(non_neighbourly(), st.data())
@settings(max_examples=100, deadline=None)
def test_induced_coloring_proper_iff_no_ridge_repeats_a_vector(P, data):
    m, ridges = P.num_facets, faces_bruteforce(P, 2)
    # a greedy colouring in random order repeats vectors on non-adjacent
    # facets; copying one facet's vector onto another may or may not clash
    vectors = [0] * m
    for i in data.draw(st.permutations(range(m))):
        taken = {vectors[j] for S in ridges if i in S for j in S}
        vectors[i] = min(set(range(1, m + 1)) - taken)
    if data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(m)))[:2]
        vectors[i] = vectors[j]
    L = CharMap(P.dim, tuple(vectors))
    clash = any(vectors[i] == vectors[j] for i, j in ridges)
    assert induced_coloring(P, L).proper == (not clash)


def test_truncate_edge_of_simplex():
    P = dual_cyclic(4, 5)
    result, created = truncate_face(P, (0, 1, 2))
    assert result.num_facets == 6
    assert result.facet_labels[5] == "T(F0,F1,F2)"
    assert set(created) == {V for V in result.vertices if 5 in V} == {
        (0, 1, 3, 5), (0, 2, 3, 5), (1, 2, 3, 5),
        (0, 1, 4, 5), (0, 2, 4, 5), (1, 2, 4, 5),
    }
    assert len(result.vertices) == len(P.vertices) + 4
    assert validate(result) == []


def test_truncate_vertex_of_simplex():
    P = dual_cyclic(4, 5)
    result, created = truncate_face(P, (0, 1, 2, 3))
    assert set(created) == {V for V in result.vertices if 5 in V} == {
        (0, 1, 2, 5), (0, 1, 3, 5), (0, 2, 3, 5), (1, 2, 3, 5),
    }
    assert len(result.vertices) == len(P.vertices) + 3
    assert validate(result) == []


def test_truncate_removes_face_keeps_proper_subsets():
    P = dual_cyclic(4, 5)
    result, _ = truncate_face(P, (0, 1, 2))
    assert hosts(result, (0, 1, 2)) == []
    assert hosts(result, (0, 1))
    assert hosts(result, (0, 2))
    assert hosts(result, (1, 2))


def test_truncate_polygon_face():
    # codim-2 face of a 4-polytope: a triangle with three vertices
    P = dual_cyclic(4, 5)
    result, _ = truncate_face(P, (0, 1))
    assert validate(result) == []
    assert len(result.vertices) == 5 - 3 + 6


def test_truncate_rejects_facets_and_nonfaces():
    P = dual_cyclic(4, 15)
    with pytest.raises(ValueError):
        truncate_face(P, (3,))
    with pytest.raises(ValueError):
        truncate_face(P, (0, 2, 4))  # not a face
    with pytest.raises(ValueError):
        truncate_face(P, (0, 1, 2, 3, 4))  # wider than the dimension


def test_truncations_preserve_euler_and_simplicity():
    P = dual_cyclic(4, 6)
    for S in [(0, 1, 2), P.vertices[0], (2, 3)]:
        Q, _ = truncate_face(P, S)
        fv = f_vector(Q)
        assert fv[0] - fv[1] + fv[2] - fv[3] == 0
        assert 4 * fv[0] == 2 * fv[1]


CHAIN_STARTS = (
    tuple(dual_cyclic(n, m) for n, top in ((3, 7), (4, 7), (5, 8)) for m in range(n + 1, top + 1))
    + tuple(dual_cyclic(2, k) for k in range(3, 7))
    + PRISMS[:3]
)


@given(st.sampled_from(CHAIN_STARTS), st.integers(10, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_a_chain_of_cuts_keeps_the_certificate_and_agrees_with_a_full_scan(P, cuts, data):
    assert validate(P) == []  # generated polytopes are certified
    for _ in range(cuts):
        k = data.draw(st.integers(2, P.dim))
        face = data.draw(st.sampled_from(sorted(set(polytope._faces(P.vertices, k)))))
        with mock.patch.object(polytope, "_scan", wraps=polytope._scan) as scan:
            P, _ = truncate_face(P, face)
        assert scan.call_count == 0, f"cutting {face} fell back to a full scan"
        # built canonical: the public constructor, given every vertex reversed, agrees
        fresh = Polytope(P.dim, P.facet_labels, tuple(V[::-1] for V in reversed(P.vertices)))
        assert validate(P) == validate(fresh) == []
        # field by field, and the inherited certified mark is the one a full scan caches
        assert vars(P) == vars(fresh)
        assert P == fresh and hash(P) == hash(fresh)


@given(st.sampled_from(CHAIN_STARTS + PRISMS[3:] + FOUR_DIM_PRODUCTS), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_truncate_face_follows_the_rule_from_raw_subsets(P, cuts, data):
    for _ in range(cuts):
        if data.draw(st.booleans(), label="uncertified parent"):
            P = Polytope(P.dim, P.facet_labels, P.vertices)  # drops the certified mark
        k = data.draw(st.integers(2, P.dim))
        face = data.draw(st.sampled_from(sorted(set(polytope._faces(P.vertices, k)))))
        vertices, expected = truncate_by_definition(P, face)
        P, created = truncate_face(P, face)
        assert P.vertices == vertices and created == expected
        assert validate_from_scratch(P) == []


@given(st.sampled_from(CHAIN_STARTS), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_a_certified_cut_is_spliced_in_order_and_passes_a_full_scan(P, before, data):
    for _ in range(before):  # certified parents that are cuts themselves
        face = data.draw(st.sampled_from(sorted(set(polytope._faces(P.vertices, P.dim)))))
        P, _ = truncate_face(P, face)
    k = data.draw(st.integers(2, P.dim))
    face = data.draw(st.sampled_from(sorted(set(polytope._faces(P.vertices, k)))))
    on, (_, created) = hosts(P, face), truncate_by_definition(P, face)
    gone = set(on)
    kept = tuple(V for V in P.vertices if V not in gone)
    assert polytope._splice(P, on, created) == tuple(sorted(kept + created))
    assert validate_from_scratch(Polytope(P.dim, P.facet_labels + ("T",), kept + created)) == []


def test_hosts_out_of_vertex_order_are_spliced_all_the_same(monkeypatch):
    expected, _ = truncate_face(dual_cyclic(4, 7), (0, 1))
    P = dual_cyclic(4, 7)  # a fresh object: no cut kept on it
    real_hosts = polytope.hosts
    monkeypatch.setattr(polytope, "hosts", lambda P, S: real_hosts(P, S)[::-1])
    with mock.patch.object(polytope, "_scan", wraps=polytope._scan) as scan:
        result, _ = truncate_face(P, (0, 1))
    assert scan.call_count == 0
    assert result == expected and vars(result) == vars(expected)


def test_no_builder_runs_the_public_constructor_or_a_scan():
    P = dual_cyclic(4, 7)
    uncertified = Polytope(P.dim, P.facet_labels, P.vertices)
    assert validate(P) == [] and "_certified" not in uncertified.__dict__
    with mock.patch.object(Polytope, "__post_init__", autospec=True,
                           side_effect=Polytope.__post_init__) as init, \
            mock.patch.object(polytope, "_scan", wraps=polytope._scan) as scan:
        prism = product(dual_cyclic(2, 5), segment())
        built = [segment(), dual_cyclic(2, 3), dual_cyclic(6, 13), prism,
                 product(truncate_face(prism, (0, 1))[0], dual_cyclic(3, 6))]
        certified_cut, _ = truncate_face(P, (0, 1))
        assert init.call_count == scan.call_count == 0
        assert all(validate(X) == [] for X in built)  # each starts certified
        uncertified_cut, _ = truncate_face(uncertified, (0, 1))
        assert init.call_count == 0 and scan.call_count == 1  # the parent from outside
    # field by field, the certified mark included: both parents take the one splice path
    assert vars(certified_cut) == vars(uncertified_cut)
    assert uncertified_cut.__dict__["_certified"] is True


def test_a_cut_of_an_uncertified_invalid_parent_keeps_its_message():
    P = dual_cyclic(4, 6)
    broken = Polytope(P.dim, P.facet_labels, P.vertices[:-1])
    with pytest.raises(InvariantError) as exc:
        truncate_face(broken, (0, 1, 2))
    assert str(exc.value) == (
        "truncating [0, 1, 2] broke the polytope: "
        "edge-condition: facets [2, 3, 4] lie on 1 common vertices, expected 2; "
        "edge-condition: facets [2, 3, 5] lie on 1 common vertices, expected 2; "
        "edge-condition: facets [2, 4, 5] lie on 1 common vertices, expected 2; "
        "edge-condition: facets [3, 4, 5] lie on 1 common vertices, expected 2"
    )
