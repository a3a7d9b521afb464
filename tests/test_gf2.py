import itertools

import pytest

from polychrome import gf2

from .oracles import circuits_bruteforce, rank_by_span

E1, E2, E3, E4 = 1, 2, 4, 8


def test_rank_standard_basis():
    assert gf2.rank([E1, E2, E3, E4], 4) == 4


def test_rank_dependent_triple():
    assert gf2.rank([E1, E2, E1 ^ E2], 4) == 2
    assert gf2.rank(iter([E1, E2, E1 ^ E2]), 4) == 2  # not spent by the width check


def test_rank_four_vectors_summing_to_zero():
    # e4, e1+e4, e1+e2+e4, e2+e4: any three independent, all four not
    assert gf2.rank([8, 9, 11, 10], 4) == 3


def test_rank_empty():
    assert gf2.rank([], 4) == 0


def test_rank_matches_span_oracle_on_small_enumeration():
    for vecs in [[1, 2, 3], [5, 9, 12, 6], [7, 7], [15, 1], [3, 5, 6], [8, 9, 11, 10]]:
        assert gf2.rank(vecs, 4) == rank_by_span(vecs)


def test_rank_rejects_overwide_vectors():
    with pytest.raises(ValueError):
        gf2.rank([16], 4)
    with pytest.raises(ValueError):
        gf2.rank([1], 0)
    with pytest.raises(ValueError):
        gf2.rank([1], 17)
    # a bool or a float is no width or vector: True would read as 1, and 4.0 fail at >>
    for n in [True, 4.0, "4"]:
        with pytest.raises(ValueError, match="^vector width must be an integer in"):
            gf2.rank([1], n)
    for v in [True, 1.0, "1"]:
        with pytest.raises(ValueError, match="^vector 0 = .* is not an integer$"):
            gf2.rank([v], 4)


def test_parity():
    assert gf2.parity(E1 ^ E2 ^ E3) == 1
    assert gf2.parity(E1 ^ E2) == 0
    assert gf2.parity(15) == 0
    assert gf2.parity(0) == 0


@pytest.mark.parametrize("v, message", [
    (-3, "vector must be a nonnegative integer, got -3"),  # would read as even
    (True, "vector must be a nonnegative integer, got True"),  # would read as odd
    (1.0, "vector must be a nonnegative integer, got 1.0"),  # has no bit_count
    ("1", "vector must be a nonnegative integer, got '1'"),
], ids=["negative", "bool", "float", "str"])
def test_parity_refuses_what_is_not_a_nonnegative_integer(v, message):
    with pytest.raises(ValueError) as exc:
        gf2.parity(v)
    assert str(exc.value) == message


def test_circuits_unique_triple():
    assert gf2.circuits([E1, E2, E1 ^ E2, E3], 4) == [(0, 1, 2)]


def test_circuits_basis_has_none():
    assert gf2.circuits([E1, E2, E3, E4], 4) == []


def test_circuits_full_four_cycle():
    assert gf2.circuits([8, 9, 11, 10], 4) == [(0, 1, 2, 3)]


def test_circuits_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        gf2.circuits([1, 0, 2], 4)


def test_circuits_rejects_overwide_vectors():
    with pytest.raises(ValueError, match="does not fit"):
        gf2.circuits([1, 16, 2], 4)
    with pytest.raises(ValueError, match="width"):
        gf2.circuits([1], 17)
    with pytest.raises(ValueError, match="^vector 1 = 2.0 is not an integer$"):
        gf2.circuits([1, 2.0], 4)


def test_circuits_multiple_and_sorted():
    # 1^2^3 = 0, 1^4^5 = 0, and their symmetric difference; lexicographic output
    vecs = [1, 2, 3, 4, 5]
    result = gf2.circuits(vecs, 4)
    assert result == [(0, 1, 2), (0, 3, 4), (1, 2, 3, 4)]
    assert result == circuits_bruteforce(vecs)


def test_circuits_pair_of_equal_vectors():
    assert gf2.circuits([3, 3, 4], 4) == [(0, 1)]


def test_circuits_of_sixteen_equal_vectors_are_their_pairs():
    # 2^15 - 1 zero subsets: a test of every subset against every other would not end
    assert gf2.circuits([1] * 16, 16) == list(itertools.combinations(range(16), 2))


def test_vector_str():
    assert gf2.vector_str(5) == "e1+e3"
    assert gf2.vector_str(1) == "e1"
    assert gf2.vector_str(0) == "0"
    for v in [-3, 1.0, True]:
        with pytest.raises(ValueError, match="^vector must be a nonnegative integer, got "):
            gf2.vector_str(v)
