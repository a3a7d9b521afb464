from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from polychrome import gf2

from .oracles import circuits_bruteforce, rank_by_span


@st.composite
def vectors_with_width(draw, max_len=8, allow_zero=True):
    n = draw(st.integers(min_value=1, max_value=5))
    low = 0 if allow_zero else 1
    vecs = draw(
        st.lists(st.integers(min_value=low, max_value=(1 << n) - 1), max_size=max_len)
    )
    return vecs, n


@given(vectors_with_width())
def test_rank_matches_span_oracle(case):
    vecs, n = case
    assert gf2.rank(vecs, n) == rank_by_span(vecs)


@given(vectors_with_width(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation(case, rng):
    vecs, n = case
    shuffled = vecs[:]
    rng.shuffle(shuffled)
    assert gf2.rank(shuffled, n) == gf2.rank(vecs, n)


@given(vectors_with_width(), st.data())
def test_rank_invariant_under_elementary_row_operation(case, data):
    vecs, n = case
    if len(vecs) < 2:
        return
    i = data.draw(st.integers(0, len(vecs) - 1))
    j = data.draw(st.integers(0, len(vecs) - 1))
    if i == j:
        return
    modified = vecs[:]
    modified[i] ^= vecs[j]
    assert gf2.rank(modified, n) == gf2.rank(vecs, n)


@given(vectors_with_width(max_len=6, allow_zero=False))
@settings(max_examples=300)
def test_circuits_match_bruteforce(case):
    vecs, n = case
    assert gf2.circuits(vecs, n) == circuits_bruteforce(vecs)


@st.composite
def vectors_with_repeats(draw):
    """Up to 9 nonzero vectors of width at most 5, some of them repeated."""
    n = draw(st.integers(min_value=1, max_value=5))
    distinct = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=9)
    )
    copies = draw(st.lists(st.sampled_from(distinct), max_size=9 - len(distinct)))
    return draw(st.permutations(distinct + copies)), n


@given(vectors_with_repeats())
@example(([1] * 9, 1))
@example(([1, 2, 3, 4, 5, 6, 7, 8, 9], 4))
def test_circuits_match_bruteforce_at_high_rank_deficiency(case):
    vecs, n = case
    target(len(vecs) - gf2.rank(vecs, n))
    assert gf2.circuits(vecs, n) == circuits_bruteforce(vecs)


def test_circuits_match_bruteforce_exhaustively_for_tiny_widths():
    import itertools

    for n in (2, 3):
        nonzero = range(1, 1 << n)
        for length in range(5):
            for vecs in itertools.product(nonzero, repeat=length):
                assert gf2.circuits(list(vecs), n) == circuits_bruteforce(vecs)


@given(vectors_with_width(max_len=6, allow_zero=False))
def test_dependent_lists_have_circuits(case):
    vecs, n = case
    if gf2.rank(vecs, n) == len(vecs):
        assert gf2.circuits(vecs, n) == []
    else:
        assert gf2.circuits(vecs, n) != []


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_parity_is_additive(u, v):
    assert gf2.parity(u ^ v) == gf2.parity(u) ^ gf2.parity(v)
