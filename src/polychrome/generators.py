"""Constructors for the standard starting polytopes, each valid by construction."""

from __future__ import annotations

from .polytope import Polytope, _built, default_labels, require_valid


def segment() -> Polytope:
    """The 1-dimensional polytope: two facets, each a vertex on its own.

    Valid on sight: two distinct 1-vertices, each facet on one of them, and
    the empty ridge on both.
    """
    return _built(1, default_labels(2), ((0,), (1,)))


def _gale_even(m: int, start: int, left: int, memo: dict) -> list[tuple[int, ...]]:
    """The left-subsets of {start, ..., m-1} that complete a Gale-even subset.

    Built run by run: every maximal run of consecutive members touching
    neither 0 nor m-1 has even length. start - 1 is not a member. A run is
    placed only where the remaining members still fit, so every branch
    yields a subset. The completions depend on (start, left) alone, for one
    m, so memo keeps each list by that key: one dual_cyclic call builds each
    suffix of runs once, not once per prefix, and drops the memo on return.
    """
    if (start, left) in memo:
        return memo[start, left]
    out = []
    for x in range(start, m - left + 1):
        for length in range(1, left + 1):
            end = x + length
            if x > 0 and end < m and length % 2:
                continue
            run = tuple(range(x, end))
            if length == left:
                out.append(run)
            elif x < m - left:
                out += [run + rest for rest in _gale_even(m, end + 1, left - length, memo)]
    memo[start, left] = out
    return out


def dual_cyclic(n: int, m: int) -> Polytope:
    """The simple polytope dual to the cyclic polytope C^n(m).

    Facet i corresponds to the i-th point along the moment curve; the
    vertices are exactly the n-subsets of {0, ..., m-1} satisfying Gale's
    evenness condition. They are generated directly, each in increasing
    order, and the list is sorted once. Valid by Gale's evenness theorem:
    these subsets are the facets of the simplicial polytope C^n(m), n >= 2
    and m > n, so they are the vertices of its simple dual.
    """
    if type(n) is not int or type(m) is not int:  # a bool is no size
        raise ValueError(f"sizes must be integers, got n={n!r}, m={m!r}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if m <= n:
        raise ValueError(f"need more facets than the dimension, got m={m} <= n={n}")
    return _built(n, default_labels(m), tuple(sorted(_gale_even(m, 0, n, {}))))


def product(P: Polytope, Q: Polytope) -> Polytope:
    """Cartesian product: P's facets first, then Q's shifted by P's count.

    The factors must be valid (InvariantError with validate's diagnostics
    otherwise); the product then is, with n = nP + nQ. Its vertices VP u VQ'
    (VQ' being VQ shifted) are n distinct facets in range, distinct for
    distinct pairs. An (n-1)-subset of VP u VQ' drops one facet from one
    factor, so it is a ridge of that factor times a vertex of the other and
    lies on exactly 2 vertices. A facet of P lies on at least nP vertices of
    P, each paired with the at least nQ + 1 vertices of Q, so on
    nP(nQ + 1) >= n; likewise for Q. There are mP + mQ >= n + 2 facets.
    Canonical as built: VP < VQ', and the nested loop runs over sorted
    vertex lists of fixed lengths, so it yields the vertices in order.
    """
    for name, X in (("left", P), ("right", Q)):
        require_valid(X, f"{name} factor is invalid: ")
    offset = P.num_facets
    right = [tuple(q + offset for q in VQ) for VQ in Q.vertices]
    return _built(P.dim + Q.dim, P.facet_labels + Q.facet_labels,
                  tuple(VP + VQ for VP in P.vertices for VQ in right))
