"""Constructors for the standard starting polytopes."""

from __future__ import annotations

from .polytope import Polytope, default_labels, require_valid


def segment() -> Polytope:
    """The 1-dimensional polytope: two facets, each a vertex on its own."""
    return require_valid(Polytope(1, default_labels(2), ((0,), (1,))), "segment is broken: ")


def _gale_even(m: int, start: int, left: int):
    """The left-subsets of {start, ..., m-1} that complete a Gale-even subset.

    Built run by run: every maximal run of consecutive members touching
    neither 0 nor m-1 has even length. start - 1 is not a member. A run is
    placed only where the remaining members still fit, so every branch
    yields a subset.
    """
    for x in range(start, m - left + 1):
        for length in range(1, left + 1):
            end = x + length
            if x > 0 and end < m and length % 2:
                continue
            run = tuple(range(x, end))
            if length == left:
                yield run
            elif x < m - left:
                for rest in _gale_even(m, end + 1, left - length):
                    yield run + rest


def dual_cyclic(n: int, m: int) -> Polytope:
    """The simple polytope dual to the cyclic polytope C^n(m).

    Facet i corresponds to the i-th point along the moment curve; the
    vertices are exactly the n-subsets of {0, ..., m-1} satisfying Gale's
    evenness condition. They are generated directly, and the result is
    validated in full.
    """
    if type(n) is not int or type(m) is not int:  # a bool is no size
        raise ValueError(f"sizes must be integers, got n={n!r}, m={m!r}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if m <= n:
        raise ValueError(f"need more facets than the dimension, got m={m} <= n={n}")
    P = Polytope(n, default_labels(m), tuple(_gale_even(m, 0, n)))
    return require_valid(P, f"dual_cyclic({n}, {m}) is broken: ")


def product(P: Polytope, Q: Polytope) -> Polytope:
    """Cartesian product: P's facets first, then Q's shifted by P's count."""
    for name, X in (("left", P), ("right", Q)):
        require_valid(X, f"{name} factor is invalid: ")
    offset = P.num_facets
    verts = tuple(
        VP + tuple(q + offset for q in VQ)
        for VP in P.vertices
        for VQ in Q.vertices
    )
    result = Polytope(P.dim + Q.dim, P.facet_labels + Q.facet_labels, verts)
    return require_valid(result, "product is broken: ")
