"""Exact facet-coloring certificates: a maximum clique below, a proper coloring above.

The polytopes built here carry huge cliques (every pair of original facets
meets), so the clique bound usually certifies the greedy or hinted coloring
immediately; branch-and-bound coloring is the fallback that closes any gap.
Adjacency is kept as per-node bitmasks, which Python ints make unbounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .charmap import CharMap, _check_aligned
from .polytope import Polytope, facet_adjacency

DEFAULT_TIME_BUDGET = 10.0


@dataclass(frozen=True)
class ChromaticCertificate:
    chi: int
    clique: tuple[int, ...]
    coloring: tuple[int, ...]
    status: str  # "exact" | "bounds_only"
    lower: int
    upper: int


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_clique(adj: list[int]) -> list[int]:
    """Exact maximum clique by branch and bound with a greedy-coloring bound."""
    best: list[int] = []

    def colour_order(cand: int) -> list[tuple[int, int]]:
        # greedy colour classes over the candidates; a k-colouring of the
        # candidate set bounds any clique inside it by k
        classes: list[int] = []
        ordered: list[tuple[int, int]] = []
        for v in _bits(cand):
            for ci in range(len(classes)):
                if not adj[v] & classes[ci]:
                    classes[ci] |= 1 << v
                    ordered.append((v, ci + 1))
                    break
            else:
                classes.append(1 << v)
                ordered.append((v, len(classes)))
        ordered.sort(key=lambda t: t[1])
        return ordered

    def expand(stack: list[int], cand: int) -> None:
        nonlocal best
        if not cand:
            if len(stack) > len(best):
                best = stack[:]
            return
        for v, bound in reversed(colour_order(cand)):
            if len(stack) + bound <= len(best):
                return
            stack.append(v)
            expand(stack, cand & adj[v])
            stack.pop()
            cand &= ~(1 << v)

    expand([], (1 << len(adj)) - 1 if adj else 0)
    return sorted(best)


def greedy_coloring(adj: list[int]) -> list[int]:
    """DSATUR greedy: colour the most saturated node first, smallest colour wins."""
    n = len(adj)
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    degree = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(sat[u]), degree[u], -u),
        )
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for u in _bits(adj[v]):
            if colors[u] < 0:
                sat[u].add(c)
    return colors


def _exact_coloring(
    adj: list[int],
    clique: Sequence[int],
    start: list[int],
    lower: int,
    deadline: float,
) -> tuple[list[int], bool]:
    """DSATUR branch and bound below the incumbent colouring.

    Returns (best colouring found, proven) where proven means the search
    finished inside the deadline, so the result is optimal.
    """
    n = len(adj)
    best = list(start)
    best_k = len(set(best))
    if best_k == lower:
        return best, True
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    degree = [adj[v].bit_count() for v in range(n)]
    # clique nodes need pairwise-distinct colours in any solution, so fixing
    # them up front loses no colouring and kills the colour-permutation blowup
    for ci, v in enumerate(clique):
        colors[v] = ci
        for u in _bits(adj[v]):
            if colors[u] < 0:
                sat[u].add(ci)
    timed_out = False

    def rec(used: int) -> None:
        nonlocal best, best_k, timed_out
        if timed_out or best_k == lower:
            return
        if time.monotonic() > deadline:
            timed_out = True
            return
        uncolored = [u for u in range(n) if colors[u] < 0]
        if not uncolored:
            if used < best_k:
                best_k = used
                best = colors[:]
            return
        v = max(uncolored, key=lambda u: (len(sat[u]), degree[u], -u))
        for c in range(min(used + 1, best_k - 1)):
            if c in sat[v]:
                continue
            colors[v] = c
            touched = []
            for u in _bits(adj[v]):
                if colors[u] < 0 and c not in sat[u]:
                    sat[u].add(c)
                    touched.append(u)
            rec(max(used, c + 1))
            colors[v] = -1
            for u in touched:
                sat[u].discard(c)
        return

    rec(len(clique))
    return best, not timed_out


def _is_proper(adj: list[int], colors: Sequence[int]) -> bool:
    return all(
        colors[v] != colors[u] for v in range(len(adj)) for u in _bits(adj[v]) if u > v
    )


def _canonical(colors: Sequence[int]) -> list[int]:
    """Renumber colour ids by first occurrence in node order."""
    remap: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return out


def _verify(adj: list[int], cert: ChromaticCertificate) -> None:
    for i, v in enumerate(cert.clique):
        for u in cert.clique[i + 1 :]:
            if not (adj[v] >> u) & 1:
                raise RuntimeError(f"certificate broken: clique pair {v},{u} not adjacent")
    if not _is_proper(adj, cert.coloring):
        raise RuntimeError("certificate broken: coloring is not proper")
    used = len(set(cert.coloring))
    if used != cert.upper or cert.chi != cert.upper:
        raise RuntimeError("certificate broken: colour count does not match bounds")
    if cert.lower > cert.upper or len(cert.clique) > cert.lower:
        raise RuntimeError("certificate broken: bounds out of order")
    if cert.status == "exact" and cert.lower != cert.upper:
        raise RuntimeError("certificate broken: exact status with open bounds")


def _certify(
    adj: list[int],
    hints: Iterable[Sequence[int]],
    time_budget: float,
) -> ChromaticCertificate:
    n = len(adj)
    if n == 0:
        return ChromaticCertificate(0, (), (), "exact", 0, 0)
    deadline = time.monotonic() + time_budget
    clique = max_clique(adj)
    lower = len(clique)
    candidates = [greedy_coloring(adj)]
    for h in hints:
        if len(h) == n and _is_proper(adj, h):
            candidates.append(_canonical(h))
    best = min(candidates, key=lambda c: len(set(c)))
    upper = len(set(best))
    if upper > lower:
        best, proven = _exact_coloring(adj, clique, best, lower, deadline)
        upper = len(set(best))
        if proven:
            lower = upper
    status = "exact" if lower == upper else "bounds_only"
    cert = ChromaticCertificate(
        chi=upper,
        clique=tuple(clique),
        coloring=tuple(_canonical(best)),
        status=status,
        lower=lower,
        upper=upper,
    )
    _verify(adj, cert)
    return cert


def adjacency_masks(matrix: list[list[bool]]) -> list[int]:
    m = len(matrix)
    return [sum(1 << j for j in range(m) if matrix[i][j]) for i in range(m)]


def chromatic_of_graph(
    n: int, edges: Iterable[tuple[int, int]], time_budget: float = DEFAULT_TIME_BUDGET
) -> ChromaticCertificate:
    """Certified chromatic number of an arbitrary small graph."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at node {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _certify(adj, [], time_budget)


def chromatic_number(
    P: Polytope,
    hint: CharMap | None = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> ChromaticCertificate:
    """Certified chromatic number of the facet-adjacency graph of P.

    A proper coloring induced by the hint map, when given, seeds the upper
    bound; budget exhaustion downgrades the status to bounds_only rather
    than raising.
    """
    hints: list[Sequence[int]] = []
    if hint is not None:
        _check_aligned(P, hint)
        hints.append(hint.vectors)  # _certify keeps it only if proper
    return _certify(adjacency_masks(facet_adjacency(P)), hints, time_budget)
