"""Independent brute-force oracles the implementation is checked against.

Everything here recomputes results from first principles along a different
code path than the library: span enumeration instead of elimination, raw
subset filters instead of incidence walks, permutation expansion instead of
fraction-free elimination, a full validation scan instead of a certificate
inherited across truncations.
"""

from __future__ import annotations

import itertools

from polychrome.polytope import Polytope, validate


def rank_by_span(vectors) -> int:
    """Rank as log2 of the span size, enumerating all XOR combinations."""
    span = {0}
    for v in vectors:
        span |= {v ^ s for s in span}
    return len(span).bit_length() - 1


def in_span_by_subsets(v: int, vectors) -> bool:
    acc = {0}
    for w in vectors:
        acc |= {w ^ s for s in acc}
    return v in acc


def circuits_bruteforce(vectors) -> list[tuple[int, ...]]:
    """All minimal zero-XOR index subsets, by filtering every subset."""
    zero_sets = []
    idx = range(len(vectors))
    for size in range(1, len(vectors) + 1):
        for combo in itertools.combinations(idx, size):
            acc = 0
            for i in combo:
                acc ^= vectors[i]
            if acc == 0:
                zero_sets.append(set(combo))
    minimal = [
        s for s in zero_sets if not any(t < s for t in zero_sets)
    ]
    return sorted(tuple(sorted(s)) for s in minimal)


def gale_pairwise(subset, m: int) -> bool:
    """Literal evenness condition: any two outside points enclose an even
    number of subset members."""
    inside = set(subset)
    outside = [x for x in range(m) if x not in inside]
    for i, j in itertools.combinations(outside, 2):
        if sum(1 for k in inside if i < k < j) % 2:
            return False
    return True


def faces_bruteforce(P, k: int) -> list[tuple[int, ...]]:
    """Codim-k faces by filtering all k-subsets of all facets."""
    out = []
    vertex_sets = [set(v) for v in P.vertices]
    for S in itertools.combinations(range(P.num_facets), k):
        s = set(S)
        if any(s <= vs for vs in vertex_sets):
            out.append(S)
    return out


def bad_faces_bruteforce(P, L) -> dict[tuple[int, ...], tuple[int, ...]]:
    """face -> lexicographically smallest witness vertex, checking every face
    of every codimension directly."""
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k in range(2, P.dim + 1):
        for face in faces_bruteforce(P, k):
            acc = 0
            for i in face:
                acc ^= L.vectors[i]
            if acc != 0:
                continue
            minimal = True
            for size in range(1, len(face)):
                for sub in itertools.combinations(face, size):
                    x = 0
                    for i in sub:
                        x ^= L.vectors[i]
                    if x == 0:
                        minimal = False
            if not minimal:
                continue
            out[face] = min(V for V in P.vertices if set(face) <= set(V))
    return out


def validate_from_scratch(P) -> list[str]:
    """validate's full scan of P: a fresh copy carries no cached certificate."""
    return validate(Polytope(P.dim, P.facet_labels, P.vertices))


def det_by_permutations(rows) -> int:
    """Leibniz expansion; exact and hopelessly slow beyond 5x5."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def chromatic_bruteforce(n: int, edges) -> int:
    """Smallest k admitting a proper k-coloring, by backtracking."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            used = {colors[u] for u in adj[v] if colors[u] >= 0}
            # symmetry break: vertex v may only open colour number max+1
            cap = min(k, max(colors[:v], default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def is_proper(n: int, edges, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in edges)
