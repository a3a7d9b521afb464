"""Independent brute-force oracles the implementation is checked against.

Everything here recomputes results from first principles along a different
code path than the library: span enumeration instead of elimination, raw
subset filters instead of incidence walks or hosts recorded by a scan,
permutation expansion instead of fraction-free elimination, a full validation
scan instead of a certificate inherited across truncations, the truncation
rule on raw subsets instead of a spliced cut, a rank per candidate and created
vertex instead of one elimination per host, saturation buckets instead of
bit-sliced counters.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from polychrome import chromatic, gf2
from polychrome.polytope import Polytope, validate
from polychrome.resolution import NoVectorFound


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


def hosts_by_scan(P, S) -> list[tuple[int, ...]]:
    """The vertices on the face S, in vertex order, by a subset test of every vertex."""
    face = set(S)
    return [V for V in P.vertices if face <= set(V)]


# polytope.facet_adjacency before it ORed per-vertex facet masks: the set of facet
# pairs at each vertex, one bit pair per pair. The mask rows must equal these.
def facet_adjacency_by_pairs(P) -> list[int]:
    """Facet graph rows from the set of facet pairs that some vertex holds."""
    rows = [0] * P.num_facets
    for i, j in {pair for V in P.vertices for pair in itertools.combinations(V, 2)}:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def validate_from_scratch(P) -> list[str]:
    """validate's full scan of P: a fresh copy carries no cached certificate."""
    return validate(Polytope(P.dim, P.facet_labels, P.vertices))


def truncate_by_definition(P, S):
    """(vertices, created) of cutting the face S off P, from raw subsets.

    The vertices not containing S are kept; each vertex V containing S gives
    way to V - {s} + {m} for each s in S, m being the new facet's index.
    Vertices come sorted, created ones in P's vertex order, then by s.
    """
    face, m = set(S), P.num_facets
    kept = [V for V in P.vertices if not face <= set(V)]
    created = [tuple(sorted(set(V) - {s} | {m}))
               for V in P.vertices if face <= set(V) for s in sorted(face)]
    return tuple(sorted(kept + created)), tuple(created)


# resolution.resolution_vector before it eliminated each host's vectors once: every
# candidate is ranked with the retained vectors of every vertex the cut creates,
# which come from the raw-subset cut. The faster search must return exactly this.
def resolution_vector_by_rank(P, L, S) -> int:
    """Smallest candidate completing every created vertex to full rank; NoVectorFound if none."""
    retained = [[L.vectors[i] for i in C[:-1]] for C in truncate_by_definition(P, S)[1]]
    for w in (w for w in range(1, 1 << L.n) if w.bit_count() & 1 or L.mode != "oriented"):
        if all(gf2._rank(vecs + [w]) == L.n for vecs in retained):
            return w
    raise NoVectorFound(tuple(sorted(set(S))))


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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _past(deadline: float | None, nodes: int) -> bool:
    """chromatic's clock rule for a search that asks on every node."""
    return nodes & chromatic._CLOCK == 1 and chromatic._past(deadline)


# chromatic._dsatur as it was before bit-sliced saturation counters and a live
# incumbent bound: one saturation bucket per level, rebuilt for every child, and
# a colour limit fixed when a frame is pushed. The faster search must return
# exactly what this returns.
def dsatur_by_buckets(
    adj: list[int],
    clique: Sequence[int],
    best_k: int,
    lower: int,
    deadline: float | None,
) -> tuple[list[int] | None, bool]:
    """DSATUR branch and bound (Brélaz) for a colouring with fewer than best_k colours.

    Branches on the uncoloured node with the most distinct neighbour colours,
    then the highest degree, then the lowest index; tries colours smallest
    first. Precolouring the clique 0, 1, ... loses no colouring and kills the
    colour-permutation blowup. Returns (best colouring or None, finished in time).
    """
    n = len(adj)
    # relabelled by (degree descending, index ascending), the node to branch
    # on is the lowest bit of the highest non-empty saturation bucket
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    rank = {v: r for r, v in enumerate(order)}
    radj = [sum(1 << rank[u] for u in _bits(adj[v])) for v in order]
    colors = [-1] * n  # by rank
    uncol, near = (1 << n) - 1, []  # near[c]: the nodes next to a node coloured c
    for c, v in enumerate(clique):
        colors[rank[v]] = c
        uncol ^= 1 << rank[v]
        near.append(radj[rank[v]])
    buckets = [0] * (len(clique) + 1)  # buckets[s]: the uncoloured nodes of saturation s
    for r in _bits(uncol):
        buckets[sum((m >> r) & 1 for m in near)] |= 1 << r
    best, used, nodes = None, len(clique), 0
    stack: list[list] = []  # frames: used, buckets, near, uncol, node, next colour, limit
    while True:
        nodes += 1
        if _past(deadline, nodes):
            return best, False
        if not uncol:
            if used < best_k:
                best_k, best = used, [colors[rank[v]] for v in range(n)]
                if best_k <= lower:
                    return best, True
        else:
            s = len(buckets) - 1
            while not buckets[s]:
                s -= 1
            v = (buckets[s] & -buckets[s]).bit_length() - 1
            # the colour limit is fixed on entry, by the incumbent as it stood then
            stack.append([used, buckets, near, uncol, v, 0, min(used + 1, best_k - 1)])
        while stack:  # paint the next child, backtracking as needed
            frame = stack[-1]
            used, old, near, uncol, v, c, limit = frame
            while c < used and (near[c] >> v) & 1:
                c += 1
            if c >= limit:
                stack.pop()
                continue
            frame[5] = c + 1
            near = near + [0] if c == used else near[:]
            used = max(used, c + 1)
            gain = radj[v] & uncol & ~near[c]
            near[c] |= radj[v]
            colors[v] = c
            uncol &= ~(1 << v)
            # v leaves its bucket; its newly saturated neighbours rise by one
            buckets, moved = [], 0
            for b in old:
                rise = b & gain
                buckets.append((b ^ rise) & uncol | moved)
                moved = rise
            if moved:
                buckets.append(moved)
            break
        else:
            return best, True
