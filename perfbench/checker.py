"""Independent checks of the answers the benchmark times.

Nothing here goes through a polychrome fast path. GF(2) ranks, facet
adjacency, f-vectors, certificates and colourability proofs are recomputed
from raw vertex lists, vectors and edge lists. The one library call is
``polytope.validate``, because ``validate(P) == []`` is itself part of the
contract being checked; callers pass it in.

Every function returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import itertools


def rank(vectors) -> int:
    """GF(2) rank by the minimum-XOR basis reduction (no pivot table)."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def singular_vertices(vertices, vectors, n: int) -> list[tuple[int, ...]]:
    """Vertices whose n facet vectors are GF(2)-dependent."""
    return [V for V in vertices if rank(vectors[i] for i in V) < n]


def f_vector(vertices, dim: int) -> list[int]:
    """[f_0, ..., f_{dim-1}] counted from the distinct facet k-subsets of vertices."""
    by_codim = [set() for _ in range(dim + 1)]
    for V in vertices:
        for k in range(1, dim + 1):
            by_codim[k].update(itertools.combinations(V, k))
    return [len(by_codim[dim - d]) for d in range(dim)]


def euler_problems(vertices, dim: int) -> list[str]:
    fv = f_vector(vertices, dim)
    alternating = sum(f if d % 2 == 0 else -f for d, f in enumerate(fv))
    expected = 1 - (-1) ** dim
    if alternating != expected:
        return [f"Euler relation fails: f = {fv}, alternating sum {alternating} != {expected}"]
    return []


def polytope_problems(P, validate) -> list[str]:
    """Library validation must be empty and the Euler relation must hold."""
    problems = [f"validate: {d}" for d in validate(P)]
    return problems + euler_problems(P.vertices, P.dim)


def resolved_problems(P, L, validate) -> list[str]:
    """A resolved polytope: valid, Euler, and non-singular at every vertex."""
    problems = polytope_problems(P, validate)
    bad = singular_vertices(P.vertices, L.vectors, L.n)
    if bad:
        problems.append(f"{len(bad)} singular vertices remain, first {list(bad[0])}")
    return problems


def facet_neighbours(vertices, m: int) -> list[set[int]]:
    """Facets i != j are adjacent iff some vertex lies on both."""
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for V in vertices:
        for i in V:
            nbrs[i].update(V)
    for i in range(m):
        nbrs[i].discard(i)
    return nbrs


def graph_neighbours(n: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def certificate_problems(nbrs: list[set[int]], cert) -> list[str]:
    """A chromatic certificate: exact status, a clique, and a proper colouring.

    The clique must be pairwise adjacent and the colouring proper with
    exactly ``cert.chi`` colours. If the clique is smaller than that, the
    lower bound is proved here by showing that no colouring with chi - 1
    colours exists.
    """
    problems = []
    if cert.status != "exact":
        problems.append(f"status {cert.status}, bounds {cert.lower}..{cert.upper}")
    clique_ok = all(v in nbrs[u] for u, v in itertools.combinations(cert.clique, 2))
    if not clique_ok:
        problems.append(f"clique {list(cert.clique)} is not pairwise adjacent")
    if len(cert.coloring) != len(nbrs):
        problems.append(f"colouring has {len(cert.coloring)} entries for {len(nbrs)} nodes")
        return problems
    clash = next(
        ((u, v) for u in range(len(nbrs)) for v in nbrs[u] if cert.coloring[u] == cert.coloring[v]),
        None,
    )
    if clash:
        problems.append(f"colouring is not proper at edge {list(clash)}")
    colours = len(set(cert.coloring))
    if colours != cert.chi:
        problems.append(f"colouring uses {colours} colours, certificate says {cert.chi}")
    if clique_ok and len(cert.clique) != cert.chi and colourable(nbrs, cert.chi - 1, cert.clique):
        problems.append(f"a colouring with fewer than {cert.chi} colours exists")
    return problems


def colourable(nbrs: list[set[int]], k: int, clique=()) -> bool:
    """True iff the graph has a proper colouring with at most k colours.

    Plain backtracking. The clique is pre-coloured 0, 1, ... and colours not
    used yet are interchangeable, so only the lowest of them is tried (any
    colouring can be renamed to agree). The uncoloured node with the fewest
    free colours is branched on.
    """
    n = len(nbrs)
    if len(clique) > k:
        return False
    colour = [-1] * n
    blocked = [0] * n  # bit c set: a neighbour has colour c
    for c, v in enumerate(clique):
        colour[v] = c
        for u in nbrs[v]:
            if colour[u] == c:
                return False
            blocked[u] |= 1 << c
    all_colours = (1 << k) - 1

    def search(used: int) -> bool:
        best, best_free = -1, k + 1
        for v in range(n):
            if colour[v] < 0:
                free = k - (blocked[v] & all_colours).bit_count()
                if free < best_free:
                    best, best_free = v, free
                    if free == 0:
                        return False
        if best < 0:
            return True
        options = ~blocked[best] & ((1 << min(used + 1, k)) - 1)
        while options:
            c = (options & -options).bit_length() - 1
            options &= options - 1
            colour[best] = c
            changed = [u for u in nbrs[best] if colour[u] < 0 and not (blocked[u] >> c) & 1]
            for u in changed:
                blocked[u] |= 1 << c
            if search(max(used, c + 1)):
                return True
            for u in changed:
                blocked[u] &= ~(1 << c)
        colour[best] = -1
        return False

    return search(len(clique))


def bad_face_problems(vertices, vectors, entries) -> list[str]:
    """Each reported bad face is a minimal zero-XOR set inside its witness vertex."""
    vertex_set = set(vertices)
    problems = []
    for e in entries:
        face, size, witness = tuple(e["face"]), e["circuit_size"], tuple(e["witness_vertex"])
        where = f"bad face {list(face)}"
        if size != len(face) or len(set(face)) != len(face):
            problems.append(f"{where}: circuit size {size} for {len(face)} facets")
        elif witness not in vertex_set:
            problems.append(f"{where}: witness {list(witness)} is not a vertex")
        elif not set(face) <= set(witness):
            problems.append(f"{where}: not inside witness {list(witness)}")
        else:
            vecs = [vectors[i] for i in face]
            acc = 0
            for v in vecs:
                acc ^= v
            if acc:
                problems.append(f"{where}: vectors XOR to {acc}, not 0")
            elif any(rank(vecs[:i] + vecs[i + 1:]) < len(vecs) - 1 for i in range(len(vecs))):
                problems.append(f"{where}: a proper subset already XORs to 0 (not minimal)")
        if len(problems) >= 5:
            break
    return problems
