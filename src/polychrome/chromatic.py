"""Exact facet-coloring certificates: a maximum clique below, a proper coloring above.

The polytopes built here carry huge cliques (every pair of original facets
meets), so the clique bound usually certifies the greedy or hinted coloring
immediately; DSATUR branch and bound is the fallback that closes any gap.
Adjacency and search state are int bitmasks, which Python ints make unbounded;
DSATUR keeps saturations as bit-sliced counters across a few such masks and
neighbour colours as byte-aligned fields of one int, stacks a frame only where
a node has two colours to try, and prunes against the best colouring so far.
Both searches run from an explicit stack, so graph size sets no recursion
limit, and both read the certificate's deadline every 256 nodes; a search cut
short leaves a bounds_only certificate with the bounds it reached.
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


_CLOCK = 255  # a search reads the clock where nodes & _CLOCK == 1: at node 1, 257, 513, ...


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def max_clique(adj: list[int], deadline: float | None = None) -> list[int]:
    """Exact maximum clique by branch and bound with a greedy-coloring bound.

    Past the deadline the search stops as soon as it holds a clique (its
    first descent reaches a maximal one) and returns the best found so far.
    """

    def colour_order(cand: int) -> list[tuple[int, int]]:
        # greedy colour classes of the candidates, each filled lowest node
        # first; a k-colouring of the candidate set bounds its cliques by k
        ordered, k = [], 0
        while cand:
            k += 1
            free = cand
            while free:
                v = (free & -free).bit_length() - 1
                ordered.append((v, k))
                cand &= ~(1 << v)
                free &= ~adj[v] & ~(1 << v)
        return ordered

    best: list[int] = []
    clique: list[int] = []
    full = (1 << len(adj)) - 1
    # frames[i]: the candidate mask beside clique[:i] and its nodes still to
    # branch on, highest colour bound last
    frames = [[full, colour_order(full)]]
    late, nodes = False, 0
    while frames:
        nodes += 1
        late = late or nodes & _CLOCK == 1 and _past(deadline)
        frame = frames[-1]
        cand, order = frame
        if not order or len(clique) + order[-1][1] <= len(best) or (late and best):
            frames.pop()
            if clique:
                clique.pop()
            continue
        v = order.pop()[0]
        frame[0] = cand & ~(1 << v)
        clique.append(v)
        if cand & adj[v]:
            frames.append([cand & adj[v], colour_order(cand & adj[v])])
            continue
        if len(clique) > len(best):
            best = clique[:]
        clique.pop()
    return sorted(best)


def greedy_coloring(adj: list[int]) -> list[int]:
    """DSATUR greedy: the first leaf of the DSATUR search, with nothing to beat."""
    # a node takes the least colour its at most degree neighbours leave free, so
    # max degree + 1 colours stop the search at the first leaf and keep fields narrow
    degree = max([a.bit_count() for a in adj], default=0)
    return _dsatur(adj, (), degree + 2, degree + 1, None)[0]


def _dsatur(
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
    colour-permutation blowup. Saturations are bit-sliced counters: bit u of
    sat[j] is bit j of node u's saturation, so a child adds its newly saturated
    neighbours with one ripple carry, and the node to branch on is found by
    narrowing the uncoloured nodes from the top slice down. Node u's neighbour
    colours are the w-bit field u of seen, so its options, the free colours that
    keep the child under the incumbent, take one shift and mask. Only a node
    with two options leaves a frame, which on backtrack drops what the
    incumbent has since ruled out; as options only shrink, the nodes come in the
    order of a colour-by-colour scan with a frame per node. A skipped subtree
    holds no better colouring, so the incumbents come in the order an unpruned
    search finds them. Returns (best colouring or None, finished in time).
    """
    n = len(adj)
    # relabelled by (degree descending, index ascending), a tie in saturation
    # goes to the lowest bit; column v of the rows stacked highest rank first
    # is v's row relabelled
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    rank = {v: r for r, v in enumerate(order)}
    rows = "".join([format(adj[v], f"0{n}b") for v in reversed(order)])
    size = -(-best_k // 8)  # bytes per field: colours stay below best_k
    ones = rows.encode().translate(bytes.maketrans(b"01", b"\0\1"))
    field, radj, spread = bytearray(n * size), [], []  # spread[v]: bit 0 of v's neighbours' fields
    for v in order:
        radj.append(int(rows[n - 1 - v :: n], 2))
        field[size - 1 :: size] = ones[n - 1 - v :: n]
        spread.append(int.from_bytes(field, "big"))
    w = 8 * size
    colors = [-1] * n  # by rank
    uncol, near, seen = (1 << n) - 1, [], 0  # near[c]: the nodes next to a node coloured c
    for c, v in enumerate(clique):
        colors[rank[v]] = c
        uncol ^= 1 << rank[v]
        near.append(radj[rank[v]])
        seen |= spread[rank[v]] << c
    sat = [0] * (best_k - 1).bit_length()  # a saturation stays below best_k
    for gain in near:
        gain &= uncol
        for j, s in enumerate(sat):
            sat[j], gain = s ^ gain, s & gain
    best, used, nodes = None, len(clique), 0
    # the colours that keep a child under the incumbent, none if the clique reaches it
    limit = (1 << best_k - 1) - 1 if used < best_k else 0
    stack: list[tuple] = []  # branch points: used, sat, near, uncol, seen, node, options left
    while True:
        nodes += 1
        if nodes & _CLOCK == 1 and _past(deadline):
            return best, False
        if not uncol:  # a node is made only while it uses fewer than best_k colours
            best_k, best = used, [colors[rank[v]] for v in range(n)]
            if best_k <= lower:
                return best, True
            limit = (1 << best_k - 1) - 1
            options = 0
        else:
            top = uncol
            for s in reversed(sat):
                top = top & s or top
            v = (top & -top).bit_length() - 1
            # colours 0 to used under the incumbent, less those of v's neighbours
            options = limit & (2 << used) - 1
            options ^= seen >> v * w & options
        while not options:  # back to the last branch point with a colour still worth trying
            if not stack:
                return best, True
            used, sat, near, uncol, seen, v, options = stack.pop()
            options &= limit if used < best_k else 0
        c = options & -options
        if options != c:
            stack.append((used, sat, near, uncol, seen, v, options ^ c))
        c = c.bit_length() - 1
        if c < used:
            near = near[:]
        else:
            near, used = near + [0], used + 1
        gain = radj[v] & uncol & ~near[c]
        near[c] |= radj[v]
        seen |= spread[v] << c
        colors[v] = c
        uncol ^= 1 << v
        sat, j = sat[:], 0
        while gain:  # ripple carry: each newly saturated neighbour rises by one
            sat[j], gain = sat[j] ^ gain, sat[j] & gain
            j += 1


def _is_proper(adj: list[int], colors: Sequence[int]) -> bool:
    classes: dict = {}  # colour (a hint's are vectors): the nodes of that colour
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    # one colour per node, none dropped or left over, and no edge inside a class
    return len(colors) == len(adj) and not any(adj[v] & classes[c] for v, c in enumerate(colors))


def _canonical(colors: Sequence[int]) -> list[int]:
    """Renumber colour ids by first occurrence in node order."""
    remap: dict[int, int] = {}
    return [remap.setdefault(c, len(remap)) for c in colors]


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
    if type(time_budget) not in (int, float) or not time_budget >= 0:  # NaN fails >= 0
        raise ValueError(f"time budget must be a number at least 0, got {time_budget!r}")
    n = len(adj)
    deadline = time.monotonic() + time_budget
    clique = max_clique(adj, deadline=deadline)
    lower = len(clique)
    candidates = [greedy_coloring(adj)]
    for h in hints:
        if _is_proper(adj, h):
            candidates.append(h)
    best = min(candidates, key=lambda c: len(set(c)))
    upper = len(set(best))
    if upper > lower:
        found, proven = _dsatur(adj, clique, upper, lower, deadline)
        if found is not None:
            best, upper = found, len(set(found))
        if proven:
            lower = upper
    status = "exact" if lower == upper else "bounds_only"
    cert = ChromaticCertificate(upper, tuple(clique), tuple(_canonical(best)), status, lower, upper)
    _verify(adj, cert)
    return cert


def chromatic_of_graph(
    n: int, edges: Iterable[tuple[int, int]], time_budget: float = DEFAULT_TIME_BUDGET
) -> ChromaticCertificate:
    """Certified chromatic number of an arbitrary small graph."""
    if type(n) is not int:  # a bool is no node count
        raise ValueError(f"node count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"node count must be at least 0, got {n}")
    adj = [0] * n
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} is not a pair of nodes") from None
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        if u == v:
            raise ValueError(f"loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
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
    return _certify(facet_adjacency(P), hints, time_budget)
