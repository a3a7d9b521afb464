"""Combinatorial simple polytopes as vertex-facet incidences.

A simple n-polytope is stored as its dimension, facet labels, and the list of
vertices, each vertex being the sorted n-set of indices of the facets meeting
there. Faces are identified with facet subsets: in a simple polytope a face
of codimension k lies on exactly k facets, so the subset determines the face.
No coordinates are kept anywhere.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


class InvariantError(ValueError):
    """A structural invariant of a domain object does not hold."""


@dataclass(frozen=True)
class Polytope:
    dim: int
    facet_labels: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # canonical form: each vertex sorted, vertex list sorted; keeps JSON
        # output diffable and replay byte-deterministic
        object.__setattr__(self, "facet_labels", tuple(self.facet_labels))
        object.__setattr__(
            self,
            "vertices",
            tuple(sorted(tuple(sorted(v)) for v in self.vertices)),
        )

    @property
    def num_facets(self) -> int:
        return len(self.facet_labels)

    @cached_property
    def _vertex_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v) for v in self.vertices)

    @cached_property
    def _vertex_lookup(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.vertices)

    def is_vertex(self, facets) -> bool:
        return tuple(sorted(facets)) in self._vertex_lookup


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"F{i}" for i in range(m))


def validate(P: Polytope) -> list[str]:
    """Structural diagnostics; an empty list means every invariant holds.

    Checks are purely combinatorial. Realizability as a convex polytope is
    not decided here: inputs come from known constructions and from surgeries
    that preserve it.
    """
    diags: list[str] = []
    n, m = P.dim, P.num_facets
    if n < 1:
        return [f"dimension: dim must be at least 1, got {n}"]
    if m < n + 1:
        diags.append(f"facet-count: a simple {n}-polytope needs at least {n + 1} facets, got {m}")

    well_formed = []
    for V in P.vertices:
        if len(V) != n or len(set(V)) != n:
            diags.append(f"vertex-arity: vertex {list(V)} must list exactly {n} distinct facets")
            continue
        if V[0] < 0 or V[-1] >= m:
            diags.append(f"index-range: vertex {list(V)} has a facet index outside [0, {m})")
            continue
        well_formed.append(V)

    for V, count in Counter(P.vertices).items():
        if count > 1:
            diags.append(f"duplicate-vertex: vertex {list(V)} appears {count} times")

    coverage = Counter(itertools.chain.from_iterable(well_formed))
    for i in range(m):
        if coverage[i] < n:
            diags.append(
                f"facet-coverage: facet {i} ({P.facet_labels[i]}) lies on "
                f"{coverage[i]} vertices, expected at least {n}"
            )

    # each edge (codim n-1 face) must have exactly two endpoints
    ridge_count = Counter(itertools.chain.from_iterable(
        map(itertools.combinations, set(well_formed), itertools.repeat(n - 1))
    ))
    for S, count in sorted((S, c) for S, c in ridge_count.items() if c != 2):
        diags.append(
            f"edge-condition: facets {list(S)} lie on {count} common vertices, expected 2"
        )
    return diags


def require_valid(P: Polytope, what: str) -> Polytope:
    """P itself, or InvariantError(what + its diagnostics) if validate finds any."""
    diags = validate(P)
    if diags:
        raise InvariantError(what + "; ".join(diags))
    return P


def hosts(P: Polytope, S) -> list[tuple[int, ...]]:
    """The vertices lying on the face S, in vertex order; empty iff S is no face."""
    fs = frozenset(S)
    if not fs:
        raise ValueError("face set must be nonempty")
    for i in fs:
        if i < 0 or i >= P.num_facets:
            raise ValueError(f"facet index {i} out of range [0, {P.num_facets})")
    return [V for V, vs in zip(P.vertices, P._vertex_sets) if fs <= vs]


def is_face(P: Polytope, S) -> bool:
    """True iff the facets of S meet in at least one vertex, i.e. S names a face."""
    return bool(hosts(P, S))


def faces_of_codim(P: Polytope, k: int) -> list[tuple[int, ...]]:
    """All codimension-k faces, as sorted facet k-sets in lexicographic order."""
    if not 1 <= k <= P.dim:
        raise ValueError(f"codimension must be in [1, {P.dim}], got {k}")
    faces = {S for V in P.vertices for S in itertools.combinations(V, k)}
    return sorted(faces)


def f_vector(P: Polytope) -> list[int]:
    """[f_0, ..., f_{n-1}]: face counts by dimension (f_0 = vertices)."""
    n = P.dim
    by_codim: dict[int, set] = {k: set() for k in range(1, n + 1)}
    for V in P.vertices:
        for k in range(1, n + 1):
            by_codim[k].update(itertools.combinations(V, k))
    return [len(by_codim[n - d]) for d in range(n)]


def euler_sum(fv: list[int]) -> int:
    """The alternating sum f_0 - f_1 + f_2 - ... of an f-vector."""
    return sum(f if d % 2 == 0 else -f for d, f in enumerate(fv))


def euler_expected(dim: int) -> int:
    """The alternating sum the Euler relation requires of a simple dim-polytope."""
    return 0 if dim % 2 == 0 else 2


def facet_adjacency(P: Polytope) -> list[list[bool]]:
    """Symmetric m x m matrix: entry (i, j) true iff facets i != j share a vertex."""
    m = P.num_facets
    adj = [[False] * m for _ in range(m)]
    for V in P.vertices:
        for i, j in itertools.combinations(V, 2):
            adj[i][j] = True
            adj[j][i] = True
    return adj


def truncate_face(P: Polytope, S) -> tuple[Polytope, int]:
    """Cut off the face S, returning (new polytope, index of the new facet).

    Every vertex containing S disappears; for each such vertex V and each
    facet s of S, the vertex (V - {s}) + {new facet} appears instead.
    Truncating an edge of a 4-polytope (|S| = 3, two endpoints) creates the
    six vertices of a triangular-prism facet; truncating a vertex (|S| = 4)
    creates a tetrahedron facet. The result is re-validated before returning.
    """
    face = tuple(sorted(set(S)))
    k = len(face)
    if k < 2 or k > P.dim:
        raise ValueError(f"can only truncate faces of codimension 2..{P.dim}, got {k} facets")
    on = hosts(P, face)
    if not on:
        raise ValueError(f"{list(face)} is not a face of the polytope")

    new_index = P.num_facets
    label = "T(" + ",".join(P.facet_labels[i] for i in face) + ")"
    gone = set(on)
    kept = tuple(V for V in P.vertices if V not in gone)
    # new_index exceeds every old index, so appending it keeps each vertex sorted
    created = tuple(tuple(x for x in V if x != s) + (new_index,) for V in on for s in face)
    result = Polytope(P.dim, P.facet_labels + (label,), kept + created)
    return require_valid(result, f"truncating {list(face)} broke the polytope: "), new_index
