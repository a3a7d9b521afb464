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


class InvariantError(ValueError):
    """A structural invariant of a domain object does not hold."""


@dataclass(frozen=True)
class Polytope:
    """Canonical: each vertex sorted, then the vertex list, so JSON output diffs and
    replays byte for byte. The constructor sorts; a certified cut is built sorted."""
    dim: int
    facet_labels: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "facet_labels", tuple(self.facet_labels))
        object.__setattr__(
            self,
            "vertices",
            tuple(sorted(tuple(sorted(v)) for v in self.vertices)),
        )

    @property
    def num_facets(self) -> int:
        return len(self.facet_labels)


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"F{i}" for i in range(m))


def _face_label(P: Polytope, face) -> str:
    """The face as its facets' labels in braces, as in {F0,F1,F4}."""
    return "{" + ",".join(P.facet_labels[i] for i in face) + "}"


def validate(P: Polytope) -> list[str]:
    """Structural diagnostics; an empty list means every invariant holds.

    Checks are purely combinatorial. Realizability as a convex polytope is
    not decided here: inputs come from known constructions and from surgeries
    that preserve it. A clean scan certifies P by caching its facet-coverage
    counts on it; a certified P returns [] at once, exact as P is frozen, and
    truncate_face hands the certificate on to each cut its local check accepts.
    """
    return [] if "_coverage" in P.__dict__ else _scan(P)


def _scan(P: Polytope) -> list[str]:
    """validate's full pass over every vertex and ridge; certifies P if it finds nothing."""
    diags: list[str] = []
    n, m = P.dim, P.num_facets
    if isinstance(n, bool) or not isinstance(n, int):
        return [f"dimension: dim must be an integer, got {n!r}"]
    if n < 1:
        return [f"dimension: dim must be at least 1, got {n}"]
    kinds = set(map(type, itertools.chain.from_iterable(P.vertices)))  # at C speed
    if bad := sorted(t.__name__ for t in kinds if t is bool or not issubclass(t, int)):
        return [f"index-type: facet indices must be integers, got {', '.join(bad)}"]
    if m < n + 1:
        diags.append(f"facet-count: a simple {n}-polytope needs at least {n + 1} facets, got {m}")
    if bad := sorted({type(x).__name__ for x in P.facet_labels if not isinstance(x, str)}):
        diags.append(f"label-type: facet labels must be strings, got {', '.join(bad)}")

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
    for S, count in sorted((S, c) for S, c in _ridges(set(well_formed), n).items() if c != 2):
        diags.append(
            f"edge-condition: facets {list(S)} lie on {count} common vertices, expected 2"
        )
    if not diags:
        P.__dict__["_coverage"] = tuple(coverage[i] for i in range(m))
    return diags


def _faces(vertices, k: int):
    """The k-facet faces through each of the given vertices, one per incidence."""
    return itertools.chain.from_iterable(
        map(itertools.combinations, vertices, itertools.repeat(k))
    )


def _ridges(vertices, n: int) -> Counter[tuple[int, ...]]:
    """How many of the given vertices lie on each ridge (n - 1 facets)."""
    return Counter(_faces(vertices, n - 1))


def require_valid(P: Polytope, what: str) -> Polytope:
    """P itself, or InvariantError(what + its diagnostics) if validate finds any."""
    diags = validate(P)
    if diags:
        raise InvariantError(what + "; ".join(diags))
    return P


def hosts(P: Polytope, S) -> list[tuple[int, ...]]:
    """The vertices lying on the face S, in vertex order; empty iff S is no face.

    Scans P's vertex tuples one facet of S at a time.
    """
    fs = frozenset(S)
    if not fs:
        raise ValueError("face set must be nonempty")
    on = P.vertices
    for i in fs:
        if i < 0 or i >= P.num_facets:
            raise ValueError(f"facet index {i} out of range [0, {P.num_facets})")
        on = [V for V in on if i in V]
    return on


def f_vector(P: Polytope) -> list[int]:
    """[f_0, ..., f_{n-1}]: face counts by dimension (f_0 = vertices)."""
    return [len(set(_faces(P.vertices, P.dim - d))) for d in range(P.dim)]


def euler_sum(fv: list[int]) -> int:
    """The alternating sum f_0 - f_1 + f_2 - ... of an f-vector."""
    return sum(f if d % 2 == 0 else -f for d, f in enumerate(fv))


def euler_expected(dim: int) -> int:
    """The alternating sum the Euler relation requires of a simple dim-polytope."""
    return 0 if dim % 2 == 0 else 2


def facet_adjacency(P: Polytope) -> list[int]:
    """Facet graph as bitmask rows: bit j of entry i set iff facets i != j share a vertex."""
    rows = [0] * P.num_facets
    for V in P.vertices:
        mask = sum(1 << i for i in V)
        for i in V:
            rows[i] |= mask
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _cut(P: Polytope, S):
    """(face, hosts, created) of truncating S; ValueError unless a face of codimension 2..n."""
    face = tuple(sorted(set(S)))
    if not 2 <= (k := len(face)) <= P.dim:
        raise ValueError(f"can only truncate faces of codimension 2..{P.dim}, got {k} facets")
    on = hosts(P, face)
    if not on:
        raise ValueError(f"{list(face)} is not a face of the polytope")
    # each host V gives way to V - {s} + {F'}; F' = P.num_facets, above all, keeps it sorted
    new = P.num_facets
    return face, on, tuple(V[:j] + V[j + 1:] + (new,) for V in on for j in map(V.index, face))


def truncate_face(P: Polytope, S) -> tuple[Polytope, tuple[tuple[int, ...], ...]]:
    """Cut off the face S, returning (new polytope, the vertices the cut created).

    Every vertex containing S disappears; for each such vertex V and each
    facet s of S, the vertex (V - {s}) + {new facet} appears instead (_cut).
    Truncating an edge of a 4-polytope (|S| = 3, two endpoints) creates the
    six vertices of a triangular-prism facet; truncating a vertex (|S| = 4)
    creates a tetrahedron facet. The new facet is the last one, index
    P.num_facets, and the created vertices are exactly the vertices on it. An
    invalid result raises InvariantError with validate's diagnostics. A cut of a certified
    P is checked only where it changed (_cut_certificate) and is canonical by construction
    (created vertices end in the new, largest facet); other results are validated in full.
    """
    face, on, created = _cut(P, S)
    labels = P.facet_labels + ("T(" + ",".join(P.facet_labels[i] for i in face) + ")",)
    kept = tuple(itertools.filterfalse(set(on).__contains__, P.vertices))
    if (certificate := _cut_certificate(P, on, created)) is not None:
        result = object.__new__(Polytope)  # fields as given: no __post_init__ re-sort
        result.__dict__.update(dim=P.dim, facet_labels=labels, _coverage=certificate,
                               vertices=tuple(sorted(kept + created)))
    else:
        result = Polytope(P.dim, labels, kept + created)
    return require_valid(result, f"truncating {list(face)} broke the polytope: "), created


def _cut_certificate(P: Polytope, on, created) -> tuple[int, ...] | None:
    """The certificate of P with the hosts `on` replaced by `created`, or None.

    None unless P is certified and the cut passes a local check: each created
    vertex lists n distinct facets in range, the new one among them, and no
    two coincide; every facet keeps at least n vertices; every ridge of a host
    or a created vertex ends up on 0 or 2 vertices. A ridge without the new
    facet lies on a host, so P certified it on 2 vertices; one with it started
    on none. Every other vertex, ridge and count is as P certified it.
    """
    n, new, parent = P.dim, P.num_facets, P.__dict__.get("_coverage")
    if parent is None or len(set(created)) != len(created):
        return None
    for C in created:
        if len(C) != n or C[0] < 0 or C[-1] != new or sorted(set(C)) != list(C):
            return None
    gained, lost = Counter(itertools.chain(*created)), Counter(itertools.chain(*on))
    coverage = tuple(c + gained[i] - lost[i] for i, c in enumerate(parent + (0,)))
    ridges = _ridges(created, n)
    ridges.subtract(_ridges(on, n))
    ends = ((0 if R[-1] == new else 2) + c for R, c in ridges.items())
    return coverage if min(coverage) >= n and all(e in (0, 2) for e in ends) else None
