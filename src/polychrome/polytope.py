"""Combinatorial simple polytopes as vertex-facet incidences.

A simple n-polytope is stored as its dimension, facet labels, and the list of
vertices, each vertex being the sorted n-set of indices of the facets meeting
there. Faces are identified with facet subsets: in a simple polytope a face
of codimension k lies on exactly k facets, so the subset determines the face.
No coordinates are kept anywhere.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass


class InvariantError(ValueError):
    """A structural invariant of a domain object does not hold."""


@dataclass(frozen=True)
class Polytope:
    """Canonical: each vertex sorted, then the vertex list, so JSON output diffs and
    replays byte for byte. This constructor, for input from outside, sorts and leaves
    checking to validate; the library's own builders hand _built canonical fields.
    == and hash read only the fields, not what P caches: its certified mark and the
    host table a full bad_faces scan recorded (_record_hosts), nothing else."""
    dim: int
    facet_labels: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for name in ("facet_labels", "vertices"):
            if not isinstance(x := getattr(self, name), (list, tuple)):
                raise InvariantError(f"{name}: expected a list or tuple, got {type(x).__name__}")
        if bad := sorted(t.__name__ for t in set(map(type, self.vertices)) - {list, tuple}):
            raise InvariantError(f"vertices: expected lists or tuples, got {', '.join(bad)}")
        try:
            vertices = tuple(sorted(tuple(sorted(v)) for v in self.vertices))
        except TypeError:  # only a non-int index fails to compare
            raise InvariantError(_index_type(self.vertices)) from None
        object.__setattr__(self, "facet_labels", tuple(self.facet_labels))
        object.__setattr__(self, "vertices", vertices)

    @property
    def num_facets(self) -> int:
        return len(self.facet_labels)


def _built(dim: int, labels: tuple[str, ...], vertices: tuple[tuple[int, ...], ...]) -> Polytope:
    """A certified polytope with these fields as given: no re-sort, no scan. Only for a
    builder whose output is canonical and whose docstring proves it valid."""
    P = object.__new__(Polytope)
    P.__dict__.update(dim=dim, facet_labels=labels, vertices=vertices, _certified=True)
    return P


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"F{i}" for i in range(m))


def _face_label(P: Polytope, face) -> str:
    """The face as its facets' labels in braces, as in {F0,F1,F4}."""
    return "{" + ",".join(P.facet_labels[i] for i in face) + "}"


def validate(P: Polytope) -> list[str]:
    """Structural diagnostics; an empty list means every invariant holds.

    Checks are purely combinatorial. Realizability as a convex polytope is
    not decided here: inputs come from known constructions and from surgeries
    that preserve it. A clean scan marks P certified; a certified P returns []
    at once, exact as P is frozen. Every polytope the library builds (the
    generators and truncate_face, through _built) starts certified, each by the
    argument in its builder's docstring, so only input from outside is scanned.
    """
    return [] if "_certified" in P.__dict__ else _scan(P)


def _scan(P: Polytope) -> list[str]:
    """validate's full pass over every vertex and ridge; certifies P if it finds nothing."""
    diags: list[str] = []
    n, m = P.dim, P.num_facets
    if type(n) is not int:  # a bool is no dimension
        return [f"dimension: dim must be an integer, got {n!r}"]
    if n < 1:
        return [f"dimension: dim must be at least 1, got {n}"]
    if bad := _index_type(P.vertices):
        return [bad]
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
    ridges = Counter(_faces(set(well_formed), n - 1))
    for S, count in sorted((S, c) for S, c in ridges.items() if c != 2):
        diags.append(
            f"edge-condition: facets {list(S)} lie on {count} common vertices, expected 2"
        )
    if not diags:
        P.__dict__["_certified"] = True
    return diags


def _index_type(vertices) -> str | None:
    """validate's index-type diagnostic, or None if every facet index is an int."""
    kinds = set(map(type, itertools.chain.from_iterable(vertices)))  # at C speed
    if bad := sorted(t.__name__ for t in kinds - {int}):
        return f"index-type: facet indices must be integers, got {', '.join(bad)}"
    return None


def _faces(vertices, k: int):
    """The k-facet faces through each of the given vertices, one per incidence."""
    return itertools.chain.from_iterable(
        map(itertools.combinations, vertices, itertools.repeat(k))
    )


def require_valid(P: Polytope, what: str) -> Polytope:
    """P itself, or InvariantError(what + its diagnostics) if validate finds any."""
    diags = validate(P)
    if diags:
        raise InvariantError(what + "; ".join(diags))
    return P


def _facets(S) -> tuple:
    """S as a tuple of facet indices; ValueError if S is not iterable or one is not an int."""
    try:
        S = tuple(S)
    except TypeError:
        raise ValueError(f"face {S!r}: expected a sequence of facet indices") from None
    if bad := [s for s in S if type(s) is not int]:
        raise ValueError(f"face {list(S)!r}: facet {bad[0]!r} is not an integer")
    return S


def _vertex(P: Polytope, V) -> tuple[int, ...]:
    """V sorted, found among P's sorted vertices by bisect; ValueError if it is not one.
    One of P's own vertex tuples (each vertex a cut creates is one) costs the bisect alone."""
    vs = P.vertices
    try:  # a V that is no tuple of ints does not compare with P's; one past them all has no slot
        if vs[bisect.bisect_left(vs, V)] is V:
            return V
    except (TypeError, IndexError):
        pass
    key = tuple(sorted(_facets(V)))
    if vs[(i := bisect.bisect_left(vs, key)):i + 1] != (key,):
        raise ValueError(f"{list(key)} is not a vertex of the polytope")
    return key


def hosts(P: Polytope, S) -> list[tuple[int, ...]]:
    """The vertices lying on the face S, in vertex order; empty iff S is no face.

    The list P records (_record_hosts) if each of its vertices, found by bisect as in
    _vertex, is still one of P's; else a scan of P's vertex tuples one facet at a time.
    """
    fs = frozenset(_facets(S))
    vs = P.vertices
    if (on := P.__dict__.get("_hosts", {}).get(tuple(sorted(fs)))) is not None and all(
            vs[(i := bisect.bisect_left(vs, V)):i + 1] == (V,) for V in on):
        return list(on)
    if not fs:
        raise ValueError("face set must be nonempty")
    on = vs
    for i in fs:
        if i < 0 or i >= P.num_facets:
            raise ValueError(f"facet index {i} out of range [0, {P.num_facets})")
        on = [V for V in on if i in V]
    return on


def _record_hosts(P: Polytope, found: dict[tuple[int, ...], list[tuple[int, ...]]]) -> None:
    """Keep on P the exact hosts, in vertex order, of each face (a sorted facet tuple).
    Nothing changes the table after; each cut takes it as it is (truncate_face).
    - A cut creates a vertex V - s + F' on a face F only in place of a host V of F, and
      removes V: F' is newer than every facet of F.
    - A removed vertex never returns, as every created vertex holds the newest facet.
    So a list whose vertices all remain is exact, and hosts serves no list that lost one."""
    P.__dict__["_hosts"] = found


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
    """Facet graph as bitmask rows: bit j of entry i set iff facets i != j share a vertex,
    that is iff {i, j} is a codimension-2 face, one of the f_{n-2} that f_vector counts."""
    rows = [0] * P.num_facets
    for i, j in set(_faces(P.vertices, 2)):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _cut(P: Polytope, S):
    """(S as a sorted tuple, its hosts) for a cut; ValueError unless a face of codim 2..n."""
    face = tuple(sorted(set(_facets(S))))
    if not 2 <= (k := len(face)) <= P.dim:
        raise ValueError(f"can only truncate faces of codimension 2..{P.dim}, got {k} facets")
    if not (on := hosts(P, face)):
        raise ValueError(f"{list(face)} is not a face of the polytope")
    return face, on


def truncate_face(P: Polytope, S) -> tuple[Polytope, tuple[tuple[int, ...], ...]]:
    """Cut off the face S, returning (new polytope, the vertices the cut created).

    Every vertex containing S disappears; for each such vertex V and each
    facet s of S, the vertex (V - {s}) + {new facet} appears instead.
    Truncating an edge of a 4-polytope (|S| = 3, two endpoints) creates the
    six vertices of a triangular-prism facet; truncating a vertex (|S| = 4)
    creates a tetrahedron facet. The new facet is the last one, index
    P.num_facets, and the created vertices are exactly the vertices on it.
    P must be valid (InvariantError with validate's diagnostics otherwise); the cut is
    spliced into P's sorted vertex list (_splice), takes P's host table as it is
    (_record_hosts) and is built as it stands (_built), unchecked, as the rule itself
    proves it valid. Say S has k facets and hosts H, and F' = m is the new facet:
    - each created V - s + F' is sorted and has n distinct facets, all in range;
    - no two coincide: hosts V != W with V - s = W - t would both lack s;
    - a ridge R without F' that contains S lay on hosts only and now on none; otherwise
      it is V - s for at most one host V, and ends on V's other endpoint (which lacks
      s, so is kept) and on R + F';
    - a ridge Q + F' ends on two created vertices: if Q u S is a host, Q lacks two of its
      facets, both in S; if Q u S is a ridge of P, it lies on two hosts and Q lacks one
      facet of S; otherwise no created vertex lies on it;
    - coverage: per host, facets of S gain k - 2, its other facets k - 1 and F' gets k;
      the hosts form an (n - k)-regular graph, so F' lies on k|H| >= k(n - k + 1) >= n.
    """
    face, on = _cut(P, S)
    require_valid(P, f"truncating {list(face)} broke the polytope: ")
    # each host V gives way to V - {s} + {F'}; F' = P.num_facets, above all, keeps it sorted
    new = P.num_facets
    created = tuple(V[:j] + V[j + 1:] + (new,) for V in on for j in map(V.index, face))
    labels = P.facet_labels + ("T(" + ",".join(P.facet_labels[i] for i in face) + ")",)
    Q = _built(P.dim, labels, _splice(P, on, created))
    if (table := P.__dict__.get("_hosts")) is not None:
        _record_hosts(Q, table)
    return Q, created


def _splice(P: Polytope, on, created):
    """P's vertices less the hosts `on`, which are all among them, plus `created`, sorted."""
    out = list(P.vertices)
    for V in on:
        del out[bisect.bisect_left(out, V)]
    for C in created:
        bisect.insort(out, C)
    return tuple(out)
