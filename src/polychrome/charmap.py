"""Characteristic maps over Z_2^n: storage, failure detection, colorings.

A characteristic map assigns a nonzero vector of Z_2^n to each facet; it is
non-singular at a vertex when the n vectors meeting there are independent.
The oriented flavor additionally requires every vector to have odd weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from . import gf2
from .polytope import InvariantError, Polytope, _vertex

MODES = ("general", "oriented")

# the reference decoration of the 15-facet neighborly 4-polytope, facet order
# F0..F14: e1, e1+e2, e3, e4, e1+e4, e1+e2+e4, e2+e4, e2, e2+e3, e1+e2+e3,
# e1+e3, e1+e3+e4, e3+e4, e2+e3+e4, e1+e2+e3+e4
PAPER_EXAMPLE_VECTORS = (1, 3, 4, 8, 9, 11, 10, 2, 6, 7, 5, 13, 12, 14, 15)


@dataclass(frozen=True)
class CharMap:
    n: int
    vectors: tuple[int, ...]
    mode: str = "general"

    def __post_init__(self) -> None:
        if not isinstance(vectors := self.vectors, (list, tuple)):
            raise InvariantError(f"vectors: expected a list or tuple, got {type(vectors).__name__}")
        object.__setattr__(self, "vectors", tuple(vectors))
        if self.mode not in MODES:
            raise InvariantError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if type(self.n) is not int:  # a bool is no width
            raise InvariantError(f"n: expected an integer width, got {self.n!r}")
        if not 1 <= self.n <= gf2.MAX_WIDTH:
            raise InvariantError(f"n: width must be in [1, {gf2.MAX_WIDTH}], got {self.n}")
        for i, v in enumerate(self.vectors):
            self._check_vector(i, v)

    def _check_vector(self, i: int, v) -> None:
        if type(v) is not int:  # a bool is no vector
            raise InvariantError(f"vectors[{i}]: expected an integer, got {v!r}")
        if v == 0:
            raise InvariantError(f"vectors[{i}]: zero vector is not allowed")
        if v < 0 or v >> self.n:
            raise InvariantError(f"vectors[{i}]: {v} does not fit in {self.n} bits")
        if self.mode == "oriented" and not v.bit_count() & 1:
            raise InvariantError(
                f"vectors[{i}]: {v} has even weight; oriented maps need odd weights"
            )

    def extended(self, v: int) -> "CharMap":
        """The same map with one more facet vector appended; only v is checked."""
        self._check_vector(len(self.vectors), v)
        out = object.__new__(CharMap)  # the old vectors passed __post_init__ already
        out.__dict__.update(n=self.n, vectors=self.vectors + (v,), mode=self.mode)
        return out


# the fixed decorations by name; preset fits each to its own dim and facet count only
FIXED_PRESETS = {"paper-example": CharMap(4, PAPER_EXAMPLE_VECTORS)}
PRESET_NAMES = (*FIXED_PRESETS, "odd-bijection", "identity-first")


@dataclass(frozen=True)
class BadFace:
    """A face whose facet vectors form a minimal GF(2)-dependent circuit."""

    face: tuple[int, ...]
    circuit_size: int
    witness_vertex: tuple[int, ...]


class Coloring(NamedTuple):
    colors: tuple[int, ...]
    proper: bool
    colors_used: int


def _check_aligned(P: Polytope, L: CharMap) -> None:
    if len(L.vectors) != P.num_facets:
        raise ValueError(
            f"map has {len(L.vectors)} vectors but the polytope has {P.num_facets} facets"
        )
    if L.n != P.dim:
        raise ValueError(f"map width {L.n} != polytope dimension {P.dim}")


def is_nonsingular_at(P: Polytope, L: CharMap, V) -> bool:
    """True iff the n facet vectors at vertex V are GF(2)-independent; V must be P's."""
    _check_aligned(P, L)
    return gf2._rank([L.vectors[i] for i in _vertex(P, V)]) == L.n


def bad_faces(P: Polytope, L: CharMap, vertices=None) -> list[BadFace]:
    """Every face whose vectors form a minimal dependent circuit.

    Works vertex by vertex: a singular vertex contains at least one circuit,
    and each circuit of its vectors spans a face. The same face is usually
    seen from several vertices, so results are deduplicated, keeping the
    lexicographically smallest witness vertex. Sorted by (circuit size, face).
    Given some of P's vertices, scans only those, so witnesses come from them;
    refuses any that is not one of P's vertices.
    """
    _check_aligned(P, L)
    hits: dict[tuple[int, ...], tuple[int, ...]] = {}
    for V in P.vertices if vertices is None else [_vertex(P, V) for V in vertices]:
        vecs = [L.vectors[i] for i in V]
        if gf2._rank(vecs) == P.dim:
            continue
        for circuit in gf2.circuits(vecs, L.n):
            face = tuple(V[i] for i in circuit)
            witness = hits.get(face)
            if witness is None or V < witness:
                hits[face] = V
    out = [BadFace(face, len(face), witness) for face, witness in hits.items()]
    out.sort(key=lambda b: (b.circuit_size, b.face))
    return out


def induced_coloring(P: Polytope, L: CharMap) -> Coloring:
    """Facet coloring that uses each facet's vector as its color id.

    Facets are adjacent iff they share a vertex, so the coloring is proper
    iff the facets at each vertex carry distinct vectors.
    """
    _check_aligned(P, L)
    proper = all(len({L.vectors[i] for i in V}) == len(V) for V in P.vertices)
    return Coloring(L.vectors, proper, len(set(L.vectors)))


class LiftReport(NamedTuple):
    determinants: tuple[int, ...]
    non_unimodular: tuple[tuple[int, ...], ...]

    @property
    def all_unimodular(self) -> bool:
        return not self.non_unimodular


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [row[:] for row in rows]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def lift_determinant_report(P: Polytope, L: CharMap) -> LiftReport:
    """Integer determinants of the naive 0/1 lift, one per vertex.

    The GF(2) data determines each vertex matrix only mod 2; this reports
    whether the all-{0,1} integer lift happens to be unimodular as well.
    Informational only: |det| > 1 (always odd at a GF(2)-nonsingular vertex)
    means the naive lift would need entry adjustments, not that no lift exists.
    """
    _check_aligned(P, L)
    dets = []
    failing = []
    for V in P.vertices:
        rows = [[(L.vectors[j] >> r) & 1 for j in V] for r in range(L.n)]
        d = _det_bareiss(rows)
        dets.append(d)
        if abs(d) != 1:
            failing.append(V)
    return LiftReport(tuple(dets), tuple(failing))


def odd_vectors(n: int) -> list[int]:
    """The odd-weight bitmasks of width n in increasing order."""
    return [v for v in range(1, 1 << n) if v.bit_count() & 1]


def preset(name: str, P: Polytope) -> CharMap:
    """One of the named facet decorations, sized for the given polytope.

    paper-example (FIXED_PRESETS): the reference decoration of the dual of C^4(15).
    odd-bijection: facets in index order onto the odd-weight vectors of
    Z_2^n in increasing bitmask order (oriented; needs m = 2^(n-1) facets).
    identity-first: facet i -> e_{i+1} for i < n, then the smallest unused
    nonzero bitmask for each remaining facet (needs m <= 2^n - 1).
    """
    n, m = P.dim, P.num_facets
    if (L := FIXED_PRESETS.get(name)) is not None:
        if (n, m) != (L.n, k := len(L.vectors)):
            raise ValueError(f"{name} needs a {L.n}-polytope with {k} facets, got ({n}, {m})")
        return L
    if name == "odd-bijection":
        odd = odd_vectors(n)
        if m != len(odd):
            raise ValueError(f"odd-bijection needs m = 2^(n-1) = {len(odd)} facets, got {m}")
        return CharMap(n, tuple(odd), "oriented")
    if name == "identity-first":
        if m > (1 << n) - 1:
            raise ValueError(f"identity-first needs m <= 2^n - 1 = {(1 << n) - 1}, got {m}")
        basis = tuple(1 << i for i in range(min(n, m)))
        rest = (w for w in range(1, 1 << n) if w not in basis)
        return CharMap(n, basis + tuple(islice(rest, m - len(basis))), "general")
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def stack(L1: CharMap, L2: CharMap) -> CharMap:
    """Characteristic map on a product polytope: block-diagonal vector join.

    Aligned with generators.product: the left factor's facets come first, and
    the right factor's vectors are shifted into the fresh high coordinates.
    """
    mode = "oriented" if L1.mode == L2.mode == "oriented" else "general"
    return CharMap(
        L1.n + L2.n,
        L1.vectors + tuple(v << L1.n for v in L2.vectors),
        mode,
    )


def segment_map(mode: str = "general") -> CharMap:
    """The unique characteristic map of the segment: both facets map to e1."""
    return CharMap(1, (1, 1), mode)
