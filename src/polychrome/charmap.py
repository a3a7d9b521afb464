"""Characteristic maps over Z_2^n: storage, failure detection, colorings.

A characteristic map assigns a nonzero vector of Z_2^n to each facet; it is
non-singular at a vertex when the n vectors meeting there are independent.
The oriented flavor additionally requires every vector to have odd weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import NamedTuple

from . import gf2
from .polytope import InvariantError, Polytope, _record_hosts, _vertex

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

    A face F is bad at vertex V iff F is a zero subset of V (its vectors XOR
    to zero) whose own vectors form one circuit: F is a circuit of V's
    vectors iff no proper subset of F XORs to zero, which depends on F's
    vectors alone. So the scan meets F's hosts in vertex order: the first is
    its witness, and a full scan records them all on P (_record_hosts). Where
    _lanes_win, _zero_subsets finds every vertex's zero subsets at once, and
    gf2._minimal keeps a row's circuits among them, as gf2.circuits does among a
    kernel's elements: the walk visits every zero subset of the row. Elsewhere
    the scan goes vertex by vertex, ranking each and listing a singular one's
    circuits through gf2.circuits. Sorted by (circuit size, face). Given some
    of P's vertices, scans only those, so witnesses come from them; refuses
    any that is not one of P's vertices, and a `vertices` that is not iterable.
    """
    _check_aligned(P, L)
    try:
        todo = P.vertices if vertices is None else iter(vertices)
    except TypeError:
        raise ValueError(f"vertices {vertices!r}: expected an iterable of vertices") from None
    if vertices is not None:
        todo = sorted(_vertex(P, V) for V in todo)
    found: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    if _lanes_win(L.n, len(todo)):
        zero = _zero_subsets(map(L.vectors.__getitem__, c) for c in zip(*todo))
        for k, F in sorted([(k, tuple(map(todo[k].__getitem__, _MEMBERS[s])))
                            for k, masks in zero.items() for s in gf2._minimal(masks)]):
            found.setdefault(F, []).append(todo[k])
    else:
        for V in todo:
            vecs = [L.vectors[i] for i in V]
            if gf2._rank(vecs) == P.dim:
                continue
            for circuit in gf2.circuits(vecs, L.n):
                found.setdefault(tuple(V[i] for i in circuit), []).append(V)
    if vertices is None:
        _record_hosts(P, found)
    out = [BadFace(face, len(face), on[0]) for face, on in found.items()]
    out.sort(key=lambda b: (b.circuit_size, b.face))
    return out


def _lanes_win(n: int, count: int) -> bool:
    """Whether bad_faces scans `count` vertices of width n on lanes: only where the
    lane scan beat the per-vertex loop on singular and non-singular maps alike,
    timed for n = 2..16 (CHANGES.md). Its 2^n - 1 steps each pass over every
    lane, so from n = 9 the loop wins on non-singular maps, by more as n grows."""
    return 4 <= n <= 8 and count >= 2 << n


@cache
def _gray(n: int) -> tuple[tuple[int, int], ...]:
    """Per step of a Gray code over the nonempty subsets of range(n): the
    position it flips and the bitmask of the subset it reaches."""
    return tuple(((s & -s).bit_length() - 1, s ^ s >> 1) for s in range(1, 1 << n))


# the positions in each subset of range(8), by bitmask; lanes run only for n <= 8
_MEMBERS = tuple(tuple(i for i in range(8) if s >> i & 1) for s in range(256))


def _zero_subsets(columns) -> dict[int, list[int]]:
    """Row -> the bitmask of each nonempty set of positions whose entries XOR to
    zero in that row, for each row that has one; columns[j] holds position j's
    8-bit entry of each row. Column j becomes one int, a byte lane per row, and
    the Gray code walk XORs in one column per step. high & ~(((x & low) + low) | x)
    marks the zero lanes exactly: per lane, (x & 0x7F) + 0x7F <= 0xFE carries
    nothing out of the lane, and has its top bit set iff x's low 7 bits are not
    all zero; OR-ing x adds x's own top bit, so that bit ends clear iff the lane
    is zero.
    """
    lanes = [bytes(c) for c in columns]  # bytes refuses an entry above 0xFF
    rows = len(lanes[0])
    packed = [int.from_bytes(c, "little") for c in lanes]
    high = int.from_bytes(b"\x80" * rows, "little")  # 0x80 in every lane
    low = int.from_bytes(b"\x7f" * rows, "little")  # 0x7F in every lane
    hits: dict[int, list[int]] = {}
    x = 0
    for j, subset in _gray(len(packed)):
        x ^= packed[j]
        if zero := high & ~(((x & low) + low) | x):
            marks = zero.to_bytes(rows, "little")  # a zero lane's byte is 0x80, the rest 0
            i = marks.find(0x80)
            while i >= 0:
                hits.setdefault(i, []).append(subset)
                i = marks.find(0x80, i + 1)
    return hits


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
