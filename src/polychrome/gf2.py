"""Exact linear algebra over GF(2) on bitmask-encoded vectors.

A vector of Z_2^n is an unsigned int: bit i set means the coefficient of
e_{i+1} is 1 (e1 = 0b1, e2 = 0b10, ...). Width is capped at 16 bits; every
instance this library targets fits in a handful of bits.
"""

from __future__ import annotations

from typing import Iterable, Sequence

MAX_WIDTH = 16


def _check(vectors: Iterable[int], n: int) -> None:
    if not 1 <= n <= MAX_WIDTH:
        raise ValueError(f"vector width must be in [1, {MAX_WIDTH}], got {n}")
    for i, v in enumerate(vectors):
        if v < 0 or v >> n:
            raise ValueError(f"vector {i} = {v} does not fit in {n} bits")


def _rank(vectors: Iterable[int]) -> int:
    """rank() without the width check, for vectors already known to fit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = v
                break
            v ^= pivots[p]
    return len(pivots)


def rank(vectors: Sequence[int], n: int) -> int:
    """GF(2) rank of the vectors, by Gaussian elimination on bitmasks."""
    _check(vectors, n)
    return _rank(vectors)


def parity(v: int) -> int:
    """Weight parity of v: 1 for an odd number of set bits, 0 for even."""
    return v.bit_count() & 1


def circuits(vectors: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All inclusion-minimal index subsets whose vectors XOR to zero, sorted.

    One elimination tracks, as an index bitmask, which inputs combine into
    each pivot row; every input that reduces to zero closes a kernel basis
    element. The zero-XOR subsets are the 2^d - 1 nonzero kernel elements,
    d being the rank deficiency, and the circuits are their minimal
    supports. Zero vectors are rejected; each would be a singleton circuit
    and never occurs in a characteristic map.
    """
    vecs = list(vectors)
    _check(vecs, n)
    pivots: dict[int, tuple[int, int]] = {}
    basis: list[int] = []
    for i, v in enumerate(vecs):
        if v == 0:
            raise ValueError(f"zero vector at index {i}")
        combo = 1 << i
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = (v, combo)
                break
            row, row_combo = pivots[p]
            v ^= row
            combo ^= row_combo
        else:
            basis.append(combo)
    kernel = [0]
    for b in basis:
        kernel += [k ^ b for k in kernel]
    found: list[int] = []
    for s in sorted(kernel[1:], key=int.bit_count):
        if not any(c & s == c for c in found):
            found.append(s)
    return sorted(tuple(i for i in range(len(vecs)) if s >> i & 1) for s in found)


def vector_str(v: int) -> str:
    """Human-readable form of a bitmask, e.g. 5 -> 'e1+e3'."""
    if v == 0:
        return "0"
    return "+".join(f"e{i + 1}" for i in range(v.bit_length()) if (v >> i) & 1)
