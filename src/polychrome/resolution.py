"""Truncate-and-decorate loop removing every bad face of a characteristic map."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf2
from .charmap import CharMap, _check_aligned, bad_faces, odd_vectors
from .polytope import InvariantError, Polytope, _cut, truncate_face

TERMINATED = ("success", "budget_exhausted", "no_vector_found")

DEFAULT_BUDGET = 1000


class NoVectorFound(RuntimeError):
    """No candidate vector keeps all vertices created by a truncation nonsingular."""

    def __init__(self, face: tuple[int, ...]):
        super().__init__(f"no resolution vector exists for face {list(face)}")
        self.face = face


@dataclass(frozen=True)
class Step:
    face: tuple[int, ...]
    circuit_size: int
    new_facet_index: int
    chosen_vector: int
    vertices_removed: int
    vertices_added: int
    # (circuit size, count) of the bad faces present before this step
    bad_by_size: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ResolutionReport:
    initial_bad_count: int
    steps: tuple[Step, ...]
    final_polytope: Polytope
    final_map: CharMap
    terminated: str


def resolution_vector(P: Polytope, L: CharMap, S) -> int:
    """Smallest vector decorating the facet that truncating S would create.

    The candidate must complete the old facets' vectors at each vertex the
    cut creates (the same ones truncate_face creates) to full rank.
    Candidates are tried in increasing bitmask order, restricted to odd-weight
    vectors when the map is oriented. Raises bad_faces' ValueError if L does
    not fit P, and truncate_face's if S is no face it can cut.
    """
    _check_aligned(P, L)
    face, _, created = _cut(P, S)
    retained = [[L.vectors[i] for i in C[:-1]] for C in created]
    for w in odd_vectors(L.n) if L.mode == "oriented" else range(1, 1 << L.n):
        if all(gf2._rank(vecs + [w]) == L.n for vecs in retained):
            return w
    raise NoVectorFound(face)


def resolve(P: Polytope, L: CharMap, budget: int = DEFAULT_BUDGET) -> ResolutionReport:
    """Repeatedly truncate the worst bad face until none remain.

    Selection order is smallest circuit first (so edges go before vertices),
    ties broken by lexicographically smallest face. One full scan finds the
    bad faces. Cutting S removes a face only if it contains S, and circuits
    never nest, so each cut removes just its target; it creates no bad face
    either, as resolution_vector keeps every created vertex nonsingular, which
    a scan of the created vertices re-checks. truncate_face reuses the cut that
    resolution_vector made, so a step scans its hosts once; it validates P, which
    scans an uncertified start in full at the first cut and costs nothing after, as
    each cut is certified by the rule (see _cut). Budget exhaustion or a failed
    vector search returns its partial report.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"budget must be an integer at least 1, got {budget!r}")
    bad = bad_faces(P, L)
    initial = len(bad)
    steps: list[Step] = []
    terminated = "success"
    while bad:
        if len(steps) >= budget:
            terminated = "budget_exhausted"
            break
        target = bad[0]
        try:
            w = resolution_vector(P, L, target.face)
        except NoVectorFound:
            terminated = "no_vector_found"
            break
        next_P, created = truncate_face(P, target.face)
        next_L = L.extended(w)
        removed = len(P.vertices) + len(created) - len(next_P.vertices)
        histogram = tuple(sorted(Counter(b.circuit_size for b in bad).items()))
        steps.append(Step(
            target.face, target.circuit_size, P.num_facets, w, removed, len(created), histogram
        ))
        if singular := bad_faces(next_P, next_L, created):
            raise InvariantError(
                f"step {len(steps)}: cutting {list(target.face)} created the singular vertex "
                f"{list(singular[0].witness_vertex)} with circuit {list(singular[0].face)}"
            )
        P, L, bad = next_P, next_L, bad[1:]
    return ResolutionReport(initial, tuple(steps), P, L, terminated)
