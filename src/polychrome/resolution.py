"""Truncate-and-decorate loop removing every bad face of a characteristic map."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf2
from .charmap import CharMap, _check_aligned, bad_faces
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

    The candidate w must complete the old facets' vectors at each vertex the
    cut creates (the same ones truncate_face creates) to full rank: V - s + w
    for each host V and s in S, a basis iff V and w have one circuit, through
    s. So each host is eliminated once: two circuits, or one missing a facet of
    S, leave no w; else w must lie outside a singular V's span, or use every
    facet of S when written in a nonsingular V's vectors. Candidates are tried
    in increasing bitmask order, restricted to odd-weight vectors when the map
    is oriented. Raises bad_faces' ValueError if L does not fit P, and
    truncate_face's if S is no face it can cut.
    """
    _check_aligned(P, L)
    face, on = _cut(P, S)
    tests = []  # per host: its pivots, the positions of S in it, and whether it is singular
    for V in on:
        pivots, kernel = gf2._eliminate([L.vectors[i] for i in V])
        at = sum(1 << V.index(s) for s in face)
        if len(kernel) > 1 or kernel and at & ~kernel[0]:
            raise NoVectorFound(face)
        tests.append((pivots, at, bool(kernel)))
    for w in (w for w in range(1, 1 << L.n) if w.bit_count() & 1 or L.mode != "oriented"):
        for pivots, at, singular in tests:
            r, combo = gf2._express(w, pivots)
            if not r and (singular or combo & at != at):
                break
        else:
            return w
    raise NoVectorFound(face)


def resolve(P: Polytope, L: CharMap, budget: int = DEFAULT_BUDGET) -> ResolutionReport:
    """Repeatedly truncate the worst bad face until none remain.

    Selection order is smallest circuit first (so edges go before vertices),
    ties broken by lexicographically smallest face. One full scan finds the
    bad faces. Cutting S removes a face only if it contains S, and circuits
    never nest, so each cut removes just its target; it creates no bad face
    either, as resolution_vector keeps every created vertex nonsingular, which
    a scan of the created vertices re-checks. So the scan's list is walked once,
    with running size counts, and no step searches for hosts: each cut shares the
    table the scan recorded, and the lists of the faces left all hold, as a host on
    two bad faces would leave no vector. truncate_face validates P, which scans an
    uncertified start in full at the first cut and costs nothing after, as each cut
    is certified by the rule (see truncate_face). Budget exhaustion or a failed
    vector search returns its partial report.
    """
    if type(budget) is not int or budget < 1:  # a bool is no budget
        raise ValueError(f"budget must be an integer at least 1, got {budget!r}")
    bad = bad_faces(P, L)
    sizes = Counter(b.circuit_size for b in bad)
    steps: list[Step] = []
    terminated = "success"
    for target in bad:
        if len(steps) >= budget:
            terminated = "budget_exhausted"
            break
        try:
            w = resolution_vector(P, L, target.face)
        except NoVectorFound:
            terminated = "no_vector_found"
            break
        next_P, created = truncate_face(P, target.face)
        next_L = L.extended(w)
        removed = len(P.vertices) + len(created) - len(next_P.vertices)
        steps.append(Step(target.face, target.circuit_size, P.num_facets, w, removed,
                          len(created), tuple((s, c) for s, c in sorted(sizes.items()) if c)))
        sizes[target.circuit_size] -= 1  # a size counted down to 0 stays; the listing drops it
        if singular := bad_faces(next_P, next_L, created):
            raise InvariantError(
                f"step {len(steps)}: cutting {list(target.face)} created the singular vertex "
                f"{list(singular[0].witness_vertex)} with circuit {list(singular[0].face)}"
            )
        P, L = next_P, next_L
    return ResolutionReport(len(bad), tuple(steps), P, L, terminated)
