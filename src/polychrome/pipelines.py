"""End-to-end builds of the three headline constructions.

Each target generates its starting polytope, decorates it, resolves every
bad face by truncation, and certifies the chromatic number of the result.
Computed values are never replaced by quoted ones: where the reference
example's bookkeeping disagrees with the arithmetic, both numbers are
reported and the mismatch is flagged in the notes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import gf2
from .charmap import (
    BadFace,
    CharMap,
    bad_faces,
    induced_coloring,
    preset,
    segment_map,
    stack,
)
from .chromatic import ChromaticCertificate, chromatic_number
from .generators import dual_cyclic, product, segment
from .polytope import (
    InvariantError, Polytope, _face_label, euler_expected, euler_sum, f_vector, hosts,
    truncate_face,
)
from .resolution import ResolutionReport, resolve


# target: (dim, facets, preset, expected chi, notes). Each run starts from
# dual_cyclic(dim, facets) decorated by the preset; oriented presets get the
# forbidden-circuit checks, and the paper-example run is compared with the
# counts its reference example quotes.
_TARGET_TABLE = {
    "main": (4, 15, "paper-example", 15, ()),
    "main2": (4, 8, "odd-bijection", 8, (
        "intermediate step counts are recorded, not asserted: no reference values exist",
    )),
    "main3": (5, 16, "odd-bijection", 16, (
        "interpretation: the oriented 5-dimensional run starts from dual_cyclic(5, 16); "
        "the quoted starting polytope (the 15-facet 4-dimensional dual) cannot carry "
        "16 facet vectors of width 5 and is recorded here as a misprint",
    )),
}

TARGETS = tuple(_TARGET_TABLE)

# the bad edges and counts quoted by the reference example for the 15-facet
# run; kept as data so reports can show quoted-vs-computed side by side
REFERENCE_BAD_EDGES = frozenset({
    (2, 7, 8), (1, 2, 9), (3, 10, 11), (2, 3, 12), (4, 5, 7), (7, 9, 10),
    (7, 12, 13), (0, 3, 4), (0, 5, 6), (0, 8, 9), (0, 11, 12), (0, 13, 14),
    (0, 1, 7),
})
REFERENCE_MAIN = {
    "bad_edges": len(REFERENCE_BAD_EDGES),
    "bad_vertices": 17,
    "steps": 30,
    "f_vector": [193, 386, 228, 45],
}


@dataclass
class ReproduceResult:
    target: str
    summary: dict
    polytope: Polytope
    charmap: CharMap
    report: ResolutionReport
    certificate: ChromaticCertificate
    ok: bool
    failures: list[str] = field(default_factory=list)


def replay_bad_history(
    P0: Polytope, L0: CharMap, report: ResolutionReport
) -> list[list[BadFace]]:
    """Bad faces before each recorded step (and after the last), by replay.

    Also a determinism check: the replayed end state must equal the report's.
    The pipeline reads the same counts from each step's bad_by_size instead;
    this full recomputation is the reference that tests compare against.
    """
    history = []
    P, L = P0, L0
    for step in report.steps:
        history.append(bad_faces(P, L))
        P, _ = truncate_face(P, step.face)
        L = L.extended(step.chosen_vector)
    history.append(bad_faces(P, L))
    if P != report.final_polytope or L != report.final_map:
        raise InvariantError("replay diverged from the recorded resolution")
    return history


def _compare_with_reference(P0: Polytope, L0: CharMap, fv: list[int]) -> tuple[dict, list[str]]:
    """Summary fields and notes setting the computed start against the quoted one."""
    initial = bad_faces(P0, L0)
    edges = [b.face for b in initial if b.circuit_size == 3]
    verts = [b.face for b in initial if b.circuit_size == 4]
    on_edges = [V for face in edges for V in hosts(P0, face)]
    disjoint = len(on_edges) == len(set(on_edges))
    notes = []
    if len(edges) != REFERENCE_MAIN["bad_edges"] or len(verts) != REFERENCE_MAIN["bad_vertices"]:
        missed = sorted(set(edges) - REFERENCE_BAD_EDGES)
        notes.append(
            f"bad faces: computed {len(edges)} edges and {len(verts)} vertices; the "
            f"reference example lists {REFERENCE_MAIN['bad_edges']} edges and "
            f"{REFERENCE_MAIN['bad_vertices']} vertices, omitting "
            + ", ".join(
                _face_label(P0, face) + " = "
                + " + ".join(gf2.vector_str(L0.vectors[i]) for i in face)
                for face in missed
            )
        )
    ref_fv = REFERENCE_MAIN["f_vector"]
    notes.append(
        f"ridge count: the reference example prints {ref_fv[2]} ridges, violating the "
        f"Euler relation (alternating sum {euler_sum(ref_fv)}, expected "
        f"{euler_expected(len(ref_fv))}); its own "
        f"vertex/edge/facet counts {ref_fv[0]}/{ref_fv[1]}/{ref_fv[3]} would force "
        f"{ref_fv[1] - ref_fv[0] + ref_fv[3]} ridges, and the corrected construction "
        f"here has f_vector {fv}"
    )
    notes.append(
        "bad edges pairwise vertex-disjoint: "
        + ("true" if disjoint else "false")
        + " (observed, not assumed)"
    )
    fields = {
        "initial_bad_edges": len(edges),
        "initial_bad_vertices": len(verts),
        "bad_edges_vertex_disjoint": disjoint,
        "reference": dict(REFERENCE_MAIN),
    }
    return fields, notes


def reproduce(target: str) -> ReproduceResult:
    """Run one of the scripted pipelines end to end."""
    if target not in _TARGET_TABLE:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    dim, facets, decoration, expected_chi, target_notes = _TARGET_TABLE[target]
    P0 = dual_cyclic(dim, facets)
    L0 = preset(decoration, P0)
    report = resolve(P0, L0)
    P, L = report.final_polytope, report.final_map
    failures: list[str] = []
    if report.terminated != "success":
        failures.append(f"resolution terminated with {report.terminated}")
    remaining = bad_faces(P, L)
    if remaining:
        failures.append(f"{len(remaining)} bad faces remain")
    fv = f_vector(P)
    summary = {
        "target": target,
        "initial_bad_count": report.initial_bad_count,
        "steps": len(report.steps),
        "terminated": report.terminated,
        "final_facets": P.num_facets,
        "f_vector": fv,
        "euler_alternating_sum": euler_sum(fv),
        "euler_consistent": euler_sum(fv) == euler_expected(P.dim),
    }
    if not summary["euler_consistent"]:
        failures.append("Euler relation violated by the final f-vector")

    notes = list(target_notes)
    if decoration == "paper-example":
        reference_fields, reference_notes = _compare_with_reference(P0, L0, fv)
        summary.update(reference_fields)
        notes += reference_notes
    if L0.mode == "oriented":
        # extended keeps L0's mode, where CharMap refuses even weights: the run stays oriented
        summary["oriented"] = L.mode == "oriented"
        observed: Counter = Counter(b.circuit_size for b in remaining)
        for step in report.steps:
            observed.update(dict(step.bad_by_size))
        summary["observed_circuit_sizes"] = {str(k): v for k, v in sorted(observed.items())}
        # an odd number of odd-weight vectors never sums to zero
        for size in range(3, P.dim + 1, 2):
            summary[f"size{size}_circuits_observed"] = observed[size]
            if observed[size]:
                failures.append(f"a size-{size} circuit appeared in an oriented run")
    summary["notes"] = notes

    cert = chromatic_number(P, hint=L)
    summary["chi"] = cert.chi
    summary["chi_status"] = cert.status
    summary["chi_lower"] = cert.lower
    summary["chi_upper"] = cert.upper
    summary["clique_size"] = len(cert.clique)
    summary["colors_used"] = len(set(L.vectors))
    # with no bad face left every vertex is nonsingular, so adjacent facets differ
    summary["coloring_proper"] = not remaining or induced_coloring(P, L).proper
    if not summary["coloring_proper"]:
        failures.append("final induced coloring is not proper")
    if cert.status != "exact":
        failures.append(f"chromatic number not certified exactly: {cert.lower}..{cert.upper}")
    elif cert.chi != expected_chi:
        failures.append(f"chi = {cert.chi}, expected {expected_chi}")
    summary["ok"] = not failures
    summary["failures"] = failures
    return ReproduceResult(target, summary, P, L, report, cert, not failures, failures)


def product_with_segment(base: ReproduceResult) -> tuple[Polytope, CharMap, ChromaticCertificate]:
    """The product of a reproduced polytope with a segment, one dimension up.

    Both segment facets take the fresh last coordinate vector, so the product
    map stays non-singular and adds exactly one new color. The segment's map
    takes the run's mode, so stack keeps an oriented run oriented: e_{n+1} has
    odd weight.
    """
    Q = product(base.polytope, segment())
    M = stack(base.charmap, segment_map(base.charmap.mode))
    return Q, M, chromatic_number(Q, hint=M)
