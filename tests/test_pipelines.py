import dataclasses
from collections import Counter

import pytest

from polychrome import pipelines
from polychrome.charmap import bad_faces, oriented_valid, preset
from polychrome.generators import dual_cyclic
from polychrome.pipelines import replay_bad_history, reproduce
from polychrome.polytope import InvariantError, validate
from polychrome.resolution import resolve


def test_reproduce_rejects_unknown_target():
    with pytest.raises(ValueError):
        reproduce("main4")


def test_main_summary_shape(main_run):
    result, _ = main_run
    s = result.summary
    assert result.ok and s["ok"] and s["failures"] == []
    assert s["terminated"] == "success"
    assert s["initial_bad_edges"] == 14
    assert s["initial_bad_vertices"] == 17
    assert s["reference"]["bad_edges"] == 13
    assert s["bad_edges_vertex_disjoint"] is True
    assert s["chi"] == 15 and s["chi_status"] == "exact"
    assert s["euler_consistent"] is True
    assert any("228" in note for note in s["notes"])
    assert any("omitting" in note and "F3" in note for note in s["notes"])


def test_main_artifacts_consistent(main_run):
    result, _ = main_run
    assert validate(result.polytope) == []
    assert bad_faces(result.polytope, result.charmap) == []
    assert result.report.terminated == "success"


def test_main2_summary(main2_run):
    result, _ = main2_run
    s = result.summary
    assert result.ok
    assert s["oriented"] is True
    assert s["chi"] == 8 and s["chi_status"] == "exact"
    assert s["size3_circuits_observed"] == 0
    assert oriented_valid(result.charmap)


def test_oriented_runs_respect_halved_color_bound(main2_run, main3_run):
    # a clean oriented map admits at most 2^(n-1) colors
    for result in (main2_run[0], main3_run[0]):
        n = result.polytope.dim
        assert result.summary["colors_used"] <= 1 << (n - 1)
        assert result.certificate.chi <= 1 << (n - 1)


def test_main3_summary(main3_run):
    result, _ = main3_run
    s = result.summary
    assert result.ok
    assert s["chi"] == 16 and s["chi_status"] == "exact"
    assert s["size3_circuits_observed"] == 0
    assert s["size5_circuits_observed"] == 0
    assert any("dual_cyclic(5, 16)" in note for note in s["notes"])


def test_main3_lift_determinants_all_odd(main3_run):
    from polychrome.charmap import lift_determinant_report

    result, _ = main3_run
    rep = lift_determinant_report(result.polytope, result.charmap)
    assert all(d % 2 != 0 for d in rep.determinants)


def test_replay_detects_divergence():
    P = dual_cyclic(4, 5)
    L = preset("identity-first", P)
    report = resolve(P, L)
    step = report.steps[0]
    tampered = dataclasses.replace(
        report, steps=(dataclasses.replace(step, chosen_vector=step.chosen_vector ^ 1),)
    )
    with pytest.raises(InvariantError, match="replay"):
        replay_bad_history(P, L, tampered)


def test_replay_history_counts(main2_run):
    result, _ = main2_run
    P0 = dual_cyclic(4, 8)
    L0 = preset("odd-bijection", P0)
    history = replay_bad_history(P0, L0, result.report)
    assert len(history) == len(result.report.steps) + 1
    assert [len(h) for h in history] == list(range(8, -1, -1))


@pytest.mark.parametrize("run, dim, facets, decoration", [
    ("main_run", 4, 15, "paper-example"),
    ("main2_run", 4, 8, "odd-bijection"),
    ("main3_run", 5, 16, "odd-bijection"),
])
def test_step_histograms_match_replay(request, run, dim, facets, decoration):
    result, _ = request.getfixturevalue(run)
    P0 = dual_cyclic(dim, facets)
    history = replay_bad_history(P0, preset(decoration, P0), result.report)
    for step, state in zip(result.report.steps, history):
        assert step.bad_by_size == tuple(sorted(Counter(b.circuit_size for b in state).items()))
    assert history[-1] == []


def test_reproduce_does_not_replay(monkeypatch):
    def refuse(*args):
        raise AssertionError("reproduce replayed the resolution")

    monkeypatch.setattr(pipelines, "replay_bad_history", refuse)
    result = reproduce("main2")
    assert result.ok
    assert result.summary["observed_circuit_sizes"] == {"4": 36}


def test_reproduce_reads_the_coloring_off_a_nonsingular_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("reproduce rebuilt the facet adjacency")

    monkeypatch.setattr(pipelines, "induced_coloring", refuse)
    result = reproduce("main2")
    assert result.ok
    assert (result.summary["colors_used"], result.summary["coloring_proper"]) == (8, True)
