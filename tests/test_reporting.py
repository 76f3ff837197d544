"""The adaptive driver `run_adaptive`, with stub hooks and through both
loops that run on it."""

import logging

import pytest

from anisoline import solver
from anisoline.fitting import FitConfig, fit_surface, generate_test_model
from anisoline.problems import lshape_benchmark, make_problem
from anisoline.refine import RefinementRequest, refine
from anisoline.reporting import run_adaptive
from anisoline.solver import SolveConfig, adaptive_solve
from anisoline.space import advance_level, build_initial_space
from anisoline.tmesh import create_tensor_mesh


def _stub_run(strategy, max_levels, met_at=None):
    """`run_adaptive` from a real 2 x 2 space.  Every active cell has
    error 1 against the bound 1/2, except the level-0 cells in s >= 1/2
    at level 0, so those stay unrefined and lie above the bound at every
    later level.  The labels alternate V and H; a level meets the goal
    when it is `met_at`.  Returns (report, calls), `calls` holding per
    level the mesh, the errors, the marked cells, the labels that
    `advance` got and its refinement report."""
    calls = []

    def estimate(space, level):
        mesh = space.mesh
        errors = {cid: 0.2 if level == 0 and float(mesh.cell(cid).s0) >= 0.5 else 1.0
                  for cid in mesh.active_cells()}
        calls.append({"mesh": mesh, "errors": errors, "met": level == met_at})
        return {"seconds": {"stub": 0.0}}, errors, 0.5, level == met_at

    def label(marked):
        calls[-1]["marked"] = list(marked)
        return {cid: "VH"[k % 2] for k, cid in enumerate(marked)}

    def advance(space, labels):
        _, rrep = refine(space.mesh, RefinementRequest(labels))
        calls[-1].update(sent=labels, rrep=rrep)
        return advance_level(space, rrep), rrep

    space = build_initial_space(create_tensor_mesh(2, 2))
    return run_adaptive(space, strategy, max_levels, estimate, label, advance), calls


@pytest.mark.parametrize("strategy, max_levels, met_at, stop", [
    ("modified", 4, 2, 2), ("cross_only", 2, None, 2), ("modified", 0, None, 0)])
def test_driver_marks_labels_and_stops(strategy, max_levels, met_at, stop):
    report, calls = _stub_run(strategy, max_levels, met_at)
    assert [rec.level for rec in report.levels] == list(range(stop + 1))
    assert report.converged == calls[-1]["met"] == (stop == met_at)
    assert report.check_dof_accounting()
    coarse_above_bound = 0
    for level, (rec, call) in enumerate(zip(report.levels, calls)):
        mesh, errors = call["mesh"], call["errors"]
        want = [cid for cid in mesh.active_cells()
                if mesh.cell(cid).level == level and errors[cid] > 0.5]
        coarse_above_bound += sum(mesh.cell(cid).level < level and err > 0.5
                                  for cid, err in errors.items())
        assert rec.marked == len(want) > 0
        assert rec.dof == 4 * len(mesh.basis_vertices())
        if level == stop:
            assert "sent" not in call and rec.proposed == rec.labels == {}
            assert rec.seconds.keys() == {"stub"}
            continue
        assert sorted(call["marked"]) == sorted(want)
        sent, rrep = call["sent"], call["rrep"]
        if strategy == "cross_only":
            assert set(sent.values()) == {"C"}
        else:
            assert set(sent.values()) == {"V", "H"}
        assert rec.proposed == {lab: list(sent.values()).count(lab) for lab in set(sent.values())}
        assert rec.overridden == sum(rrep.proposed_labels.get(cid) != lab
                                     for cid, lab in rrep.final_labels.items())
        assert sum(rec.labels.values()) == len(rrep.final_labels)
        assert rec.seconds.keys() == {"stub", "label", "refine"}
    assert coarse_above_bound > 0 or stop == 0


def test_driver_goal_none_means_nothing_marked():
    space = build_initial_space(create_tensor_mesh(2, 2))
    report = run_adaptive(space, "modified", 3,
                          lambda space, level: ({}, {}, 0.5, None), None, None)
    assert len(report.levels) == 1 and report.converged and report.final.marked == 0


_LOOPS = {
    "fit": (lambda strategy: fit_surface(
        generate_test_model("cone", (21, 21)), FitConfig(tolerance=1e-2), strategy),
        {"controls", "errors"}),
    "solve": (lambda strategy: adaptive_solve(
        *lshape_benchmark(2), SolveConfig(max_levels=1), strategy=strategy),
        {"solve", "estimate"}),
}


@pytest.mark.parametrize("loop", list(_LOOPS))
def test_loops_time_their_phases(loop):
    run, estimate_phases = _LOOPS[loop]
    report = run("modified")[1]
    assert len(report.levels) >= 2
    for rec in report.levels[:-1]:
        assert rec.seconds.keys() == estimate_phases | {"label", "refine"}
        assert sum(rec.proposed.values()) == rec.marked
    assert report.final.seconds.keys() == estimate_phases


@pytest.mark.parametrize("loop", ["fit", "solve"])
def test_unknown_strategy_fails_before_any_work(loop, monkeypatch):
    def no_work(*args):
        raise AssertionError("a solve round ran")

    monkeypatch.setattr(solver, "_solve_round", no_work)
    pset = generate_test_model("cone", (5, 5))
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
        if loop == "fit":
            fit_surface(pset, FitConfig(), "bogus")
        else:
            adaptive_solve(*make_problem("square_sin"), strategy="bogus")
    assert pset.cell_of is None


def test_one_log_line_per_level(caplog):
    caplog.set_level(logging.INFO, logger="anisoline")
    _, report = adaptive_solve(*make_problem("square_sin", (2, 2)), SolveConfig(max_levels=2))
    lines = [r.getMessage() for r in caplog.records if r.name == "anisoline"]
    assert len(lines) == len(report.levels) >= 2
    for line, rec in zip(lines, report.levels):
        assert line.startswith(f"level {rec.level}: {rec.dof} DOF, {rec.marked} marked, "
                               f"labels {rec.labels}, ")
        assert f"'eta_total': {rec.eta_total!r}" in line
        assert f"'h1_error': {rec.h1_error!r}" in line
    assert logging.getLogger("anisoline").handlers == []
