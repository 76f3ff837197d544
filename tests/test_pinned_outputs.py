"""Pinned outputs of both adaptive loops, so that a refactor meant to keep
outputs is checked here rather than by hand.

`data/pinned_outputs.json` holds, per run and strategy, the level history
of the `AdaptiveReport` without its timings.  Counts and labels must match
exactly, and errors and estimator totals to 1e-12 relative.  A change
meant to move outputs rewrites the file and says so.
"""

import json
from pathlib import Path

import pytest

from anisoline.fitting import FitConfig, fit_surface, generate_test_model
from anisoline.problems import lshape_benchmark, make_problem
from anisoline.solver import SolveConfig, adaptive_solve

_PINNED = json.loads((Path(__file__).parent / "data" / "pinned_outputs.json").read_text())
_EXACT = ("level", "dof", "new_functions", "modified_functions", "marked", "labels")

RUNS = {
    "cone": lambda strategy: fit_surface(
        generate_test_model("cone", (21, 21)), FitConfig(tolerance=1e-2), strategy),
    "bernstein_sum": lambda strategy: fit_surface(
        generate_test_model("bernstein_sum", (31, 31)),
        FitConfig(tolerance=1e-3, max_levels=2), strategy),
    "lshape": lambda strategy: adaptive_solve(
        *lshape_benchmark(2), SolveConfig(max_levels=1), strategy=strategy),
    "square_sin": lambda strategy: adaptive_solve(
        *make_problem("square_sin", (4, 4)), SolveConfig(), strategy=strategy),
}


@pytest.mark.parametrize("strategy", ["modified", "cross_only"])
@pytest.mark.parametrize("run", list(RUNS))
def test_outputs_match_pinned(run, strategy):
    _, report = RUNS[run](strategy)
    got = report.to_json_dict()
    want = _PINNED[f"{run}/{strategy}"]
    assert got["converged"] == want["converged"]
    assert len(got["levels"]) == len(want["levels"])
    for lev, ref in zip(got["levels"], want["levels"]):
        lev.pop("seconds")
        assert lev.keys() == ref.keys()
        assert {k: lev[k] for k in _EXACT} == {k: ref[k] for k in _EXACT}
        for k in ref.keys() - set(_EXACT):
            assert lev[k] == pytest.approx(ref[k], rel=1e-12, abs=0), (lev["level"], k)
