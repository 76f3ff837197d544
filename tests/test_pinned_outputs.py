"""Pinned outputs of both adaptive loops, so that a refactor meant to keep
outputs is checked here rather than by hand.

`data/pinned_outputs.json` holds, per run and strategy, the level history
of the `AdaptiveReport` without its timings.  Counts and labels must match
exactly, and errors and estimator totals to 1e-12 relative.  A change
meant to move outputs rewrites the file and says so.

`PYTHONPATH=src python tests/test_pinned_outputs.py RUN [RUN ...]`
records the named `RUNS` entries, both strategies each, and leaves every
other entry byte-identical.  For each entry it re-records it prints the
drift against the old entry: the largest relative change of each float
field over the levels, and every change of an `_EXACT` field, of the
level count or of a run-level field such as `converged`.
"""

import json
import sys
from pathlib import Path

import pytest

from anisoline.fitting import FitConfig, fit_surface, generate_test_model
from anisoline.problems import lshape_benchmark, make_problem
from anisoline.solver import SolveConfig, adaptive_solve

_PINNED_FILE = Path(__file__).parent / "data" / "pinned_outputs.json"
_PINNED = json.loads(_PINNED_FILE.read_text())
_STRATEGIES = ("modified", "cross_only")
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
    # the two solve workloads of the benchmark
    "lshape_benchmark": lambda strategy: adaptive_solve(
        *lshape_benchmark(4), SolveConfig(max_levels=4), strategy=strategy),
    "square_sin_24": lambda strategy: adaptive_solve(
        *make_problem("square_sin", (24, 24)), SolveConfig(max_levels=0), strategy=strategy),
}


def _record(report):
    out = report.to_json_dict()
    for lev in out["levels"]:
        lev.pop("seconds")
    return out


@pytest.mark.parametrize("strategy", _STRATEGIES)
@pytest.mark.parametrize("run", list(RUNS))
def test_outputs_match_pinned(run, strategy):
    got = _record(RUNS[run](strategy)[1])
    want = _PINNED[f"{run}/{strategy}"]
    assert got["converged"] == want["converged"]
    assert len(got["levels"]) == len(want["levels"])
    for lev, ref in zip(got["levels"], want["levels"]):
        assert lev.keys() == ref.keys()
        assert {k: lev[k] for k in _EXACT} == {k: ref[k] for k in _EXACT}
        for k in ref.keys() - set(_EXACT):
            assert lev[k] == pytest.approx(ref[k], rel=1e-12, abs=0), (lev["level"], k)


def _drift(old, new):
    """Lines describing how the recorded run `new` differs from `old`."""
    lines = [f"{k}: {old.get(k)!r} -> {new.get(k)!r}"
             for k in sorted((old.keys() | new.keys()) - {"levels"}) if old.get(k) != new.get(k)]
    exact = []
    if len(old["levels"]) != len(new["levels"]):
        exact.append(f"levels: {len(old['levels'])} -> {len(new['levels'])}")
    worst = {}
    for a, b in zip(old["levels"], new["levels"]):
        for k in sorted(a.keys() | b.keys()):
            x, y = a.get(k), b.get(k)
            if k in _EXACT or not all(isinstance(v, float) for v in (x, y)):
                if x != y:
                    exact.append(f"level {a['level']} {k}: {x!r} -> {y!r}")
            else:
                worst[k] = max(worst.get(k, 0.0), abs(y - x) / abs(x) if x else abs(y - x))
    return lines + (exact or ["level count and exact fields unchanged"]) + [
        ", ".join(f"{k} {rel:.1e}" for k, rel in sorted(worst.items()))
        + " (largest relative change)"]


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = [name for name in names if name not in RUNS]
    if not names or unknown:
        sys.exit(f"usage: {sys.argv[0]} RUN [RUN ...], RUN one of {', '.join(RUNS)}"
                 + (f" (unknown: {', '.join(unknown)})" if unknown else ""))
    for name in names:
        for strategy in _STRATEGIES:
            key = f"{name}/{strategy}"
            new = _record(RUNS[name](strategy)[1])
            if key in _PINNED:
                for line in _drift(_PINNED[key], new):
                    print(f"{key}: {line}")
            else:
                print(f"{key}: new entry")
            _PINNED[key] = new
    _PINNED_FILE.write_text(json.dumps(_PINNED, indent=1, sort_keys=True) + "\n")
