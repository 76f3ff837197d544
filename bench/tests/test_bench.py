"""Tests of the benchmark itself: tracing, output checks, metric lists.

    python3 -m pytest bench/tests -q
"""

import functools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import anisoline.fitting  # noqa: E402
import anisoline.refine  # noqa: E402
import anisoline.solver  # noqa: E402
import anisoline.tmesh  # noqa: E402
import hostspeed  # noqa: E402
import measure  # noqa: E402
from anisoline.fitting import FitConfig, generate_test_model  # noqa: E402
from anisoline.problems import lshape_benchmark, make_problem  # noqa: E402
from anisoline.solver import SolveConfig  # noqa: E402
from tracing import TRACED_NAMES, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, FitWorkload, SolveWorkload, model_surface  # noqa: E402

# reduced sizes of the four workloads; each still refines, and the uniform
# solve keeps an H1 reference (5.67e-3 measured at 4x4)
SMOKE = {
    "fit_cone": FitWorkload("cone", FitConfig(tolerance=1e-2), grid=(21, 21),
                            must_converge=True),
    "fit_bernstein": FitWorkload("bernstein_sum", FitConfig(tolerance=1e-3, max_levels=2),
                                 grid=(31, 31)),
    "solve_lshape": SolveWorkload(functools.partial(lshape_benchmark, 2),
                                  SolveConfig(max_levels=1)),
    "solve_square_uniform": SolveWorkload(
        functools.partial(make_problem, "square_sin", (4, 4)),
        SolveConfig(max_levels=0), h1_reference=5.7e-3),
}


def test_smoke_workloads_cover_every_benchmark_workload():
    assert set(SMOKE) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_output_checks(name):
    log, part, report = measure.run_untraced(SMOKE[name], seed=3, seconds=0)
    assert log.attempted == 1
    assert log.failed == 0, log.problems
    metrics, problems = measure.end_to_end([part, part])
    assert problems == []
    assert set(metrics) == set(measure.END_TO_END_UNITS)
    assert all(np.isfinite(v) and v > 0 for v in metrics.values())
    assert len(report["levels"]) >= 2 or name == "solve_square_uniform"


@pytest.mark.parametrize("name", ["fit_cone", "solve_lshape"])
def test_traced_run_reproduces_untraced_output(name):
    workload = SMOKE[name]
    plain = workload.run(workload.setup(5))
    with Tracer() as tracer:
        traced = workload.run(workload.setup(5))
    assert traced.signature() == plain.signature()
    assert workload.errors(traced) == workload.errors(plain)
    assert tracer.spans
    # the run's own cross-check counts a mismatch as a failed repetition
    log, metrics, spans = measure.run_traced(workload, seed=5, seconds=0)
    assert log.attempted == 2 and log.failed == 0, log.problems
    assert set(metrics) == set(measure.per_layer_units())
    assert metrics["refine.refine.calls"] == len(plain.report.levels) - 1


def _bound_objects():
    """Every attribute the tracer may replace, as (owner, name) -> object."""
    out = {}
    for mod in (anisoline.fitting, anisoline.refine, anisoline.solver, anisoline.tmesh,
                sys.modules["anisoline.space"], sys.modules["anisoline.geometry"],
                sys.modules["anisoline.problems"]):
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        out[(mod.__name__, key, meth)] = fn
    return out


def test_every_wrapped_name_is_restored():
    before = _bound_objects()
    original_refine = anisoline.refine.refine
    with Tracer():
        assert anisoline.fitting.refine is anisoline.solver.refine
        assert anisoline.fitting.refine is not original_refine
        assert anisoline.tmesh.TMesh.__dict__["locate_cell"] is not \
            before[("anisoline.tmesh", "TMesh", "locate_cell")]
    assert anisoline.fitting.refine is anisoline.refine.refine is original_refine
    assert _bound_objects() == before


def test_names_are_restored_when_the_traced_call_raises():
    before = _bound_objects()
    with pytest.raises(ValueError):
        with Tracer():
            anisoline.tmesh.create_tensor_mesh(1, 1).locate_cell(2.0, 2.0)
    assert _bound_objects() == before


def test_spans_nest_and_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    got = self_times(spans)
    assert got["a"] == (6.0, 1)
    assert got["b"] == (3.0, 2)
    assert got["c"] == (1.0, 1)
    with Tracer() as tracer:
        mesh = anisoline.tmesh.create_tensor_mesh(2, 2)
        with tracer.span("outer"):
            mesh.copy().locate_cell(0.3, 0.7)
    names = [sp[0] for sp in tracer.spans]
    assert names == ["tmesh.TMesh", "outer", "tmesh.copy", "tmesh.locate_cell"]
    assert [sp[3] for sp in tracer.spans] == [-1, -1, 1, 1]
    assert all(start <= end for _, start, end, _ in tracer.spans)


def test_workers_that_disagree_give_no_metrics():
    _, part, _ = measure.run_untraced(SMOKE["fit_cone"], seed=3, seconds=0)
    other = {**part, "outputs": {**part["outputs"], "dof": part["outputs"]["dof"] + 1}}
    metrics, problems = measure.end_to_end([part, other])
    assert metrics == {} and problems


def test_host_speed_rescales_by_the_probes_near_an_interval():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        t0 = speed.starts[0]
        while time.perf_counter() < t0 + 0.2:
            hostspeed.probe()
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.starts) >= 4 and speed.starts == sorted(speed.starts)
    near = [r for s, r in zip(speed.starts, speed.ratios) if t0 - 0.1 <= s <= t1 + 0.1]
    assert speed.scaled(t0, t1) == pytest.approx((t1 - t0) * sum(near) / len(near))
    assert speed.scaled(t0, t0) == 0.0
    with pytest.raises(RuntimeError):
        speed.scaled(t1 + 1.0, t1 + 2.0)


@pytest.mark.parametrize("model", ["cone", "bernstein_sum"])
def test_model_surface_matches_generator_and_its_derivatives(model):
    pset = generate_test_model(model, (13, 11))
    X, _, _ = model_surface(model, pset.params[:, 0], pset.params[:, 1])
    np.testing.assert_allclose(X, pset.points, rtol=0, atol=1e-14)
    rng = np.random.default_rng(0)
    u, v = rng.uniform(0.05, 0.95, 50), rng.uniform(0.05, 0.95, 50)
    h = 1e-6
    _, Xu, Xv = model_surface(model, u, v)
    fd_u = (model_surface(model, u + h, v)[0] - model_surface(model, u - h, v)[0]) / (2 * h)
    fd_v = (model_surface(model, u, v + h)[0] - model_surface(model, u, v - h)[0]) / (2 * h)
    np.testing.assert_allclose(Xu, fd_u, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(Xv, fd_v, rtol=1e-5, atol=1e-5)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.per_layer_units()
    assert set(TRACED_NAMES) <= {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert all(path == "bench" or path.startswith("bench/") for path in spec["paths"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit_cone",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
