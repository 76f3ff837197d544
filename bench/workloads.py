"""The benchmark workloads: inputs built from a seed, one public anisoline
call per repetition, and the checks that call's output must pass.

Every workload reports both accuracy figures.  `max_error` is the largest
pointwise deviation from the reference (fits: point distance as
`fit_surface` reports it; solves: |u_h - u| over the Gauss points of every
active cell).  `h1_error` is the H1-seminorm error against the exact map
(fits: the analytic test surface over the parameter square; solves: the
exact solution, as `adaptive_solve` reports it).
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from anisoline.fitting import FitConfig, ParamPointSet, fit_surface, generate_test_model
from anisoline.problems import lshape_benchmark, make_problem
from anisoline.solver import SolveConfig, adaptive_solve

QUADRATURE = 5
_FALLBACK = re.compile(r"level \d+: (\d+) vertex estimates used a fallback")


@dataclass
class Outcome:
    """What one public call returned."""
    result: object           # fitted SplineField or DiscreteSolution
    report: object           # AdaptiveReport
    fallbacks: int = 0       # fallback control estimates (fits only)

    def signature(self):
        """Everything but the timings, for comparing repetitions exactly."""
        levels = [{k: v for k, v in lev.items() if k != "seconds"}
                  for lev in self.report.to_json_dict()["levels"]]
        return self.report.converged, levels


def _gauss_on_cell(cell):
    x, w = leggauss(QUADRATURE)
    x, w = (x + 1.0) / 2.0, w / 2.0
    uu, vv = np.meshgrid(x, x, indexing="ij")
    s = float(cell.s0) + float(cell.width) * uu.ravel()
    t = float(cell.t0) + float(cell.height) * vv.ravel()
    return s, t, np.outer(w, w).ravel() * float(cell.width) * float(cell.height)


def model_surface(model, u, v):
    """Points and first parameter derivatives of a test model at (u, v).

    The values follow `generate_test_model` (the tests check this); the
    derivatives are analytic.  Returns (X, X_u, X_v), each (n, 3).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    zero, one = np.zeros_like(u), np.ones_like(u)
    if model == "cone":
        phi = 1.5 * np.pi * u
        r = 0.2 + 0.8 * v
        c, s = np.cos(phi), np.sin(phi)
        X = np.stack([r * c, r * s, v], axis=1)
        Xu = np.stack([-1.5 * np.pi * r * s, 1.5 * np.pi * r * c, zero], axis=1)
        Xv = np.stack([0.8 * c, 0.8 * s, one], axis=1)
        return X, Xu, Xv
    if model == "bernstein_sum":
        a = (1 - u) ** 7 + 2 * (7 * u * (1 - u) ** 6)
        da = 7 * (1 - u) ** 6 - 84 * u * (1 - u) ** 5
        osc = np.sin(120 * u) * np.sin(2 * np.pi * u)
        dosc = (120 * np.cos(120 * u) * np.sin(2 * np.pi * u)
                + 2 * np.pi * np.sin(120 * u) * np.cos(2 * np.pi * u))
        cv = np.cos(2 * np.pi * v)
        amp = 1 + 0.4 * np.sin(60 * v)
        g = 2 - 2 * amp * np.abs(cv)
        dg = -2 * (24 * np.cos(60 * v) * np.abs(cv)
                   - amp * np.sign(cv) * 2 * np.pi * np.sin(2 * np.pi * v))
        z = 0.1 * (a * osc + u ** 7 * g)
        zu = 0.1 * (da * osc + a * dosc + 7 * u ** 6 * g)
        zv = 0.1 * u ** 7 * dg
        return (np.stack([u, v, z], axis=1), np.stack([one, zero, zu], axis=1),
                np.stack([zero, one, zv], axis=1))
    raise ValueError(f"no analytic surface for model {model!r}")


def fit_h1_error(field, model):
    """H1-seminorm distance between a fitted surface and the exact model."""
    mesh = field.space.mesh
    total = 0.0
    for cid in mesh.active_cells():
        s, t, w = _gauss_on_cell(mesh.cell(cid))
        d = field.eval_on_cell(cid, s, t, ((1, 0), (0, 1)))
        _, xu, xv = model_surface(model, s, t)
        total += float(np.sum(w * (np.sum((d[0] - xu) ** 2, axis=1)
                                   + np.sum((d[1] - xv) ** 2, axis=1))))
    return float(np.sqrt(total))


def solve_max_error(solution):
    """max |u_h - u| over the Gauss points of every active cell."""
    mesh = solution.space.mesh
    u_exact = solution.problem.u_exact
    worst = 0.0
    for cid in mesh.active_cells():
        s, t, _ = _gauss_on_cell(mesh.cell(cid))
        uh = solution.field.eval_on_cell(cid, s, t)[0]
        xy = solution.geometry.field.eval_on_cell(cid, s, t)[0]
        worst = max(worst, float(np.max(np.abs(uh - u_exact(xy[:, 0], xy[:, 1])))))
    return worst


def _report_problems(report):
    problems = []
    if not report.check_dof_accounting():
        problems.append("DOF accounting does not hold")
    if report.final is None or not np.isfinite(report.final.dof):
        problems.append("no finite final DOF count")
    return problems


class FitWorkload:
    """`fit_surface` with strategy 'modified' on a generated point set.

    The seed permutes the point order, as real scans are not grid-ordered.
    """
    seeded = True

    def __init__(self, model, config, grid=(101, 101), must_converge=False):
        self.model = model
        self.config = config
        self.grid = grid
        self.must_converge = must_converge

    def setup(self, seed):
        pset = generate_test_model(self.model, self.grid)
        order = np.random.default_rng(seed).permutation(len(pset))
        return ParamPointSet(pset.points[order], pset.params[order])

    def run(self, pset):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            field, report = fit_surface(pset, self.config, strategy="modified")
        fallbacks = 0
        for w in caught:
            m = _FALLBACK.search(str(w.message))
            if m:
                fallbacks += int(m.group(1))
        return Outcome(field, report, fallbacks)

    def errors(self, outcome):
        """(max_error, h1_error) of one outcome."""
        return outcome.report.final.max_error, fit_h1_error(outcome.result, self.model)

    def check(self, outcome):
        problems = _report_problems(outcome.report)
        if self.must_converge and not outcome.report.converged:
            problems.append("fit did not converge")
        return problems


class SolveWorkload:
    """`adaptive_solve` with strategy 'modified' on a built-in problem.

    There is no random input: the seed changes nothing.
    """
    seeded = False

    def __init__(self, build, config, h1_reference=None):
        self.build = build
        self.config = config
        self.h1_reference = h1_reference

    def setup(self, seed):
        return self.build()

    def run(self, inputs):
        problem, geometry = inputs
        solution, report = adaptive_solve(problem, geometry, self.config, strategy="modified")
        return Outcome(solution, report)

    def errors(self, outcome):
        """(max_error, h1_error) of one outcome."""
        return solve_max_error(outcome.result), outcome.report.final.h1_error

    def check(self, outcome):
        problems = _report_problems(outcome.report)
        h1 = outcome.report.final.h1_error
        if self.h1_reference is not None and not h1 <= self.h1_reference:
            problems.append(f"H1 error {h1!r} above the reference {self.h1_reference}")
        return problems


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "fit_cone": FitWorkload("cone", FitConfig(tolerance=1e-3), must_converge=True),
    "fit_bernstein": FitWorkload("bernstein_sum", FitConfig(tolerance=1e-3, max_levels=5)),
    "solve_lshape": SolveWorkload(functools.partial(lshape_benchmark, 4),
                                  SolveConfig(max_levels=4)),
    # 2.86e-5 is the H1 error at the commit that introduced the benchmark
    "solve_square_uniform": SolveWorkload(
        functools.partial(make_problem, "square_sin", (24, 24)),
        SolveConfig(max_levels=0), h1_reference=2.86e-5),
}
