"""Per-level records, and `run_adaptive`, the one adaptive driver of
surface fitting (`fitting.fit_surface`) and of the Poisson solver
(`solver.adaptive_solve`)."""

from __future__ import annotations

import logging
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["LevelRecord", "AdaptiveReport", "run_adaptive"]

_log = logging.getLogger("anisoline")
_ERROR_FIELDS = ("max_error", "mean_error", "eta_total", "l2_error", "h1_error")


def _check_count(name, value, least, meaning=""):
    """Raise a ValueError naming the config field `name` unless `value` is
    an integer >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}{meaning}, got {value!r}")


@dataclass
class LevelRecord:
    level: int
    dof: int
    new_functions: int = 0          # 4 * (new basis vertices this level)
    modified_functions: int = 0
    marked: int = 0
    labels: dict = field(default_factory=dict)   # histogram over final labels
    proposed: dict = field(default_factory=dict)  # histogram over labels sent to refine
    overridden: int = 0             # cells whose final label is not the proposed one
    max_error: float = None
    mean_error: float = None
    eta_total: float = None
    l2_error: float = None
    h1_error: float = None
    solve_residual: float = None    # relative residual of the linear solve
    bandwidth: int = None           # lower bandwidth of the solved system
    seconds: dict = field(default_factory=dict)  # phase -> wall time

    def to_json_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class AdaptiveReport:
    levels: list = field(default_factory=list)
    converged: bool = False
    strategy: str = "modified"

    def add(self, record):
        if self.levels and record.dof < self.levels[-1].dof:
            raise ValueError("DOF count decreased across levels")
        self.levels.append(record)

    @property
    def final(self):
        return self.levels[-1] if self.levels else None

    def to_json_dict(self):
        return {"strategy": self.strategy, "converged": self.converged,
                "levels": [r.to_json_dict() for r in self.levels]}

    def check_dof_accounting(self):
        """DOF_k = DOF_{k-1} + new functions, strictly increasing while refining."""
        for prev, cur in zip(self.levels, self.levels[1:]):
            if cur.dof != prev.dof + cur.new_functions:
                return False
            if cur.new_functions and cur.dof <= prev.dof:
                return False
        return True


def run_adaptive(space, strategy, max_levels, estimate, label, advance):
    """Levels 0..max_levels from `space`, one log line each: estimate, mark
    the current level's cells above the bound, label H/V/C ('C' under
    'cross_only'), refine; returns the `AdaptiveReport`.  The hooks give:
    `estimate(space, level)` (the other `LevelRecord` fields, cell -> error,
    a missing cell reading 0, the bound, whether the level meets the goal,
    None meaning "nothing is marked"); `label(marked)` the proposed labels;
    `advance(space, labels)` (next space, `RefinementReport`).  The loop
    stops at the first level that meets the goal, marks nothing or is
    `max_levels`, and `converged` is that level's `met`."""
    if strategy not in ("modified", "cross_only"):
        raise ValueError(f"unknown strategy {strategy!r}")
    report = AdaptiveReport(strategy=strategy)
    new, modified = space.dim, 0
    for level in range(max_levels + 1):
        fields, errors, bound, met = estimate(space, level)
        marked = [cid for cid in space.mesh.cells_of_level(level)
                  if errors.get(cid, 0.0) > bound]
        met = not marked if met is None else met
        rec = LevelRecord(level=level, dof=space.dim, new_functions=new,
                          modified_functions=modified, marked=len(marked), **fields)
        report.add(rec)
        done = met or not marked or level == max_levels
        if not done:
            t0 = time.perf_counter()
            labels = label(marked)
            if strategy == "cross_only":
                labels = {cid: "C" for cid in labels}
            t1 = time.perf_counter()
            old, (space, rrep) = space, advance(space, labels)
            rec.seconds.update(label=t1 - t0, refine=time.perf_counter() - t1)
            rec.proposed = dict(Counter(labels.values()))
            rec.labels = dict(Counter(rrep.final_labels.values()))
            rec.overridden = sum(rrep.proposed_labels.get(cid) != lab
                                 for cid, lab in rrep.final_labels.items())
            new = 4 * len(rrep.new_basis_vertices)
            modified = len(old.functions_on_cells(rrep.performed))
        _log.info("level %d: %d DOF, %d marked, labels %s, %s", level, rec.dof, rec.marked,
                  rec.labels, {k: v for k, v in rec.to_json_dict().items() if k in _ERROR_FIELDS})
        if done:
            break
    report.converged = bool(met)
    return report
