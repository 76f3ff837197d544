"""Measurement loops of one benchmark run.

An untraced run repeats (set-up, public call) for `seconds` and returns
its samples; `end_to_end` pools the samples of the workers that run.py
starts, one per CPU, into the end-to-end metrics.  A traced run alternates
an untraced and a traced repetition, reports the per-layer metrics and the
tracing overhead, and requires both kinds of repetition to give the same
output.

Every timing is a median over the run's samples.  The work is deterministic
and single-threaded, but on a shared host the same code runs at its best
speed or up to twice as slow, in stretches of a fraction of a second to
minutes, each virtual CPU on its own (see README.md).  So an untraced run
samples the host's speed while it runs (hostspeed.py) and rescales every
sample to one reference speed; workers on both CPUs and set-ups sampled
all through the run give the median many samples.  The result files keep
every sample, raw as well as rescaled.  A traced run reports raw times.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext

from hostspeed import HostSpeed
from tracing import TRACED_NAMES, Tracer, self_times

# after each call, set-ups are repeated for up to this share of the call's
# time, so that a set-up of milliseconds is sampled all through the run
SETUP_SHARE = 0.05
FIT_PHASES = ("controls", "errors", "label", "refine")
SOLVE_PHASES = ("solve", "estimate", "refine")
REFINE_COUNTS = ("marked", "cells_split", "labels_overridden", "new_basis_vertices")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "dof": "count",
    "max_error": "1", "h1_error": "1",
}


def per_layer_units():
    """Name -> unit of every metric a traced run reports."""
    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for count in REFINE_COUNTS:
        units[f"refine.{count}"] = "count"
    units["solver.unknowns"] = "count"
    units["fitting.points_relocated"] = "count"
    units["fitting.fallbacks"] = "count"
    for phase in dict.fromkeys(FIT_PHASES + SOLVE_PHASES):
        units[f"report.{phase}_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class RunLog:
    """Counts, samples and problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []    # (start, end) of every timed set-up
        self.calls = []     # (start, end) of every timed untraced call

    @property
    def setup_s(self):
        return [t1 - t0 for t0, t1 in self.setups]

    @property
    def wall_s(self):
        return [t1 - t0 for t0, t1 in self.calls]

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(problems)

    def sample_setups(self, workload, seed):
        """Time further set-ups for up to SETUP_SHARE of the last call."""
        budget = SETUP_SHARE * (self.calls[-1][1] - self.calls[-1][0])
        spent = 0.0
        last = self.setups[-1][1] - self.setups[-1][0]
        while spent + last <= budget:
            t0 = time.perf_counter()
            workload.setup(seed)
            t1 = time.perf_counter()
            self.setups.append((t0, t1))
            last = t1 - t0
            spent += last


def _rounds(seconds, reference):
    """Yields once per round of a run: a first round, then another as long
    as one as long as the last still ends within `seconds`.  The time the
    reference spent on errors does not count in a round's length, because
    only the first rounds compute them."""
    start = last_end = time.perf_counter()
    counted = 0.0
    while True:
        yield
        now = time.perf_counter()
        length = now - last_end - (reference.error_s - counted)
        counted = reference.error_s
        if now - start + length > seconds:
            return
        last_end = now


def end_to_end(parts):
    """The end-to-end metrics of a run made by one or more workers, from
    what each worker's `run_untraced` returned as its part.

    Returns (metrics, problems).  The workers must agree on the outputs; a
    run without a single good repetition has no metrics.
    """
    outputs = [part["outputs"] for part in parts]
    if None in outputs:
        return {}, []
    if any(out != outputs[0] for out in outputs):
        return {}, [f"the workers' outputs differ: {outputs}"]
    return {
        "wall_s": statistics.median(t for part in parts for t in part["wall_s"]),
        "setup_s": statistics.median(s for part in parts for s in part["setup_s"]),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        **outputs[0],
    }, []


def _nonfinite(outcome, errors):
    values = {"dof": outcome.report.final.dof, "max_error": errors[0], "h1_error": errors[1]}
    return [f"{k} is not finite: {v!r}" for k, v in values.items()
            if v is None or not math.isfinite(v)]


class _Reference:
    """The first good output of a run; later repetitions must match it."""

    def __init__(self):
        self.signature = None
        self.errors = None
        self.error_s = 0.0      # time spent computing errors

    def _errors(self, workload, outcome):
        t0 = time.perf_counter()
        errors = workload.errors(outcome)
        self.error_s += time.perf_counter() - t0
        return errors

    def compare(self, workload, outcome, with_errors):
        """Problems of `outcome` relative to the reference, setting it first."""
        if self.signature is None:
            self.signature = outcome.signature()
            self.errors = self._errors(workload, outcome)
            return _nonfinite(outcome, self.errors)
        problems = []
        if outcome.signature() != self.signature:
            problems.append("output differs from the run's first repetition")
        if with_errors and self._errors(workload, outcome) != self.errors:
            problems.append("errors differ from the run's first repetition")
        return problems


def _attempt(log, workload, seed, reference, calls, tracer=None, with_errors=False):
    """One counted repetition: a timed set-up and a timed public call, then
    the output checks.  A tracer is installed around the set-up and the call
    only.  The call's (start, end) goes to `calls`.  Returns the outcome and
    the call's (start, end), which is None if the repetition failed."""
    log.attempted += 1
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        with tracer if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            with span("bench.setup"):
                inputs = workload.setup(seed)
            t1 = time.perf_counter()
            with span("bench.call"):
                outcome = workload.run(inputs)
            t2 = time.perf_counter()
        log.setups.append((t0, t1))
        calls.append((t1, t2))
        problems = workload.check(outcome) + reference.compare(workload, outcome, with_errors)
    except Exception:
        log.fail([traceback.format_exc(limit=8)])
        return None, None
    if problems:
        log.fail(problems)
        return outcome, None
    return outcome, (t1, t2)


def run_untraced(workload, seed, seconds):
    """End-to-end run of one worker; returns (log, part, report of the first
    good repetition), where `end_to_end` turns parts into metrics."""
    log = RunLog()
    reference = _Reference()
    report = None
    good = []               # (start, end) of the calls that passed their checks
    with HostSpeed() as speed:
        for _ in _rounds(seconds, reference):
            outcome, call = _attempt(log, workload, seed, reference, log.calls)
            if call is not None:
                good.append(call)
                if report is None:
                    report = outcome.report.to_json_dict()
            # free this repetition's output before the next, so that peak
            # memory does not grow with the number of repetitions
            outcome = None
            gc.collect()
            if log.calls:
                log.sample_setups(workload, seed)
    part = {
        "wall_s": [speed.scaled(t0, t1) for t0, t1 in good],
        "setup_s": [speed.scaled(t0, t1) for t0, t1 in log.setups],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": None,
    }
    if good:
        part["outputs"] = {"dof": report["levels"][-1]["dof"],
                           "max_error": reference.errors[0], "h1_error": reference.errors[1]}
    return log, part, report


def _layer_counts(spans, timed, outcome, counts):
    """The count metrics of one traced repetition."""
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = timed.get(name, (0.0, 0))[1]
    for count in REFINE_COUNTS:
        out[f"refine.{count}"] = counts[count]
    out["solver.unknowns"] = counts["unknowns"]
    names = [sp[0] for sp in spans]
    out["fitting.points_relocated"] = sum(
        1 for name, _, _, parent in spans
        if name == "tmesh.locate_cell" and parent >= 0 and names[parent] == "fitting.update_cells")
    out["fitting.fallbacks"] = outcome.fallbacks
    return out


def _observers(counts):
    def on_refine(result):
        _, rep = result
        counts["marked"] += len(rep.proposed_labels)
        counts["cells_split"] += len(rep.performed)
        counts["labels_overridden"] += sum(
            1 for cid, lab in rep.final_labels.items() if rep.proposed_labels.get(cid) != lab)
        counts["new_basis_vertices"] += len(rep.new_basis_vertices)
        if rep.t_to_crossing:
            raise RuntimeError(f"refinement promoted T-vertices: {rep.t_to_crossing}")

    def on_impose(system):
        counts["unknowns"] = system.matrix.shape[0]

    return {"refine.refine": on_refine, "solver.impose_boundary_conditions": on_impose}


def run_traced(workload, seed, seconds):
    """Per-layer run; returns (log, metrics, spans of the first traced rep)."""
    log = RunLog()
    reference = _Reference()
    traced_calls = []
    plain, traced = [], []  # call times of the good untraced / traced repetitions
    reps = []               # per traced repetition: (self times, phase seconds)
    first_counts = None
    first_spans = None
    for _ in _rounds(seconds, reference):
        _, call = _attempt(log, workload, seed, reference, log.calls)
        if call is not None:
            plain.append(call[1] - call[0])
        gc.collect()
        counts = Counter()
        tracer = Tracer(_observers(counts))
        outcome, call = _attempt(log, workload, seed, reference, traced_calls, tracer,
                                 with_errors=first_counts is None)
        if call is None:
            continue
        traced.append(call[1] - call[0])
        phases = Counter()
        for lev in outcome.report.levels:
            phases.update(lev.seconds)
        timed = self_times(tracer.spans)
        reps.append((timed, phases))
        if first_counts is None:
            first_counts = _layer_counts(tracer.spans, timed, outcome, counts)
            first_spans = tracer.spans
        outcome = tracer = None
        gc.collect()
    metrics = {}
    if reps and plain:
        for name in TRACED_NAMES:
            metrics[f"{name}.self_s"] = statistics.median(
                timed.get(name, (0.0, 0))[0] for timed, _ in reps)
        metrics.update(first_counts)
        for phase in dict.fromkeys(FIT_PHASES + SOLVE_PHASES):
            metrics[f"report.{phase}_s"] = statistics.median(p[phase] for _, p in reps)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return log, metrics, first_spans
