"""Benchmark of anisoline's two adaptive loops; see bench/README.md.

    python3 bench/run.py --workload fit_cone --seed 1 --seconds 30 --trace 0

Runs the workload in child processes (bench/worker.py), prints every metric
by name with its unit, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 starts one worker
per usable CPU, at most two, each pinned to its CPU, and pools their
samples into the end-to-end metrics.  --trace 1 starts one worker and
reports the per-layer metrics and the tracing overhead.  Full results and
span files go to bench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
MAX_WORKERS = 2
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _start(args, cpu):
    """Starts one worker; returns (result path, process)."""
    tag = "" if cpu is None else f"-cpu{cpu}"
    path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(path)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    return path, subprocess.Popen(cmd, env={**os.environ, **PINNED_THREADS})


def _wait(workers):
    """Exit codes of all workers, or None if one outlived the time limit."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        return [proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                for _, proc in workers]
    except subprocess.TimeoutExpired:
        return None


def _stop(workers):
    """Kills every worker still running and waits for each to end."""
    for _, proc in workers:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _print_summary(results, problems, metrics):
    first = results[0]
    env = first["environment"]
    print(f"workload {first['workload']}  seed {first['seed']} "
          f"({first['seed_note']})  trace {first['trace']}")
    print(f"nproc {env['nproc']} (usable {env['cpus_usable']})  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  commit {env['git_commit']}")
    print(f"numpy BLAS: {env['numpy_blas']}")
    print(f"scipy BLAS: {env['scipy_blas']}")
    for r in results:
        print(f"worker on cpu {r['cpu']}: repetitions attempted {r['attempted']}, "
              f"failed {r['failed']}")
    for kind in ("wall_s", "setup_s"):
        values = [v for r in results for v in r["samples"][kind]]
        if values:
            print(f"raw {kind} samples: {len(values)}, min {min(values):.6g}, "
                  f"median {statistics.median(values):.6g}, max {max(values):.6g}")
    for problem in problems[:5]:
        print(f"PROBLEM: {problem}")
    report = first.get("report")
    if report:
        print(f"converged {report['converged']}  "
              f"DOF per level {[lev['dof'] for lev in report['levels']]}")
        print(f"labels per level {[lev['labels'] for lev in report['levels']]}")
    if first.get("spans_file"):
        print(f"spans: {first['spans_file']}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its workers, in the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    (HERE / "out").mkdir(exist_ok=True)
    cpus = [None] if args.trace else sorted(os.sched_getaffinity(0))[:MAX_WORKERS]
    workers = []
    try:
        workers.extend(_start(args, cpu) for cpu in cpus)
        codes = _wait(workers)
    finally:
        _stop(workers)
    if codes is None:
        print(f"workload {args.workload} did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if any(codes) or not all(path.is_file() for path, _ in workers):
        print(f"workers exited with codes {codes}", file=sys.stderr)
        return next((code for code in codes if code), 1)

    results = [json.loads(path.read_text()) for path, _ in workers]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    if args.trace:
        metrics = results[0]["metrics"]
    else:
        values, disagreement = measure.end_to_end([r["part"] for r in results])
        if disagreement:
            failed += 1
            problems += disagreement
        metrics = {name: {"value": value, "unit": measure.END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    _print_summary(results, problems, metrics)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
