"""Child process of run.py: runs one workload and writes its result as JSON.

    python3 bench/worker.py --workload fit_cone --seed 1 --seconds 20 \
        --trace 0 --cpu 0 --result bench/out/fit_cone-seed1-trace0-cpu0.json

Thread pools are pinned to one thread before numpy is imported, and
anisoline is imported from this checkout's src/ only.  With --cpu the
worker runs on that CPU alone.  An untraced run writes its samples, which
run.py pools with the other workers' into the metrics; a traced run
writes its metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import anisoline  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas(module):
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _write_spans(path, spans):
    names = sorted({sp[0] for sp in spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    doc = {"columns": ["name", "start_s", "end_s", "parent"], "names": names,
           "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in spans]}
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--cpu", type=int)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src" / "anisoline").resolve()
    if Path(anisoline.__file__).resolve().parent != src:
        sys.exit(f"anisoline was imported from {anisoline.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": ("permutes the point order" if workload.seeded
                      else "no random input: the seed changes nothing"),
        "trace": args.trace,
        "seconds": args.seconds,
        "cpu": args.cpu,
        "environment": environment(),
    }
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.trace:
        log, metrics, spans = measure.run_traced(workload, args.seed, args.seconds)
        units = measure.per_layer_units()
        if spans is not None:
            spans_path = args.result.with_name(f"{args.workload}-seed{args.seed}.spans.json.gz")
            _write_spans(spans_path, spans)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["metrics"] = {name: {"value": value, "unit": units[name]}
                             for name, value in metrics.items()}
        report = None
    else:
        log, result["part"], report = measure.run_untraced(workload, args.seed, args.seconds)
    result.update({
        "attempted": log.attempted,
        "failed": log.failed,
        "problems": log.problems,
        "samples": {"wall_s": log.wall_s, "setup_s": log.setup_s},
        "report": report,
    })
    args.result.write_text(json.dumps(result, indent=1, default=str))


if __name__ == "__main__":
    main()
