"""pplad benchmark: one workload (or all) for a fixed time, end to end or traced per layer.

    python3 bench/run.py --workload builtin-repro --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Prints an environment stamp, the metrics by name with their
units, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, and the spans are written to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: steadier on a small shared machine, and never more than nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("builtin-repro", "qcqp-dense", "cli-file")

END_TO_END = (
    ("op_p50_s", "s"),
    ("us_per_iter", "us"),
    ("iters_to_tol", "count"),
    ("setup_s", "s"),
    ("peak_mib", "MiB"),
)


def _import_package():
    """Import pplad from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import pplad
    if Path(pplad.__file__).resolve().parent != ROOT / "src" / "pplad":
        raise ImportError(f"pplad imported from {pplad.__file__}, not from {ROOT / 'src'}")


def environment():
    import numpy as np
    try:
        top, commit = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() != ROOT:   # a repository around the checkout, not this one
            commit = "unknown"
    except (OSError, ValueError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": commit}


def measure(workload_cls, seed, seconds, trace, workdir):
    """Set up, warm up, then run whole operations for ``seconds``; return the result dict."""
    from tracing import PER_LAYER, NullTracer, Tracer, per_layer_medians

    null = NullTracer()
    tracer = Tracer() if trace else null
    wl = workload_cls(seed, workdir)
    setup_s = []
    for _ in range(wl.setups):
        tracer.begin_unit()
        setup_s.append(wl.setup(tracer))

    attempted = failed = 0
    samples = {True: [], False: []}     # traced? -> [(op seconds, OpResult)] of passed ops

    def one(traced):
        """Run and check one operation; keep its time only if it passed."""
        nonlocal attempted, failed
        tr = tracer if traced else null
        tr.begin_unit()
        attempted += 1
        try:
            start = time.perf_counter()
            result = wl.operation(tr)
            elapsed = time.perf_counter() - start
            failures = wl.check(result.outputs)
        except Exception:
            failures = [traceback.format_exc()]
        if failures:
            failed += 1
            print(f"{wl.name}: operation {attempted} failed: {'; '.join(failures[:3])}",
                  file=sys.stderr)
            return
        for name, value in result.counts.items():
            tr.count(name, value)
        samples[traced].append((elapsed, result))

    one(False)                          # warm-up
    samples[False].clear()
    deadline = time.perf_counter() + seconds
    while True:
        one(False)
        if trace:
            one(True)
        if time.perf_counter() >= deadline:
            break

    plain = samples[False]
    if not plain or (trace and not samples[True]):
        raise RuntimeError(f"{wl.name}: every operation failed")
    if not trace:
        values = {
            "op_p50_s": statistics.median(t for t, _ in plain),
            "us_per_iter": statistics.median(
                1e6 * (t if r.solve_s is None else r.solve_s) / r.iterations for t, r in plain),
            "iters_to_tol": statistics.median(r.iterations for _, r in plain),
            "setup_s": statistics.median(setup_s),
            "peak_mib": wl.peak_mib(),
        }
        units = dict(END_TO_END)
    else:
        values = per_layer_medians(tracer.unit_metrics())
        traced_p50 = statistics.median(t for t, _ in samples[True])
        plain_p50 = statistics.median(t for t, _ in plain)
        values.update({"trace.op_p50_s": traced_p50, "trace.untraced_op_p50_s": plain_p50,
                       "trace.overhead_pct": 100.0 * (traced_p50 / plain_p50 - 1.0)})
        units = dict(PER_LAYER)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{wl.name}-seed{seed}.npz")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": len(plain)}


def _print_result(name, result):
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"timed operations {result['samples']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment()))
    results = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                    workdir)
            _print_result(name, results[name])
    for result in results.values():
        del result["samples"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
