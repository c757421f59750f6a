"""Op process of the benchmark: runs one workload's ops and reports them.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON line with the op walls, failures, peak memory
and the environment record (``--trace 0``), or the per-layer metrics of
one traced op (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

MIN_TIMED_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


class Runner:
    """Runs ops of one workload, gating each one's outputs."""

    def __init__(self, workload, ctx, reference) -> None:
        self.workload = workload
        self.ctx = ctx
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.worst_dev = 0.0
        self.last_outputs: dict = {}

    def op(self) -> float:
        """Run one op; return its wall seconds.  Failures are recorded."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.workload.op(self.ctx)
        except Exception:  # an op that raises counts as failed
            wall = time.perf_counter() - start
            self.failures.append(traceback.format_exc(limit=3))
            return wall
        wall = time.perf_counter() - start
        try:
            self.last_outputs = self.workload.collect(self.ctx)
            dev, problems = workloads.check(self.workload, self.last_outputs,
                                            self.reference)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return wall
        self.worst_dev = max(self.worst_dev, dev)
        if problems:
            self.failures.append("; ".join(problems))
        return wall

    @property
    def failed(self) -> int:
        return len(self.failures)


def environment(workload, seed: int, root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "casigrat_workers": os.environ.get("CASIGRAT_WORKERS"),
        "casigrat_workers_traced_fanout": (workloads.FANOUT_WORKERS
                                           if workload.fanout else None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_loop(runner: Runner, seconds: float) -> dict:
    runner.op()  # warm-up, discarded
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_OPS or time.perf_counter() - start < seconds:
        walls.append(runner.op())
    return {"walls": walls, "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb()}


def traced_run(runner: Runner, out_dir: Path) -> dict:
    """One untraced and one traced op after the warm-up.  For a fan-out
    workload the traced op is rerun with a worker pool, so the serial op
    is the single-threaded baseline of the pool."""
    workload = runner.workload
    runner.op()  # warm-up, discarded
    untraced = runner.op()
    tracer = tracing.Tracer()
    parallel = child_cpu = 0.0
    with tracer:
        with tracer.span("op"):
            serial = runner.op()
        if workload.fanout:
            tracer.op = "fanout"
            os.environ["CASIGRAT_WORKERS"] = str(workloads.FANOUT_WORKERS)
            cpu0 = child_cpu_s()
            try:
                with tracer.span("op"):
                    parallel = runner.op()
            finally:
                del os.environ["CASIGRAT_WORKERS"]
            child_cpu = child_cpu_s() - cpu0
    metrics = tracing.layer_metrics(tracer)
    metrics.update({
        "fanout.pools": tracer.counts.get("fanout", {}).get("fanout.pools", 0),
        "fanout.serial_s": serial if parallel else 0.0,
        "fanout.parallel_s": parallel,
        "fanout.efficiency": (serial / (workloads.FANOUT_WORKERS * parallel)
                              if parallel else 0.0),
        "fanout.child_cpu_s": child_cpu,
        "calibration.fit_z": (workloads.fit_zscore(runner.last_outputs)
                              if "fit_z0" in runner.last_outputs else 0.0),
        "trace.overhead_s": serial - untraced,
        "out.rel_dev": runner.worst_dev,
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{runner.ctx.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracing.spans_as_records(tracer), fh)
    return {"metrics": metrics, "spans": str(spans_path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(root=args.root, work=args.work, seed=args.seed)
    if workload.prepare is not None:
        workload.prepare(ctx)
    import casigrat  # noqa: F401  (import outside the timed ops)

    runner = Runner(workload, ctx, workloads.load_reference())
    if args.trace:
        result = traced_run(runner, args.out)
    else:
        result = timed_loop(runner, args.seconds)
    result.update({"attempted": runner.attempted, "failed": runner.failed,
                   "failures": runner.failures, "worst_dev": runner.worst_dev,
                   "env": environment(workload, args.seed, args.root)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
