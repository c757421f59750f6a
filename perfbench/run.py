"""Benchmark of the casigrat force stack, driven from outside the library.

Run from the root of a casigrat checkout:

    python3 perfbench/run.py --workload es_calibration --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: ``setup_s`` (the
median wall of several fresh interpreters that import casigrat, load the
workload's materials and parse its config), then ``wall_s`` (median wall
per op after one discarded warm-up op, ops repeated for ``--seconds``)
and ``peak_rss_mb`` in a separate op process.  With ``--trace 1`` it
runs one traced op and reports the per-layer metrics instead.  Every op's
outputs are checked against ``reference.json`` and the workload's
oracles.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 3
OP_TIMEOUT_S = 160
SETUP_CODE = """\
import sys
import casigrat
for name in sys.argv[2:]:
    casigrat.get_material(name)
casigrat.Config.from_file(sys.argv[1])
"""
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def measure_setup(workload, env: dict, root: Path) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE,
            str(root / "configs" / workload.config), *workload.materials]
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=root, capture_output=True,
                              timeout=60)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: "
                               + proc.stderr.decode(errors="replace"))
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "casigrat" / "__init__.py").is_file():
        return fail(f"no casigrat sources under {src}; run from the root of "
                    "a casigrat checkout")
    workload = workloads.WORKLOADS[args.workload]
    if not (root / "configs" / workload.config).is_file():
        return fail(f"missing configs/{workload.config}")

    env = dict(os.environ)
    env.pop("CASIGRAT_WORKERS", None)  # every op runs serially
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        setup = None if args.trace else measure_setup(workload, env, root)
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"),
             "--workload", workload.name, "--root", str(root),
             "--work", str(work), "--out", str(root / ".perfbench_out"),
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"op process exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"environment: {json.dumps(result['env'])}")
    for failure in result["failures"]:
        print(f"failed op: {failure}")
    if args.trace:
        units = per_layer_units()
        values = result["metrics"]
        missing = sorted(set(units) - set(values))
        if missing:
            return fail(f"traced run did not report {missing}")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        print(f"spans written to {result['spans']}")
    else:
        values = {"wall_s": result["wall_s"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        print(f"{workload.name}: {len(result['walls'])} timed ops after 1 "
              f"warm-up, {SETUP_REPEATS} set-ups, max output deviation "
              f"{result['worst_dev']:.3e}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
