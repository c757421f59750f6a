"""Write reference.json: every gated output of one op per workload.

Run from the root of a checkout whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

Only outputs with a tolerance are stored; they do not depend on the seed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    os.environ.pop("CASIGRAT_WORKERS", None)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            ctx = workloads.Context(root=Path.cwd(), work=Path(tmp), seed=0)
            if workload.prepare is not None:
                workload.prepare(ctx)
            workload.op(ctx)
            outputs = workload.collect(ctx)
        reference[name] = {k: [float(v) for v in outputs[k]]
                           for k in workload.tolerances}
        print(f"{name}: {', '.join(sorted(reference[name]))}")
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
