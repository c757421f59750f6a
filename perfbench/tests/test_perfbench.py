"""Tests of the benchmark's own machinery.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import casigrat  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute the tracer may touch, by identity."""
    import numpy.linalg
    import scipy.linalg
    import scipy.sparse.linalg

    tracing.import_library()
    owners = [m for n, m in sys.modules.items()
              if n == "casigrat" or n.startswith("casigrat.")]
    owners += [numpy.linalg, scipy.linalg, scipy.sparse.linalg]
    owners += [getattr(sys.modules[mod], cls)
               for mod, cls, *_ in tracing.METHODS + tracing.COUNTED_METHODS]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_restore_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        assert casigrat.grating.casimir_pressure_planar is not \
            before[(id(casigrat.grating), "casimir_pressure_planar")]
        assert np.linalg.solve is not before[(id(np.linalg), "solve")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    wrapped = [k for k in before if during[k] is not before[k]]
    # planar pressure alone is bound in planar, pipeline, grating, cli,
    # checks and the package namespace
    assert len(wrapped) > 30


def test_every_planar_binding_is_wrapped():
    original = casigrat.planar.casimir_pressure_planar
    holders = [n for n, m in sys.modules.items()
               if n.startswith("casigrat")
               and getattr(m, "casimir_pressure_planar", None) is original]
    assert {"casigrat.pipeline", "casigrat.grating", "casigrat.cli"} <= set(holders)
    with tracing.Tracer():
        for name in holders:
            assert sys.modules[name].casimir_pressure_planar is not original


def _span(name, start, end, parent=None, op="op"):
    return tracing.Span(name, start, end, parent, op)


def test_self_time_on_synthetic_tree():
    spans = [
        _span("op", 0.0, 10.0),              # 0
        _span("a", 1.0, 4.0, parent=0),      # 1
        _span("b", 5.0, 9.0, parent=0),      # 2
        _span("c", 2.0, 3.0, parent=1),      # 3
        _span("c", 6.0, 7.5, parent=2),      # 4
        _span("d", 7.0, 8.0, parent=2),      # 5, overlaps 4
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0, 4.0 - 2.0, 1.0, 1.5, 1.0])


def test_outermost_skips_nested_same_name():
    spans = [
        _span("op", 0.0, 10.0),
        _span("pfa", 1.0, 4.0, parent=0),
        _span("pfa", 2.0, 3.0, parent=1),
        _span("pfa", 5.0, 6.0, parent=0, op="serial"),
    ]
    assert [s.start for s in tracing.outermost(spans, "pfa")] == [1.0]
    assert len(tracing.outermost(spans, "pfa", op=None)) == 2


def test_solve_flops_from_shapes():
    a = np.zeros((5, 4, 4))
    b = np.zeros((5, 4, 3))
    assert tracing.solve_flops(a, b) == pytest.approx(5 * (2 / 3 * 64 + 2 * 16 * 3))
    assert tracing.solve_flops(np.zeros((4, 4)), np.zeros(4)) == \
        pytest.approx(2 / 3 * 64 + 2 * 16)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_rejects_scaled_result(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    for output, tol in workload.tolerances.items():
        ref = np.asarray(reference[output])
        close = dict(reference, **{output: ref * (1.0 + 0.5 * tol)})
        far = dict(reference, **{output: ref * (1.0 + 2.0 * tol)})
        assert workloads.gate(close, reference, workload.tolerances)[1] == []
        dev, failures = workloads.gate(far, reference, workload.tolerances)
        assert dev == pytest.approx(2.0 * tol)
        assert len(failures) == 1 and failures[0].startswith(output)


def test_oracles_flag_broken_physics():
    assert workloads.rho_oracles({"rho": np.array([1.1, 0.99])})
    flat = np.array([2.0, 1.0])
    good = {"flat": flat, "corrugated": 0.9 * flat,
            "fit_coeff": np.array([workloads.CAL_COEFF, 4.0]),
            "fit_z0": np.array([workloads.CAL_Z0, 1e-9])}
    assert workloads.es_oracles(good) == []
    assert workloads.es_oracles(dict(good, corrugated=1.1 * flat))
    assert workloads.es_oracles(
        dict(good, fit_coeff=np.array([0.9 * workloads.CAL_COEFF, 4.0])))


def _traced_counts(tmp_path) -> dict:
    workload = workloads.WORKLOADS["es_calibration"]
    tmp_path.mkdir()
    ctx = workloads.Context(root=ROOT, work=tmp_path, seed=0)
    workload.prepare(ctx)
    tracer = tracing.Tracer()
    with tracer, tracer.span("op"):
        workload.op(ctx)
    metrics = tracing.layer_metrics(tracer)
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    return {k: v for k, v in metrics.items() if units[k] == "count"}


def _spec() -> dict:
    import json

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert first == second
    assert first["electrostatics.cell_solves"] == 48


def test_layer_metrics_cover_the_spec():
    names = set(tracing.layer_metrics(tracing.Tracer()))
    extra = {"fanout.pools", "fanout.serial_s", "fanout.parallel_s",
             "fanout.efficiency", "fanout.child_cpu_s", "calibration.fit_z",
             "trace.overhead_s", "out.rel_dev"}
    assert names | extra == {m["name"] for m in _spec()["per_layer"]}
