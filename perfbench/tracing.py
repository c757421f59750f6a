"""Spans and call wrappers for the traced benchmark run.

The library itself is not edited.  ``Tracer.install`` binds recording
wrappers over:

* public functions, in every ``casigrat`` module namespace that holds
  them (``from .x import y`` copies the binding, so ``pipeline``,
  ``grating`` and ``cli`` each hold their own ``casimir_pressure_planar``);
* methods of the material, law, model and curve classes;
* ``numpy.linalg.solve``, ``scipy.linalg.eigh`` and
  ``scipy.sparse.linalg.spsolve``, where the library looks them up as
  module attributes;
* ``ProcessPoolExecutor`` where the grating module binds it.

``Tracer.uninstall`` puts every original back.  Spans stay in memory as
(name, start, end, parent, op, attrs) records until the run writes them
out.  Work done inside pool worker processes is not recorded: each
worker holds its own copy of the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_attrs(args, kwargs) -> dict:
    spec = kwargs.get("spec", args[4] if len(args) > 4 else None)
    if spec is None:
        from casigrat import TruncationSpec
        spec = TruncationSpec()
    workers = kwargs.get("workers", args[5] if len(args) > 5 else 1)
    quad = spec.quadrature
    return {"nodes": quad.xi_nodes * quad.kx_nodes, "workers": int(workers)}


def solve_flops(a, b) -> float:
    """Flops of a batched LU solve: 2/3 n^3 to factor plus 2 n^2 per
    right-hand side, for every matrix in the batch (computed from the
    shapes, not counted by hardware)."""
    a_shape = np.shape(a)
    b_shape = np.shape(b)
    n = a_shape[-1]
    batch = int(np.prod(a_shape[:-2])) if len(a_shape) > 2 else 1
    nrhs = b_shape[-1] if len(b_shape) == len(a_shape) else 1
    return batch * (2.0 / 3.0 * n**3 + 2.0 * n * n * nrhs)


def _solve_attrs(args, kwargs) -> dict:
    return {"flop": solve_flops(args[0], args[1])}


def _mesh_result(result) -> dict:
    return {"triangles": int(result.triangles.shape[0])}


# (module, function, span name, attrs from the call, attrs from the result)
FUNCTIONS = (
    ("casigrat.planar", "casimir_pressure_planar", "planar.pressure",
     None, None),
    ("casigrat.planar", "roughness_average", "pfa.roughness", None, None),
    ("casigrat.pfa", "pfa_corrugated", "pfa.corrugated", None, None),
    ("casigrat.pfa", "pfa_share_topbottom", "pfa.corrugated", None, None),
    ("casigrat.grating", "casimir_pressure_grating_grid", "grating.grid",
     _grid_attrs, None),
    ("casigrat.grating", "flat_pressure_law", "grating.flat_law", None, None),
    ("casigrat.grating", "rho_ratio", "grating.rho", None, None),
    ("casigrat.grating", "convergence_sweep", "grating.sweep", None, None),
    ("casigrat.electrostatics", "solve_corrugated_capacitor",
     "electrostatics.cell", None, None),
    ("casigrat.electrostatics", "build_trench_mesh", "electrostatics.mesh",
     None, _mesh_result),
    ("casigrat.electrostatics", "sphere_plane_gradient",
     "electrostatics.series", None, None),
    ("casigrat.calibration", "fem_gradient_model", "calibration.fem_model",
     None, None),
    ("casigrat.calibration", "fit_calibration", "calibration.fit", None, None),
)

# (module, class, method, span name); count-only methods are called
# thousands of times per op from inside scipy.quad and the fit.
METHODS = (
    ("casigrat.materials", "Drude", "epsilon", "materials.eps"),
    ("casigrat.materials", "DrudeLorentz", "epsilon", "materials.eps"),
    ("casigrat.materials", "Tabulated", "epsilon", "materials.eps"),
    ("casigrat.materials", "PerfectConductor", "epsilon", "materials.eps"),
    ("casigrat.curves", "ForceCurve", "to_csv", "curves.csv"),
)
COUNTED_METHODS = (
    ("casigrat.pfa", "FlatForceLaw", "__call__", "pfa.law"),
    ("casigrat.calibration", "GradientModel", "__call__",
     "calibration.model_eval"),
)

# (module, function, span name, recorded only inside this span, attrs)
LINALG = (
    ("numpy.linalg", "solve", "grating.solve", "grating.grid", _solve_attrs),
    ("scipy.linalg", "eigh", "grating.eigh", "grating.grid", None),
    ("scipy.sparse.linalg", "spsolve", "electrostatics.sparse_solve", None,
     None),
)


def import_library() -> None:
    """Import every casigrat module.  A module first imported while the
    tracer is installed would bind the wrappers and keep them."""
    import casigrat

    for info in pkgutil.iter_modules(casigrat.__path__):
        importlib.import_module(f"casigrat.{info.name}")


class Tracer:
    """Records spans and counts while installed; ``op`` labels both."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.op = "op"
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @property
    def op(self) -> str:
        return self._op

    @op.setter
    def op(self, value: str) -> None:
        self._op = value
        self._tally = self.counts.setdefault(value, Counter())

    def _enter(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.op, attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself."""
        idx = self._enter(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self._exit(idx)

    def _spanning(self, fn, name, call_attrs=None, result_attrs=None,
                  inside=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is not None and not tracer._open[inside]:
                return fn(*args, **kwargs)
            attrs = call_attrs(args, kwargs) if call_attrs else {}
            idx = tracer._enter(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if result_attrs is not None:
                tracer.spans[idx].attrs.update(result_attrs(result))
            return result

        return wrapper

    def _counting(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new) -> None:
        """Replace ``original`` in every casigrat module namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "casigrat" and not mod_name.startswith("casigrat."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_library()
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for mod_name, fn_name, span, call_attrs, result_attrs in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            self._rebind(original, self._spanning(original, span, call_attrs,
                                                  result_attrs))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._spanning(vars(cls)[meth], span))
        for mod_name, cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._counting(vars(cls)[meth], name))
        for mod_name, fn_name, span, inside, call_attrs in LINALG:
            owner = importlib.import_module(mod_name)
            original = getattr(owner, fn_name)
            wrapper = self._spanning(original, span, call_attrs, inside=inside)
            self._patch(owner, fn_name, wrapper)
            self._rebind(original, wrapper)

        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer._tally["fanout.pools"] += 1
                super().__init__(*args, **kwargs)

        self._rebind(ProcessPoolExecutor, CountingPool)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


# -- analysis --------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(idx, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def outermost(spans: list[Span], name: str, op: str | None = "op",
              within: str | None = None) -> list[Span]:
    """Spans called ``name`` not nested in another ``name`` span, from one
    op (all ops when ``op`` is None), optionally only those below a span
    called ``within``."""
    return [s for s in spans
            if s.name == name and (op is None or s.op == op)
            and not _has_ancestor(spans, s, name)
            and (within is None or _has_ancestor(spans, s, within))]


def _total(spans: list[Span]) -> float:
    return float(sum(s.duration for s in spans))


def _median_ms(spans: list[Span]) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def _median_attr(spans: list[Span], key: str) -> float:
    return float(statistics.median(s.attrs[key] for s in spans)) if spans else 0.0


def layer_metrics(tracer: Tracer, op: str = "op") -> dict[str, float]:
    """Per-layer numbers of one traced op.  A layer the op never called
    reads 0, so every name is always present."""
    spans = tracer.spans

    def count(name: str) -> int:
        return tracer.counts.get(op, Counter())[name]

    def out(name, within=None):
        return outermost(spans, name, op, within)

    eps = out("materials.eps")
    pressure = out("planar.pressure")
    pfa = out("pfa.corrugated")
    grid = out("grating.grid")
    eigh = out("grating.eigh")
    solve = out("grating.solve")
    serial_grid = [s for s in outermost(spans, "grating.grid", None)
                   if s.attrs["workers"] == 1]
    serial_nodes = sum(s.attrs["nodes"] for s in serial_grid)
    cells = out("electrostatics.cell")
    series = out("electrostatics.series")
    roots = [i for i, s in enumerate(spans) if s.op == op and s.parent is None]
    selfs = self_times(spans)
    return {
        "materials.eps_calls": len(eps),
        "materials.eps_s": _total(eps),
        "planar.pressure_calls": len(pressure),
        "planar.pressure_ms": _median_ms(pressure),
        "pfa.corrugated_calls": len(pfa),
        "pfa.corrugated_ms": _median_ms(pfa),
        "pfa.law_calls": count("pfa.law"),
        "pfa.roughness_s": _total(out("pfa.roughness")),
        "grating.grid_calls": len(grid),
        "grating.grid_s": _total(grid),
        "grating.nodes": _median_attr(grid, "nodes"),
        "grating.node_ms": (1e3 * _total(serial_grid) / serial_nodes
                            if serial_nodes else 0.0),
        "grating.eigh_calls": len(eigh),
        "grating.eigh_s": _total(eigh),
        "grating.solve_calls": len(solve),
        "grating.solve_s": _total(solve),
        "grating.solve_gflop": sum(s.attrs["flop"] for s in solve) / 1e9,
        "grating.flat_law_s": _total(out("grating.flat_law", "grating.rho")),
        "grating.pfa_s": _total(out("pfa.corrugated", "grating.rho")),
        "electrostatics.cell_solves": len(cells),
        "electrostatics.cell_ms": _median_ms(cells),
        "electrostatics.mesh_ms": _median_ms(out("electrostatics.mesh")),
        "electrostatics.sparse_solve_ms": _median_ms(
            out("electrostatics.sparse_solve")),
        "electrostatics.triangles": _median_attr(out("electrostatics.mesh"),
                                                 "triangles"),
        "electrostatics.series_calls": len(series),
        "electrostatics.series_s": _total(series),
        "calibration.fem_model_s": _total(out("calibration.fem_model")),
        "calibration.fit_s": _total(out("calibration.fit")),
        "calibration.model_evals": count("calibration.model_eval"),
        "curves.csv_s": _total(out("curves.csv")),
        "pipeline.self_s": float(sum(selfs[i] for i in roots)),
    }


def spans_as_records(tracer: Tracer) -> list[dict]:
    return [asdict(s) for s in tracer.spans]
