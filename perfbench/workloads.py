"""The benchmark workloads, their output gate and their oracles.

Each op is closed-loop and runs in one process: the next op starts
only after the previous one has returned.  Ops write CSVs into a work
directory; ``collect`` reads them back after the op's timer stops, and
``check`` compares them with the stored reference by relative tolerance
and applies the workload's independent oracles.

Only ``es_calibration`` uses the seed: it draws the noise of the
frequency-shift CSV that ``calibrate`` fits.  The physics recipes are
deterministic, so every seed gives them the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# The shipped rho recipe runs 320 (xi, k_x) nodes for about 33 s.  The
# benchmark keeps its orders, slices, separations and 40-point k_y batch,
# so every node has the real shape and cost, but runs 32 nodes so that
# one op fits several times into a run.
RHO_NODES = {"xi_nodes": 8, "kx_nodes": 4}
# CASIGRAT_WORKERS of the traced fan-out comparison (default BLAS threads)
FANOUT_WORKERS = 2

# Synthetic calibration truth, as in acceptance test 7.
CAL_RADIUS = 151.7e-6  # passed to the CLI as 151.7um
CAL_COEFF = -614.0
CAL_Z0 = 800e-9
CAL_VOLTS = (0.245, 0.300)
CAL_STEPS = 13
CAL_NOISE = 0.01
# The library's reported 1-sigma errors are about half the seed-to-seed
# scatter of the fit (over 2000 seeds: coefficient 7.46 against a
# reported 4.1, standoff 1.80 nm against 0.77 nm), so a 3-sigma gate on
# the reported errors fails about one seed in five.  The recovery gate
# uses 7 x the measured scatter instead (the worst of the 2000 seeds sat
# at 4.9 x); the reported z-score is traced as ``calibration.fit_z``.
CAL_COEFF_TOL = 7 * 7.46
CAL_Z0_TOL = 7 * 1.80e-9


@dataclass
class Context:
    root: Path      # checkout holding src/ and configs/
    work: Path      # scratch directory for this run
    seed: int

    def config(self, name: str) -> Path:
        return self.root / "configs" / name


def _cli(*argv: str) -> None:
    from casigrat.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"casigrat {' '.join(argv)} exited with {code}")


def _curve(path: Path) -> np.ndarray:
    from casigrat import ForceCurve

    return ForceCurve.from_csv(path).values


def _profile(config):
    from casigrat import GratingProfile

    return GratingProfile(
        period=config.quantity("geometry", "period"),
        top_width=config.quantity("geometry", "top_width"),
        floor_width=config.quantity("geometry", "floor_width"),
        depth=config.quantity("geometry", "depth"),
        sidewall_angle_deg=config.quantity("geometry", "wall_angle"))


# -- rho_recipe ------------------------------------------------------------


def rho_op(ctx: Context) -> None:
    import casigrat as cg

    config = cg.Config.from_file(ctx.config("rho_ratio.cfg"))
    spec = cg.TruncationSpec(
        orders=config.integer("solver", "orders"),
        n_slices=config.integer("solver", "slices"),
        quadrature=cg.GratingQuadrature(**RHO_NODES))
    curve = cg.rho_ratio(_profile(config),
                         cg.get_material(config.string("materials", "grating")),
                         cg.get_material(config.string("materials", "plane")),
                         config.grid("grid", "z"), spec,
                         workers=cg.worker_count())
    curve.to_csv(ctx.work / "rho_ratio_rho_theory.csv")


def rho_collect(ctx: Context) -> dict[str, np.ndarray]:
    return {"rho": _curve(ctx.work / "rho_ratio_rho_theory.csv")}


def rho_oracles(out: dict) -> list[str]:
    return [] if np.all(out["rho"] > 1.0) else ["a rho value is not above 1"]


# -- es_calibration --------------------------------------------------------


def es_prepare(ctx: Context) -> None:
    """Write the seeded frequency-shift CSV that ``calibrate`` reads."""
    import casigrat as cg

    samples = cg.synthesize_frequency_shifts(
        CAL_COEFF, CAL_Z0, cg.series_gradient_model(CAL_RADIUS),
        voltages=CAL_VOLTS, z_piezo=np.linspace(0.0, 600e-9, CAL_STEPS),
        noise_frac=CAL_NOISE, rng=np.random.default_rng(ctx.seed))
    cg.write_frequency_shift_samples(ctx.work / "shifts.csv", samples)


def es_op(ctx: Context) -> None:
    _cli("pipeline", "--config", str(ctx.config("electrostatic_gradient.cfg")),
         "--out", str(ctx.work))
    _cli("calibrate", "--input", str(ctx.work / "shifts.csv"),
         "--model", "series", "--radius", "151.7um",
         "--out", str(ctx.work / "fit.csv"))


def es_collect(ctx: Context) -> dict[str, np.ndarray]:
    fit = {}
    with open(ctx.work / "fit.csv", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("quantity"):
                continue
            key, value, sigma = line.strip().split(",")
            fit[key] = (float(value), float(sigma))
    return {
        "flat": _curve(ctx.work / "electrostatic_gradient_flat.csv"),
        "corrugated": _curve(ctx.work / "electrostatic_gradient_corrugated.csv"),
        "fit_coeff": np.array(fit["coeff_m_per_N_s"]),
        "fit_z0": np.array(fit["z0_m"]),
    }


def fit_zscore(out: dict) -> float:
    """Largest |fit - truth| / reported sigma of the two fit parameters."""
    (coeff, coeff_sigma), (z0, z0_sigma) = out["fit_coeff"], out["fit_z0"]
    return max(abs(coeff - CAL_COEFF) / coeff_sigma,
               abs(z0 - CAL_Z0) / z0_sigma)


def es_oracles(out: dict) -> list[str]:
    failures = []
    if not np.all(out["corrugated"] < out["flat"]):
        failures.append("trench gradient not below the flat gradient")
    coeff, z0 = out["fit_coeff"][0], out["fit_z0"][0]
    if not abs(coeff - CAL_COEFF) < CAL_COEFF_TOL:
        failures.append(f"fitted coefficient {coeff:.6g} misses {CAL_COEFF}")
    if not abs(z0 - CAL_Z0) < CAL_Z0_TOL:
        failures.append(f"fitted standoff {z0:.6e} m misses {CAL_Z0} m")
    return failures


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str                  # parsed by the set-up measurement
    materials: tuple[str, ...]   # loaded by the set-up measurement
    op: Callable[[Context], None]
    collect: Callable[[Context], dict]
    tolerances: dict[str, float]  # output -> relative tolerance
    oracles: Callable[[dict], list[str]]  # independent checks
    prepare: Callable[[Context], None] | None = None
    fanout: bool = False  # traced run also times the op with a pool


WORKLOADS = {w.name: w for w in (
    Workload("rho_recipe",
             "rho_ratio.cfg physics (8 orders, 4 slices, 6 z), serial, on "
             "32 (xi, k_x) nodes: grating kernel, flat law and PFA; traced "
             "run adds the 2-worker fan-out",
             "rho_ratio.cfg", ("silicon_doped", "gold_drude"),
             rho_op, rho_collect, {"rho": 5e-4}, rho_oracles, fanout=True),
    Workload("es_calibration",
             "electrostatic pipeline (FEM cell table) then a series-model "
             "calibrate fit of a seeded CSV",
             "electrostatic_gradient.cfg", (),
             es_op, es_collect, {"flat": 1e-9, "corrugated": 5e-3},
             es_oracles, es_prepare),
)}


# -- output gate -----------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def gate(outputs: dict, reference: dict, tolerances: dict) -> tuple[float, list[str]]:
    """Largest relative deviation from the reference over the gated
    outputs, and one message per output outside its tolerance."""
    worst = 0.0
    failures = []
    for name, tol in tolerances.items():
        got = np.asarray(outputs[name], dtype=float)
        ref = np.asarray(reference[name], dtype=float)
        if got.shape != ref.shape or not np.all(np.isfinite(got)):
            failures.append(f"{name}: shape {got.shape} or non-finite values")
            continue
        dev = float(np.max(np.abs(got - ref) / np.abs(ref)))
        worst = max(worst, dev)
        if not dev <= tol:
            failures.append(f"{name}: relative deviation {dev:.3e} > {tol:.0e}")
    return worst, failures


def check(workload: Workload, outputs: dict,
          reference: dict) -> tuple[float, list[str]]:
    worst, failures = gate(outputs, reference[workload.name],
                           workload.tolerances)
    return worst, failures + workload.oracles(outputs)



