"""End-to-end recipes that chain the solvers into publishable curves.

Each recipe takes a parsed Config and returns named ForceCurve objects;
``run_pipeline`` dispatches on the ``[pipeline] task`` key and writes the
curves under an output directory as CSV with a provenance header (config
digest, truncation, quadrature).  Every numeric path is deterministic:
identical configs give byte-identical CSV bodies.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .calibration import fem_gradient_model
from .config import Config, ConfigError
from .curves import ForceCurve
from .electrostatics import (SpherePlaneES, _meshing_profile,
                             sphere_plane_gradient)
from .geometry import GratingProfile, reference_trench_profile
from .grating import TruncationSpec, rho_ratio
from .materials import get_material
from .pfa import flat_pressure_law, pfa_corrugated
# casimir_pressure_planar stays bound here for perfbench's tracer tests
from .planar import (RoughnessSpec, casimir_pressure_planar,  # noqa: F401
                     roughness_average)

TASKS = ("flat_force_gradient", "rho_ratio", "electrostatic_gradient")

_DEFAULT_RADIUS = 50e-6
_DEFAULT_Z = "100:600:25nm"


def worker_count() -> int:
    """Worker processes for the grating z-grid fan-out, from the
    CASIGRAT_WORKERS environment variable (default 1)."""
    raw = os.environ.get("CASIGRAT_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CASIGRAT_WORKERS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError("CASIGRAT_WORKERS must be >= 1")
    return n


def _profile_from_config(config: Config) -> GratingProfile:
    ref = reference_trench_profile()
    values = dict(
        period=config.quantity("geometry", "period", ref.period),
        top_width=config.quantity("geometry", "top_width", ref.top_width),
        floor_width=config.quantity("geometry", "floor_width",
                                    ref.floor_width),
        depth=config.quantity("geometry", "depth", ref.depth),
        sidewall_angle_deg=config.quantity("geometry", "wall_angle",
                                           ref.sidewall_angle_deg))
    try:
        return GratingProfile(**values)
    except ValueError as exc:
        raise ConfigError(f"[geometry]: {exc}") from exc


def _base_metadata(config: Config, task: str) -> dict:
    return {"task": task, "inputs": config.digest()}


def flat_force_gradient_curve(config: Config) -> dict[str, ForceCurve]:
    """Sphere-plane Casimir force gradient on a flat surface.

    The half-space pressure law is tabulated over the grid padded by the
    largest roughness offset, optionally averaged over the combined
    surface-roughness height distribution, and mapped to the sphere by
    2 pi R.  Values are positive (gradient of an attractive force).
    """
    sphere = config.string("materials", "sphere", "gold_drude")
    plane = config.string("materials", "plane", "silicon_doped")
    mat_a, mat_b = get_material(sphere), get_material(plane)
    radius = config.quantity("sphere", "radius", _DEFAULT_RADIUS)
    z_grid = config.grid("grid", "z", _DEFAULT_Z)

    rough_on = config.boolean("roughness", "enabled", True)
    spec = None
    pad = 0.0
    if rough_on:
        spec = RoughnessSpec.combined_gaussian(
            config.quantity("roughness", "sphere_rms", 4e-9),
            config.quantity("roughness", "plane_rms", 0.6e-9),
            config.integer("roughness", "n_points", 21))
        pad = float(np.max(np.abs(spec.offsets)))

    n_table = config.integer("solver", "table_points", 48)
    law = flat_pressure_law(mat_a, mat_b, float(z_grid[0]) - pad,
                            float(z_grid[-1]) + pad, n_table)
    if spec is not None:
        avg = np.array([roughness_average(law, z, spec) for z in z_grid])
    else:
        avg = law(z_grid)
    grad = 2.0 * np.pi * radius * np.abs(avg)

    meta = _base_metadata(config, "flat_force_gradient")
    meta.update({"materials": f"{sphere}/{plane}",
                 "radius_um": f"{radius * 1e6:.6g}",
                 "roughness": "on" if rough_on else "off",
                 "quadrature": "refined to rtol 1e-6",
                 "table_points": str(n_table)})
    curve = ForceCurve(z_grid, grad, unit="N/m",
                       label="sphere-plane casimir force gradient",
                       metadata=meta)
    return {"force_gradient": curve}


def rho_ratio_curves(config: Config) -> dict[str, ForceCurve]:
    """Exact-to-proximity force ratio for the trench grating.

    Returns the theory curve, and additionally a measured-ratio curve
    when ``[measured] gradient_csv`` points at a sphere force-gradient
    CSV: the ingested gradient is divided by the proximity-force
    prediction 2 pi R |P_pfa| on its own grid.
    """
    profile = _profile_from_config(config)
    grating_mat = config.string("materials", "grating", "silicon_doped")
    plane_mat = config.string("materials", "plane", "gold_drude")
    model_g, model_p = get_material(grating_mat), get_material(plane_mat)
    z_grid = config.grid("grid", "z", "100:250:30nm")
    spec = TruncationSpec(orders=config.integer("solver", "orders", 8),
                          n_slices=config.integer("solver", "slices", 4))
    workers = worker_count()

    theory = rho_ratio(profile, model_g, model_p, z_grid, spec,
                       workers=workers)
    meta = _base_metadata(config, "rho_ratio")
    meta.update({"materials": f"{grating_mat}/{plane_mat}",
                 "orders": str(spec.orders),
                 "staircase_slices": str(spec.n_slices),
                 "quadrature": f"{spec.quadrature.xi_nodes}x"
                               f"{spec.quadrature.kx_nodes}x"
                               f"{spec.quadrature.ky_nodes} nodes"})
    curves = {"rho_theory": ForceCurve(theory.z, theory.values,
                                       unit=theory.unit, label=theory.label,
                                       metadata=meta)}

    measured_path = config.string("measured", "gradient_csv", "")
    if measured_path:
        radius = config.quantity("sphere", "radius", _DEFAULT_RADIUS)
        measured = ForceCurve.from_csv(measured_path)
        law = flat_pressure_law(model_p, model_g, float(np.min(measured.z)),
                                float(np.max(measured.z)) + profile.depth)
        pfa_grad = np.array([2.0 * np.pi * radius
                             * abs(pfa_corrugated(law, profile, z))
                             for z in measured.z])
        meta_m = dict(meta)
        meta_m["task"] = "rho_measured"
        curves["rho_measured"] = ForceCurve(
            measured.z, measured.values / pfa_grad, unit="dimensionless",
            label="measured-to-pfa gradient ratio", metadata=meta_m)
    return curves


def electrostatic_gradient_curves(config: Config) -> dict[str, ForceCurve]:
    """Electrostatic sphere force gradients over flat and trenched cells.

    The flat curve uses the exact sphere-plane series; the corrugated one
    maps periodic-cell field energies to the sphere through the
    close-proximity relation.  The corrugated gradient lies strictly
    below the flat one at equal separation.
    """
    profile = _profile_from_config(config)
    try:
        _meshing_profile(profile)
    except ValueError as exc:
        raise ConfigError(f"[geometry]: {exc}") from exc
    radius = config.quantity("sphere", "radius", _DEFAULT_RADIUS)
    volt = config.quantity("voltage", "applied", 0.3)
    v0 = config.quantity("voltage", "residual", 0.0)
    z_grid = config.grid("grid", "z", _DEFAULT_Z)

    flat_vals = np.array([sphere_plane_gradient(
        SpherePlaneES(R=radius, d=z, V=volt, V0=v0)) for z in z_grid])
    model = fem_gradient_model(
        profile, radius, z_min=float(z_grid[0]), z_max=float(z_grid[-1]),
        n_points=config.integer("solver", "table_points", 48), v0=v0)
    corr_vals = np.array([model(z, volt) for z in z_grid])

    meta = _base_metadata(config, "electrostatic_gradient")
    meta.update({"radius_um": f"{radius * 1e6:.6g}",
                 "voltage_v": f"{volt:.6g}", "residual_v": f"{v0:.6g}"})
    meta_f = dict(meta)
    meta_f["surface"] = "flat"
    meta_c = dict(meta)
    meta_c["surface"] = "trench"
    return {
        "flat": ForceCurve(z_grid, flat_vals, unit="N/m",
                           label="electrostatic gradient, flat surface",
                           metadata=meta_f),
        "corrugated": ForceCurve(z_grid, corr_vals, unit="N/m",
                                 label="electrostatic gradient, trench cell",
                                 metadata=meta_c),
    }


_TASK_FNS = {
    "flat_force_gradient": flat_force_gradient_curve,
    "rho_ratio": rho_ratio_curves,
    "electrostatic_gradient": electrostatic_gradient_curves,
}


def run_pipeline(config: Config, out_dir="out") -> list[Path]:
    """Dispatch on ``[pipeline] task`` and write one CSV per curve.

    File names are ``<task>_<curve>.csv``; reruns with the same config
    rewrite identical bytes.
    """
    task = config.string("pipeline", "task")
    if task not in _TASK_FNS:
        raise ConfigError(f"unknown pipeline task {task!r}; "
                          f"choose from {TASKS}")
    curves = _TASK_FNS[task](config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(curves):
        path = out / f"{task}_{name}.csv"
        curves[name].to_csv(path)
        written.append(path)
    return written
