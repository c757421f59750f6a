"""End-to-end recipes that chain the solvers into publishable curves.

Each recipe takes a parsed Config and returns named ForceCurve objects;
``run_pipeline`` dispatches on the ``[pipeline] task`` key and writes the
curves under an output directory as CSV with a provenance header (config
digest, truncation, quadrature).  Every numeric path is deterministic:
identical configs give byte-identical CSV bodies.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import fem_gradient_model
from .config import Config, ConfigError, named
from .curves import ForceCurve, write_curves
from .electrostatics import SpherePlaneES, _meshing_profile, sphere_plane_gradient
from .geometry import GratingProfile
from .grating import TruncationSpec, rho_ratio
from .materials import get_material
from .pfa import flat_pressure_law, pfa_corrugated
# casimir_pressure_planar stays bound here for perfbench's tracer tests
from .planar import (RoughnessSpec, casimir_pressure_planar,  # noqa: F401
                     roughness_average)


def _profile_from_config(config: Config) -> GratingProfile:
    values = [config.quantity("geometry", key) for key in
              ("period", "top_width", "floor_width", "depth", "wall_angle")]
    with named("[geometry]:"):
        return GratingProfile(*values)


def _meshable_profile_from_config(config: Config) -> GratingProfile:
    profile = _profile_from_config(config)
    with named("[geometry]:"):
        _meshing_profile(profile)
    return profile


def _material_from_config(config: Config, key: str):
    """``[materials] <key>`` as (name, model); unknown names name the key."""
    name = config.string("materials", key)
    with named(f"[materials] {key}:"):
        return name, get_material(name)


def _rho_inputs(config: Config):
    """The rho recipe's geometry, (name, model) material pairs and
    truncation; ``casigrat grating --sweep-N`` reads them here too."""
    profile = _profile_from_config(config)
    grating = _material_from_config(config, "grating")
    plane = _material_from_config(config, "plane")
    counts = dict(orders=config.integer("solver", "orders"),
                  n_slices=config.integer("solver", "slices"))
    with named("[solver]"):  # TruncationSpec bounds orders and slices
        spec = TruncationSpec(**{name: n for name, n in counts.items()
                                 if n is not None})
    return profile, grating, plane, spec


def _base_metadata(config: Config, task: str) -> dict:
    return {"task": task, "inputs": config.digest()}


def flat_force_gradient_curve(config: Config) -> dict[str, ForceCurve]:
    """Sphere-plane Casimir force gradient on a flat surface.

    The half-space pressure law is tabulated over the grid padded by the
    largest roughness offset, optionally averaged over the combined
    surface-roughness height distribution, and mapped to the sphere by
    2 pi R.  Values are positive (gradient of an attractive force).
    """
    sphere, mat_a = _material_from_config(config, "sphere")
    plane, mat_b = _material_from_config(config, "plane")
    radius = config.quantity("sphere", "radius")
    z_grid = config.grid("grid", "z")

    rough_on = config.boolean("roughness", "enabled")
    spec = None
    pad = 0.0
    if rough_on:
        rms = (config.quantity("roughness", "sphere_rms"),
               config.quantity("roughness", "plane_rms"))
        n_rough = config.integer("roughness", "n_points")
        with named("[roughness]"):
            spec = RoughnessSpec.combined_gaussian(*rms, n_rough)
        pad = float(np.max(np.abs(spec.offsets)))
        if z_grid[0] <= pad:
            raise ConfigError(
                f"[grid] z starts at {z_grid[0]:.4g} m, inside the [roughness] "
                f"pad of {pad:.4g} m (the largest roughness offset); start "
                "the grid above the pad or lower the rms values")

    n_table = config.integer("solver", "table_points")
    law = flat_pressure_law(mat_a, mat_b, float(z_grid[0]) - pad,
                            float(z_grid[-1]) + pad, n_table)
    avg = law(z_grid) if spec is None else roughness_average(law, z_grid, spec)
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
    (profile, (grating_mat, model_g), (plane_mat, model_p),
     spec) = _rho_inputs(config)
    z_grid = config.grid("grid", "z")
    measured_path = config.string("measured", "gradient_csv")
    if measured_path:
        radius = config.quantity("sphere", "radius")
        with named("[measured] gradient_csv:"):
            measured = ForceCurve.from_csv(measured_path)
            if not measured.z.size:
                raise ValueError(f"{measured_path} has no data rows")
            if not np.all(measured.z > 0.0):
                raise ValueError(f"{measured_path}: separations z must be "
                                 "positive")

    theory = rho_ratio(profile, model_g, model_p, z_grid, spec)
    meta = _base_metadata(config, "rho_ratio")
    meta.update({"materials": f"{grating_mat}/{plane_mat}",
                 "orders": str(spec.orders),
                 "staircase_slices": str(spec.n_slices),
                 "quadrature": f"{spec.quadrature.xi_nodes}x"
                               f"{spec.quadrature.kx_nodes}x"
                               f"{spec.quadrature.ky_nodes} nodes"})
    curves = {"rho_theory": replace(theory, metadata=meta)}

    if measured_path:
        law = flat_pressure_law(model_p, model_g, float(np.min(measured.z)),
                                float(np.max(measured.z)) + profile.depth)
        pfa_grad = 2.0 * np.pi * radius * np.abs(
            pfa_corrugated(law, profile, measured.z))
        curves["rho_measured"] = ForceCurve(
            measured.z, measured.values / pfa_grad, unit="dimensionless",
            label="measured-to-pfa gradient ratio",
            metadata={**meta, "task": "rho_measured"})
    return curves


def electrostatic_gradient_curves(config: Config) -> dict[str, ForceCurve]:
    """Electrostatic sphere force gradients over flat and trenched cells.

    The flat curve uses the exact sphere-plane series; the corrugated one
    maps periodic-cell field energies to the sphere through the
    close-proximity relation.  The corrugated gradient lies strictly
    below the flat one at equal separation.
    """
    profile = _meshable_profile_from_config(config)
    radius = config.quantity("sphere", "radius")
    volt = config.quantity("voltage", "applied")
    v0 = config.quantity("voltage", "residual")
    z_grid = config.grid("grid", "z")

    if z_grid.size < 2:
        raise ConfigError("[grid] z: the FEM table needs two or more separations")
    # not series_gradient_model: its domain stops at 0.1 R
    flat_vals = sphere_plane_gradient(SpherePlaneES(radius, z_grid, volt, v0))
    model = fem_gradient_model(
        profile, radius, z_min=float(z_grid[0]), z_max=float(z_grid[-1]),
        n_points=config.integer("solver", "table_points"), v0=v0)
    corr_vals = model(z_grid, volt)

    meta = _base_metadata(config, "electrostatic_gradient")
    meta.update({"radius_um": f"{radius * 1e6:.6g}",
                 "voltage_v": f"{volt:.6g}", "residual_v": f"{v0:.6g}"})
    return {
        "flat": ForceCurve(z_grid, flat_vals, unit="N/m",
                           label="electrostatic gradient, flat surface",
                           metadata={**meta, "surface": "flat"}),
        "corrugated": ForceCurve(z_grid, corr_vals, unit="N/m",
                                 label="electrostatic gradient, trench cell",
                                 metadata={**meta, "surface": "trench"}),
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
    if config.task is None:
        raise ConfigError("[pipeline] task: missing required key")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return write_curves(_TASK_FNS[config.task](config), out, config.task)
