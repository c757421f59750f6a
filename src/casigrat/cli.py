"""Command-line front end.

Subcommands: materials, planar, pfa, grating, electrostatics, calibrate,
pipeline, check.  ``grating`` and ``electrostatics`` are ``pipeline`` on a
config of their recipe's task (rho_ratio, electrostatic_gradient), or on
its built-in values, and write the same files; ``grating --sweep-N`` adds
the pressure at each order cutoff on the recipe's [grid] z.  ``check
[SUITE]`` runs one module's self-check suite, or every suite without
SUITE.  Exit codes: 0 success, 1 numerical failure, 2 usage error.
The CASIGRAT_WORKERS environment variable sets the thread count of the
grating node map (default: the usable cores).

Quantities carry a unit of their own dimension (``--z 100:600:25nm``);
``--xi`` takes bare rad/s, and ``--sweep-N`` an inclusive range (4:14:2).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks
from .calibration import (fem_gradient_model, find_residual_voltage,
                          fit_calibration, plate_gradient_model,
                          read_frequency_shift_samples, series_gradient_model)
from .config import (SCHEMA, Config, ConfigError, named, parse_grid,
                     parse_int_range, parse_quantity)
from .curves import ForceCurve, write_table
from .grating import convergence_sweep
from .materials import available_materials, get_material, is_perfect_conductor
from .pfa import flat_pressure_law, pfa_corrugated, pfa_share_topbottom
from .pipeline import (_meshable_profile_from_config, _profile_from_config,
                       _rho_inputs, run_pipeline)
from .planar import (NumericalError, casimir_pressure_planar,
                     force_gradient_sphere_plane)

_USAGE_ERROR = 2
_NUMERICAL_ERROR = 1


def _out_file(text: str) -> Path:
    """The output file ``text``, its directory made before anything is
    computed, so that an unwritable path fails as a usage error at once."""
    path = Path(text)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _wrote(*paths: Path) -> None:
    for path in paths:
        print(f"wrote {path}")


def _cmd_check(args) -> int:
    results = checks.run_checks(args.suite)
    print(checks.format_results(results))
    return 0 if all(passed for _, passed, _ in results) else _NUMERICAL_ERROR


def _radius(text: str) -> float:
    """argparse type of ``--radius``: a positive length."""
    try:
        radius = parse_quantity(text, "length")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not radius > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return radius


def _flag_value(args, dest: str, parse, *dimension):
    """``parse`` of flag ``--<dest>`` in ``dimension``, naming the flag."""
    with named(f"--{dest.replace('_', '-')}:"):
        return parse(getattr(args, dest), *dimension)


def _cmd_materials(args) -> int:
    if args.name is None:
        for name in available_materials():
            print(name)
        return 0
    model = get_material(args.name)
    if is_perfect_conductor(model):
        raise ConfigError(f"--name: {args.name} has no finite permittivity "
                          "to tabulate")
    xi = _flag_value(args, "xi", parse_grid, "frequency")
    out = _out_file(args.out)
    eps = np.asarray(model.epsilon(xi), dtype=float)
    _wrote(write_table(out, ("xi_rad_per_s", "epsilon"), zip(xi, eps),
                       [f"label: relative permittivity of {args.name} at "
                        "imaginary frequency"]))
    return 0


def _cmd_planar(args) -> int:
    mat_a = get_material(args.material_a)
    mat_b = get_material(args.material_b)
    z_grid = _flag_value(args, "z", parse_grid, "length")
    out = _out_file(args.out)
    meta = {"materials": f"{args.material_a}/{args.material_b}",
            "quadrature": "refined to rtol 1e-6"}
    unit, label = "Pa", "plane-plane pressure"
    if args.gradient:
        meta["radius_um"] = f"{args.radius * 1e6:.6g}"
        unit, label = "N/m", "sphere-plane force gradient"
    values = np.array([
        force_gradient_sphere_plane(mat_a, mat_b, z, args.radius)
        if args.gradient else casimir_pressure_planar(mat_a, mat_b, z)
        for z in z_grid])
    _wrote(ForceCurve(z_grid, values, unit=unit, label=label,
                      metadata=meta).to_csv(out))
    return 0


def _cmd_pfa(args) -> int:
    profile = _profile_from_config(_recipe_config(args.config))
    mat_a = get_material(args.material_sphere)
    mat_b = get_material(args.material_plane)
    z_grid = _flag_value(args, "z", parse_grid, "length")
    out = _out_file(args.out)
    law = flat_pressure_law(mat_a, mat_b, float(z_grid[0]),
                            float(z_grid[-1]) + profile.depth)
    grad = 2.0 * np.pi * args.radius * np.abs(
        pfa_corrugated(law, profile, z_grid))
    share = pfa_share_topbottom(law, profile, z_grid)
    meta = {"materials": f"{args.material_sphere}/{args.material_plane}",
            "radius_um": f"{args.radius * 1e6:.6g}",
            "profile": f"period {profile.period * 1e9:.6g} nm, depth "
                       f"{profile.depth * 1e9:.6g} nm"}
    _wrote(ForceCurve(z_grid, grad, unit="N/m",
                      label="proximity-force gradient over trench profile",
                      metadata=meta).to_csv(out))
    note = "fraction of the force from top + floor surfaces"
    _wrote(ForceCurve(z_grid, share, unit="dimensionless",
                      label="top+floor share of proximity force",
                      metadata={**meta, "note": note},
                      ).to_csv(out.with_name(out.stem + "_share.csv")))
    return 0


def _recipe_config(path: str | None, task: str | None = None) -> Config:
    """The config at ``path``, or the built-in defaults of ``task``.  It
    must be a config of ``task``, or without ``task`` one whose own task
    reads [geometry], which is then all that is read of it."""
    config = (Config.from_file(path) if path else
              Config.from_text(f"[pipeline]\ntask = {task}\n" if task else ""))
    foreign = (config.task != task if task
               else "geometry" not in SCHEMA[config.task])
    if foreign:
        raise ConfigError(f"--config {path}: task {config.task} " + (
            f"is not {task}" if task else "reads no [geometry]"))
    return config


def _cmd_recipe(args) -> int:
    config = _recipe_config(args.config, args.task)
    sweep = getattr(args, "sweep_N", None)
    if sweep:  # read the sweep's inputs before the ratio curve runs
        cutoffs = _flag_value(args, "sweep_N", parse_int_range)
        z_grid = config.grid("grid", "z")
        profile, (_, model_g), (_, model_p), spec = _rho_inputs(config)
        with named("--sweep-N:"):  # TruncationSpec bounds each cutoff
            orders = [replace(spec, orders=n).orders for n in cutoffs]
    _wrote(*run_pipeline(config, args.out))
    if sweep:
        rows = convergence_sweep(profile, model_g, model_p, z_grid, orders,
                                 spec)
        _wrote(write_table(Path(args.out) / "rho_ratio_convergence.csv",
                           ("orders", "z_nm", "pressure_pa"),
                           ((str(n), z, p) for n, ps in rows
                            for z, p in zip(z_grid * 1e9, ps)),
                           ["label: pressure vs diffraction-order cutoff",
                            f"inputs: {config.digest()}"]))
    return 0


def _gradient_model_for(args):
    v0 = _flag_value(args, "v0", parse_quantity, "voltage")
    if args.model == "series":
        return series_gradient_model(args.radius, v0=v0)
    if args.model == "plate":
        return plate_gradient_model(args.radius, v0=v0)
    profile = _meshable_profile_from_config(_recipe_config(args.config))
    z_lo = _flag_value(args, "fem_z_min", parse_quantity, "length")
    z_hi = _flag_value(args, "fem_z_max", parse_quantity, "length")
    if not 0.0 < z_lo < z_hi:
        raise ConfigError("--fem-z-min and --fem-z-max need 0 < min < max, "
                          f"got {args.fem_z_min} and {args.fem_z_max}")
    return fem_gradient_model(profile, args.radius, z_lo, z_hi, v0=v0)


def _cmd_calibrate(args) -> int:
    with named(f"--input {args.input}:"):
        samples = read_frequency_shift_samples(args.input)
    if args.find_v0:
        # every check of the vertex fit is a check of the samples
        with named(f"--input {args.input}:"):
            v0 = find_residual_voltage(samples)
        print(f"residual voltage V0 = {v0:.6f} V")
        return 0
    lever_b = _flag_value(args, "lever_b", parse_quantity, "length")
    out = _out_file(args.out) if args.out else None
    fit = fit_calibration(samples, _gradient_model_for(args), lever_b=lever_b,
                          use_voltage_differences=args.voltage_differences)
    print(fit.report())
    if out:
        _wrote(write_table(out, ("quantity", "value", "sigma"), [
            ("coeff_m_per_N_s", fit.coeff, fit.coeff_sigma),
            ("z0_m", fit.z0, fit.z0_sigma), ("rss_hz2", fit.rss, "0")],
            ["calibration fit", f"model: {args.model}"]))
    return 0


def _cmd_pipeline(args) -> int:
    config = Config.from_file(args.config)
    _wrote(*run_pipeline(config, out_dir=args.out))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every
    ``main`` call, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="casigrat",
        description="Casimir and electrostatic forces on trench gratings: "
                    "planar theory, proximity decomposition, exact grating "
                    "scattering, capacitor cells, and oscillator "
                    "calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materials", help="list or tabulate material models")
    p.add_argument("--name", choices=available_materials())
    p.add_argument("--xi", default="2e14:2e15:2e14",
                   help="imaginary-frequency grid in bare rad/s, no unit")
    p.add_argument("--out", default="out/materials_epsilon.csv")
    p.set_defaults(fn=_cmd_materials)

    p = sub.add_parser("planar", help="plane-plane pressure or sphere "
                                      "gradient curves")
    p.add_argument("--material-a", default="gold_drude",
                   choices=available_materials())
    p.add_argument("--material-b", default="silicon_doped",
                   choices=available_materials())
    p.add_argument("--z", default="100:600:25nm")
    p.add_argument("--gradient", action="store_true",
                   help="sphere-plane force gradient instead of pressure")
    p.add_argument("--radius", default="50um", type=_radius)
    p.add_argument("--out", default="out/planar.csv")
    p.set_defaults(fn=_cmd_planar)

    p = sub.add_parser("pfa", help="additive proximity-force curves over "
                                   "the trench profile")
    p.add_argument("--config", help="config file with a [geometry] section")
    p.add_argument("--material-sphere", default="gold_drude",
                   choices=available_materials())
    p.add_argument("--material-plane", default="silicon_doped",
                   choices=available_materials())
    p.add_argument("--z", default="100:300:10nm")
    p.add_argument("--radius", default="50um", type=_radius)
    p.add_argument("--out", default="out/pfa_gradient.csv")
    p.set_defaults(fn=_cmd_pfa)

    p = sub.add_parser("grating", help="exact-to-proximity force ratio from "
                                       "scattering theory")
    p.add_argument("--config", help="config file (geometry, materials, "
                   "grid, solver); default: the recipe's built-in values")
    p.add_argument("--sweep-N", dest="sweep_N",
                   help="order-cutoff sweep, e.g. 4:14:2")
    p.add_argument("--out", default="out",
                   help="output directory for the ratio and sweep CSVs")
    p.set_defaults(fn=_cmd_recipe, task="rho_ratio")

    p = sub.add_parser("electrostatics", help="capacitor-cell force "
                                              "gradients, flat and trench")
    p.add_argument("--config", help="config file (geometry, voltage, grid)")
    p.add_argument("--out", default="out",
                   help="output directory for the flat and trench CSVs")
    p.set_defaults(fn=_cmd_recipe, task="electrostatic_gradient")

    p = sub.add_parser("calibrate", help="fit transduction coefficient and "
                                         "standoff from a frequency-shift "
                                         "CSV")
    p.add_argument("--input", required=True,
                   help="CSV with z_piezo_nm,theta_rad,V_volt,delta_f_hz")
    p.add_argument("--model", choices=("series", "plate", "fem"),
                   default="series")
    p.add_argument("--radius", default="50um", type=_radius)
    p.add_argument("--v0", default="0V", help="residual voltage")
    p.add_argument("--lever-b", dest="lever_b", default="0m")
    p.add_argument("--voltage-differences", action="store_true",
                   help="fit shift differences at shared distances")
    p.add_argument("--find-v0", dest="find_v0", action="store_true",
                   help="recover the residual voltage from a voltage sweep")
    p.add_argument("--config", help="geometry config for --model fem")
    p.add_argument("--fem-z-min", default="100nm")
    p.add_argument("--fem-z-max", default="1um")
    p.add_argument("--out", help="optional fit-report CSV path")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("pipeline", help="run a figure recipe from a config "
                                        "file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out",
                   help="output directory for the recipe's CSVs")
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("check", help="run the fast self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=(*checks.SUITES, "all"),
                   help="one module's suite; default: every suite")
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not about a path the user named
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (NumericalError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
