"""Command-line front end.

Subcommands: materials, planar, pfa, grating, electrostatics, calibrate,
pipeline.  Every subcommand accepts ``--check`` to run its module's
self-check suite instead of computing.  Exit codes: 0 success, 1 numerical
failure, 2 usage error.  The CASIGRAT_WORKERS environment variable sets
the process count for grating z-grid fan-out.

Grids are unit-suffixed, e.g. ``--z 100:600:25nm``; order sweeps are
inclusive integer ranges, e.g. ``--sweep-N 4:14:2``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import checks
from .calibration import (FitError, fem_gradient_model, find_residual_voltage,
                          fit_calibration, plate_gradient_model,
                          read_frequency_shift_samples, series_gradient_model)
from .config import Config, ConfigError, parse_grid, parse_int_range, parse_quantity
from .curves import ForceCurve
from .geometry import reference_trench_profile
from .grating import convergence_sweep, TruncationSpec
from .materials import (available_materials, epsilon_at_imaginary_frequency,
                        get_material)
from .pfa import flat_pressure_law, pfa_corrugated, pfa_share_topbottom
from .pipeline import (_profile_from_config, run_pipeline, worker_count,
                       rho_ratio_curves)
from .planar import NumericalError, casimir_pressure_planar

_USAGE_ERROR = 2
_NUMERICAL_ERROR = 1


def _write_curve(curve: ForceCurve, path: Path, quiet: bool = False) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    curve.to_csv(path)
    if not quiet:
        print(f"wrote {path}")


def _run_check(module: str) -> int:
    results = checks.run_checks(module)
    print(checks.format_results(results))
    return 0 if checks.all_passed(results) else _NUMERICAL_ERROR


def _cmd_materials(args) -> int:
    if args.check:
        return _run_check("materials")
    if args.name is None:
        for name in available_materials():
            print(name)
        return 0
    model = get_material(args.name)
    if ":" in args.xi:
        xi = parse_grid(args.xi)
    else:
        xi = np.array([parse_quantity(args.xi)])
    eps = np.asarray(epsilon_at_imaginary_frequency(model, xi), dtype=float)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# label: relative permittivity of {args.name} at "
                 "imaginary frequency\n")
        fh.write("xi_rad_per_s,epsilon\n")
        for x, e in zip(xi, eps):
            fh.write(f"{x:.12e},{e:.12e}\n")
    print(f"wrote {path}")
    return 0


def _cmd_planar(args) -> int:
    if args.check:
        return _run_check("planar")
    mat_a = get_material(args.material_a)
    mat_b = get_material(args.material_b)
    z_grid = parse_grid(args.z)
    values = np.array([casimir_pressure_planar(mat_a, mat_b, z)
                       for z in z_grid])
    meta = {"materials": f"{args.material_a}/{args.material_b}",
            "quadrature": "refined to rtol 1e-6"}
    if args.gradient:
        radius = parse_quantity(args.radius)
        values = 2.0 * np.pi * radius * np.abs(values)
        meta["radius_um"] = f"{radius * 1e6:.6g}"
        curve = ForceCurve(z_grid, values, unit="N/m",
                           label="sphere-plane force gradient", metadata=meta)
    else:
        curve = ForceCurve(z_grid, values, unit="Pa",
                           label="plane-plane pressure", metadata=meta)
    _write_curve(curve, Path(args.out))
    return 0


def _cmd_pfa(args) -> int:
    if args.check:
        return _run_check("pfa")
    profile = (_profile_from_config(Config.from_file(args.config))
               if args.config else reference_trench_profile())
    mat_a = get_material(args.material_sphere)
    mat_b = get_material(args.material_plane)
    z_grid = parse_grid(args.z)
    radius = parse_quantity(args.radius)
    law = flat_pressure_law(mat_a, mat_b, float(z_grid[0]),
                            float(z_grid[-1]) + profile.depth)
    grad = np.array([2.0 * np.pi * radius * abs(pfa_corrugated(law, profile, z))
                     for z in z_grid])
    share = np.array([pfa_share_topbottom(law, profile, z) for z in z_grid])
    meta = {"materials": f"{args.material_sphere}/{args.material_plane}",
            "radius_um": f"{radius * 1e6:.6g}",
            "profile": f"period {profile.period * 1e9:.6g} nm, depth "
                       f"{profile.depth * 1e9:.6g} nm"}
    curve = ForceCurve(z_grid, grad, unit="N/m",
                       label="proximity-force gradient over trench profile",
                       metadata=meta)
    _write_curve(curve, Path(args.out))
    meta_s = dict(meta)
    meta_s["note"] = "fraction of the force from top + floor surfaces"
    share_curve = ForceCurve(z_grid, share, unit="dimensionless",
                             label="top+floor share of proximity force",
                             metadata=meta_s)
    _write_curve(share_curve, Path(args.out).with_name(
        Path(args.out).stem + "_share.csv"))
    return 0


def _cmd_grating(args) -> int:
    if args.check:
        return _run_check("grating")
    config = Config.from_file(args.config)
    out_dir = Path(args.out)
    curves = rho_ratio_curves(config)
    for name in sorted(curves):
        _write_curve(curves[name], out_dir / f"rho_ratio_{name}.csv")
    if args.sweep_N:
        orders = parse_int_range(args.sweep_N)
        profile = _profile_from_config(config)
        model_g = get_material(config.string("materials", "grating",
                                             "silicon_doped"))
        model_p = get_material(config.string("materials", "plane",
                                             "gold_drude"))
        z_ref = config.quantity("solver", "sweep_z", 150e-9)
        spec = TruncationSpec(orders=orders[0],
                              n_slices=config.integer("solver", "slices", 4))
        rows = convergence_sweep(profile, model_g, model_p, z_ref, orders,
                                 spec, workers=worker_count())
        path = out_dir / "rho_ratio_convergence.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# label: pressure vs diffraction-order cutoff\n")
            fh.write(f"# inputs: {config.digest()}\n")
            fh.write(f"# z_nm: {z_ref * 1e9:.6g}\n")
            fh.write("orders,pressure_pa\n")
            for n_orders, pressure in rows:
                fh.write(f"{n_orders},{pressure:.12e}\n")
        print(f"wrote {path}")
    return 0


def _cmd_electrostatics(args) -> int:
    if args.check:
        return _run_check("electrostatics")
    if args.config:
        config = Config.from_file(args.config)
    else:
        config = Config.from_text("[pipeline]\ntask = electrostatic_gradient\n")
    from .pipeline import electrostatic_gradient_curves
    curves = electrostatic_gradient_curves(config)
    out_dir = Path(args.out)
    for name in sorted(curves):
        _write_curve(curves[name], out_dir / f"electrostatic_{name}.csv")
    return 0


def _gradient_model_for(args):
    radius = parse_quantity(args.radius)
    v0 = parse_quantity(args.v0)
    if args.model == "series":
        return series_gradient_model(radius, v0=v0)
    if args.model == "plate":
        return plate_gradient_model(radius, v0=v0)
    profile = (_profile_from_config(Config.from_file(args.config))
               if args.config else reference_trench_profile())
    z_lo = parse_quantity(args.fem_z_min)
    z_hi = parse_quantity(args.fem_z_max)
    return fem_gradient_model(profile, radius, z_min=z_lo, z_max=z_hi, v0=v0)


def _cmd_calibrate(args) -> int:
    if args.check:
        return _run_check("calibrate")
    samples = read_frequency_shift_samples(args.input)
    if args.find_v0:
        v0 = find_residual_voltage(samples)
        print(f"residual voltage V0 = {v0:.6f} V")
        return 0
    model = _gradient_model_for(args)
    fit = fit_calibration(samples, model,
                          lever_b=parse_quantity(args.lever_b),
                          use_voltage_differences=args.voltage_differences)
    print(fit.report())
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# calibration fit\n")
            fh.write(f"# model: {args.model}\n")
            fh.write("quantity,value,sigma\n")
            fh.write(f"coeff_m_per_N_s,{fit.coeff:.12e},"
                     f"{fit.coeff_sigma:.12e}\n")
            fh.write(f"z0_m,{fit.z0:.12e},{fit.z0_sigma:.12e}\n")
            fh.write(f"rss_hz2,{fit.rss:.12e},0\n")
        print(f"wrote {path}")
    return 0


def _cmd_pipeline(args) -> int:
    if args.check:
        return _run_check("pipeline" if not args.all_checks else "all")
    config = Config.from_file(args.config)
    written = run_pipeline(config, out_dir=args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casigrat",
        description="Casimir and electrostatic forces on trench gratings: "
                    "planar theory, proximity decomposition, exact grating "
                    "scattering, capacitor cells, and oscillator "
                    "calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_check(p):
        p.add_argument("--check", action="store_true",
                       help="run the module self-check suite and exit")

    p = sub.add_parser("materials", help="list or tabulate material models")
    p.add_argument("--name", choices=available_materials())
    p.add_argument("--xi", default="2e14:2e15:2e14",
                   help="imaginary-frequency grid in rad/s")
    p.add_argument("--out", default="out/materials_epsilon.csv")
    add_check(p)
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
    p.add_argument("--radius", default="50um")
    p.add_argument("--out", default="out/planar.csv")
    add_check(p)
    p.set_defaults(fn=_cmd_planar)

    p = sub.add_parser("pfa", help="additive proximity-force curves over "
                                   "the trench profile")
    p.add_argument("--config", help="config file with a [geometry] section")
    p.add_argument("--material-sphere", default="gold_drude",
                   choices=available_materials())
    p.add_argument("--material-plane", default="silicon_doped",
                   choices=available_materials())
    p.add_argument("--z", default="100:300:10nm")
    p.add_argument("--radius", default="50um")
    p.add_argument("--out", default="out/pfa_gradient.csv")
    add_check(p)
    p.set_defaults(fn=_cmd_pfa)

    p = sub.add_parser("grating", help="exact-to-proximity force ratio from "
                                       "scattering theory")
    p.add_argument("--config", required=False,
                   default="configs/rho_ratio.cfg")
    p.add_argument("--sweep-N", dest="sweep_N",
                   help="order-cutoff sweep, e.g. 4:14:2")
    p.add_argument("--out", default="out",
                   help="output directory for the ratio and sweep CSVs")
    add_check(p)
    p.set_defaults(fn=_cmd_grating)

    p = sub.add_parser("electrostatics", help="capacitor-cell force "
                                              "gradients, flat and trench")
    p.add_argument("--config", help="config file (geometry, voltage, grid)")
    p.add_argument("--out", default="out",
                   help="output directory for the flat and trench CSVs")
    add_check(p)
    p.set_defaults(fn=_cmd_electrostatics)

    p = sub.add_parser("calibrate", help="fit transduction coefficient and "
                                         "standoff from a frequency-shift "
                                         "CSV")
    p.add_argument("--input", required=False,
                   help="CSV with z_piezo_nm,theta_rad,V_volt,delta_f_hz")
    p.add_argument("--model", choices=("series", "plate", "fem"),
                   default="series")
    p.add_argument("--radius", default="50um")
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
    add_check(p)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("pipeline", help="run a figure recipe from a config "
                                        "file")
    p.add_argument("--config", required=False)
    p.add_argument("--out", default="out",
                   help="output directory for the recipe's CSVs")
    p.add_argument("--all-checks", action="store_true",
                   help="with --check, run every module suite")
    add_check(p)
    p.set_defaults(fn=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "check", False):
        if args.command == "calibrate" and not args.input:
            parser.error("calibrate requires --input (or --check)")
        if args.command in ("grating", "pipeline") and not args.config:
            parser.error(f"{args.command} requires --config (or --check)")
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (NumericalError, FitError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
