"""Fast self-check suites, one per module, for the CLI ``--check`` flag.

Each suite returns (name, passed, detail) tuples and runs in seconds; the
checks exercise closed-form pins, cross-module agreements, and exact
identities rather than full convergence studies, which live in the test
suite.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import (FrequencyShiftSample, find_residual_voltage,
                          fit_calibration, plate_gradient_model,
                          predict_frequency_shift, series_gradient_model,
                          synthesize_frequency_shifts)
from .constants import EPS0
from .electrostatics import (MeshControl, SpherePlaneES, _end_row_schur,
                             _graded_from_start, solve_corrugated_capacitor,
                             sphere_plane_force)
from .geometry import GratingProfile, height_profile, reference_trench_profile
from .grating import TruncationSpec, casimir_pressure_grating_grid
from .materials import get_material
from .pfa import FlatForceLaw, pfa_corrugated
from .planar import casimir_pressure_planar, ideal_pressure

CheckResult = tuple[str, bool, str]


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return (name, bool(passed), detail)


def check_materials() -> list[CheckResult]:
    out = []
    xi = np.geomspace(1e13, 1e17, 9)
    for name in ("gold_drude", "silicon_doped"):
        eps = get_material(name).epsilon(xi)
        ok = bool(np.all(eps > 1.0) and np.all(np.diff(eps) < 0.0))
        out.append(_result(f"{name} response decreasing and > 1", ok,
                           f"eps range [{eps.min():.3g}, {eps.max():.3g}]"))
    # below ~1e15 rad/s free carriers dominate and gold must lead;
    # higher up silicon's interband response takes over
    xi_low = np.geomspace(1e13, 1e15, 9)
    gold = get_material("gold_drude").epsilon(xi_low)
    si = get_material("silicon_doped").epsilon(xi_low)
    out.append(_result("gold leads doped silicon at low frequency",
                       bool(np.all(gold > si)), "pointwise on 9-node grid"))
    return out


def check_planar() -> list[CheckResult]:
    out = []
    pc = get_material("perfect_conductor")
    z = 100e-9
    p = casimir_pressure_planar(pc, pc, z)
    rel = abs(p / ideal_pressure(z) - 1.0)
    out.append(_result("ideal-mirror pin at 100 nm", rel < 1e-3,
                       f"relative error {rel:.2e}"))
    gold, si = get_material("gold_drude"), get_material("silicon_doped")
    p_real = casimir_pressure_planar(gold, si, z)
    out.append(_result("real materials attract less than ideal mirrors",
                       p < p_real < 0.0,
                       f"{p_real:.4g} Pa vs {p:.4g} Pa"))
    p_far = casimir_pressure_planar(gold, si, 4.0 * z)
    out.append(_result("attraction decays with separation",
                       abs(p_far) < abs(p_real),
                       f"|P(400nm)|/|P(100nm)| = {p_far / p_real:.3g}"))
    return out


def check_pfa() -> list[CheckResult]:
    profile = reference_trench_profile()
    law = FlatForceLaw.from_callable(lambda z: -1e-27 / z**4, 1e-9, 1e-5,
                                     unit="Pa")
    z = 150e-9
    additive = pfa_corrugated(law, profile, z)
    x = (np.arange(20001) + 0.5) * profile.period / 20001
    direct = float(np.mean(law(z + height_profile(profile, x))))
    rel = abs(additive / direct - 1.0)
    out = [_result("additive decomposition matches profile integral",
                   rel < 1e-5, f"relative difference {rel:.2e}")]
    flat = GratingProfile(profile.period, profile.period, 0.0, 0.0)
    ident = pfa_corrugated(law, flat, z)
    out.append(_result("un-etched profile reduces to the flat law",
                       math.isclose(ident, law(z), rel_tol=1e-12),
                       f"{ident:.6g} vs {law(z):.6g}"))
    return out


def check_grating() -> list[CheckResult]:
    pc = get_material("perfect_conductor")
    flat = GratingProfile(400e-9, 400e-9, 0.0, 0.0)
    z = 300e-9
    p = casimir_pressure_grating_grid(flat, pc, pc, [z],
                                      TruncationSpec(orders=2))[0]
    rel = abs(p / ideal_pressure(z) - 1.0)
    return [_result("un-etched grating reproduces the ideal planar pin",
                    rel < 1e-3, f"relative error {rel:.2e} at N=2")]


def _capacitance_force_oracle(radius: float, gap: float, dv: float) -> float:
    # central difference of the two-sphere-image capacitance series
    def capacitance(d: float) -> float:
        alpha = math.acosh(1.0 + d / radius)
        total, n = 0.0, 1
        while True:
            ns = n + np.arange(512)
            block = float(np.sum(1.0 / np.sinh(ns * alpha)))
            total += block
            n += 512
            if block < 1e-14 * total:
                return 4.0 * math.pi * EPS0 * radius * math.sinh(alpha) * total

    h = 1e-5 * gap
    return 0.5 * dv**2 * (capacitance(gap + h)
                          - capacitance(gap - h)) / (2.0 * h)


def _dense_end_row_s00(lam: float, gap: float, ny: int) -> float:
    # s00 of lam My + Ay on the gap rows by dense elimination of the
    # interior rows, as the row sum sa = s00 + s01 (driven by lam times
    # the lumped lengths) minus s01 (driven by the electrode row): both
    # solutions are positive, so no digit cancels
    h = np.diff(gap * _graded_from_start(ny))
    inv = 1.0 / h
    m = 0.5 * (h[:-1] + h[1:])
    inner = (np.diag(lam * m + inv[:-1] + inv[1:])
             - np.diag(inv[1:-1], 1) - np.diag(inv[1:-1], -1))
    rhs = np.zeros((m.size, 2))
    rhs[:, 0] = lam * m
    rhs[-1, 1] = inv[-1]
    x = np.linalg.solve(inner, rhs)
    return 0.5 * lam * h[0] + inv[0] * (x[0, 0] + x[0, 1])


def check_electrostatics() -> list[CheckResult]:
    out = []
    radius, gap, volt = 50e-6, 0.5e-6, 0.3
    f = sphere_plane_force(SpherePlaneES(R=radius, d=gap, V=volt))
    oracle = _capacitance_force_oracle(radius, gap, volt)
    rel = abs(f / oracle - 1.0)
    out.append(_result("series force matches capacitance-derivative oracle",
                       rel < 1e-6, f"relative error {rel:.2e}"))
    zero = sphere_plane_force(SpherePlaneES(R=radius, d=gap, V=0.25, V0=0.25))
    out.append(_result("matched potentials give exactly zero force",
                       zero == 0.0, f"force {zero!r} N"))
    flat = GratingProfile(400e-9, 400e-9, 0.0, 0.0)
    energy = solve_corrugated_capacitor(flat, gap=150e-9, V=1.0,
                                        control=MeshControl(nx=24, ny=24))
    exact = 0.5 * EPS0 / 150e-9
    rel = abs(energy / exact - 1.0)
    out.append(_result("flat-cell field energy matches the plate formula",
                       rel < 1e-3, f"relative error {rel:.2e}"))
    # the cached unit-gap row eigenpairs (numpy eigh and one inverse-
    # iteration step) against a dense elimination, for x-modes of a 400 nm
    # period up to mu ~ 1e4.  On 192 rows (four times the default) they
    # agree to ~6e-14; eigh's eigenpairs alone miss by ~7e-11.
    lam = (2.0 * math.pi * np.array([0.0, 1.0, 4.0, 16.0, 64.0, 256.0])
           / 400e-9) ** 2
    ny = 4 * MeshControl().ny
    s00 = _end_row_schur(lam, 150e-9, ny)[0]
    dense = np.array([_dense_end_row_s00(x, 150e-9, ny) for x in lam])
    rel = float(np.max(np.abs(s00 / dense - 1.0)))
    out.append(_result("gap-row reduction matches dense elimination",
                       rel < 1e-12, f"worst relative difference {rel:.2e} "
                       f"over {lam.size} modes"))
    return out


def check_calibration() -> list[CheckResult]:
    out = []
    model = series_gradient_model(50e-6)
    samples = synthesize_frequency_shifts(
        -614.0, 800e-9, model, voltages=(0.245, 0.300),
        z_piezo=np.linspace(0.0, 600e-9, 13))
    fit = fit_calibration(samples, model)
    rel = max(abs(fit.coeff / -614.0 - 1.0), abs(fit.z0 / 800e-9 - 1.0))
    out.append(_result("noiseless synthetic fit round-trips", rel < 1e-6,
                       f"worst relative error {rel:.2e}"))
    plate = plate_gradient_model(50e-6, v0=-0.499)
    volts = np.linspace(-0.8, -0.2, 7)
    shifts = predict_frequency_shift(-614.0, plate(300e-9, volts))
    v0 = find_residual_voltage([FrequencyShiftSample(1e-7, 0.0, v, df)
                                for v, df in zip(volts, shifts)])
    out.append(_result("residual-voltage vertex recovery",
                       abs(v0 + 0.499) < 1e-9, f"vertex {v0:.6f} V"))
    return out


def check_pipeline() -> list[CheckResult]:
    from .config import Config
    from .pipeline import flat_force_gradient_curve
    cfg = Config.from_text(
        "[pipeline]\ntask = flat_force_gradient\n"
        "[materials]\nsphere = perfect_conductor\nplane = perfect_conductor\n"
        "[roughness]\nenabled = false\n"
        "[grid]\nz = 200:400:100nm\n[solver]\ntable_points = 24\n")
    curve = flat_force_gradient_curve(cfg)["force_gradient"]
    expected = np.array([2.0 * np.pi * 50e-6 * abs(ideal_pressure(z))
                         for z in curve.z])
    rel = float(np.max(np.abs(curve.values / expected - 1.0)))
    out = [_result("ideal-mirror override reproduces the closed form",
                   rel < 2e-3, f"worst relative error {rel:.2e}")]
    out.append(_result("rerun is byte-identical",
                       flat_force_gradient_curve(cfg)["force_gradient"]
                       .to_csv_text() == curve.to_csv_text(),
                       "CSV text compared"))
    return out


SUITES = {
    "materials": check_materials,
    "planar": check_planar,
    "pfa": check_pfa,
    "grating": check_grating,
    "electrostatics": check_electrostatics,
    "calibrate": check_calibration,
    "pipeline": check_pipeline,
}


def run_checks(name: str) -> list[CheckResult]:
    """Run one module's suite, or every suite for ``all``."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    if name not in SUITES:
        raise ValueError(f"no check suite named {name!r}")
    return SUITES[name]()


def format_results(results: list[CheckResult]) -> str:
    lines = [f"{'ok  ' if passed else 'FAIL'}  {name}: {detail}"
             for name, passed, detail in results]
    n_ok = sum(passed for _, passed, _ in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    return "\n".join(lines)


def all_passed(results: list[CheckResult]) -> bool:
    return all(passed for _, passed, _ in results)
