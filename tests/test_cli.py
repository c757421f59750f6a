"""Command-line interface: subcommands, exit codes, and output files."""

import numpy as np
import pytest

from casigrat.cli import main
from casigrat.curves import ForceCurve

SMALL_RHO_CFG = """\
[pipeline]
task = rho_ratio
[grid]
z = 150:250:100nm
[solver]
orders = 2
slices = 2
sweep_z = 150nm
"""

PC_FLAT_CFG = """\
[pipeline]
task = flat_force_gradient
[materials]
sphere = perfect_conductor
plane = perfect_conductor
[roughness]
enabled = false
[grid]
z = 200:400:100nm
[solver]
table_points = 16
"""

ES_CFG = """\
[pipeline]
task = electrostatic_gradient
[grid]
z = 150:450:150nm
[solver]
table_points = 10
"""


def test_materials_listing(capsys):
    assert main(["materials"]) == 0
    out = capsys.readouterr().out
    assert "gold_drude" in out and "silicon_doped" in out


def test_materials_table(tmp_path):
    out = tmp_path / "eps.csv"
    assert main(["materials", "--name", "gold_drude",
                 "--xi", "2e14:1e15:2e14", "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == "xi_rad_per_s,epsilon"
    eps = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert eps.size == 5 and np.all(np.diff(eps) < 0.0)


def test_planar_pressure_and_gradient(tmp_path):
    p_out = tmp_path / "p.csv"
    assert main(["planar", "--material-a", "perfect_conductor",
                 "--material-b", "perfect_conductor",
                 "--z", "200:400:100nm", "--out", str(p_out)]) == 0
    curve = ForceCurve.from_csv(p_out)
    assert curve.unit == "Pa" and np.all(curve.values < 0.0)
    g_out = tmp_path / "g.csv"
    assert main(["planar", "--material-a", "perfect_conductor",
                 "--material-b", "perfect_conductor", "--gradient",
                 "--radius", "50um", "--z", "200:400:100nm",
                 "--out", str(g_out)]) == 0
    grad = ForceCurve.from_csv(g_out)
    assert grad.unit == "N/m" and np.all(grad.values > 0.0)
    assert grad.values == pytest.approx(
        2.0 * np.pi * 50e-6 * np.abs(curve.values), rel=1e-12)


def test_pfa_writes_gradient_and_share(tmp_path):
    out = tmp_path / "pfa.csv"
    assert main(["pfa", "--z", "150:250:50nm", "--out", str(out)]) == 0
    share = ForceCurve.from_csv(tmp_path / "pfa_share.csv")
    assert np.all((share.values > 0.9) & (share.values < 1.0))
    grad = ForceCurve.from_csv(out)
    assert np.all(np.diff(grad.values) < 0.0)


def test_grating_with_order_sweep(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RHO_CFG)
    out_dir = tmp_path / "out"
    assert main(["grating", "--config", str(cfg), "--sweep-N", "2:4:2",
                 "--out", str(out_dir)]) == 0
    rho = ForceCurve.from_csv(out_dir / "rho_ratio_rho_theory.csv")
    assert np.all(rho.values > 1.0)
    sweep = (out_dir / "rho_ratio_convergence.csv").read_text()
    rows = [r for r in sweep.splitlines() if r and not r.startswith("#")]
    assert rows[0] == "orders,pressure_pa"
    assert [int(r.split(",")[0]) for r in rows[1:]] == [2, 4]


def test_electrostatics_outputs_ordered_curves(tmp_path):
    cfg = tmp_path / "es.cfg"
    cfg.write_text(ES_CFG)
    out_dir = tmp_path / "out"
    assert main(["electrostatics", "--config", str(cfg),
                 "--out", str(out_dir)]) == 0
    flat = ForceCurve.from_csv(out_dir / "electrostatic_flat.csv")
    corr = ForceCurve.from_csv(out_dir / "electrostatic_corrugated.csv")
    assert np.all(corr.values < flat.values)


def test_calibrate_round_trip(tmp_path, capsys):
    from casigrat.calibration import (series_gradient_model,
                                      synthesize_frequency_shifts,
                                      write_frequency_shift_samples)
    model = series_gradient_model(50e-6)
    samples = synthesize_frequency_shifts(
        -614.0, 800e-9, model, voltages=(0.245, 0.300),
        z_piezo=np.linspace(0.0, 600e-9, 13))
    csv_in = tmp_path / "sweep.csv"
    write_frequency_shift_samples(csv_in, samples)
    report = tmp_path / "fit.csv"
    assert main(["calibrate", "--input", str(csv_in), "--model", "series",
                 "--radius", "50um", "--out", str(report)]) == 0
    printed = capsys.readouterr().out
    assert "coeff" in printed and "z0" in printed
    body = report.read_text()
    coeff_row = [r for r in body.splitlines() if r.startswith("coeff")][0]
    assert float(coeff_row.split(",")[1]) == pytest.approx(-614.0, rel=1e-6)


def test_calibrate_find_v0(tmp_path, capsys):
    from casigrat.calibration import (FrequencyShiftSample,
                                      write_frequency_shift_samples)
    volts = (-0.599, -0.499, -0.399)
    samples = [FrequencyShiftSample(1e-7, 0.0, v, -(v + 0.499) ** 2)
               for v in volts]
    csv_in = tmp_path / "v0.csv"
    write_frequency_shift_samples(csv_in, samples)
    assert main(["calibrate", "--input", str(csv_in), "--find-v0"]) == 0
    assert "-0.499" in capsys.readouterr().out


def test_pipeline_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "pc.cfg"
    cfg.write_text(PC_FLAT_CFG)
    out_a = tmp_path / "a"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_a)]) == 0
    name = "flat_force_gradient_force_gradient.csv"
    body = (out_a / name).read_bytes()
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert (out_a / name).read_bytes() == body


def test_check_flag_runs_suite(capsys):
    assert main(["pfa", "--check"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["calibrate"])  # missing --input
    assert exc.value.code == 2
    assert main(["pipeline", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["planar", "--z", "600:100:25nm"]) == 2
    bad_geometry = tmp_path / "bad_geometry.cfg"
    bad_geometry.write_text("[pipeline]\ntask = rho_ratio\n[geometry]\n"
                            "period = 400nm\ntop_width = 500nm\n")
    assert main(["pipeline", "--config", str(bad_geometry),
                 "--out", str(tmp_path / "out")]) == 2
    assert "[geometry]" in capsys.readouterr().err
    narrow_trench = tmp_path / "narrow_trench.cfg"
    narrow_trench.write_text("[pipeline]\ntask = electrostatic_gradient\n"
                             "[geometry]\nperiod = 400nm\n"
                             "top_width = 399.99nm\nfloor_width = 0nm\n"
                             "wall_angle = 90deg\n")
    assert main(["pipeline", "--config", str(narrow_trench),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[geometry]" in err and "top_width" in err and "period" in err


def test_numerical_failures_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("z_piezo_nm,theta_rad,V_volt,delta_f_hz\n"
                   "100,0,0.3,-1\n200,0,0.3,-1.1\n300,0,0.3,-1.2\n")
    assert main(["calibrate", "--input", str(bad)]) == 1
