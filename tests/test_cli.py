"""Command-line interface: subcommands, exit codes, and output files."""

import numpy as np
import pytest

import casigrat.cli
import casigrat.grating
import casigrat.materials
import casigrat.pipeline
from casigrat.cli import main
from casigrat.curves import ForceCurve, read_table
from casigrat.config import Config
from casigrat.planar import NumericalError

SMALL_RHO_CFG = """\
[pipeline]
task = rho_ratio
[grid]
z = 150:250:100nm
[solver]
orders = 2
slices = 2
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


def test_planar_gradient_warns_beyond_the_proximity_regime(tmp_path):
    out = tmp_path / "g.csv"
    with pytest.warns(UserWarning, match="z/R = 0.100 strains the proximity"):
        assert main(["planar", "--material-a", "perfect_conductor",
                     "--material-b", "perfect_conductor", "--gradient",
                     "--radius", "1um", "--z", "100nm",
                     "--out", str(out)]) == 0
    assert ForceCurve.from_csv(out).values.size == 1


def test_planar_conductor_against_drude(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["planar", "--material-a", "perfect_conductor",
                 "--material-b", "gold_drude", "--z", "200:500:100nm",
                 "--out", str(out)]) == 0
    assert ForceCurve.from_csv(out).values.size == 4


def test_pfa_writes_gradient_and_share(tmp_path):
    out = tmp_path / "pfa.csv"
    assert main(["pfa", "--z", "150:250:50nm", "--out", str(out)]) == 0
    share = ForceCurve.from_csv(tmp_path / "pfa_share.csv")
    assert np.all((share.values > 0.9) & (share.values < 1.0))
    grad = ForceCurve.from_csv(out)
    assert np.all(np.diff(grad.values) < 0.0)


def test_grating_with_order_sweep(tmp_path, monkeypatch):
    grid_fn, calls = casigrat.grating.casimir_pressure_grating_grid, []

    def recorded(profile, model_g, model_p, z_grid, spec, workers=None):
        calls.append((spec.orders, z_grid, grid_fn(
            profile, model_g, model_p, z_grid, spec, workers=workers)))
        return calls[-1][2]

    monkeypatch.setattr(casigrat.grating, "casimir_pressure_grating_grid",
                        recorded)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RHO_CFG)
    out_dir = tmp_path / "out"
    assert main(["grating", "--config", str(cfg), "--sweep-N", "2:4:2",
                 "--out", str(out_dir)]) == 0
    rho = ForceCurve.from_csv(out_dir / "rho_ratio_rho_theory.csv")
    assert np.all(rho.values > 1.0)
    # one row per (cutoff, [grid] z), each from one grid call on [grid] z
    meta, (orders, z_nm, pressure) = read_table(
        out_dir / "rho_ratio_convergence.csv",
        ("orders", "z_nm", "pressure_pa"))
    assert "z_nm" not in meta
    assert orders.tolist() == [2, 2, 4, 4]
    assert z_nm.tolist() == [150.0, 250.0, 150.0, 250.0]
    z_grid = Config.from_text(SMALL_RHO_CFG).grid("grid", "z")
    sweep = calls[1:]  # calls[0] is the ratio curve's
    assert [(n, z.tolist()) for n, z, _ in sweep] == [(2, z_grid.tolist()),
                                                      (4, z_grid.tolist())]
    assert pressure.tolist() == [float(f"{p:.12e}") for _, _, values in sweep
                                 for p in values]


def test_grating_runs_the_recipe_defaults_outside_a_checkout(tmp_path,
                                                             monkeypatch):
    def ratio_of_one(profile, model_g, model_p, z_grid, spec,
                     workers=None):
        return ForceCurve(z_grid, np.ones(len(z_grid)), unit="dimensionless")

    monkeypatch.chdir(tmp_path)  # no configs/ directory here
    monkeypatch.setattr(casigrat.pipeline, "rho_ratio", ratio_of_one)
    out_dir = tmp_path / "out"
    assert main(["grating", "--out", str(out_dir)]) == 0
    rho = ForceCurve.from_csv(out_dir / "rho_ratio_rho_theory.csv")
    assert rho.metadata["orders"] == "8"


def test_grating_writes_what_the_pipeline_writes(tmp_path, monkeypatch):
    # both commands run the one rho_ratio pipeline, so a curve from its
    # task table is what each writes, byte for byte
    curve = ForceCurve(np.array([150e-9, 250e-9]), np.array([1.5, 1.25]),
                       unit="dimensionless")
    monkeypatch.setitem(casigrat.pipeline._TASK_FNS, "rho_ratio",
                        lambda config: {"rho_theory": curve})
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RHO_CFG)
    for command in ("grating", "pipeline"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == 0
    written = [(tmp_path / command / "rho_ratio_rho_theory.csv").read_bytes()
               for command in ("grating", "pipeline")]
    assert written[0] == written[1]
    rho = ForceCurve.from_csv(tmp_path / "grating" / "rho_ratio_rho_theory.csv")
    assert rho.values.tolist() == [1.5, 1.25]


def test_electrostatics_outputs_ordered_curves(tmp_path):
    cfg = tmp_path / "es.cfg"
    cfg.write_text(ES_CFG)
    out_dir = tmp_path / "out"
    assert main(["electrostatics", "--config", str(cfg),
                 "--out", str(out_dir)]) == 0
    flat = ForceCurve.from_csv(out_dir / "electrostatic_gradient_flat.csv")
    corr = ForceCurve.from_csv(out_dir /
                               "electrostatic_gradient_corrugated.csv")
    assert np.all(corr.values < flat.values)


def test_electrostatics_writes_what_the_pipeline_writes(tmp_path,
                                                         monkeypatch):
    # both commands run the one electrostatic_gradient pipeline, so the
    # curves of its task table are what each writes, byte for byte
    z = np.array([150e-9, 300e-9])
    curves = {name: ForceCurve(z, values, unit="N/m") for name, values in
              (("flat", np.array([2.5e-3, 1.25e-3])),
               ("corrugated", np.array([2e-3, 1e-3])))}
    monkeypatch.setitem(casigrat.pipeline._TASK_FNS, "electrostatic_gradient",
                        lambda config: curves)
    cfg = tmp_path / "es.cfg"
    cfg.write_text(ES_CFG)
    for command in ("electrostatics", "pipeline"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == 0
    for name in curves:
        written = [(tmp_path / command / f"electrostatic_gradient_{name}.csv"
                    ).read_bytes() for command in ("electrostatics",
                                                   "pipeline")]
        assert written[0] == written[1]
    assert sorted(p.name for p in (tmp_path / "electrostatics").iterdir()) \
        == ["electrostatic_gradient_corrugated.csv",
            "electrostatic_gradient_flat.csv"]


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


@pytest.mark.parametrize("model_name", ["plate", "fem"])
def test_calibrate_plate_and_fem_recover_truth(tmp_path, model_name):
    from casigrat.calibration import (fem_gradient_model,
                                      plate_gradient_model,
                                      synthesize_frequency_shifts,
                                      write_frequency_shift_samples)
    from casigrat.geometry import GratingProfile
    argv = []
    if model_name == "plate":
        model = plate_gradient_model(50e-6)
    else:  # a geometry unlike the reference trench, read from --config
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("[geometry]\nperiod = 400nm\ntop_width = 200nm\n"
                       "floor_width = 200nm\ndepth = 100nm\n"
                       "wall_angle = 90deg\n")
        model = fem_gradient_model(
            GratingProfile(400e-9, 200e-9, 200e-9, 100e-9, 90.0), 50e-6,
            150e-9, 1e-6)
        argv = ["--config", str(cfg), "--fem-z-min", "150nm",
                "--fem-z-max", "1um"]
    samples = synthesize_frequency_shifts(
        -614.0, 800e-9, model, voltages=(0.245, 0.300),
        z_piezo=np.linspace(0.0, 600e-9, 13))
    csv_in = tmp_path / "sweep.csv"
    write_frequency_shift_samples(csv_in, samples)
    report = tmp_path / "fit.csv"
    assert main(["calibrate", "--input", str(csv_in), "--model", model_name,
                 "--radius", "50um", "--out", str(report)] + argv) == 0
    meta, ((coeff, z0, _), _) = read_table(report, ("value", "sigma"))
    assert meta == {"model": model_name}
    assert coeff == pytest.approx(-614.0, rel=1e-6)
    assert z0 == pytest.approx(800e-9, rel=1e-6)


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


@pytest.mark.parametrize("argv, summary", [
    (["materials", "--check"], "gold leads doped silicon at low frequency"),
    (["planar", "--check"], "attraction decays with separation"),
    (["pfa", "--check"], "un-etched profile reduces to the flat law"),
    (["grating", "--check"],
     "un-etched grating reproduces the ideal planar pin"),
    (["electrostatics", "--check"],
     "matched potentials give exactly zero force"),
    (["calibrate", "--check"], "residual-voltage vertex recovery"),
    (["pipeline", "--check"], "rerun is byte-identical"),
    (["pipeline", "--check", "--all-checks"], "17/17 checks passed"),
], ids=["materials", "planar", "pfa", "grating", "electrostatics",
        "calibrate", "pipeline", "all"])
def test_check_flag_runs_suite(capsys, argv, summary):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert summary in out


def unreachable(*args, **kwargs):
    raise AssertionError("the computation ran")


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["calibrate"])  # missing --input
    assert exc.value.code == 2
    assert main(["pipeline", "--config", str(tmp_path / "missing.cfg")]) == 2
    # a directory where a file is read, bytes that are not UTF-8, and an
    # existing file where an output directory goes
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"[pipeline]\ntask = rho_ratio\n# d\xe9pth\n")
    measured_dir = tmp_path / "measured_dir.cfg"
    measured_dir.write_text("[pipeline]\ntask = rho_ratio\n[measured]\n"
                            f"gradient_csv = {a_dir}\n")
    for argv, named in ((["pipeline", "--config", str(a_dir)], a_dir),
                        (["calibrate", "--input", str(a_dir)], a_dir),
                        (["pipeline", "--config", str(measured_dir)], a_dir),
                        (["pipeline", "--config", str(not_utf8)], not_utf8)):
        with monkeypatch.context() as m:
            m.setattr(casigrat.grating, "casimir_pressure_grating_grid",
                      unreachable)
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert str(named) in capsys.readouterr().err
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    rho_cfg, flat_cfg = tmp_path / "rho.cfg", tmp_path / "flat.cfg"
    rho_cfg.write_text(SMALL_RHO_CFG)
    flat_cfg.write_text(PC_FLAT_CFG)
    for argv in (["electrostatics"], ["grating", "--config", str(rho_cfg)],
                 ["pipeline", "--config", str(flat_cfg)]):
        with monkeypatch.context() as m:  # the output path fails first
            m.setitem(casigrat.pipeline._TASK_FNS, "electrostatic_gradient",
                      unreachable)
            m.setitem(casigrat.pipeline._TASK_FNS, "rho_ratio", unreachable)
            m.setitem(casigrat.pipeline._TASK_FNS, "flat_force_gradient",
                      unreachable)
            assert main(argv + ["--out", str(a_file)]) == 2
        assert str(a_file) in capsys.readouterr().err
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("z_piezo_nm,theta_rad,V_volt,delta_f_hz\n"
                      "100,0,0.3,-1\n200,0,0.3,-1.1\n300,0,0.3,-1.2\n")
    for argv in (["planar", "--z", "200nm"], ["pfa", "--z", "200nm"],
                 ["materials", "--name", "gold_drude"],
                 ["calibrate", "--input", str(shifts)]):
        with monkeypatch.context() as m:  # the output path fails first
            m.setattr(casigrat.cli, "casimir_pressure_planar", unreachable)
            m.setattr(casigrat.cli, "flat_pressure_law", unreachable)
            m.setattr(casigrat.materials.Drude, "epsilon", unreachable)
            m.setattr(casigrat.cli, "fit_calibration", unreachable)
            assert main(argv + ["--out", str(a_file / "p.csv")]) == 2
        assert str(a_file) in capsys.readouterr().err
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
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("z_piezo_nm,theta_rad,V_volt,delta_f_hz\n"
                     "100,0,0.3,-1\n200,0,0.3,-1.1\n300,0,0.3,-1.2\n")
    assert main(["calibrate", "--input", str(sweep), "--model", "fem",
                 "--config", str(narrow_trench)]) == 2
    err = capsys.readouterr().err
    assert "[geometry]" in err and "top_width" in err
    # a config whose task reads no [geometry], read for its geometry, and
    # configs of another task
    for argv, cfg in (
            (["pfa", "--z", "150nm", "--out", str(tmp_path / "p.csv")],
             flat_cfg),
            (["calibrate", "--input", str(sweep), "--model", "fem"], flat_cfg),
            (["grating", "--out", str(tmp_path / "out")], flat_cfg),
            (["electrostatics", "--out", str(tmp_path / "out")], rho_cfg)):
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"--config {cfg}: task" in err
    assert main(["calibrate", "--input", str(sweep), "--model", "fem",
                 "--fem-z-min", "500nm", "--fem-z-max", "100nm"]) == 2
    err = capsys.readouterr().err
    assert "--fem-z-min" in err and "--fem-z-max" in err
    for flag, value in (("--v0", "abc"), ("--lever-b", "3furlongs"),
                        ("--fem-z-min", "abc"), ("--fem-z-max", "3furlongs"),
                        ("--v0", "1nm"), ("--lever-b", "3"),
                        ("--fem-z-min", "100mV")):
        assert main(["calibrate", "--input", str(sweep), "--model", "fem",
                     f"{flag}={value}"]) == 2
        assert f"{flag}: " in capsys.readouterr().err
    header = "z_piezo_nm,theta_rad,V_volt,delta_f_hz\n"
    good = "100,0,0.3,-1\n"
    for name, text, line in (
            ("columns", "z_piezo_nm,theta_rad\n100,0\n", None),
            ("no_rows", header, None),
            ("nan", header + "100,0,0.3,nan\n200,0,0.3,-1.1\n", 2),
            ("word", header + good + "200,0,abc,-1.1\n", 3),
            ("short", header + good + "200,0,0.3\n", 3),
            ("long", header + good + "200,0,0.3,-1.1,7\n", 3)):
        bad_input = tmp_path / f"{name}.csv"
        bad_input.write_text(text)
        for extra in ([], ["--find-v0"]):
            assert main(["calibrate", "--input", str(bad_input)] + extra) == 2
            err = capsys.readouterr().err
            assert f"--input {bad_input}" in err
            if line is not None:
                assert f"{bad_input}:{line}" in err
    # readable samples that admit no vertex fit: two voltages on a distance
    # sweep (the shape of perfbench's es_calibration CSV), and two rows
    two_volts = [f"{100 + 50 * k},0,{v},{-1 - 0.1 * k}\n"
                 for v in (0.245, 0.3) for k in range(13)]
    for name, text in (("two_volts", header + "".join(two_volts)),
                       ("two_rows", header + good + "200,0,0.4,-1.1\n")):
        bad_input = tmp_path / f"{name}.csv"
        bad_input.write_text(text)
        assert main(["calibrate", "--input", str(bad_input),
                     "--find-v0"]) == 2
        assert f"--input {bad_input}" in capsys.readouterr().err
    tiny_depth = tmp_path / "tiny_depth.cfg"
    tiny_depth.write_text("[pipeline]\ntask = electrostatic_gradient\n"
                          "[geometry]\nperiod = 400nm\ntop_width = 200nm\n"
                          "floor_width = 200nm\nwall_angle = 90deg\n"
                          "depth = 1e-320m\n")
    for argv in (["pipeline", "--config", str(tiny_depth)],
                 ["electrostatics", "--config", str(tiny_depth)],
                 ["calibrate", "--input", str(sweep), "--model", "fem",
                  "--config", str(tiny_depth)]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[geometry]" in err and "depth" in err
    # a flat grid that starts inside the default roughness pad of
    # 3 sqrt(4^2 + 0.6^2) nm = 12.1 nm
    inside_pad = tmp_path / "inside_pad.cfg"
    inside_pad.write_text("[pipeline]\ntask = flat_force_gradient\n"
                          "[grid]\nz = 5:20:5nm\n")
    with monkeypatch.context() as m:
        m.setattr(casigrat.pipeline, "flat_pressure_law", unreachable)
        assert main(["pipeline", "--config", str(inside_pad),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[grid] z" in err and "[roughness]" in err and "pad" in err
    assert main(["planar", "--z", "100:1e400:25nm"]) == 2
    assert "--z" in capsys.readouterr().err
    for argv, flag in ((["planar", "--z", "100:abc:25nm"], "--z"),
                       (["planar", "--z", "0.5:1e300:1e-300m"], "--z"),
                       (["planar", "--z=200:300:100"], "--z"),
                       (["pfa", "--z=200nm,300V"], "--z"),
                       (["materials", "--name", "gold_drude",
                         "--xi=2e14:2e15:2e14Hz"], "--xi")):
        assert main(argv + ["--out", str(tmp_path / "z.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert main(["materials", "--name", "perfect_conductor",
                 "--out", str(tmp_path / "eps.csv")]) == 2
    assert "--name" in capsys.readouterr().err
    for argv in (["pfa", "--radius=0um"],
                 ["planar", "--gradient", "--radius=0um"],
                 ["planar", "--z", "100nm", "--gradient", "--radius=1e400um"],
                 ["planar", "--gradient", "--radius=50V"],
                 ["pfa", "--radius=50"],
                 ["calibrate", "--input", str(sweep), "--radius=0um"],
                 ["calibrate", "--input", str(sweep), "--model", "fem",
                  "--radius=-1um"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "--radius" in capsys.readouterr().err
    for task in ("flat_force_gradient", "electrostatic_gradient"):
        zero_radius = tmp_path / f"{task}_radius.cfg"
        zero_radius.write_text(f"[pipeline]\ntask = {task}\n"
                               "[sphere]\nradius = 0um\n")
        assert main(["pipeline", "--config", str(zero_radius),
                     "--out", str(tmp_path / "out")]) == 2
        assert "[sphere] radius" in capsys.readouterr().err
    # each bad value's message starts with its key; a misspelt key's
    # message names the nearest known key
    for task, line, key, hint in (
            ("electrostatic_gradient", "table_points = 4", "table_points",
             ""),
            ("flat_force_gradient", "table_points = 2", "table_points", ""),
            ("rho_ratio", "orders = -1", "orders", ""),
            ("rho_ratio", "orders = 101", "orders", ""),
            ("rho_ratio", "slices = 0", "slices", ""),
            ("electrostatic_gradient", "table_pionts = 12", "table_pionts",
             "did you mean 'table_points'?"),
            ("electrostatic_gradient", "[geometry]\ndepth = 98mV",
             "[geometry] depth",
             "expected a length (m, mm, um, µm, nm, pm), got '98mV'"),
            ("flat_force_gradient", "[grid]\nz = 200:300:100", "[grid] z",
             "expected a length")):
        key = key if key.startswith("[") else f"[solver] {key}"
        bad_solver = tmp_path / "bad_key.cfg"
        bad_solver.write_text(f"[pipeline]\ntask = {task}\n[solver]\n{line}\n")
        with monkeypatch.context() as m:
            m.setattr(casigrat.grating, "casimir_pressure_grating_grid",
                      unreachable)
            m.setattr(casigrat.pipeline, "fem_gradient_model", unreachable)
            m.setattr(casigrat.pipeline, "flat_pressure_law", unreachable)
            assert main(["pipeline", "--config", str(bad_solver),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and hint in err
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("z_nm,value\n100,1e-3\n150,2e-3,7\n")
    bad_measured = tmp_path / "bad_measured.cfg"
    bad_measured.write_text("[pipeline]\ntask = rho_ratio\n[measured]\n"
                            f"gradient_csv = {malformed}\n")
    assert main(["pipeline", "--config", str(bad_measured),
                 "--out", str(tmp_path / "out")]) == 2
    assert "[measured] gradient_csv" in capsys.readouterr().err
    for name, rows, line in (
            ("no_rows", "", None), ("zero_z", "0,1e-3\n100,2e-3\n", None),
            ("nan_value", "100,1e-3\n150,nan\n", 3),
            ("inf_z", "100,1e-3\ninf,2e-3\n", 3)):
        measured = tmp_path / f"{name}.csv"
        measured.write_text(f"z_nm,value\n{rows}")
        bad_measured.write_text("[pipeline]\ntask = rho_ratio\n[solver]\n"
                                "orders = 1\n[measured]\n"
                                f"gradient_csv = {measured}\n")
        assert main(["pipeline", "--config", str(bad_measured),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[measured] gradient_csv" in err
        if line is not None:
            assert f"{measured}:{line}" in err
    bad_rough = tmp_path / "bad_roughness.cfg"
    for n_points in (0, 100_001):
        bad_rough.write_text("[pipeline]\ntask = flat_force_gradient\n"
                             f"[roughness]\nn_points = {n_points}\n")
        assert main(["pipeline", "--config", str(bad_rough),
                     "--out", str(tmp_path / "out")]) == 2
        assert "[roughness] n_points" in capsys.readouterr().err
    for task, key in (("flat_force_gradient", "sphere"),
                      ("flat_force_gradient", "plane"),
                      ("rho_ratio", "grating")):
        bad_material = tmp_path / f"{task}_{key}_material.cfg"
        bad_material.write_text(f"[pipeline]\ntask = {task}\n[materials]\n"
                                f"{key} = golld\n")
        assert main(["pipeline", "--config", str(bad_material),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"[materials] {key}" in capsys.readouterr().err
    for argv, flag in ((["planar", "--z=-100:600:100nm"], "--z"),
                       (["pfa", "--z=0:300:100nm"], "--z"),
                       (["materials", "--name", "gold_drude", "--xi=-2e14"],
                        "--xi"),
                       (["materials", "--name", "gold_drude",
                         "--xi=0:4e14:2e14"], "--xi")):
        assert main(argv + ["--out", str(tmp_path / "g.csv")]) == 2
        assert flag in capsys.readouterr().err
    for task, grid in (("flat_force_gradient", "0:200:100nm"),
                       ("electrostatic_gradient", "-100:200:100nm"),
                       ("electrostatic_gradient", "150nm"),
                       ("rho_ratio", "-50nm,100nm")):
        bad_grid = tmp_path / f"{task}_grid.cfg"
        bad_grid.write_text(f"[pipeline]\ntask = {task}\n[grid]\nz = {grid}\n")
        assert main(["pipeline", "--config", str(bad_grid),
                     "--out", str(tmp_path / "out")]) == 2
        assert "[grid] z" in capsys.readouterr().err


def test_sweep_inputs_checked_before_grating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(casigrat.grating, "casimir_pressure_grating_grid",
                        unreachable)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RHO_CFG)
    for sweep in ("4:2:2", "x", "-2,4", "0:100000:1", "2,101"):
        assert main(["grating", "--config", str(cfg), f"--sweep-N={sweep}",
                     "--out", str(tmp_path / "out")]) == 2
        assert "--sweep-N" in capsys.readouterr().err
    for line, key in (("[grid]\nz = -5nm", "[grid] z"),
                      ("[solver]\norders = 101", "[solver] orders"),
                      ("[materials]\nplane = golld", "[materials] plane")):
        bad = tmp_path / "bad_sweep.cfg"
        bad.write_text("[pipeline]\ntask = rho_ratio\n" + line + "\n")
        assert main(["grating", "--config", str(bad), "--sweep-N", "2:4:2",
                     "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err


def test_slices_cap_exits_2_before_grating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(casigrat.grating, "casimir_pressure_grating_grid",
                        unreachable)
    cfg = tmp_path / "slices.cfg"
    cfg.write_text("[pipeline]\ntask = rho_ratio\n[solver]\n"
                   f"slices = {casigrat.grating.MAX_SLICES + 1}\n")
    for argv in (["pipeline", "--config", str(cfg)],
                 ["grating", "--config", str(cfg)],
                 ["grating", "--config", str(cfg), "--sweep-N", "2:4:2"]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[solver]" in err and "slices" in err


def test_worker_cap_exits_2_before_any_pool(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(casigrat.grating, "ThreadPoolExecutor", unreachable)
    monkeypatch.setenv("CASIGRAT_WORKERS",
                       str(casigrat.grating.MAX_WORKERS + 1))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RHO_CFG)
    for argv in (["pipeline", "--config", str(cfg)],
                 ["grating", "--config", str(cfg), "--sweep-N", "2:4:2"]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "CASIGRAT_WORKERS" in capsys.readouterr().err


def test_numerical_failures_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("z_piezo_nm,theta_rad,V_volt,delta_f_hz\n"
                   "100,0,0.3,-1\n200,0,0.3,-1.1\n300,0,0.3,-1.2\n")
    assert main(["calibrate", "--input", str(bad)]) == 1


def test_numerical_failure_in_a_named_block_exits_1(tmp_path, monkeypatch,
                                                     capsys):
    # named turns only ValueError and KeyError into usage errors
    def diverges(*args, **kwargs):
        raise NumericalError("diverged")

    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RHO_CFG)
    for target, name, argv in (
            (casigrat.cli, "read_frequency_shift_samples",
             ["calibrate", "--input", str(tmp_path / "shifts.csv")]),
            (casigrat.pipeline, "GratingProfile",
             ["pipeline", "--config", str(cfg)])):
        with monkeypatch.context() as m:
            m.setattr(target, name, diverges)
            assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "numerical failure: diverged" in capsys.readouterr().err
