"""Figure recipes: closed-form overrides, orderings, and byte determinism.

Validation routes: the ideal-mirror override pins the flat recipe to the
closed-form gradient; the un-etched grating pins the ratio recipe to 1;
dual runs order idealized above real and trench below flat.
"""

import os
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import casigrat.pipeline
from casigrat import (
    Config,
    ConfigError,
    ForceCurve,
    flat_force_gradient_curve,
    electrostatic_gradient_curves,
    rho_ratio_curves,
    run_pipeline,
    worker_count,
)
from casigrat.grating import MAX_WORKERS
from casigrat.planar import (RoughnessSpec, casimir_pressure_planar,
                             ideal_pressure, roughness_average)

RADIUS = 50e-6
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _cfg(body: str) -> Config:
    return Config.from_text(body)


PC_FLAT = """\
[pipeline]
task = flat_force_gradient
[materials]
sphere = perfect_conductor
plane = perfect_conductor
[roughness]
enabled = false
[grid]
z = 150:450:150nm
[solver]
table_points = 32
"""

REAL_FLAT = """\
[pipeline]
task = flat_force_gradient
[grid]
z = 100:200:50nm
[solver]
table_points = 24
"""


def test_ideal_override_reproduces_closed_form():
    curve = flat_force_gradient_curve(_cfg(PC_FLAT))["force_gradient"]
    expected = np.array([2.0 * np.pi * RADIUS * abs(ideal_pressure(z))
                         for z in curve.z])
    assert np.max(np.abs(curve.values / expected - 1.0)) < 1e-4
    assert curve.unit == "N/m"


def test_shipped_flat_recipe_matches_direct_roughness_average(gold, silicon):
    cfg = Config.from_file(CONFIGS / "flat_force_gradient.cfg")
    curve = flat_force_gradient_curve(cfg)["force_gradient"]
    spec = RoughnessSpec.combined_gaussian(4e-9, 0.6e-9, 21)
    for z in (100e-9, 600e-9):
        direct = roughness_average(np.vectorize(
            lambda s: casimir_pressure_planar(gold, silicon, s)), z, spec)
        got = curve.values[np.argmin(np.abs(curve.z - z))]
        assert got / (2.0 * np.pi * RADIUS * abs(direct)) == \
            pytest.approx(1.0, abs=1e-6)


def test_roughness_increases_close_range_gradient():
    rough = flat_force_gradient_curve(_cfg(REAL_FLAT))["force_gradient"]
    smooth_cfg = _cfg(REAL_FLAT + "[roughness]\nenabled = false\n")
    smooth = flat_force_gradient_curve(smooth_cfg)["force_gradient"]
    # averaging a convex law over gap fluctuations raises the magnitude
    assert rough.values[0] > smooth.values[0]
    assert np.all(rough.values > smooth.values)


def test_flat_gradient_monotone_decreasing():
    curve = flat_force_gradient_curve(_cfg(REAL_FLAT))["force_gradient"]
    assert np.all(np.diff(curve.values) < 0.0)
    assert np.all(curve.values > 0.0)


def test_unetched_ratio_is_unity():
    cfg = _cfg("[pipeline]\ntask = rho_ratio\n"
               "[geometry]\nperiod = 400nm\ntop_width = 400nm\n"
               "floor_width = 0nm\ndepth = 0nm\nwall_angle = 90deg\n"
               "[grid]\nz = 150nm\n[solver]\norders = 2\nslices = 1\n")
    rho = rho_ratio_curves(cfg)["rho_theory"]
    assert rho.values[0] == pytest.approx(1.0, abs=2e-3)


def test_idealized_conductor_ratio_bounds_real():
    base = ("[pipeline]\ntask = rho_ratio\n"
            "[grid]\nz = 120nm,250nm\n[solver]\norders = 4\nslices = 2\n")
    real = rho_ratio_curves(_cfg(base))["rho_theory"]
    proxy = _cfg(base + "[materials]\ngrating = conductor_proxy\n"
                        "plane = conductor_proxy\n")
    ideal = rho_ratio_curves(proxy)["rho_theory"]
    assert np.all(ideal.values > real.values)
    assert np.all(real.values > 1.0)


def test_measured_ratio_ingestion(tmp_path):
    from casigrat.curves import ForceCurve
    from casigrat.pipeline import _profile_from_config
    from casigrat.pfa import flat_pressure_law, pfa_corrugated

    base = ("[pipeline]\ntask = rho_ratio\n"
            "[grid]\nz = 150nm\n[solver]\norders = 2\nslices = 2\n")
    cfg0 = _cfg(base)
    profile = _profile_from_config(cfg0)
    from casigrat.materials import get_material
    law = flat_pressure_law(get_material("gold_drude"),
                            get_material("silicon_doped"),
                            120e-9, 200e-9 + profile.depth)
    z_meas = np.array([120e-9, 160e-9, 200e-9])
    boost = 1.07
    grad = np.array([2.0 * np.pi * RADIUS
                     * abs(pfa_corrugated(law, profile, z)) * boost
                     for z in z_meas])
    path = tmp_path / "measured.csv"
    ForceCurve(z_meas, grad, unit="N/m", label="measured").to_csv(path)

    cfg = _cfg(base + f"[measured]\ngradient_csv = {path}\n")
    curves = rho_ratio_curves(cfg)
    measured = curves["rho_measured"]
    assert measured.values == pytest.approx(boost, rel=2e-3)
    assert "rho_theory" in curves


def test_measured_csv_read_before_grating(tmp_path, monkeypatch):
    import casigrat.grating

    def unreachable(*args, **kwargs):
        raise AssertionError("grating ran before the measured CSV was read")

    monkeypatch.setattr(casigrat.grating, "casimir_pressure_grating_grid",
                        unreachable)
    cfg = _cfg("[pipeline]\ntask = rho_ratio\n[measured]\n"
               f"gradient_csv = {tmp_path / 'missing.csv'}\n")
    with pytest.raises(FileNotFoundError):
        rho_ratio_curves(cfg)


ES_CFG = """\
[pipeline]
task = electrostatic_gradient
[grid]
z = 150:450:100nm
[solver]
table_points = 12
"""


def test_trench_gradient_below_flat():
    curves = electrostatic_gradient_curves(_cfg(ES_CFG))
    flat, corr = curves["flat"], curves["corrugated"]
    assert np.all(corr.values < flat.values)
    assert np.all(corr.values > 0.0)
    assert np.all(np.diff(flat.values) < 0.0)
    assert np.all(np.diff(corr.values) < 0.0)


def _recipe_inputs(config: Config, monkeypatch) -> dict:
    """What the rho or electrostatic recipe hands its costly calls."""
    seen = {}

    def rho(profile, model_g, model_p, z_grid, spec, workers=None):
        seen.update(geometry=astuple(profile), z=z_grid.tolist(), spec=spec)
        return ForceCurve(z_grid, np.ones(z_grid.size), unit="dimensionless")

    def series(es):
        seen.update(radius=es.R, z=es.d.tolist(), volt=es.V, v0=es.V0)
        return np.ones(es.d.size)

    def fem(profile, radius, z_min, z_max, n_points, v0):
        seen.update(geometry=astuple(profile), fem_radius=radius,
                    fem=(z_min, z_max, n_points, v0))
        return lambda z, volt: seen.update(fem_volt=volt) or np.zeros(z.size)

    monkeypatch.setattr(casigrat.pipeline, "rho_ratio", rho)
    monkeypatch.setattr(casigrat.pipeline, "sphere_plane_gradient", series)
    monkeypatch.setattr(casigrat.pipeline, "fem_gradient_model", fem)
    curves = casigrat.pipeline._TASK_FNS[config.string("pipeline", "task")](
        config)
    seen["materials"] = next(iter(curves.values())).metadata.get("materials")
    return seen


@pytest.mark.parametrize("task", ["rho_ratio", "electrostatic_gradient"])
def test_shipped_configs_restate_the_recipe_defaults(task, monkeypatch):
    # casigrat grating and electrostatics without --config run the built-in
    # defaults, so they must compute what the shipped configs compute
    shipped = _recipe_inputs(Config.from_file(CONFIGS / f"{task}.cfg"),
                             monkeypatch)
    built_in = _recipe_inputs(_cfg(f"[pipeline]\ntask = {task}\n"),
                              monkeypatch)
    assert shipped.keys() == built_in.keys()
    for key in shipped:
        assert shipped[key] == built_in[key], key


def test_shipped_configs_read_without_defaults(monkeypatch):
    # perfbench/workloads.py (rho_op, _profile) reads shipped configs with
    # bare (section, key) accessor calls; they give what the recipes use
    read = {}
    for task in ("rho_ratio", "electrostatic_gradient"):
        config = Config.from_file(CONFIGS / f"{task}.cfg")
        seen = _recipe_inputs(config, monkeypatch)
        assert seen["geometry"] == tuple(
            config.quantity("geometry", key) for key in
            ("period", "top_width", "floor_width", "depth", "wall_angle"))
        assert seen["z"] == config.grid("grid", "z").tolist()
        read[task] = (config, seen)
    rho, seen = read["rho_ratio"]
    assert (seen["spec"].orders, seen["spec"].n_slices) == (
        rho.integer("solver", "orders"), rho.integer("solver", "slices"))
    assert seen["materials"] == (f"{rho.string('materials', 'grating')}/"
                                 f"{rho.string('materials', 'plane')}")
    es, seen = read["electrostatic_gradient"]
    assert seen["radius"] == seen["fem_radius"] == es.quantity("sphere",
                                                                "radius")
    assert (seen["volt"], seen["v0"]) == (es.quantity("voltage", "applied"),
                                          es.quantity("voltage", "residual"))
    assert seen["fem"][2] == es.integer("solver", "table_points")


def test_run_pipeline_writes_deterministic_csv(tmp_path):
    cfg = _cfg(PC_FLAT)
    first = run_pipeline(cfg, out_dir=tmp_path / "a")
    second = run_pipeline(cfg, out_dir=tmp_path / "a")
    assert first == second
    assert [p.name for p in first] == ["flat_force_gradient_force_gradient.csv"]
    body = first[0].read_bytes()
    run_pipeline(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "b" / first[0].name).read_bytes() == body
    text = body.decode()
    assert "# inputs:" in text and "# task:" in text


def test_run_pipeline_rejects_unknown_task():
    with pytest.raises(ConfigError, match="unknown pipeline task"):
        run_pipeline(_cfg("[pipeline]\ntask = nonsense\n"))
    with pytest.raises(ConfigError, match="missing required"):
        run_pipeline(_cfg("[grid]\nz = 150nm\n"))


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("CASIGRAT_WORKERS", raising=False)
    # unset, the count is the cores this process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7},
                        raising=False)
    assert worker_count() == 4
    monkeypatch.setenv("CASIGRAT_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CASIGRAT_WORKERS", "zero")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("CASIGRAT_WORKERS", "0")
    with pytest.raises(ConfigError):
        worker_count()


def test_worker_count_cap(monkeypatch):
    monkeypatch.delenv("CASIGRAT_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(MAX_WORKERS + 1)), raising=False)
    assert worker_count() == MAX_WORKERS
    monkeypatch.setenv("CASIGRAT_WORKERS", str(MAX_WORKERS))
    assert worker_count() == MAX_WORKERS
    monkeypatch.setenv("CASIGRAT_WORKERS", str(MAX_WORKERS + 1))
    with pytest.raises(ConfigError, match="CASIGRAT_WORKERS"):
        worker_count()
