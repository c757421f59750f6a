"""Oscillator calibration: round-trips, degeneracies, and data interchange.

Validation routes: noiseless forward-model/fit round-trips for both the
series and the capacitor-FEM gradient models, Monte-Carlo consistency of
the reported 1-sigma errors, exact-cancellation equivalence of
background subtraction and voltage differencing, and closed-form vertex
recovery for the residual voltage.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from casigrat import (
    CalibrationFit,
    FitError,
    FrequencyShiftSample,
    fem_gradient_model,
    find_residual_voltage,
    fit_calibration,
    inertia_from_coefficient,
    oscillator_coefficient,
    plate_gradient_model,
    predict_frequency_shift,
    read_frequency_shift_samples,
    series_gradient_model,
    synthesize_frequency_shifts,
    write_frequency_shift_samples,
)
from casigrat import calibration
from casigrat.calibration import GradientModel

RADIUS = 151.7e-6
COEFF = -614.0
Z0 = 800e-9
LEVER = 210e-6
F0 = 1783.0
PIEZO = np.linspace(0.0, 600e-9, 13)
VOLTS = (0.245, 0.300)


@pytest.fixture(scope="module")
def series_model():
    return series_gradient_model(RADIUS)


@pytest.fixture(scope="module")
def noiseless_samples(series_model):
    return synthesize_frequency_shifts(COEFF, Z0, series_model,
                                       voltages=VOLTS, z_piezo=PIEZO)


def test_predict_frequency_shift_arithmetic():
    assert predict_frequency_shift(COEFF, 0.0) == 0.0
    assert abs(predict_frequency_shift(-614.0, 1e-6)) == pytest.approx(
        6.14e-4, rel=1e-12)


def test_oscillator_coefficient_roundtrip():
    inertia = inertia_from_coefficient(COEFF, LEVER, F0)
    assert inertia > 0.0
    assert oscillator_coefficient(LEVER, inertia, F0) == pytest.approx(
        COEFF, rel=1e-12)
    with pytest.raises(ValueError):
        oscillator_coefficient(-1.0, inertia, F0)
    with pytest.raises(ValueError):
        inertia_from_coefficient(614.0, LEVER, F0)


def test_noiseless_roundtrip_series(noiseless_samples, series_model):
    fit = fit_calibration(noiseless_samples, series_model)
    assert fit.coeff == pytest.approx(COEFF, rel=1e-6)
    assert fit.z0 == pytest.approx(Z0, rel=1e-6)
    assert fit.rss < 1e-12
    assert "coeff" in fit.report()


def test_noiseless_roundtrip_fem(trench):
    model = fem_gradient_model(trench, RADIUS, z_min=150e-9, z_max=900e-9,
                               n_points=16)
    samples = synthesize_frequency_shifts(COEFF, Z0, model, voltages=VOLTS,
                                          z_piezo=PIEZO)
    fit = fit_calibration(samples, model)
    assert fit.coeff == pytest.approx(COEFF, rel=1e-6)
    assert fit.z0 == pytest.approx(Z0, rel=1e-6)


def test_fem_gradient_model_behaves(trench):
    model = fem_gradient_model(trench, RADIUS, z_min=150e-9, z_max=600e-9,
                               n_points=16)
    grads = [model(z, 0.3) for z in (200e-9, 300e-9, 500e-9)]
    assert all(g > 0.0 for g in grads)
    assert grads[0] > grads[1] > grads[2]
    with pytest.raises(ValueError):
        model(100e-9, 0.3)  # outside the tabulated window
    with pytest.raises(ValueError):
        fem_gradient_model(trench, RADIUS, z_min=0.0, z_max=1e-7)
    with pytest.raises(ValueError, match="^n_points must be an integer"):
        fem_gradient_model(trench, RADIUS, 150e-9, 600e-9, n_points=48.5)


@pytest.mark.parametrize("radius", [0.0, math.inf, math.nan])
@pytest.mark.parametrize("builder", [series_gradient_model,
                                     plate_gradient_model])
def test_gradient_model_radius_named(builder, radius):
    # an infinite radius gave an infinite gradient, a NaN one failed only
    # when called, naming the domain
    with pytest.raises(ValueError, match="^radius must be positive and "
                                         "finite"):
        builder(radius)


@pytest.mark.parametrize("z_min, z_max", [(150e-9, math.inf),
                                          (150e-9, math.nan),
                                          (math.nan, 600e-9)])
def test_fem_gradient_model_rejects_non_finite_window(trench, z_min, z_max):
    with pytest.raises(ValueError, match=r"z_min < z_max < inf, got z_min"):
        fem_gradient_model(trench, RADIUS, z_min=z_min, z_max=z_max)


@pytest.fixture(scope="module")
def array_models(trench):
    return {"series": series_gradient_model(RADIUS, v0=0.01),
            "plate": plate_gradient_model(RADIUS, v0=-0.02),
            "fem": fem_gradient_model(trench, RADIUS, z_min=150e-9,
                                      z_max=900e-9, n_points=16, v0=0.01)}


# no explain phase: it re-runs a failing example for minutes
@settings(max_examples=25, deadline=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))
@given(name=st.sampled_from(["series", "plate", "fem"]),
       gaps=st.lists(st.floats(150e-9, 900e-9), min_size=1, max_size=6),
       volts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
def test_array_call_matches_scalar_calls(array_models, name, gaps, volts):
    model = array_models[name]
    z = np.array(gaps)[None, :]
    v = np.array(volts)[:, None]
    got = model(z, v)
    assert got.shape == (len(volts), len(gaps))
    for i, volt in enumerate(volts):
        for j, gap in enumerate(gaps):
            one = model(gap, volt)
            assert type(one) is float
            assert got[i, j] == one  # bit for bit, not approximately


def test_domain_error_names_the_offending_gap(array_models):
    with pytest.raises(ValueError, match=r"gap 1\.000e-07 m outside the "
                                         r"capacitor-fem"):
        array_models["fem"](np.array([200e-9, 100e-9, 50e-9]), 0.3)
    with pytest.raises(ValueError, match=r"gap 2\.000e-05 m"):
        array_models["series"](np.array([[1e-7], [2e-5]]), (0.2, 0.3))


def test_seeded_synthesis_is_pinned(series_model):
    # values recorded from the scalar-loop implementation: the array
    # forward model and the single noise draw must reproduce them exactly
    samples = synthesize_frequency_shifts(
        COEFF, Z0, series_model, voltages=VOLTS, z_piezo=PIEZO,
        noise_frac=0.01, rng=np.random.default_rng(11))
    pinned = {0: -0.24265373788301592, 7: -0.7668063986258978,
              12: -3.9127174980724195, 13: -0.36320795261040745,
              25: -5.779551463076164}
    assert {k: samples[k].delta_f for k in pinned} == pinned
    assert (samples[13].volt, samples[13].z_piezo) == (0.3, 0.0)


def test_noisy_recovery_within_three_sigma(series_model, rng):
    noisy = synthesize_frequency_shifts(COEFF, Z0, series_model,
                                        voltages=VOLTS, z_piezo=PIEZO,
                                        noise_frac=0.01, rng=rng)
    fit = fit_calibration(noisy, series_model)
    assert abs(fit.coeff - COEFF) <= 3.0 * fit.coeff_sigma
    assert abs(fit.z0 - Z0) <= 3.0 * fit.z0_sigma
    assert fit.coeff_sigma > 0.0


def test_fit_invariant_under_piezo_offset(noiseless_samples, series_model):
    offset = 73e-9
    shifted = [FrequencyShiftSample(s.z_piezo + offset, s.theta, s.volt,
                                    s.delta_f) for s in noiseless_samples]
    fit = fit_calibration(shifted, series_model)
    assert fit.coeff == pytest.approx(COEFF, rel=1e-6)
    assert fit.z0 == pytest.approx(Z0 + offset, rel=1e-6)


def test_lever_arm_enters_distance(series_model, rng):
    thetas = 1e-6 * rng.standard_normal(PIEZO.size)
    samples = synthesize_frequency_shifts(COEFF, Z0, series_model,
                                          voltages=VOLTS, z_piezo=PIEZO,
                                          thetas=thetas, lever_b=LEVER)
    fit = fit_calibration(samples, series_model, lever_b=LEVER)
    assert fit.coeff == pytest.approx(COEFF, rel=1e-6)
    assert fit.z0 == pytest.approx(Z0, rel=1e-6)


def test_background_handling_matches_voltage_differencing(series_model):
    # a voltage-independent gradient background must be removable either
    # by modeling it or by differencing shifts at shared distances
    def background(z):
        return 1.2e-30 / z**4  # comparable to the signal at close approach

    samples = synthesize_frequency_shifts(COEFF, Z0, series_model,
                                          voltages=VOLTS, z_piezo=PIEZO,
                                          casimir_background=background)
    fit_bg = fit_calibration(samples, series_model,
                             casimir_background=background)
    fit_diff = fit_calibration(samples, series_model,
                               use_voltage_differences=True)
    for fit in (fit_bg, fit_diff):
        assert fit.coeff == pytest.approx(COEFF, rel=1e-6)
        assert fit.z0 == pytest.approx(Z0, rel=1e-6)
    # an unmodeled background, by contrast, biases the fit
    fit_naive = fit_calibration(samples, series_model)
    assert abs(fit_naive.coeff - COEFF) > 1e-3 * abs(COEFF)


def test_degenerate_designs_raise(series_model, noiseless_samples):
    single_z = synthesize_frequency_shifts(COEFF, Z0, series_model,
                                           voltages=(0.2, 0.25, 0.3),
                                           z_piezo=[100e-9])
    with pytest.raises(FitError, match="one distance"):
        fit_calibration(single_z, series_model)
    single_v = synthesize_frequency_shifts(COEFF, Z0, series_model,
                                           voltages=[0.3],
                                           z_piezo=PIEZO[:5])
    with pytest.raises(FitError, match="voltages"):
        fit_calibration(single_v, series_model)
    with pytest.raises(FitError, match="3 samples"):
        fit_calibration(noiseless_samples[:2], series_model)
    with pytest.raises(FitError, match="repeated distances"):
        fit_calibration(noiseless_samples[:13], series_model,
                        use_voltage_differences=True)


def test_single_voltage_many_distances_is_allowed(series_model):
    samples = synthesize_frequency_shifts(COEFF, Z0, series_model,
                                          voltages=[0.3], z_piezo=PIEZO)
    fit = fit_calibration(samples, series_model)
    assert fit.coeff == pytest.approx(COEFF, rel=1e-6)


def test_vertex_symmetric_three_points_exact():
    volts = (-0.599, -0.499, -0.399)
    shifts = [-(v + 0.499) ** 2 + 0.05 for v in volts]
    samples = [FrequencyShiftSample(1e-7, 0.0, v, df)
               for v, df in zip(volts, shifts)]
    assert find_residual_voltage(samples) == pytest.approx(-0.499, abs=1e-12)


def test_vertex_recovery_on_synthetic_parabola():
    v0 = -0.499
    model = plate_gradient_model(RADIUS, v0=v0)
    volts = np.linspace(-0.8, -0.2, 9)
    samples = [FrequencyShiftSample(1e-7, 0.0, v,
                                    predict_frequency_shift(
                                        COEFF, model(300e-9, v)))
               for v in volts]
    assert find_residual_voltage(samples) == pytest.approx(v0, abs=1e-9)


def test_vertex_error_modes():
    flat = [FrequencyShiftSample(1e-7, 0.0, v, 1.0) for v in (0.1, 0.2, 0.3)]
    with pytest.raises(FitError, match="curvature"):
        find_residual_voltage(flat)
    outside = [FrequencyShiftSample(1e-7, 0.0, v, (v - 2.0) ** 2)
               for v in (0.1, 0.2, 0.3)]
    with pytest.raises(FitError, match="outside"):
        find_residual_voltage(outside)
    mixed_z = [FrequencyShiftSample(z, 0.0, v, v * v)
               for z, v in ((1e-7, 0.1), (2e-7, 0.2), (3e-7, 0.3))]
    with pytest.raises(FitError, match="share one distance"):
        find_residual_voltage(mixed_z)
    with pytest.raises(FitError, match="3 distinct"):
        find_residual_voltage(
            [FrequencyShiftSample(1e-7, 0.0, 0.1, 0.01),
             FrequencyShiftSample(1e-7, 0.0, 0.1, 0.01),
             FrequencyShiftSample(1e-7, 0.0, 0.2, 0.04)])


def test_csv_roundtrip(tmp_path, noiseless_samples):
    path = tmp_path / "sweep.csv"
    write_frequency_shift_samples(path, noiseless_samples)
    back = read_frequency_shift_samples(path)
    assert len(back) == len(noiseless_samples)
    for a, b in zip(noiseless_samples, back):
        assert a.z_piezo == pytest.approx(b.z_piezo, rel=1e-15, abs=1e-24)
        assert a.delta_f == b.delta_f
        assert a.volt == b.volt


def test_csv_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("z_piezo_nm,V_volt\n100,0.3\n")
    with pytest.raises(ValueError, match="columns"):
        read_frequency_shift_samples(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("# comment\nz_piezo_nm,theta_rad,V_volt,delta_f_hz\n")
    with pytest.raises(ValueError, match="no data"):
        read_frequency_shift_samples(empty)


def test_synthesis_validation(series_model):
    with pytest.raises(ValueError, match="rng"):
        synthesize_frequency_shifts(COEFF, Z0, series_model, voltages=VOLTS,
                                    z_piezo=PIEZO, noise_frac=0.01)
    with pytest.raises(ValueError, match="shape"):
        synthesize_frequency_shifts(COEFF, Z0, series_model, voltages=VOLTS,
                                    z_piezo=PIEZO, thetas=[0.0])
    with pytest.raises(ValueError, match="gap"):
        synthesize_frequency_shifts(COEFF, 100e-9, series_model,
                                    voltages=VOLTS, z_piezo=[200e-9])


def test_sample_validation():
    with pytest.raises(ValueError):
        FrequencyShiftSample(1e-7, 0.0, math.nan, 0.1)


def test_fit_result_is_dataclass(noiseless_samples, series_model):
    fit = fit_calibration(noiseless_samples, series_model)
    assert isinstance(fit, CalibrationFit)
    assert fit.n_samples == len(noiseless_samples)
    assert fit.residuals.shape == (len(noiseless_samples),)


# --------------------------------------------------------------------------
# the z0 search against scipy's bounded Brent search, its oracle


def test_z0_search_matches_scipy_bit_for_bit(monkeypatch):
    # every search of seeded noisy fits (series and plate models, with a
    # lever arm and with voltage differences), on the very objective the
    # fit minimises, runs through both the port and scipy
    pairs = []
    port = calibration._bounded_minimum

    def both(fn, lo, hi):
        ours = port(fn, lo, hi)
        ref = minimize_scalar(fn, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-15, "maxiter": 500})
        assert ref.success
        pairs.append((ours, float(ref.x)))
        return ours

    monkeypatch.setattr(calibration, "_bounded_minimum", both)
    models = (series_gradient_model(RADIUS), plate_gradient_model(RADIUS))
    for seed in range(24):
        rng = np.random.default_rng(seed)
        model = models[seed % 2]
        lever = LEVER if seed % 3 == 1 else 0.0
        thetas = 1e-6 * rng.standard_normal(PIEZO.size) if lever else None
        samples = synthesize_frequency_shifts(
            COEFF, Z0 + 40e-9 * rng.standard_normal(), model,
            voltages=VOLTS, z_piezo=PIEZO, thetas=thetas, lever_b=lever,
            noise_frac=0.01, rng=rng)
        fit_calibration(samples, model, lever_b=lever,
                        use_voltage_differences=seed % 3 == 2)
    assert len(pairs) == 24
    assert all(ours == ref for ours, ref in pairs), pairs


def test_z0_search_matches_scipy_where_the_fits_rarely_go():
    # minima inside, at either bound and just inside one, a plateau and
    # several local minima: the step clamps and tie-breaks a fit seldom
    # reaches
    cases = [(lambda x: (x - 0.3) ** 2, 0.0, 1.0), (lambda x: x, 0.0, 1.0),
             (lambda x: -x, 0.0, 1.0), (lambda x: (x - 1e-9) ** 2, 0.0, 1.0),
             (lambda x: abs(x - 0.999999) ** 1.5, 0.0, 1.0),
             (lambda x: float(round(abs(x - 0.4), 2)), 0.0, 1.0),
             (lambda x: math.sin(7.0 * x) + 0.01 * x, 0.0, 10.0)]
    for fn, lo, hi in cases:
        ref = minimize_scalar(fn, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-15, "maxiter": 500})
        assert calibration._bounded_minimum(fn, lo, hi) == ref.x


def test_nan_model_raises_fit_error(noiseless_samples):
    nan_model = GradientModel(fn=lambda z, volt: np.full(np.shape(z), math.nan),
                              z_min=1e-12, z_max=0.1 * RADIUS, label="nan")
    with pytest.raises(FitError, match="NaN"):
        fit_calibration(noiseless_samples, nan_model)


def test_z0_search_cut_off_raises_fit_error(noiseless_samples, series_model,
                                           monkeypatch):
    monkeypatch.setattr(calibration, "_Z0_MAXITER", 5)
    with pytest.raises(FitError, match="after 5 model evaluations"):
        fit_calibration(noiseless_samples, series_model)
