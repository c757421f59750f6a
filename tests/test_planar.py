import math
import warnings

import numpy as np
import pytest
import scipy.constants as sc
from scipy.integrate import quad

from casigrat import (
    NumericalError,
    QuadratureSpec,
    RoughnessSpec,
    casimir_pressure_planar,
    force_gradient_sphere_plane,
    fresnel_te_tm,
    get_material,
    ideal_pressure,
    roughness_average,
)
from casigrat.planar import _pressure_once

GOLD_WP = 9.0 * sc.elementary_charge / sc.hbar
GOLD_GAMMA = 0.035 * sc.elementary_charge / sc.hbar


def brute_force_pressure(eps_a_fn, eps_b_fn, z):
    """Independent route: adaptive nested quadrature with locally written
    Fresnel factors.  Variables are scaled by the separation (xi = a c/2z,
    k = b/2z) so the adaptive rule sees order-one features."""
    s = 1.0 / (2.0 * z)

    def fresnel(eps, xi, k):
        if eps is None:  # ideal mirror
            return -1.0, 1.0
        kap0 = math.hypot(xi / sc.c, k)
        kapm = math.sqrt(eps * (xi / sc.c) ** 2 + k * k)
        return (kap0 - kapm) / (kap0 + kapm), (eps * kap0 - kapm) / (eps * kap0 + kapm)

    def b_integrand(b, a, eps_a, eps_b):
        xi = a * s * sc.c
        k = b * s
        e = math.exp(-math.hypot(a, b))
        ra = fresnel(eps_a, xi, k)
        rb = fresnel(eps_b, xi, k)
        total = 0.0
        for p in (0, 1):
            m = ra[p] * rb[p] * e
            total += m / (1.0 - m)
        return b * math.hypot(a, b) * total

    def a_integrand(a):
        # each permittivity once per xi, not once per inner k node
        xi = a * s * sc.c
        eps_a, eps_b = (None if fn is None else fn(xi)
                        for fn in (eps_a_fn, eps_b_fn))
        val, _ = quad(b_integrand, 0.0, np.inf, args=(a, eps_a, eps_b),
                      epsabs=1e-40, epsrel=1e-10, limit=400)
        return val

    out, _ = quad(a_integrand, 0.0, np.inf, epsabs=1e-40, epsrel=1e-9, limit=400)
    return -sc.hbar * sc.c * s**4 / (2.0 * math.pi**2) * out


def drude_eps(xi):
    return 1.0 + GOLD_WP**2 / (xi * (xi + GOLD_GAMMA))


@pytest.mark.parametrize("z", [100e-9, 200e-9, 500e-9])
def test_conductor_matches_closed_form(conductor, z):
    got = casimir_pressure_planar(conductor, conductor, z)
    assert got == pytest.approx(ideal_pressure(z), rel=1e-4)


def test_conductor_quartic_scaling(conductor):
    p1 = casimir_pressure_planar(conductor, conductor, 150e-9)
    p2 = casimir_pressure_planar(conductor, conductor, 300e-9)
    assert p1 / p2 == pytest.approx(16.0, rel=1e-6)


def test_gold_gold_against_independent_quadrature(gold):
    z = 200e-9
    expected = brute_force_pressure(drude_eps, drude_eps, z)
    got = casimir_pressure_planar(gold, gold, z)
    assert got == pytest.approx(expected, rel=1e-6)


def test_gold_silicon_against_independent_quadrature(gold, silicon):
    z = 150e-9
    expected = brute_force_pressure(drude_eps, silicon.epsilon, z)
    got = casimir_pressure_planar(gold, silicon, z)
    assert got == pytest.approx(expected, rel=1e-6)


def test_conductor_against_independent_quadrature(conductor):
    z = 200e-9
    expected = brute_force_pressure(None, None, z)
    got = casimir_pressure_planar(conductor, conductor, z)
    assert got == pytest.approx(expected, rel=1e-7)


def test_fresnel_limits(gold, conductor):
    vac = get_material("vacuum")
    r_te, r_tm = fresnel_te_tm(vac, 1e15, 1e6)
    assert r_te == pytest.approx(0.0, abs=1e-14)
    assert r_tm == pytest.approx(0.0, abs=1e-14)
    r_te, r_tm = fresnel_te_tm(conductor, 1e15, 1e6)
    assert r_te == -1.0 and r_tm == 1.0


@pytest.mark.parametrize("xi, k, name", [
    (math.nan, 1e7, "xi"), (np.array([1e15, math.nan]), 1e7, "xi"),
    (1e15, math.nan, "k_perp")])
def test_fresnel_rejects_nan(gold, conductor, xi, k, name):
    # a perfect conductor returned (-1, 1) for a NaN xi
    for model in (gold, conductor):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fresnel_te_tm(model, xi, k)


def test_fresnel_against_symbolic(gold):
    # Same expressions built independently in exact arithmetic.
    import sympy as sp

    xi_v, k_v = 1e15, 1e15 / sc.c
    xi, k, wp, g, c = [sp.Float(v, 30) for v in (xi_v, k_v, GOLD_WP, GOLD_GAMMA, sc.c)]
    eps = 1 + wp**2 / (xi * (xi + g))
    kap0 = sp.sqrt(xi**2 / c**2 + k**2)
    kapm = sp.sqrt(eps * xi**2 / c**2 + k**2)
    r_te_sym = float((kap0 - kapm) / (kap0 + kapm))
    r_tm_sym = float((eps * kap0 - kapm) / (eps * kap0 + kapm))

    r_te, r_tm = fresnel_te_tm(gold, xi_v, k_v)
    assert r_te == pytest.approx(r_te_sym, rel=1e-12)
    assert r_tm == pytest.approx(r_tm_sym, rel=1e-12)


def test_fresnel_bounds_and_signs(gold, silicon):
    xi = np.logspace(13, 17, 40)[:, None]
    k = np.logspace(4, 8, 30)[None, :]
    for model in (gold, silicon):
        r_te, r_tm = fresnel_te_tm(model, xi, k)
        assert np.all(np.abs(r_te) <= 1.0) and np.all(np.abs(r_tm) <= 1.0)
        assert np.all(r_te <= 0.0)   # eps > 1 pushes kappa_m above kappa_0
        assert np.all(r_tm >= 0.0)


def test_pressure_attractive_and_monotone(gold, silicon):
    zs = np.array([100e-9, 150e-9, 250e-9, 400e-9])
    ps = np.array([casimir_pressure_planar(gold, silicon, z) for z in zs])
    assert np.all(ps < 0.0)
    assert np.all(np.diff(np.abs(ps)) < 0.0)


def test_material_hierarchy(gold, silicon, conductor):
    z = 200e-9
    p_pc = abs(casimir_pressure_planar(conductor, conductor, z))
    p_au = abs(casimir_pressure_planar(gold, gold, z))
    p_ausi = abs(casimir_pressure_planar(gold, silicon, z))
    assert p_pc > p_au > p_ausi > 0.0


def test_quadrature_escalation_consistency(gold, silicon):
    z = 180e-9
    coarse = casimir_pressure_planar(gold, silicon, z, QuadratureSpec(16, 16), rtol=1e-4)
    fine = casimir_pressure_planar(gold, silicon, z)
    assert coarse == pytest.approx(fine, rel=1e-3)


def test_unattainable_tolerance_raises(gold):
    with pytest.raises(NumericalError):
        casimir_pressure_planar(gold, gold, 200e-9, QuadratureSpec(8, 8), rtol=0.0)


@pytest.mark.parametrize("z", [400e-9, 500e-9, 600e-9])
def test_conductor_against_drude_converges_on_third_doubling(gold, z):
    # successive changes fall below 1e-6 only between the 4x and 8x rules
    pc = get_material("perfect_conductor")
    fine = _pressure_once(pc, gold, z, QuadratureSpec().scaled(16))
    assert casimir_pressure_planar(pc, gold, z) == pytest.approx(fine, rel=1e-6)


def test_invalid_separation(gold):
    with pytest.raises(ValueError):
        casimir_pressure_planar(gold, gold, 0.0)


@pytest.mark.parametrize("z", [math.inf, math.nan])
def test_non_finite_separation_named(gold, z):
    with pytest.raises(ValueError, match="separation z must be positive and "
                                         "finite"):
        casimir_pressure_planar(gold, gold, z)


def test_sphere_plane_mapping(gold, silicon):
    z, radius = 200e-9, 150e-6
    grad = force_gradient_sphere_plane(gold, silicon, z, radius)
    pressure = casimir_pressure_planar(gold, silicon, z)
    assert grad == pytest.approx(2.0 * math.pi * radius * abs(pressure), rel=1e-9)
    assert grad > 0.0


@pytest.mark.parametrize("radius", [0.0, math.inf, math.nan])
def test_sphere_plane_radius_named(gold, radius):
    with pytest.raises(ValueError, match="^sphere radius must be positive "
                                         "and finite"):
        force_gradient_sphere_plane(gold, gold, 1e-7, radius)


def test_sphere_plane_warns_outside_pfa_regime(gold, silicon):
    with pytest.warns(UserWarning, match="proximity"):
        force_gradient_sphere_plane(gold, silicon, 3e-6, 50e-6)


def test_roughness_weights_and_rms():
    spec = RoughnessSpec.gaussian(4e-9)
    assert spec.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # 3-sigma truncation clips a little variance.
    assert spec.rms == pytest.approx(4e-9, rel=0.05)
    assert spec.rms < 4e-9


def test_roughness_combination_in_quadrature():
    spec = RoughnessSpec.combined_gaussian(4e-9, 0.6e-9)
    target = math.hypot(4e-9, 0.6e-9)
    assert spec.offsets.max() == pytest.approx(3.0 * target, rel=1e-12)


def test_roughness_two_point_oracle():
    # Discrete +/- h distribution against the closed form for a z^-4 law.
    h, z = 5e-9, 100e-9
    spec = RoughnessSpec(np.array([-h, h]), np.array([0.5, 0.5]))
    got = roughness_average(lambda s: s**-4, z, spec)
    expected = 0.5 * ((z - h) ** -4 + (z + h) ** -4)
    assert got == pytest.approx(expected, rel=1e-12)


def test_roughness_strengthens_convex_law():
    spec = RoughnessSpec.combined_gaussian(4e-9, 0.6e-9)
    z = 100e-9
    corrected = roughness_average(lambda s: s**-4, z, spec)
    bare = z**-4.0
    ratio = corrected / bare
    # Leading order <(1+h/z)^-4> = 1 + 10 (sigma/z)^2 + ...
    sigma = spec.rms
    assert ratio > 1.0
    assert ratio == pytest.approx(1.0 + 10.0 * (sigma / z) ** 2, rel=0.02)


def test_roughness_domain_error():
    spec = RoughnessSpec.gaussian(4e-9)
    with pytest.raises(ValueError):
        roughness_average(lambda s: s**-4, 10e-9, spec)


def test_roughness_weight_validation():
    with pytest.raises(ValueError):
        RoughnessSpec(np.array([-1e-9, 1e-9]), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        RoughnessSpec(np.array([1e-9]), np.array([-1.0]))
    with pytest.raises(ValueError, match="^n_points must be an integer"):
        RoughnessSpec.gaussian(1e-9, 21.0)
    assert RoughnessSpec.gaussian(1e-9, np.int64(5)).offsets.size == 5
