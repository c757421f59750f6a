import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from casigrat import (
    FlatForceLaw,
    GratingProfile,
    NumericalError,
    RoughnessSpec,
    casimir_pressure_planar,
    flat_pressure_law,
    height_profile,
    pfa_corrugated,
    pfa_share_topbottom,
    roughness_average,
)


def profile_integral_oracle(law_fn, profile, z, n=100_000):
    """Direct Riemann-midpoint average of law(z + h(x)) over one period."""
    x = (np.arange(n) + 0.5) * profile.period / n
    h = height_profile(profile, x)
    return float(np.mean(law_fn(z + h)))


@pytest.fixture(scope="module")
def gold_silicon_law(gold, silicon):
    z = np.geomspace(80e-9, 450e-9, 28)
    p = np.array([casimir_pressure_planar(gold, silicon, zi) for zi in z])
    return FlatForceLaw.from_table(z, p, unit="Pa")


@pytest.fixture(scope="module")
def shared_table(gold, silicon):
    return flat_pressure_law(gold, silicon, 100e-9, 450e-9)


def power_law():
    return FlatForceLaw.from_callable(lambda z: z**-4.0, 1e-12, 1.0)


def exp_law():
    return FlatForceLaw.from_callable(lambda z: np.exp(-z / 50e-9), 1e-12, 1.0)


@pytest.mark.parametrize("make_law", [power_law, exp_law])
def test_pfa_matches_profile_integral(make_law, trench):
    law = make_law()
    for z in (100e-9, 250e-9):
        expected = profile_integral_oracle(law, trench, z)
        got = pfa_corrugated(law, trench, z)
        assert got == pytest.approx(expected, rel=1e-5)


def test_pfa_matches_profile_integral_tabulated(gold_silicon_law, trench):
    for z in (120e-9, 200e-9, 300e-9):
        expected = profile_integral_oracle(gold_silicon_law, trench, z)
        got = pfa_corrugated(gold_silicon_law, trench, z)
        assert got == pytest.approx(expected, rel=1e-5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(period=st.floats(200e-9, 800e-9), p1=st.floats(0.05, 0.9),
       p2_share=st.floats(0.0, 0.99), depth=st.floats(5e-9, 150e-9),
       z=st.floats(100e-9, 300e-9))
def test_pfa_on_shared_table_matches_profile_mean(shared_table, period, p1,
                                                  p2_share, depth, z):
    # sloped walls (p3 >= 0.0005) keep the midpoint oracle free of jumps
    p2 = p2_share * (0.999 - p1)
    profile = GratingProfile(period=period, top_width=p1 * period,
                             floor_width=p2 * period, depth=depth)
    expected = profile_integral_oracle(shared_table, profile, z)
    got = pfa_corrugated(shared_table, profile, z)
    assert got == pytest.approx(expected, rel=1e-5)


def test_share_near_97_percent(gold_silicon_law, trench):
    shares = [pfa_share_topbottom(gold_silicon_law, trench, z)
              for z in (100e-9, 200e-9, 300e-9)]
    for s in shares:
        assert 0.96 <= s <= 0.98
    # The deep floor matters relatively more at large separations.
    assert shares[0] > shares[-1]


def test_zero_depth_reduces_to_flat():
    flat = GratingProfile(period=400e-9, top_width=185.3e-9,
                          floor_width=199.1e-9, depth=0.0)
    law = power_law()
    z = 150e-9
    assert pfa_corrugated(law, flat, z) == pytest.approx(law(z), rel=1e-12)


def test_vertical_walls_need_no_quadrature():
    prof = GratingProfile(period=400e-9, top_width=185.3e-9,
                          floor_width=214.7e-9, depth=98e-9)
    law = power_law()
    z = 150e-9
    expected = prof.p1 * law(z) + prof.p2 * law(z + prof.depth)
    assert prof.p3 == pytest.approx(0.0, abs=1e-15)
    assert pfa_corrugated(law, prof, z) == pytest.approx(expected, rel=1e-12)


def test_domain_error_when_law_too_short(trench):
    law = FlatForceLaw.from_callable(lambda z: z**-4.0, 100e-9, 150e-9)
    with pytest.raises(ValueError, match="domain"):
        pfa_corrugated(law, trench, 100e-9)  # needs up to z + 98 nm


@pytest.mark.parametrize("z_min, z_max", [(-7e-9, 32e-9), (0.0, 32e-9),
                                          (200e-9, 100e-9)])
def test_flat_pressure_law_needs_ordered_positive_bounds(gold, silicon,
                                                         z_min, z_max):
    with pytest.raises(ValueError, match="0 < z_min <= z_max"):
        flat_pressure_law(gold, silicon, z_min, z_max)


def test_flat_pressure_law_needs_an_integral_count(gold, silicon):
    with pytest.raises(ValueError, match="^n_points must be an integer, "
                                         "got 48.5"):
        flat_pressure_law(gold, silicon, 100e-9, 200e-9, 48.5)


def test_law_from_table_exact_at_knots(gold_silicon_law):
    z0 = gold_silicon_law.z_min
    assert gold_silicon_law(z0) == pytest.approx(gold_silicon_law.fn(z0), rel=1e-14)
    with pytest.raises(ValueError):
        gold_silicon_law(1e-9)


@pytest.mark.parametrize("values", [[-4.0, -3.0, 0.0, -1.0],
                                    [-4.0, -3.0, 2.0, -1.0]])
def test_law_from_table_rejects_zero_or_mixed_sign(values):
    with pytest.raises(ValueError, match="one sign"):
        FlatForceLaw.from_table([1e-7, 2e-7, 3e-7, 4e-7], values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(period=st.floats(200e-9, 800e-9), p1=st.floats(0.05, 0.9),
       p2_share=st.floats(0.0, 0.99), depth=st.floats(5e-9, 150e-9),
       z=st.lists(st.floats(100e-9, 300e-9), min_size=1, max_size=12))
def test_grid_calls_match_per_z_calls(shared_table, period, p1, p2_share,
                                      depth, z):
    p2 = p2_share * (0.999 - p1)
    profile = GratingProfile(period=period, top_width=p1 * period,
                             floor_width=p2 * period, depth=depth)
    z = np.array(z)
    spec = RoughnessSpec.gaussian(0.5e-9)  # stays inside the table
    for fn in (lambda zz: pfa_corrugated(shared_table, profile, zz),
               lambda zz: pfa_share_topbottom(shared_table, profile, zz),
               lambda zz: roughness_average(shared_table, zz, spec)):
        on_grid = fn(z)
        assert isinstance(on_grid, np.ndarray) and on_grid.shape == z.shape
        per_z = [fn(zi) for zi in z]
        assert all(isinstance(v, float) for v in per_z)
        np.testing.assert_allclose(on_grid, per_z, rtol=1e-15, atol=0.0)


def test_pfa_matches_adaptive_quadrature(gold_silicon_law, trench):
    law, t = gold_silicon_law, trench.depth
    z = np.linspace(100e-9, 350e-9, 11)
    expected = [trench.p1 * law(zi) + trench.p2 * law(zi + t)
                + 2.0 * trench.p3 * quad(lambda u: law(zi + t * u), 0.0, 1.0,
                                         epsabs=0.0, epsrel=1e-12,
                                         limit=200)[0]
                for zi in z]
    np.testing.assert_allclose(pfa_corrugated(law, trench, z), expected,
                               rtol=1e-9, atol=0.0)


def test_unresolved_sidewall_raises_naming_z(trench):
    # decays over 0.2 nm, far below the 98 nm wall depth the rule spans
    law = FlatForceLaw(lambda z: np.exp(-z / 0.2e-9), 1e-9, 1e-5)
    with pytest.raises(NumericalError, match=r"z = 2\.000e-09 m"):
        pfa_corrugated(law, trench, np.array([2e-9, 3e-9]))
