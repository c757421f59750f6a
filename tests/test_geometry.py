import math

import numpy as np
import pytest

from casigrat import GratingProfile, height_profile, staircase


def vertical_profile():
    # Vertical walls: plateau + floor exhaust the period, p3 = 0.
    return GratingProfile(period=400e-9, top_width=185.3e-9,
                          floor_width=214.7e-9, depth=98e-9)


def test_reference_fractions(trench):
    assert trench.p1 == pytest.approx(185.3 / 400.0, rel=1e-12)
    assert trench.p2 == pytest.approx(199.1 / 400.0, rel=1e-12)
    assert trench.p3 == pytest.approx((400.0 - 185.3 - 199.1) / 2.0 / 400.0, rel=1e-9)
    assert trench.p1 + trench.p2 + 2 * trench.p3 == pytest.approx(1.0, rel=1e-12)


def test_reference_sidewall_consistency_is_quiet():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GratingProfile(period=400e-9, top_width=185.3e-9, floor_width=199.1e-9,
                       depth=98e-9, sidewall_angle_deg=94.6)


def test_inconsistent_sidewall_warns():
    with pytest.warns(UserWarning, match="sidewall angle"):
        GratingProfile(period=400e-9, top_width=185.3e-9, floor_width=199.1e-9,
                       depth=98e-9, sidewall_angle_deg=110.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        GratingProfile(period=-1.0, top_width=0.1, floor_width=0.1, depth=0.1)
    with pytest.raises(ValueError):
        GratingProfile(period=1.0, top_width=0.6, floor_width=0.6, depth=0.1)
    with pytest.raises(ValueError):
        GratingProfile(period=1.0, top_width=0.4, floor_width=0.4, depth=-0.1)


def test_profile_lengths_must_be_finite():
    good = dict(period=400e-9, top_width=185.3e-9, floor_width=199.1e-9,
                depth=98e-9)
    for name in good:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                GratingProfile(**{**good, name: bad})


def test_height_profile_piecewise_values(trench):
    lam, t = trench.period, trench.depth
    assert height_profile(trench, 0.5 * trench.top_width) == 0.0
    mid_floor = trench.top_width + trench.p3 * lam + 0.5 * trench.floor_width
    assert height_profile(trench, mid_floor) == pytest.approx(t, rel=1e-12)
    # Midpoint of the descending ramp sits at half depth.
    mid_ramp = trench.top_width + 0.5 * trench.p3 * lam
    assert height_profile(trench, mid_ramp) == pytest.approx(0.5 * t, rel=1e-9)


def test_height_profile_domain(trench):
    with pytest.raises(ValueError):
        height_profile(trench, -1e-12)
    with pytest.raises(ValueError):
        height_profile(trench, trench.period)


def test_height_profile_mean(trench):
    # Riemann-midpoint oracle: the mean etch depth is t (p2 + p3).
    lam = trench.period
    x = (np.arange(100_000) + 0.5) * lam / 100_000
    mean = height_profile(trench, x).mean()
    expected = trench.depth * (trench.p2 + trench.p3)
    assert mean == pytest.approx(expected, rel=1e-9)


def test_staircase_vertical_single_slab_fill():
    slabs = staircase(vertical_profile(), 1)
    assert len(slabs) == 1
    fill = 1.0 - slabs[0].slot_width / 400e-9
    assert fill == pytest.approx(185.3 / 400.0, rel=1e-12)
    assert slabs[0].thickness == pytest.approx(98e-9, rel=1e-12)


def test_staircase_monotone_fill(trench):
    slabs = staircase(trench, 4)
    fills = [1.0 - s.slot_width / trench.period for s in slabs]
    assert len(fills) == 4
    # The trench narrows with depth, so the silicon fill grows.
    assert all(b > a for a, b in zip(fills, fills[1:]))
    assert sum(s.thickness for s in slabs) == pytest.approx(trench.depth, rel=1e-12)


def test_staircase_preserves_trench_area(trench):
    # Midpoint widths make the staircase area-exact for linear sidewalls.
    lam, t = trench.period, trench.depth
    exact_area = (trench.floor_width + trench.p3 * lam) * t
    for n in (1, 3, 8):
        slabs = staircase(trench, n)
        area = sum(s.slot_width * s.thickness for s in slabs)
        assert area == pytest.approx(exact_area, rel=1e-12)


def test_staircase_zero_depth():
    flat = GratingProfile(period=400e-9, top_width=185.3e-9,
                          floor_width=199.1e-9, depth=0.0)
    assert staircase(flat, 4) == []


def test_staircase_rejects_bad_count(trench):
    with pytest.raises(ValueError):
        staircase(trench, 0)


def test_trench_width_linear_in_depth(trench):
    d = np.linspace(0.0, trench.depth, 11)
    w = trench.trench_width_at_depth(d)
    assert w[0] == pytest.approx(trench.period - trench.top_width, rel=1e-12)
    assert w[-1] == pytest.approx(trench.floor_width, rel=1e-12)
    assert np.allclose(np.diff(w, 2), 0.0, atol=1e-18)
