import math

import numpy as np
import pytest

from casigrat import (GratingProfile, height_profile,
                      reference_trench_profile, staircase)


def vertical_profile():
    # Vertical walls: plateau + floor exhaust the period, p3 = 0.
    return GratingProfile(period=400e-9, top_width=185.3e-9,
                          floor_width=214.7e-9, depth=98e-9)


def v_groove_profile():
    # No floor: the two 135-degree walls meet at the bottom, p2 = 0.
    return GratingProfile(400e-9, 204e-9, 0.0, 98e-9, 135.0)


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


def test_floor_derived_from_period_is_accepted():
    # top + (period - top) rounds one ulp above this period; the cell is a
    # valid vertical-wall grating, with p3 = 0 and ordered corners
    period = 2.0000000000000002e-07
    top = 0.19344820559425974 * period
    assert top + (period - top) > period
    cell = GratingProfile(period, top, period - top, 50e-9)
    assert cell.p3 == 0.0
    x = np.linspace(0.0, period, 401)[:-1]
    assert np.array_equal(height_profile(cell, x),
                          np.where(x < top, 0.0, 50e-9))
    assert [s.slot_width for s in staircase(cell, 2)] == [period - top] * 2
    with pytest.raises(ValueError, match="must not exceed period"):
        GratingProfile(period, top, period - top + 1e-6 * period, 50e-9)


def test_profile_lengths_must_be_finite():
    good = dict(period=400e-9, top_width=185.3e-9, floor_width=199.1e-9,
                depth=98e-9)
    for name in good:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                GratingProfile(**{**good, name: bad})


def test_height_profile_piecewise_values(trench):
    # the vertical and V-groove profiles each merge two of the five corners
    for profile in (trench, vertical_profile(), v_groove_profile()):
        t, run = profile.depth, profile.p3 * profile.period
        assert height_profile(profile, 0.5 * profile.top_width) == 0.0
        mid_floor = profile.top_width + run + 0.5 * profile.floor_width
        assert height_profile(profile, mid_floor) == pytest.approx(
            t, rel=1e-12)
        # Midpoint of the descending ramp sits at half depth; a vertical
        # wall is already at full depth where the plateau ends.
        mid_ramp = profile.top_width + 0.5 * run
        assert height_profile(profile, mid_ramp) == pytest.approx(
            0.5 * t if run > 0.0 else t, rel=1e-9)


def test_height_profile_domain(trench):
    with pytest.raises(ValueError):
        height_profile(trench, -1e-12)
    with pytest.raises(ValueError):
        height_profile(trench, trench.period)


def test_height_profile_mean(trench):
    # Riemann-midpoint oracle: the mean etch depth is t (p2 + p3).
    for profile in (trench, vertical_profile(), v_groove_profile()):
        x = (np.arange(100_000) + 0.5) * profile.period / 100_000
        mean = height_profile(profile, x).mean()
        expected = profile.depth * (profile.p2 + profile.p3)
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


# slot widths, top slab first, pinned bit for bit
STAIRCASE_WIDTHS = {
    "trench": [
        [2.069e-07],
        [2.108e-07, 2.03e-07],
        [2.1210000000000003e-07, 2.069e-07, 2.017e-07],
        [2.1275000000000002e-07, 2.0885000000000002e-07,
         2.0495000000000002e-07, 2.0105e-07]],
    "v_groove": [
        [9.799999999999999e-08],
        [1.4699999999999998e-07, 4.8999999999999995e-08],
        [1.6333333333333331e-07, 9.799999999999999e-08,
         3.266666666666666e-08],
        [1.715e-07, 1.2249999999999997e-07, 7.35e-08,
         2.4499999999999984e-08]],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(STAIRCASE_WIDTHS))
def test_staircase_widths_pinned(name, n):
    profile = {"trench": reference_trench_profile(),
               "v_groove": v_groove_profile()}[name]
    widths = [s.slot_width for s in staircase(profile, n)]
    assert widths == STAIRCASE_WIDTHS[name][n - 1]
    # Linear in the slab index: the mid-depth opening of slab i runs from
    # period - top_width at the surface to floor_width at the floor.
    opening = profile.period - profile.top_width
    mid_depth = (np.arange(n) + 0.5) / n
    assert widths == pytest.approx(
        opening + (profile.floor_width - opening) * mid_depth, rel=1e-12)
