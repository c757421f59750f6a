"""The numpy piecewise cubics reproduce scipy's PCHIP and not-a-knot spline
bit for bit (scipy is the oracle here, never in the library): the same
coefficients, the same values inside and outside the knots, the same
derivative."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

from casigrat import casimir_pressure_planar, flat_pressure_law, get_material
from casigrat.interpolate import not_a_knot, pchip
from casigrat.materials import intrinsic_silicon_table


def probes(x, n=2001):
    """The knots, a uniform grid across them and a margin outside."""
    span = x[-1] - x[0]
    return np.concatenate((x, np.linspace(x[0] - 0.1 * span,
                                          x[-1] + 0.1 * span, n)))


def assert_same(ours, theirs, v):
    assert np.array_equal(ours.c, theirs.c)
    assert np.array_equal(ours(v), theirs(v))


def assert_pchip_identical(x, y, v):
    with np.errstate(over="ignore"):  # secants near the smallest float
        theirs = PchipInterpolator(x, y)
    ours = pchip(x, y)
    assert_same(ours, theirs, v)
    assert_same(ours.derivative(), theirs.derivative(), v)


def assert_spline_identical(x, y, v):
    ours, theirs = not_a_knot(x, y), CubicSpline(x, y, bc_type="not-a-knot")
    assert_same(ours, theirs, v)
    assert_same(ours.derivative(), theirs.derivative(), v)


def test_silicon_table_pchip(rng):
    table = intrinsic_silicon_table()
    x, y = np.log(table.xi), np.log(table.eps)
    v = np.concatenate((probes(x), rng.uniform(x[0], x[-1], 200_000)))
    assert_pchip_identical(x, y, v)


def test_vacuum_table_is_a_line():
    table = get_material("vacuum")
    x, y = np.log(table.xi), np.log(table.eps)
    assert_pchip_identical(x, y, probes(x))
    assert np.array_equal(pchip(x, y).c[:2], np.zeros((2, 1)))


@pytest.fixture(scope="module")
def pressure_table(gold, silicon):
    """The 48-point table behind ``flat_pressure_law(gold, silicon, ...)``."""
    z = np.geomspace(0.98 * 100e-9, 1.02 * 450e-9, 48)
    return z, np.array([casimir_pressure_planar(gold, silicon, zi)
                        for zi in z])


def test_flat_pressure_table_spline(pressure_table, gold, silicon):
    z, p = pressure_table
    x, y = np.log(z), np.log(np.abs(p))
    assert_spline_identical(x, y, probes(x))
    law = flat_pressure_law(gold, silicon, 100e-9, 450e-9)
    zz = np.geomspace(z[0], z[-1], 501)
    assert np.array_equal(law(zz), -np.exp(CubicSpline(x, y)(np.log(zz))))


@st.composite
def grids(draw, min_points):
    """Strictly increasing x whose spacings jump by up to 1000x, and y with
    flat runs, sign changes and small integers next to arbitrary floats."""
    n = draw(st.integers(min_points, 60))
    gaps = draw(st.lists(
        st.tuples(st.floats(0.01, 1.0), st.sampled_from([1.0, 100.0, 1e3])),
        min_size=n - 1, max_size=n - 1))
    x = np.cumsum([draw(st.floats(-5.0, 5.0)), *(g * s for g, s in gaps)])
    y = draw(st.lists(st.one_of(st.integers(-2, 2).map(float),
                                st.floats(-10.0, 10.0)),
                      min_size=n, max_size=n))
    return x, np.array(y)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grids(2))
def test_pchip_matches_scipy(grid):
    x, y = grid
    assert_pchip_identical(x, y, probes(x, 301))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grids(4))
def test_not_a_knot_matches_scipy(grid):
    x, y = grid
    assert_spline_identical(x, y, probes(x, 301))


def test_spline_swaps_rows_like_dgtsv():
    # a 1000x spacing jump makes the sub-diagonal the larger pivot candidate
    x = np.array([0.0, 1.0, 1.001, 2.0, 3.0, 300.0, 301.0])
    y = np.array([0.0, 1.0, -1.0, 2.0, 0.0, 1.0, 1.0])
    assert_spline_identical(x, y, probes(x))


def test_not_a_knot_needs_four_points():
    with pytest.raises(ValueError, match="4 points"):
        not_a_knot([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def test_pickled_material_evaluates_identically():
    silicon = get_material("silicon_doped")
    xi = np.geomspace(1e11, 1e18, 4001)
    assert np.array_equal(pickle.loads(pickle.dumps(silicon)).epsilon(xi),
                          silicon.epsilon(xi))
