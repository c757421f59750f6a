"""Electrostatic force models, validated through independent routes.

1. The sphere-plane series force is checked against the derivative of the
   classical bispherical capacitance (an independent closed form), summed
   in-test.
2. The periodic-cell FEM is checked against a mouth-matching spectral
   oracle for vertical-wall trenches (Fourier modes above the mouth, sine
   modes in the slot, Galerkin-matched at y = 0), and against rigorous
   two-sided energy bounds (divergence-free flux trial below, admissible
   potential trial above).
3. The flat-cell limit must agree with the parallel-plate law to solver
   precision, tying the FEM to the series model.
4. The block-eliminating cell solver is checked against a plain global
   P1 assembly and sparse solve of the same mesh, and the gap block's
   stiffness against its tensor-product form.
"""

import dataclasses
import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casigrat import (
    EPS0,
    GratingProfile,
    Mesh2D,
    MeshControl,
    NumericalError,
    SpherePlaneES,
    build_trench_mesh,
    corrugated_sphere_force,
    mesh_statistics,
    solve_corrugated_capacitor,
    sphere_plane_force,
    sphere_plane_gradient,
)
from casigrat import electrostatics
from casigrat.checks import _dense_end_row_s00, check_electrostatics
from casigrat.cli import main
from casigrat.electrostatics import ALPHA_SERIES_MIN, _x_modes

RADIUS = 151.7e-6
VOLT = 0.3


# --------------------------------------------------------------------------
# oracle 1: bispherical capacitance of the sphere-plane gap


def capacitance_sphere_plane(radius: float, gap: float) -> float:
    """C = 4 pi eps0 R sinh(a) Sum_n 1/sinh(n a), cosh(a) = 1 + gap/R."""
    alpha = math.acosh(1.0 + gap / radius)
    total = 0.0
    n0 = 0
    while True:
        n = np.arange(n0 + 1, n0 + 513, dtype=float)
        na = n * alpha
        em = np.exp(-na)
        block = float((2.0 * em / -np.expm1(-2.0 * na)).sum())
        total += block
        n0 += 512
        if block < 1e-14 * total:
            break
    return 4.0 * math.pi * EPS0 * radius * math.sinh(alpha) * total


def force_from_capacitance(radius: float, gap: float, volt: float) -> float:
    """F = (V^2/2) dC/dd at fixed potential, by central differences."""
    h = 1e-5 * gap
    dc = (capacitance_sphere_plane(radius, gap + h)
          - capacitance_sphere_plane(radius, gap - h)) / (2.0 * h)
    return 0.5 * volt * volt * dc


@pytest.mark.parametrize("gap_over_radius", [0.002, 0.02, 0.5])
def test_series_matches_capacitance_derivative(gap_over_radius):
    gap = gap_over_radius * RADIUS
    es = SpherePlaneES(R=RADIUS, d=gap, V=VOLT)
    got = sphere_plane_force(es)
    expected = force_from_capacitance(RADIUS, gap, VOLT)
    assert got < 0.0
    assert got == pytest.approx(expected, rel=1e-6)


def test_deviation_from_plate_law_pinned():
    # the series departs from -pi eps0 R V^2 / d by a d/R * log(d/R)
    # correction; pin its measured size and its monotone decay
    devs = []
    for ratio in (0.002, 0.001, 5e-4, 2.5e-4):
        gap = ratio * RADIUS
        plate = -math.pi * EPS0 * RADIUS * VOLT * VOLT / gap
        f = sphere_plane_force(SpherePlaneES(R=RADIUS, d=gap, V=VOLT))
        devs.append(abs(f - plate) / abs(plate))
    assert 0.004 <= devs[0] <= 0.006
    assert devs[2] < 0.002
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_equal_potentials_give_exactly_zero():
    es = SpherePlaneES(R=RADIUS, d=100e-9, V=-0.499, V0=-0.499)
    assert sphere_plane_force(es) == 0.0
    assert sphere_plane_gradient(es) == 0.0


def test_residual_voltage_shifts_the_scale():
    with_v0 = SpherePlaneES(R=RADIUS, d=1e-6, V=0.3, V0=-0.499)
    plain = SpherePlaneES(R=RADIUS, d=1e-6, V=0.799)
    assert sphere_plane_force(with_v0) == pytest.approx(
        sphere_plane_force(plain), rel=1e-14)


def test_force_vanishes_at_large_gap():
    es = SpherePlaneES(R=RADIUS, d=1e6 * RADIUS, V=VOLT)
    assert abs(sphere_plane_force(es)) < 1e-20


def test_no_overflow_at_large_alpha():
    # sinh(n alpha) overflows float64 in the first summation block here;
    # the exponential form must stay silent and finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = sphere_plane_force(SpherePlaneES(R=1e-6, d=1e-4, V=VOLT))
        g = sphere_plane_gradient(SpherePlaneES(R=1e-6, d=1e-4, V=VOLT))
    assert math.isfinite(f) and f < 0.0
    assert math.isfinite(g) and g > 0.0


def test_gradient_matches_finite_difference():
    es = SpherePlaneES(R=RADIUS, d=0.5e-6, V=VOLT)
    h = 1e-12
    fd = (sphere_plane_force(SpherePlaneES(RADIUS, es.d + h, VOLT))
          - sphere_plane_force(SpherePlaneES(RADIUS, es.d - h, VOLT))) / (2 * h)
    got = sphere_plane_gradient(es)
    assert got > 0.0
    assert got == pytest.approx(fd, rel=1e-6)


def test_gradient_decays_with_gap():
    grads = [sphere_plane_gradient(SpherePlaneES(R=RADIUS, d=d, V=VOLT))
             for d in (0.2e-6, 0.5e-6, 2e-6)]
    assert all(g > 0.0 for g in grads)
    assert grads[0] > grads[1] > grads[2]


def test_series_crossover_is_continuous():
    # below the alpha crossover the plate law takes over; the invariant
    # F * d must pass through the switch without a jump
    d_star = RADIUS * (math.cosh(ALPHA_SERIES_MIN) - 1.0)
    above = sphere_plane_force(SpherePlaneES(RADIUS, 1.001 * d_star, VOLT))
    below = sphere_plane_force(SpherePlaneES(RADIUS, 0.999 * d_star, VOLT))
    prod_above = above * 1.001 * d_star
    prod_below = below * 0.999 * d_star
    assert prod_above == pytest.approx(prod_below, rel=1e-4)


def test_truncation_bound_against_longer_summation():
    # the geometric tail bound stops the sum; forcing many more terms
    # must not move the result beyond the advertised tolerance
    for ratio in (0.002, 0.1):
        es = SpherePlaneES(R=RADIUS, d=ratio * RADIUS, V=VOLT)
        stopped = sphere_plane_force(es)
        longer = scalar_image_series(es, 2_000_000, False)
        assert stopped == pytest.approx(longer, rel=1e-9)


def test_sphere_plane_validation():
    with pytest.raises(ValueError):
        SpherePlaneES(R=RADIUS, d=0.0, V=VOLT)
    with pytest.raises(ValueError):
        SpherePlaneES(R=-1.0, d=1e-6, V=VOLT)
    # an infinite radius gave a force of -inf, an infinite gap one of 0
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^radius R must be positive "
                                             "and finite"):
            SpherePlaneES(bad, 1e-7, 1.0)
        with pytest.raises(ValueError, match="^gap d must be positive and "
                                             "finite"):
            SpherePlaneES(RADIUS, np.array([1e-7, bad]), 1.0)


def scalar_image_series(es, n_max, gradient):
    """The one-gap image sum the library ran before it summed arrays:
    blocks of 512 orders, each gap with its own stopping rule."""
    dv = es.V - es.V0
    if dv == 0.0:
        return 0.0
    alpha = math.acosh(1.0 + es.d / es.R)
    if alpha < ALPHA_SERIES_MIN:
        plate = math.pi * EPS0 * es.R * dv * dv
        return plate / (es.d * es.d) if gradient else -(plate / es.d)
    coth_a = 1.0 / math.tanh(alpha)
    csch2_a = 1.0 / math.sinh(alpha) ** 2
    total = 0.0
    n_done = 0
    while True:
        block = min(512, n_max - n_done) if n_max is not None else 512
        n = np.arange(n_done + 1, n_done + block + 1, dtype=float)
        na = n * alpha
        em = np.exp(-na)
        one_m = -np.expm1(-2.0 * na)
        inv_sinh = 2.0 * em / one_m
        coth_na = (2.0 - one_m) / one_m
        term = (coth_a - n * coth_na) * inv_sinh
        if gradient:
            term = ((-csch2_a + n * n * inv_sinh * inv_sinh) * inv_sinh
                    - term * n * coth_na)
        total += float(term.sum())
        n_done += block
        if n_max is not None and n_done >= n_max:
            break
        tail = electrostatics._series_tail_bound(alpha, n_done)
        if gradient:
            tail *= n_done + 2
        if tail < 1e-10 * max(abs(total), 1e-300):
            break
    pref = 2.0 * math.pi * EPS0 * dv * dv
    if gradient:
        return pref * total * (1.0 / (es.R * math.sinh(alpha)))
    return pref * total


# gap / radius: under the plate-law crossover (d/R < 5e-9), just above it
# (hundreds of 512-order blocks), and log-uniform from tens of blocks to
# one
_CROSSOVER = math.cosh(ALPHA_SERIES_MIN) - 1.0
_GAP_RATIOS = st.one_of(st.floats(1e-12, 0.99 * _CROSSOVER),
                        st.floats(1.01 * _CROSSOVER, 4.0 * _CROSSOVER),
                        st.floats(-7.0, 1.0).map(lambda e: 10.0**e))
_MIXED = [(0.5 * _CROSSOVER, 0.3, 0.0, False),
          (1.5 * _CROSSOVER, 0.3, -0.1, False), (1e-6, 0.3, 0.1, False),
          (2e-3, 0.2, 0.2, True), (0.1, -0.7, 0.4, False),
          (3.0, 0.25, 0.0, False)]


@settings(max_examples=30, deadline=None, derandomize=True)
@example(rows=_MIXED, gradient=False)
@example(rows=_MIXED, gradient=True)
@given(rows=st.lists(st.tuples(_GAP_RATIOS, st.floats(-1.0, 1.0),
                               st.floats(-0.5, 0.5), st.booleans()),
                     min_size=1, max_size=6),
       gradient=st.booleans())
def test_array_series_matches_scalar_calls(rows, gradient):
    es = [SpherePlaneES(R=RADIUS, d=ratio * RADIUS, V=v0 if same else v,
                        V0=v0) for ratio, v, v0, same in rows]
    scalar = sphere_plane_gradient if gradient else sphere_plane_force
    got = scalar(SpherePlaneES(RADIUS, np.array([e.d for e in es]),
                               np.array([e.V for e in es]),
                               np.array([e.V0 for e in es])))
    assert got.shape == (len(es),)
    for value, e in zip(got, es):
        expected = scalar_image_series(e, None, gradient)
        assert value == expected  # bit for bit, not approximately
        assert scalar(e) == expected


@pytest.mark.parametrize("fn", [sphere_plane_force, sphere_plane_gradient])
def test_series_scalar_and_array_contract(fn):
    # plate law, series; V = V0, V != V0
    gaps = np.array([[1e-14], [1e-6], [3e-5]])  # (3, 1)
    volts = np.array([[0.1, -0.7]])  # (1, 2)
    got = fn(SpherePlaneES(RADIUS, gaps, volts, 0.1))
    assert got.shape == (3, 2)
    for i, j in np.ndindex(got.shape):
        one = fn(SpherePlaneES(RADIUS, float(gaps[i, 0]), float(volts[0, j]),
                               0.1))
        assert type(one) is float
        assert got[i, j] == one  # bit for bit
    with pytest.raises(ValueError, match="gap d must be positive"):
        SpherePlaneES(RADIUS, np.array([1e-6, 0.0, 2e-6]), VOLT)
    # a NaN voltage gave a NaN force
    with pytest.raises(ValueError, match="^V must be finite"):
        SpherePlaneES(RADIUS, 1e-6, math.nan)
    with pytest.raises(ValueError, match="^V0 must be finite"):
        SpherePlaneES(RADIUS, 1e-6, VOLT, np.array([0.0, math.inf]))


_D_STAR = RADIUS * _CROSSOVER  # the plate-law crossover gap
_CAL_GAPS = 800e-9 - np.linspace(0.0, 600e-9, 13)  # a calibration sweep
# gaps, voltages, V0 and the distinct live gaps the first block sums
_REPEATS = {
    "interleaved": ([1e-6, 3e-5, 1e-6, 2e-7, 3e-5, 1e-6],
                    [0.3, -0.7, 0.2, 0.3, 0.3, -0.4], 0.1, 3),
    "at V0": ([1e-6, 2e-6, 1e-6, 2e-6, 5e-6, 1e-6],
              [0.1, 0.3, 0.3, 0.1, 0.1, -0.2], 0.1, 2),
    "straddling the crossover": ([0.999 * _D_STAR, 1.001 * _D_STAR,
                                  0.999 * _D_STAR, 1.001 * _D_STAR,
                                  1.001 * _D_STAR],
                                 [0.3, 0.3, -0.2, -0.2, 0.25], 0.0, 1),
    "plate law": ([1e-14, 1e-14, 1e-6, 1e-14, 1e-6],
                  [0.3, -0.2, 0.3, 0.1, 0.2], 0.0, 1),
    "calibration grid": (_CAL_GAPS[None, :], [[0.245], [0.300]], 0.0, 13),
    "grid with a column at V0": (_CAL_GAPS[None, :], [[0.1], [0.3]], 0.1,
                                 13),
    "grid at V0": (_CAL_GAPS[None, :], [[0.1], [0.1]], 0.1, 0),
}


@pytest.mark.parametrize("case", list(_REPEATS))
@pytest.mark.parametrize("fn", [sphere_plane_force, sphere_plane_gradient])
def test_series_sums_each_distinct_live_gap_once(fn, case, monkeypatch):
    gaps, volts, v0, distinct = _REPEATS[case]
    gaps, volts = np.broadcast_arrays(np.asarray(gaps, dtype=float),
                                      np.asarray(volts, dtype=float))
    blocks = []
    series_terms = electrostatics._series_terms

    def spy(alpha, *rest):
        blocks.append(alpha.shape[0])
        return series_terms(alpha, *rest)

    monkeypatch.setattr(electrostatics, "_series_terms", spy)
    got = fn(SpherePlaneES(RADIUS, gaps, volts, v0))
    monkeypatch.undo()
    assert (blocks[0] if blocks else 0) == distinct
    assert got.shape == gaps.shape
    for i in np.ndindex(gaps.shape):
        one = fn(SpherePlaneES(RADIUS, float(gaps[i]), float(volts[i]), v0))
        assert got[i] == one  # bit for bit


def test_array_capacitor_compares_and_hashes_by_identity():
    gaps = np.array([1e-6, 2e-6])
    a = SpherePlaneES(RADIUS, gaps, VOLT)
    b = SpherePlaneES(RADIUS, gaps.copy(), VOLT)
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# --------------------------------------------------------------------------
# oracle 2: mouth-matching spectral solution, vertical-wall trench


def mouth_matching_energy(lam, plateau, width, depth, gap, volt,
                          n_slot=120, n_fourier=4500):
    """Field energy per unit area of the vertical-wall trench capacitor.

    The aperture potential at the mouth y = 0 is expanded in the slot's
    sine modes; matching the Fourier representation of the gap region
    above gives a dense n_slot x n_slot system.  Energy follows from the
    mean aperture potential d0: E = (eps0 V / 2)(V - d0) / gap.
    """
    m = np.arange(1, n_slot + 1)
    beta = m * math.pi / width
    alpha = 2.0 * math.pi * np.arange(1, n_fourier + 1) / lam

    # int_0^width e^{i alpha u} sin(beta_m u) du, closed form
    q = alpha[:, None]
    b = beta[None, :]
    sgn = np.where(m[None, :] % 2 == 0, 1.0, -1.0)
    num = b * (1.0 - sgn * np.exp(1j * q * width))
    den = b * b - q * q
    near = np.abs(np.abs(q) - b) * width < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = np.where(near, 1j * width / 2.0,
                           num / np.where(near, 1.0, den))
    overlap = np.exp(1j * alpha[:, None] * plateau) * overlap
    cnm = overlap.real
    snm = overlap.imag
    i_m = width * (1.0 - sgn[0]) / (m * math.pi)

    kcoth = np.where(alpha * gap > 350.0, alpha,
                     alpha / np.tanh(np.minimum(alpha * gap, 700.0)))
    amat = np.diag(0.5 * width * beta
                   / np.tanh(np.minimum(beta * depth, 700.0)))
    amat += np.outer(i_m, i_m) / (gap * lam)
    amat += 2.0 / lam * ((kcoth[:, None] * cnm).T @ cnm
                         + (kcoth[:, None] * snm).T @ snm)
    coeff = np.linalg.solve(amat, (volt / gap) * i_m)
    d0 = float(coeff @ i_m) / lam
    return 0.5 * EPS0 * volt * (volt - d0) / gap


def test_fem_matches_mouth_matching_oracle():
    lam, plateau, depth = 400e-9, 185.3e-9, 98e-9
    width = lam - plateau
    prof = GratingProfile(lam, plateau, width, depth)  # p3 = 0
    for gap in (100e-9, 150e-9):
        expected = mouth_matching_energy(lam, plateau, width, depth, gap, VOLT)
        got = solve_corrugated_capacitor(prof, gap, VOLT)
        assert got == pytest.approx(expected, rel=1e-3)


def test_flat_cell_is_exact():
    # the flat solution is linear in y, inside the P1 space
    flat = GratingProfile(400e-9, 400e-9, 0.0, 0.0)
    for gap in (100e-9, 300e-9):
        got = solve_corrugated_capacitor(flat, gap, VOLT)
        assert got == pytest.approx(0.5 * EPS0 * VOLT**2 / gap, rel=1e-12)


def test_energy_within_rigorous_bounds(trench):
    # lower: vertical divergence-free flux tubes; upper: columnwise-linear
    # admissible potential, whose lateral-gradient excess is analytic
    lam, l1, l2, t = (trench.period, trench.top_width, trench.floor_width,
                      trench.depth)
    run = trench.p3 * lam
    for gap in (100e-9, 250e-9):
        colavg = (l1 / gap + l2 / (gap + t)
                  + 2.0 * (run / t) * math.log1p(t / gap)) / lam
        e_lo = 0.5 * EPS0 * VOLT**2 * colavg
        wall_excess = 2.0 * (t / (3.0 * run)) * math.log1p(t / gap) / lam
        e_hi = e_lo + 0.5 * EPS0 * VOLT**2 * wall_excess
        e = solve_corrugated_capacitor(trench, gap, VOLT)
        assert e_lo < e < e_hi
        # etching only removes conductor, so the flat cell bounds it too
        assert e < 0.5 * EPS0 * VOLT**2 / gap


def test_mesh_doubling_stays_within_tolerance(trench):
    gap = 150e-9
    e1 = solve_corrugated_capacitor(trench, gap, VOLT)
    e2 = solve_corrugated_capacitor(trench, gap, VOLT,
                                    MeshControl().scaled(2.0))
    assert abs(e2 - e1) / e2 < 1e-3


def test_default_mesh_clears_size_floor(trench):
    mesh = build_trench_mesh(trench, 150e-9)
    assert mesh.n_triangles > 10_000
    stats = mesh_statistics(mesh)
    assert stats["n_triangles"] == mesh.n_triangles
    assert stats["min_area_m2"] > 0.0


def test_mesh_structure(trench):
    gap = 150e-9
    mesh = build_trench_mesh(trench, gap)
    assert np.all(mesh.signed_areas() > 0.0)
    # periodic fold: right column collapses onto the left one
    assert np.array_equal(mesh.dof_map[mesh.right_nodes], mesh.left_nodes)
    # electrodes sit where they should
    assert np.allclose(mesh.nodes[mesh.top_nodes, 1], gap, rtol=0, atol=1e-18)
    bottom_y = mesh.nodes[mesh.bottom_nodes, 1]
    assert bottom_y.min() == pytest.approx(-trench.depth)
    assert bottom_y.max() == 0.0


def _digest(ids):
    return hashlib.sha256(ids.astype("<i8").tobytes()).hexdigest()[:16]


def test_reference_mesh_pinned(trench):
    # node and triangle order are part of the pin: assembly and the
    # electrostatic CSVs depend on them bit for bit
    mesh = build_trench_mesh(trench, 150e-9)
    assert mesh.n_triangles == 13146
    assert mesh.nodes.shape == (6734, 2)
    assert _digest(mesh.triangles) == "5f814e06804e9e8b"
    assert _digest(mesh.bottom_nodes) == "1708dec78bf3e4c1"


@pytest.mark.parametrize("profile", [
    GratingProfile(400e-9, 400e-9, 0.0, 0.0),
    GratingProfile(400e-9, 185.3e-9, 214.7e-9, 98e-9),
    GratingProfile(400e-9, 204e-9, 0.0, 98e-9, 135.0),
    GratingProfile(400e-9, 185.3e-9, 199.1e-9, 500e-9),
], ids=["flat", "vertical", "wall135", "deep500"])
def test_no_triangle_repeats_a_vertex(profile):
    tri = build_trench_mesh(profile, 150e-9).triangles
    assert np.all((tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2])
                  & (tri[:, 2] != tri[:, 0]))


# --------------------------------------------------------------------------
# oracle 4: global assembly of the same mesh, one sparse solve


def global_stiffness(mesh, triangles):
    """P1 stiffness of ``triangles`` scattered into the folded dof space."""
    p = mesh.nodes[triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1)
    area4 = 2.0 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                   - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    k_local = (b[:, :, None] * b[:, None, :]
               + c[:, :, None] * c[:, None, :]) / area4[:, None, None]
    dofs = mesh.dof_map[triangles]
    n = mesh.nodes.shape[0]
    return sp.coo_matrix((k_local.ravel(),
                          (np.repeat(dofs, 3, axis=1).ravel(),
                           np.tile(dofs, (1, 3)).ravel())),
                         shape=(n, n)).tocsr()


def global_solve_energy(profile, gap, volt, control=None):
    """Energy per area from the whole-cell assembly and one spsolve."""
    mesh = build_trench_mesh(profile, gap, control)
    n = mesh.nodes.shape[0]
    stiff = global_stiffness(mesh, mesh.triangles)
    u = np.zeros(n)
    fixed = np.zeros(n, dtype=bool)
    u[mesh.dof_map[mesh.top_nodes]] = volt
    fixed[mesh.dof_map[mesh.top_nodes]] = True
    fixed[mesh.dof_map[mesh.bottom_nodes]] = True
    free = ~fixed
    free[np.setdiff1d(np.arange(n), mesh.dof_map)] = False  # folded ids
    k_free = stiff[free]
    u[free] = spla.spsolve(k_free[:, free].tocsc(),
                           -k_free[:, fixed] @ u[fixed])
    return 0.5 * EPS0 * float(u @ (stiff @ u)) / profile.period


CELLS = {
    "flat": GratingProfile(400e-9, 400e-9, 0.0, 0.0),
    "vertical": GratingProfile(400e-9, 185.3e-9, 214.7e-9, 98e-9),
    "wall135": GratingProfile(400e-9, 204e-9, 0.0, 98e-9, 135.0),
    "deep500": GratingProfile(400e-9, 185.3e-9, 199.1e-9, 500e-9),
    "reference": GratingProfile(400e-9, 185.3e-9, 199.1e-9, 98e-9, 94.6),
}


@pytest.mark.parametrize("control", [None, MeshControl(37, 11),
                                     MeshControl().scaled(2.0)],
                         ids=["default", "37x11", "doubled"])
@pytest.mark.parametrize("name", list(CELLS))
def test_block_elimination_matches_global_solve(name, control):
    for gap in (50e-9, 150e-9, 600e-9):
        expected = global_solve_energy(CELLS[name], gap, VOLT, control)
        got = solve_corrugated_capacitor(CELLS[name], gap, VOLT, control)
        assert got == pytest.approx(expected, rel=1e-7)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(period=st.floats(200e-9, 800e-9), p1=st.floats(1e-6, 0.9),
       p2_share=st.floats(0.0, 0.99), depth=st.floats(1e-9, 300e-9),
       gap=st.floats(30e-9, 600e-9))
def test_block_elimination_matches_global_solve_on_trapezoids(
        period, p1, p2_share, depth, gap):
    top = p1 * period
    prof = GratingProfile(period, top, p2_share * (period - top), depth)
    control = MeshControl(24, 8)
    expected = global_solve_energy(prof, gap, VOLT, control)
    got = solve_corrugated_capacitor(prof, gap, VOLT, control)
    assert got == pytest.approx(expected, rel=1e-7)


# a V-groove whose floor width rounds to ~1e-23 m, and a floor or a
# plateau far under the meshing ramp
_V_PERIOD = 3.4058189129236817e-07
SHORT_SEGMENTS = {
    "v_groove": GratingProfile(_V_PERIOD, 0.05 * _V_PERIOD, 0.0, 246e-9),
    "sub_ramp_floor": GratingProfile(400e-9, 200e-9, 4e-14, 30e-9),
    "sub_ramp_plateau": GratingProfile(400e-9, 4e-14, 100e-9, 30e-9),
}


def test_short_segments_get_no_columns():
    # no column spacing may collapse
    for prof in SHORT_SEGMENTS.values():
        mesh = build_trench_mesh(prof, 30e-9)
        assert np.diff(mesh.nodes[mesh.top_nodes, 0]).min() > \
            1e-6 * prof.period


@pytest.mark.parametrize("name", list(SHORT_SEGMENTS))
def test_short_segments_match_global_solve(name):
    for gap in (30e-9, 150e-9):
        expected = global_solve_energy(SHORT_SEGMENTS[name], gap, VOLT)
        got = solve_corrugated_capacitor(SHORT_SEGMENTS[name], gap, VOLT)
        assert got == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("name", ["flat", "vertical", "reference"])
def test_gap_block_is_a_tensor_product(name):
    # every gap-block cell is split into two right triangles whose
    # diagonal carries no stiffness, so the block is Ax (x) My + Mx (x) Ay
    mesh = build_trench_mesh(CELLS[name], 150e-9, MeshControl(37, 11))
    rows = mesh.left_nodes.size
    n_up = mesh.top_nodes.size * rows
    upper = mesh.triangles[mesh.triangles.max(axis=1) < n_up]
    n_cols = mesh.top_nodes.size - 1
    keep = np.arange(n_cols * rows)  # the closing column is folded away
    block = global_stiffness(mesh, upper)[keep][:, keep]

    def p1_1d(h, periodic):
        n = h.size if periodic else h.size + 1
        a = np.zeros((n, n))
        m = np.zeros(n)
        for i, hi in enumerate(h):
            j = (i + 1) % n
            a[[i, j, i, j], [i, j, j, i]] += [1 / hi, 1 / hi, -1 / hi, -1 / hi]
            m[[i, j]] += 0.5 * hi
        return a, np.diag(m)

    ax, mx = p1_1d(np.diff(mesh.nodes[mesh.top_nodes, 0]), periodic=True)
    ay, my = p1_1d(np.diff(mesh.nodes[mesh.left_nodes, 1]), periodic=False)
    tensor = sp.csr_matrix(np.kron(ax, my) + np.kron(mx, ay))
    excess = abs(block - tensor) - 1e-12 * abs(tensor)
    assert excess.max() <= 0.0


def test_x_modes_are_cached_read_only(trench):
    key = (electrostatics._meshing_profile(trench), MeshControl().nx)
    modes = _x_modes(*key)
    for arr in modes:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _x_modes(*key) is modes
    lam, mx, mv = modes
    assert lam[0] == 0.0 and np.all(lam[1:] > 0.0)
    # Mx-orthonormal: V^T Mx V = I with V = (Mx V) / mx
    np.testing.assert_allclose(mv.T @ (mv / mx[:, None]), np.eye(lam.size),
                               atol=1e-10)


# the gaps fem_gradient_model tabulates for electrostatic_gradient.cfg
TABLE_GAPS = np.geomspace(0.98 * 100e-9, 1.02 * 600e-9, 48)


def sweep_end_row_schur(lam, hy):
    """(s00, s01, s11) of lam My + Ay on rows with spacings ``hy``, by the
    row sweep the solver once ran: add one interval at a time and
    eliminate the row below it, carrying the row sums sa = s00 + s01 and
    sd = s11 + s01, which vanish at lam = 0, so no digit cancels."""
    m = 0.5 * lam * hy[0]
    sa = sd = m
    b = np.full_like(lam, -1.0 / hy[0])
    for h in hy[1:]:
        m = 0.5 * lam * h
        g = 1.0 / h
        piv = sd - b + g + m
        sa, sd, b = (((sa - b) * (sd + m) + sa * (g - b)) / piv,
                     (sd * g + m * (2.0 * g + m + sd - b)) / piv,
                     b * g / piv)
    return sa - b, b, sd - b


def _mode_eigenvalues(profile):
    return _x_modes(electrostatics._meshing_profile(profile),
                    MeshControl().nx)[0]


@pytest.mark.parametrize("ny", [4, 11, 24, 48, 96, 192])
def test_gap_block_matches_the_row_sweep(trench, ny):
    lams = [_mode_eigenvalues(trench),
            _mode_eigenvalues(SHORT_SEGMENTS["v_groove"]),
            _mode_eigenvalues(SHORT_SEGMENTS["sub_ramp_floor"]),
            np.concatenate([[0.0], np.geomspace(1e6, 1e22, 161)])]
    for gap in np.geomspace(1e-9, 1e-5, 17):
        hy = np.diff(gap * electrostatics._graded_from_start(ny))
        for lam in lams:
            s00, s01, s11 = electrostatics._end_row_schur(lam, gap, ny)
            r00, r01, r11 = sweep_end_row_schur(lam, hy)
            np.testing.assert_allclose(s00, r00, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose([s01[0], s11[0]], [r01[0], r11[0]],
                                       rtol=1e-13, atol=0.0)
            assert s00[0] == s11[0] == -s01[0] == 1.0 / gap


def test_row_pencil_is_cached_read_only(trench, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_row_pencil":
            calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    electrostatics._reduce_trench.cache_clear()
    electrostatics._row_pencil.cache_clear()
    _table(trench, TABLE_GAPS)
    assert calls == [MeshControl().ny - 1]
    for gap in TABLE_GAPS[:5]:
        solve_corrugated_capacitor(trench, gap, 1.0, MeshControl(37, 11))
    assert calls == [MeshControl().ny - 1, 10]
    pencil = electrostatics._row_pencil(MeshControl().ny)
    for arr in pencil[:2]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_check_flags_row_eigenpairs_without_relative_accuracy(monkeypatch):
    # without the inverse-iteration step the pencil keeps numpy eigh's
    # eigenvectors, of absolute accuracy only
    def no_step(lower, diag, upper, b):
        return b

    results = dict((name, ok) for name, ok, _ in check_electrostatics())
    assert results["gap-row reduction matches dense elimination"]
    monkeypatch.setattr(electrostatics, "_tridiagonal_solve", no_step)
    electrostatics._row_pencil.cache_clear()
    try:
        results = dict((name, ok) for name, ok, _ in check_electrostatics())
    finally:
        electrostatics._row_pencil.cache_clear()
    assert not results["gap-row reduction matches dense elimination"]


def test_end_row_schur_matches_dense_elimination_at_384_rows():
    lam = np.concatenate([[0.0], (2.0 * math.pi * np.geomspace(1.0, 256.0, 9)
                                  / 400e-9) ** 2])
    s00 = electrostatics._end_row_schur(lam, 150e-9, 384)[0]
    dense = np.array([_dense_end_row_s00(x, 150e-9, 384) for x in lam])
    np.testing.assert_allclose(s00, dense, rtol=1e-12, atol=0.0)


def banded_trench_schur(shape, control, nb):
    """The mouth Schur complement of ``_reduce_trench`` by the banded
    route: the interior stiffness in lower band storage, one banded
    Cholesky factorisation and a banded triangular solve."""
    mesh = electrostatics._cell_mesh(shape, shape.period, control, nb)
    rows = mesh.left_nodes.size
    n_up = mesh.top_nodes.size * rows
    n = mesh.nodes.shape[0]
    mouths = np.flatnonzero(mesh.bottom_nodes[:-1] >= n_up)
    inner = np.ones(n - n_up, dtype=bool)
    inner[mesh.bottom_nodes[mouths] - n_up] = False
    unknown = np.concatenate([mouths * rows, n_up + np.flatnonzero(inner)])
    pos = np.full(n, -1)
    pos[unknown] = np.arange(unknown.size)
    trench = mesh.triangles[mesh.triangles.max(axis=1) >= n_up]
    dofs = pos[mesh.dof_map[trench]]
    r = np.repeat(dofs, 3, axis=1).ravel()
    c = np.tile(dofs, (1, 3)).ravel()
    k = electrostatics._element_stiffness(mesh.nodes, trench).ravel()
    keep = (r >= 0) & (c >= 0)
    r, c, k = r[keep], c[keep], k[keep]
    m = mouths.size
    n_in = unknown.size - m

    def gather(sel, flat, shape):
        return np.bincount(flat[sel], k[sel],
                           minlength=shape[0] * shape[1]).reshape(shape)

    schur = gather((r < m) & (c < m), r * m + c, (m, m))
    k_im = gather((r >= m) & (c < m), (r - m) * m + c, (n_in, m))
    lower = (c >= m) & (r >= c)  # entry (i, j), i >= j, at [i - j, j]
    band = int((r - c)[lower].max())
    chol = scipy.linalg.cholesky_banded(
        gather(lower, (r - c) * n_in + c - m, (band + 1, n_in)), lower=True)
    y, info = scipy.linalg.lapack.dtbtrs(chol, k_im, uplo="L")
    assert info == 0
    return schur - y.T @ y


def test_trench_schur_matches_banded_cholesky(trench):
    shape, control = electrostatics._meshing_profile(trench), MeshControl()
    layouts = sorted({electrostatics._trench_rows(shape, g, control)
                      for g in TABLE_GAPS})
    assert len(layouts) == 18
    for nb in layouts:
        schur = electrostatics._reduce_trench(shape, control, nb)[1]
        ref = banded_trench_schur(shape, control, nb)
        assert np.abs(schur - ref).max() <= 1e-12 * np.abs(ref).max()


def _table(profile, gaps):
    return np.array([solve_corrugated_capacitor(profile, g, 1.0)
                     for g in gaps])




def test_cell_table_independent_of_the_cache(trench):
    # the cached trench reductions must not depend on which gap filled
    # them: the pipeline CSVs are compared byte for byte
    electrostatics._reduce_trench.cache_clear()
    cold = _table(trench, TABLE_GAPS)
    warm = _table(trench, TABLE_GAPS)
    electrostatics._reduce_trench.cache_clear()
    reverse = _table(trench, TABLE_GAPS[::-1])[::-1]
    assert np.all(cold == warm)
    assert np.all(cold == reverse)


def test_mesh_validated_once_per_layout(trench, monkeypatch):
    layouts = {build_trench_mesh(trench, g).nodes.shape[0]
               for g in TABLE_GAPS}  # the node count grows with nb
    electrostatics._reduce_trench.cache_clear()
    validated = []
    validate = Mesh2D.validate

    def counting_validate(mesh):
        validated.append(mesh)
        validate(mesh)

    monkeypatch.setattr(Mesh2D, "validate", counting_validate)
    _table(trench, TABLE_GAPS)
    assert (len(validated) == len(layouts)
            == electrostatics._reduce_trench.cache_info().currsize)
    _table(trench, TABLE_GAPS)
    assert len(validated) == len(layouts)
    _, mesh = solve_corrugated_capacitor(trench, TABLE_GAPS[0], 1.0,
                                         return_mesh=True)
    assert len(validated) == len(layouts) + 1
    assert mesh.n_triangles == build_trench_mesh(trench,
                                                 TABLE_GAPS[0]).n_triangles


def test_trench_reductions_are_read_only(trench):
    electrostatics._reduce_trench.cache_clear()
    solve_corrugated_capacitor(trench, 150e-9, VOLT)
    assert electrostatics._reduce_trench.cache_info().currsize == 1
    shape, control = electrostatics._meshing_profile(trench), MeshControl()
    reduction = electrostatics._reduce_trench(
        shape, control, electrostatics._trench_rows(shape, 150e-9, control))
    assert electrostatics._reduce_trench.cache_info().hits == 1
    lam, schur, modes, weights = reduction
    assert schur.shape == (weights.size, weights.size)
    assert modes.shape == (weights.size, lam.size)
    for arr in reduction:
        assert not arr.flags.writeable


def test_failed_factorisation_raises_numerical_error(trench, monkeypatch,
                                                     tmp_path):
    def not_positive(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    electrostatics._reduce_trench.cache_clear()
    monkeypatch.setattr(np.linalg, "cholesky", not_positive)
    with pytest.raises(NumericalError,
                       match=r"gap = 1\.5e-07 m for GratingProfile\(period"):
        solve_corrugated_capacitor(trench, 150e-9, VOLT)
    assert electrostatics._reduce_trench.cache_info().currsize == 0
    cfg = tmp_path / "es.cfg"
    cfg.write_text("[pipeline]\ntask = electrostatic_gradient\n"
                   "[grid]\nz = 150:450:150nm\n[solver]\ntable_points = 10\n")
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1


def test_non_finite_potentials_raise_numerical_error(trench, monkeypatch):
    solve = np.linalg.solve

    def nan_solve(a, b):  # the mouth solve alone has one right-hand side
        return np.full(np.shape(b), math.nan) if b.ndim == 1 else solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", nan_solve)
    with pytest.raises(NumericalError, match="non-finite.*gap = 1\\.5e-07 m"):
        solve_corrugated_capacitor(trench, 150e-9, VOLT)


@pytest.mark.parametrize("gap, volt, name", [
    (math.inf, VOLT, "gap"), (math.nan, VOLT, "gap"), (-math.inf, VOLT, "gap"),
    (150e-9, math.nan, "V"), (150e-9, math.inf, "V"),
])
def test_non_finite_inputs_raise_value_error(trench, monkeypatch, gap, volt,
                                             name):
    # refused before any mesh or cache work
    def no_work(*args):
        raise AssertionError("mesh work before input validation")

    electrostatics._reduce_trench.cache_clear()
    monkeypatch.setattr(electrostatics, "_columns", no_work)
    monkeypatch.setattr(electrostatics, "_cell_mesh", no_work)
    with pytest.raises(ValueError, match=rf"^{name} must be .*finite, got"):
        solve_corrugated_capacitor(trench, gap, volt)
    assert electrostatics._reduce_trench.cache_info().currsize == 0
    if name == "gap":
        with pytest.raises(ValueError, match="^gap must be .*finite, got"):
            build_trench_mesh(trench, gap)


def test_validate_rejects_inverted_triangles(trench):
    mesh = build_trench_mesh(trench, 150e-9)
    flipped = mesh.triangles.copy()
    flipped[0] = flipped[0, ::-1]
    bad = dataclasses.replace(mesh, triangles=flipped)
    with pytest.raises(NumericalError, match="inverted"):
        bad.validate()
    # a NaN area fails the check too
    nodes = mesh.nodes.copy()
    nodes[mesh.triangles[0, 0]] = math.nan
    with pytest.raises(NumericalError, match="inverted"):
        dataclasses.replace(mesh, nodes=nodes).validate()


def test_energy_decreases_with_gap(trench):
    energies = [solve_corrugated_capacitor(trench, g, VOLT)
                for g in (100e-9, 150e-9, 250e-9, 400e-9)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_deep_trench_energy_bounds():
    # gap much smaller than depth: the plateau term dominates and the
    # total must stay between the plateau-only and the flat-plate energy
    prof = GratingProfile(400e-9, 185.3e-9, 199.1e-9, 500e-9)
    gap = 50e-9
    flat = 0.5 * EPS0 * VOLT**2 / gap
    e = solve_corrugated_capacitor(prof, gap, VOLT)
    assert prof.p1 * flat < e < flat


def test_sphere_force_linear_in_radius(trench):
    f1 = corrugated_sphere_force(trench, 150e-9, VOLT, RADIUS)
    f2 = corrugated_sphere_force(trench, 150e-9, VOLT, 2.0 * RADIUS)
    assert f1 < 0.0
    assert f2 == pytest.approx(2.0 * f1, rel=1e-14)


def test_flat_limit_force_is_plate_law():
    flat = GratingProfile(400e-9, 400e-9, 0.0, 0.0)
    z = 450e-9
    got = corrugated_sphere_force(flat, z, VOLT, RADIUS)
    assert got == pytest.approx(-math.pi * EPS0 * RADIUS * VOLT**2 / z,
                                rel=1e-12)


def test_flat_limit_consistent_with_series():
    # cross-module check; the residual ~0.7% is the pinned series-vs-
    # plate-law deviation at d/R = 3e-3, not solver error
    flat = GratingProfile(400e-9, 400e-9, 0.0, 0.0)
    z = 450e-9
    f_fem = corrugated_sphere_force(flat, z, VOLT, RADIUS)
    f_series = sphere_plane_force(SpherePlaneES(R=RADIUS, d=z, V=VOLT))
    assert f_fem == pytest.approx(f_series, rel=0.01)


def test_residual_voltage_enters_fem_force(trench):
    shifted = corrugated_sphere_force(trench, 150e-9, 0.3, RADIUS, V0=-0.499)
    plain = corrugated_sphere_force(trench, 150e-9, 0.799, RADIUS)
    assert shifted == pytest.approx(plain, rel=1e-12)


def test_mesh_control_validation_and_scaling():
    with pytest.raises(ValueError):
        MeshControl(nx=7, ny=48)
    with pytest.raises(ValueError):
        MeshControl(nx=112, ny=3)
    # nx = 112.5 meshed as 112; ny = 48.5 failed inside range()
    with pytest.raises(ValueError, match="^nx must be an integer, got 112.5"):
        MeshControl(nx=112.5)
    with pytest.raises(ValueError, match="^ny must be an integer, got 48.5"):
        MeshControl(ny=48.5)
    assert MeshControl(np.int64(112), np.int32(48)) == MeshControl()
    doubled = MeshControl().scaled(4.0)
    assert doubled.nx == 2 * MeshControl().nx
    assert doubled.ny == 2 * MeshControl().ny


def test_geometry_validation(trench):
    with pytest.raises(ValueError):
        solve_corrugated_capacitor(trench, 0.0, VOLT)
    with pytest.raises(ValueError):
        corrugated_sphere_force(trench, 150e-9, VOLT, 0.0)
    with pytest.raises(ValueError, match="^radius R must be positive and "
                                         "finite"):
        corrugated_sphere_force(trench, 150e-9, 1.0, math.inf)
