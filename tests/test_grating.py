"""Tests for the lamellar-grating reflection operator and force assembly.

The reflection operator is checked against four independent routes:

1. a global transfer-matrix oracle that solves all layer amplitudes in one
   linear system (no scattering-matrix recursion, separate Toeplitz, field,
   and eigensolver code paths),
2. analytic limits: Fresnel diagonals at zero depth, solid-slab and bare-
   substrate limits of the slot fraction,
3. the period -> 0 homogenization limit against the analytic uniaxial
   effective-medium slab (series/parallel permittivity mixing),
4. first-order Born amplitudes for the off-diagonal orders at weak contrast.

The force assembly is checked against the planar module in the fill-1 limit,
against the derivative of the log-det energy, and through truncation/worker
invariances.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casigrat import (
    ConfigError,
    GratingProfile,
    GratingQuadrature,
    ModalError,
    PerfectConductor,
    TruncationSpec,
    casimir_force_grating,
    casimir_pressure_grating_grid,
    casimir_pressure_planar,
    convergence_sweep,
    get_material,
    grating_reflection,
    rho_ratio,
    staircase,
)
from casigrat import grating
from casigrat.constants import C_LIGHT, HBAR
from casigrat.planar import fresnel_te_tm
from casigrat.quadrature import decay_rule

LAM = 400e-9
DEPTH = 98e-9


class FixedEps:
    """Frequency-independent permittivity stand-in."""

    def __init__(self, eps: float):
        self._eps = eps

    def epsilon(self, xi):
        return self._eps * np.ones_like(np.asarray(xi, dtype=float))


# --------------------------------------------------------------------------
# Independent transfer-matrix oracle: one global linear solve over the modal
# amplitudes of every layer, with its own Fourier, eigenmode, and field code.


def _oracle_layer(q, kn, eps_solid, slot_frac):
    n1 = kn.size
    if eps_solid is None or slot_frac <= 0.0 or slot_frac >= 1.0:
        eps_h = 1.0 if (eps_solid is None or slot_frac >= 1.0) else eps_solid
        lam2 = eps_h * q * q + kn * kn
        return dict(a2=lam2, F=np.eye(n1), b2=lam2.copy(), G=np.eye(n1),
                    exw=np.eye(n1) / eps_h, eyw=np.diag(kn) / eps_h)
    c_e = np.zeros(n1)
    c_i = np.zeros(n1)
    c_e[0] = eps_solid + (1.0 - eps_solid) * slot_frac
    c_i[0] = 1.0 / eps_solid + (1.0 - 1.0 / eps_solid) * slot_frac
    for j in range(1, n1):
        s = math.sin(math.pi * j * slot_frac) / (math.pi * j)
        c_e[j] = (1.0 - eps_solid) * s
        c_i[j] = (1.0 - 1.0 / eps_solid) * s
    t_eps = sla.toeplitz(c_e)
    t_inv = sla.toeplitz(c_i)
    a2c, f_c = sla.eig(np.diag(kn**2) + q * q * t_eps)
    a2, f_m = a2c.real, f_c.real
    w = np.linalg.inv(t_eps)
    a_tm = q * q * np.eye(n1) + np.diag(kn) @ w @ np.diag(kn)
    b2c, g_c = sla.eig(np.linalg.solve(t_inv, a_tm))
    b2, g_m = b2c.real, g_c.real
    return dict(a2=a2, F=f_m, b2=b2, G=g_m, exw=t_inv @ g_m,
                eyw=w @ (kn[:, None] * g_m))


def _oracle_fields(layer, q, kn, ky, sign):
    n1 = kn.size
    kap_te = np.sqrt(layer["a2"] + ky * ky)
    kap_tm = np.sqrt(layer["b2"] + ky * ky)
    e_t = np.zeros((2 * n1, 2 * n1))
    h_t = np.zeros((2 * n1, 2 * n1))
    e_t[n1:, :n1] = -sign * layer["F"] * kap_te[None, :]
    e_t[:n1, n1:] = -layer["exw"] * layer["b2"][None, :] / q
    e_t[n1:, n1:] = -(ky / q) * layer["eyw"]
    h_t[:n1, :n1] = layer["F"] * layer["a2"][None, :] / q
    h_t[n1:, :n1] = (ky / q) * (kn[:, None] * layer["F"])
    h_t[n1:, n1:] = -sign * layer["G"] * kap_tm[None, :]
    return e_t, h_t, np.concatenate([kap_te, kap_tm])


def _oracle_reflection(profile, model, xi, kx, ky, orders, n_slices):
    q = xi / C_LIGHT
    g = 2.0 * math.pi / profile.period
    kn = kx + np.arange(-orders, orders + 1) * g
    n1 = kn.size
    n2 = 2 * n1
    eps = float(model.epsilon(xi))
    slabs = staircase(profile, n_slices)
    layers = [_oracle_layer(q, kn, eps, 0.0)]
    heights = [None]
    for s in reversed(slabs):
        layers.append(_oracle_layer(q, kn, eps, s.slot_width / profile.period))
        heights.append(s.thickness)
    layers.append(_oracle_layer(q, kn, None, 1.0))
    heights.append(None)
    n_lay = len(layers)
    n_int = n_lay - 1
    n_slab = n_lay - 2
    nun = n2 * (2 + 2 * n_slab)
    a_mat = np.zeros((n_int * 2 * n2, nun))
    b_mat = np.zeros((n_int * 2 * n2, n2))

    def cols(i_layer, which):
        if i_layer == 0:
            return slice(0, n2)
        if i_layer == n_lay - 1:
            return slice(nun - n2, nun)
        base = n2 + (i_layer - 1) * 2 * n2
        return (slice(base, base + n2) if which == "+"
                else slice(base + n2, base + 2 * n2))

    # Upward amplitudes are referenced at the bottom of their layer and
    # downward amplitudes at the top, so all propagation factors decay.
    for i in range(n_int):
        rows_e = slice(i * 2 * n2, i * 2 * n2 + n2)
        rows_h = slice(i * 2 * n2 + n2, (i + 1) * 2 * n2)
        e_p, h_p, kap = _oracle_fields(layers[i], q, kn, ky, +1.0)
        e_m, h_m, _ = _oracle_fields(layers[i], q, kn, ky, -1.0)
        if i == 0:
            a_mat[rows_e, cols(0, "-")] += e_m
            a_mat[rows_h, cols(0, "-")] += h_m
        else:
            phi = np.exp(-kap * heights[i])
            a_mat[rows_e, cols(i, "+")] += e_p * phi[None, :]
            a_mat[rows_h, cols(i, "+")] += h_p * phi[None, :]
            a_mat[rows_e, cols(i, "-")] += e_m
            a_mat[rows_h, cols(i, "-")] += h_m
        e_p, h_p, kap = _oracle_fields(layers[i + 1], q, kn, ky, +1.0)
        e_m, h_m, _ = _oracle_fields(layers[i + 1], q, kn, ky, -1.0)
        if i + 1 == n_lay - 1:
            a_mat[rows_e, cols(i + 1, "+")] -= e_p
            a_mat[rows_h, cols(i + 1, "+")] -= h_p
            b_mat[rows_e, :] += e_m
            b_mat[rows_h, :] += h_m
        else:
            phi = np.exp(-kap * heights[i + 1])
            a_mat[rows_e, cols(i + 1, "+")] -= e_p
            a_mat[rows_h, cols(i + 1, "+")] -= h_p
            a_mat[rows_e, cols(i + 1, "-")] -= e_m * phi[None, :]
            a_mat[rows_h, cols(i + 1, "-")] -= h_m * phi[None, :]

    sol = np.linalg.solve(a_mat, b_mat)
    r_x = sol[nun - n2:nun, :]

    kap_v = np.sqrt(q * q + kn**2 + ky * ky)
    k_t = np.hypot(kn, ky)
    c_p = np.zeros((n2, n2))
    c_m = np.zeros((n2, n2))
    for i in range(n1):
        wgt = math.sqrt(kap_v[i]) / k_t[i]
        for c_mat, sgn in ((c_p, +1.0), (c_m, -1.0)):
            c_mat[i, i] = -sgn * kap_v[i] * kn[i] * wgt
            c_mat[i, n1 + i] = q * ky * wgt
            c_mat[n1 + i, i] = -q * ky * wgt
            c_mat[n1 + i, n1 + i] = -sgn * kap_v[i] * kn[i] * wgt
    return c_p @ r_x @ np.linalg.inv(c_m)


@pytest.mark.parametrize("top,floor,angle,n_orders,n_slices", [
    (185.3e-9, 214.7e-9, 90.0, 1, 1),
    (185.3e-9, 214.7e-9, 90.0, 4, 1),
    (185.3e-9, 199.1e-9, 94.6, 3, 3),
])
def test_reflection_matches_transfer_matrix_oracle(top, floor, angle,
                                                   n_orders, n_slices):
    prof = GratingProfile(LAM, top, floor, DEPTH, angle)
    si = get_material("silicon_doped")
    xi, kx, ky = 1.2e15, 0.3 * math.pi / LAM, 3e6
    got = grating_reflection(prof, si, xi, kx, ky,
                             TruncationSpec(n_orders, n_slices))
    want = _oracle_reflection(prof, si, xi, kx, ky, n_orders, n_slices)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# --------------------------------------------------------------------------
# Analytic limits of the patterned layer.


def test_slot_fraction_continuity_solid_limit():
    mat = FixedEps(3.3)
    xi, kx, ky = 1.2e15, 0.3 * math.pi / LAM, 3e6
    frac = 1e-6
    prof = GratingProfile(LAM, LAM * (1 - frac), LAM * frac, DEPTH)
    got = grating_reflection(prof, mat, xi, kx, ky, TruncationSpec(4, 1))
    ref = grating_reflection(GratingProfile(LAM, LAM, 0.0, DEPTH), mat, xi,
                             kx, ky, TruncationSpec(4, 1))
    assert np.abs(got - ref).max() < 1e-4


def test_slot_fraction_continuity_open_limit():
    # A nearly period-wide slot is the bare substrate, its Fresnel
    # reflection propagated up through the empty layer.
    mat = FixedEps(3.3)
    xi, kx, ky = 1.2e15, 0.3 * math.pi / LAM, 3e6
    q = xi / C_LIGHT
    frac = 1.0 - 1e-6
    prof = GratingProfile(LAM, LAM * (1 - frac), LAM * frac, DEPTH)
    got = grating_reflection(prof, mat, xi, kx, ky, TruncationSpec(4, 1))
    kn = kx + np.arange(-4, 5) * 2.0 * math.pi / LAM
    kap = np.sqrt(q * q + kn**2 + ky * ky)
    r_te, r_tm = fresnel_te_tm(mat, xi, np.hypot(kn, ky))
    ref = np.diag(np.concatenate([r_te, r_tm]) *
                  np.exp(-2.0 * np.concatenate([kap, kap]) * DEPTH))
    assert np.abs(got - ref).max() < 1e-4


def test_zero_depth_reduces_to_fresnel_diagonal():
    xi, kx, ky = 8e14, 0.2 * math.pi / LAM, 5e6
    q = xi / C_LIGHT
    n_ord = 3
    kn = kx + np.arange(-n_ord, n_ord + 1) * 2.0 * math.pi / LAM
    for model in (get_material("silicon_doped"), PerfectConductor()):
        prof = GratingProfile(LAM, LAM, 0.0, 0.0)
        got = grating_reflection(prof, model, xi, kx, ky,
                                 TruncationSpec(n_ord, 1))
        r_te, r_tm = fresnel_te_tm(model, xi, np.hypot(kn, ky))
        ref = np.diag(np.concatenate([r_te, r_tm]))
        assert np.abs(got - ref).max() < 1e-12


def test_homogenization_limit_uniaxial_slab():
    # period much smaller than every other scale: the lamellar layer acts
    # as a uniaxial film with series mixing across the lamellae and
    # parallel mixing along them.
    eps_s = 3.3
    frac = 0.45
    xi, ky = 1.2e15, 8e6
    q = xi / C_LIGHT
    eps_par = eps_s + (1.0 - eps_s) * frac
    eps_ser = 1.0 / (1.0 / eps_s + (1.0 - 1.0 / eps_s) * frac)
    k2 = ky * ky
    kap0 = math.sqrt(q * q + k2)
    kap_sub = math.sqrt(eps_s * q * q + k2)

    def two_iface(kap1, w1, ws):
        r01 = (kap0 - w1 * kap1) / (kap0 + w1 * kap1)
        r1s = (w1 * kap1 - ws * kap_sub) / (w1 * kap1 + ws * kap_sub)
        e = math.exp(-2.0 * kap1 * DEPTH)
        return (r01 + r1s * e) / (1.0 + r01 * r1s * e)

    r_te_ref = two_iface(math.sqrt(eps_ser * q * q + k2), 1.0, 1.0)
    r_tm_ref = two_iface(math.sqrt(eps_par * q * q + k2),
                         1.0 / eps_par, 1.0 / eps_s)

    period = 10e-9
    prof = GratingProfile(period, (1 - frac) * period, frac * period, DEPTH)
    got = grating_reflection(prof, FixedEps(eps_s), xi, 0.0, ky,
                             TruncationSpec(6, 1))
    n1 = 13
    n0 = 6
    assert abs(got[n0, n0] - r_te_ref) < 2e-3
    assert abs(got[n1 + n0, n1 + n0] - r_tm_ref) < 2e-3
    assert abs(got[n0, n1 + n0]) < 1e-10
    assert abs(got[n1 + n0, n0]) < 1e-10


def test_weak_contrast_born_amplitudes():
    # First diffracted orders at eps = 1 + chi match the single-scattering
    # amplitude -q^2 chi_n I1 / (2 kap_n) with the polarization overlap of
    # the in-plane unit vectors and the flux normalization sqrt(kap_n/kap_0).
    chi = 1e-3
    frac = 214.7 / 400.0
    prof = GratingProfile(LAM, LAM * (1 - frac), LAM * frac, DEPTH)
    xi, kx, ky = 1.2e15, 0.3 * math.pi / LAM, 3e6
    q = xi / C_LIGHT
    n_ord = 4
    got = grating_reflection(prof, FixedEps(1.0 + chi), xi, kx, ky,
                             TruncationSpec(n_ord, 1))
    kn = kx + np.arange(-n_ord, n_ord + 1) * 2.0 * math.pi / LAM
    kap = np.sqrt(q * q + kn**2 + ky * ky)
    k0i = n_ord
    for n in (1, 2, -1, -2):
        i = k0i + n
        chi_n = -chi * frac * np.sinc(n * frac)
        i1 = (1.0 - math.exp(-(kap[k0i] + kap[i]) * DEPTH)) / (kap[k0i] + kap[i])
        born = -q * q * chi_n * i1 / (2.0 * kap[i])
        cos_ss = (ky * ky + kn[i] * kn[k0i]) / (np.hypot(kn[i], ky) *
                                                np.hypot(kn[k0i], ky))
        want = born * math.sqrt(kap[i] / kap[k0i]) * cos_ss
        assert got[i, k0i] == pytest.approx(want, rel=5e-3)


# --------------------------------------------------------------------------
# Operator-level properties.


def test_passivity_bounded_singular_values(trench):
    si = get_material("silicon_doped")
    for xi, kx, ky in [(1e12, 0.3 * math.pi / LAM, 1e5),
                       (1.2e15, 0.7 * math.pi / LAM, 8e6),
                       (6e15, 0.1 * math.pi / LAM, 2e7)]:
        r = grating_reflection(trench, si, xi, kx, ky, TruncationSpec(5, 3))
        assert np.linalg.norm(r, 2) <= 1.0 + 1e-8


# the random trapezoid cells and (xi, k_x, k_y) points of the passivity and
# reciprocity properties
_CELL = dict(period=st.floats(200e-9, 800e-9), p1=st.floats(0.05, 0.9),
             run_share=st.floats(0.0, 0.99), depth=st.floats(10e-9, 150e-9),
             log_xi=st.floats(12.0, 16.5), kx_share=st.floats(-1.0, 1.0),
             log_ky=st.floats(4.0, 7.7), orders=st.integers(1, 8),
             slices=st.integers(1, 5))


def _cell_reflection(model, period, p1, run_share, depth, log_xi, kx_share,
                     log_ky, orders, slices):
    # the wall angle is derived from the widths, so the profile is
    # consistent; near-vertical walls snap to 90 degrees, where the
    # widths-derived run would be lost to cancellation.
    run = run_share * min(depth, 0.5 * (1.0 - p1) * period)
    if run_share < 0.01:
        run = 0.0
    angle = 90.0 + math.degrees(math.atan(run / depth))
    top = p1 * period
    profile = GratingProfile(
        period=period, top_width=top,
        floor_width=period - top - 2.0 * run,
        depth=depth, sidewall_angle_deg=angle)
    return grating_reflection(profile, model, 10.0**log_xi,
                              kx_share * math.pi / period, 10.0**log_ky,
                              TruncationSpec(orders, slices))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_CELL)
def test_passivity_on_random_trapezoids(**cell):
    r = _cell_reflection(get_material("silicon_doped"), **cell)
    assert np.linalg.norm(r, 2) <= 1.0 + 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(material=st.sampled_from(["silicon_doped", "silicon_intrinsic",
                                 "gold_drude", "conductor_proxy"]), **_CELL)
def test_reciprocity_on_random_trapezoids(material, **cell):
    # Reciprocity, the cell's mirror symmetry x -> -x and its invariance
    # along y give R^T = S R S with S = diag(I, -I) in (s, p) order (Li,
    # JOSA A 17, 881 (2000)), for the truncated, staircased system at any
    # N.  The residual measures the digits the modal solve keeps.  It grows
    # with |eps| and with k_max / q, the largest transverse wavevector of
    # the truncation over xi / c.  Over 22,000 random cells of this domain,
    # half of them with a third of their coordinates at its edges, it
    # stayed below 0.2 of 1e-11 sqrt|eps| k_max / q; it reached 2e-5 near
    # |eps| = 1e11 and 2.5e-7 where |eps| < 1e3.  A flipped sign of the
    # TM-TE interface block breaks the bound on 99.9 % of 1,500 such cells.
    model = get_material(material)
    r = _cell_reflection(model, **cell)
    s = np.repeat([1.0, -1.0], r.shape[0] // 2)
    residual = np.abs(r.T - s[:, None] * r * s).max() / np.abs(r).max()
    xi, period = 10.0 ** cell["log_xi"], cell["period"]
    k_max = math.hypot((abs(cell["kx_share"]) + 2.0 * cell["orders"])
                       * math.pi / period, 10.0 ** cell["log_ky"])
    eps = abs(float(model.epsilon(xi)))
    assert residual <= 1e-11 * math.sqrt(eps) * k_max * C_LIGHT / xi


# the low-xi, large-k_y corner, where the modal solve loses digits: there
# the reciprocity residual reaches 1e-4 for conductor_proxy
_CORNER = dict(period=400e-9, p1=0.46, run_share=0.1, depth=98e-9,
               log_xi=12.0, kx_share=0.3, log_ky=8.3, orders=8, slices=4,
               log_z=-7.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(material="conductor_proxy", **_CORNER)
@example(material="silicon_doped", **_CORNER)
@given(material=st.sampled_from(["silicon_doped", "silicon_intrinsic",
                                 "gold_drude", "conductor_proxy"]),
       log_z=st.floats(-8.0, -6.0),
       **dict(_CELL, log_ky=st.floats(4.0, 8.5)))
def test_loop_operator_within_the_passivity_bound(material, log_z, **cell):
    # The node plan drops a row from the a-priori bound ||M'||_F <=
    # sqrt(2 n1) e^{-2 kappa0 z}, kappa0 the row's smallest vacuum decay
    # rate, which |r1| <= 1 and a passive R2 give; the computed operator
    # must obey it, also where the modal solve loses digits.
    r2 = _cell_reflection(get_material(material), **cell)
    xi, period, z = 10.0 ** cell["log_xi"], cell["period"], 10.0 ** log_z
    k_y = 10.0 ** cell["log_ky"]
    n = np.arange(-cell["orders"], cell["orders"] + 1)
    kn = (cell["kx_share"] + 2.0 * n) * math.pi / period
    kappa = np.tile(np.sqrt((xi / C_LIGHT) ** 2 + kn ** 2 + k_y ** 2), 2)
    r1 = np.concatenate(fresnel_te_tm(get_material("gold_drude"), xi,
                                      np.hypot(kn, k_y)))
    loop = (r1 * np.exp(-2.0 * kappa * z))[:, None] * r2
    bound = math.sqrt(kappa.size) * math.exp(-2.0 * kappa.min() * z)
    assert np.linalg.norm(loop) <= bound * (1.0 + 1e-12)


def test_brillouin_zone_evenness(trench):
    si = get_material("silicon_doped")
    xi, kx, ky = 1.2e15, 0.35 * math.pi / LAM, 4e6
    spec = TruncationSpec(4, 2)
    sv_plus = np.linalg.svd(
        grating_reflection(trench, si, xi, kx, ky, spec),
        compute_uv=False)
    sv_minus = np.linalg.svd(
        grating_reflection(trench, si, xi, -kx, ky, spec),
        compute_uv=False)
    np.testing.assert_allclose(sv_plus, sv_minus, rtol=1e-10)


def test_corrugated_perfect_conductor_rejected(trench):
    with pytest.raises(ValueError, match="conductor_proxy"):
        grating_reflection(trench, PerfectConductor(), 1e15,
                           0.2 * math.pi / LAM, 1e6, TruncationSpec(2, 1))


def test_argument_validation(trench):
    si = get_material("silicon_doped")
    with pytest.raises(ValueError):
        grating_reflection(trench, si, -1e15, 0.0, 1e6)
    with pytest.raises(ValueError):
        grating_reflection(trench, si, 1e15, 4.0 * math.pi / LAM, 1e6)
    with pytest.raises(ValueError):
        grating_reflection(trench, si, 1e15, 0.0, -1e6)
    with pytest.raises(ValueError):
        TruncationSpec(-1, 1)
    with pytest.raises(ValueError, match="orders must lie in"):
        TruncationSpec(grating.MAX_ORDERS + 1, 1)
    with pytest.raises(ValueError):
        TruncationSpec(4, 0)
    with pytest.raises(ValueError, match="slices must lie in"):
        TruncationSpec(1, grating.MAX_SLICES + 1)
    with pytest.raises(ValueError):
        GratingQuadrature(2, 8, 8)
    # non-integral counts failed later, without naming the input
    with pytest.raises(ValueError, match="^orders must be an integer, got 2.5"):
        TruncationSpec(2.5, 1)
    with pytest.raises(ValueError, match="^slices must be an integer, got 1.5"):
        TruncationSpec(2, 1.5)
    with pytest.raises(ValueError, match="^ky_nodes must be an integer"):
        GratingQuadrature(8, 8, 4.5)
    spec = TruncationSpec(np.int64(2), np.int32(1),
                          GratingQuadrature(np.int64(4), 4, np.int16(4)))
    assert (spec.orders, spec.quadrature.xi_nodes) == (2, 4)
    assert issubclass(ModalError, Exception)


@pytest.mark.parametrize("xi, k_y, name", [
    (1e15, math.nan, "k_y"), (1e15, math.inf, "k_y"), (math.inf, 1e6, "xi")])
def test_reflection_rejects_a_non_finite_xi_or_k_y(trench, xi, k_y, name):
    # a NaN or infinite k_y gave an all-NaN matrix, an infinite xi a
    # ModalError from the eigensolver
    with pytest.raises(ValueError, match=f"^{name} must be"):
        grating_reflection(trench, get_material("silicon_doped"), xi, 0.0,
                           k_y, TruncationSpec(2, 1))


@pytest.mark.parametrize("z", [[math.nan], [100e-9, math.inf]])
def test_grid_rejects_non_finite_separations(trench, z):
    # the quadrature rule, built from z_min and z_max, raised first and
    # did not name the separations
    with pytest.raises(ValueError, match="^separations must be positive "
                                         "and finite"):
        casimir_pressure_grating_grid(trench, get_material("silicon_doped"),
                                      get_material("gold_drude"), z,
                                      TruncationSpec(1, 1), workers=1)


# --------------------------------------------------------------------------
# The layer eigenproblems against scipy.linalg.


@pytest.mark.parametrize("slot_frac", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("end", [0, -1], ids=["lowest_xi", "highest_xi"])
def test_layer_modes_match_scipy_pencil(slot_frac, end):
    # the xi ends of the rule for rho_ratio.cfg's 100-250 nm grid on
    # silicon_doped, whose eps is largest (140) at the low end.  There the
    # TM eigenvalues spread over 6e4, and scipy's own smallest one lies up
    # to 3e-11 off a 40-digit reference, so they are compared relative to
    # the largest.
    q = decay_rule(100e-9, 250e-9, GratingQuadrature().xi_nodes)[0][end]
    eps = float(get_material("silicon_doped").epsilon(q * C_LIGHT))
    order_n = 8
    kn = (0.3 + 2.0 * np.arange(-order_n, order_n + 1)) * math.pi / LAM
    t_eps, t_inv = grating._toeplitz_pair(eps, slot_frac, order_n)
    assert np.array_equal(t_eps, sla.toeplitz(t_eps[:, 0]))
    assert np.array_equal(t_inv, sla.toeplitz(t_inv[:, 0]))

    modes = grating._layer_modes(q, kn, eps, slot_frac, "test")
    inv_eps = np.linalg.inv(t_eps)
    a_tm = q * q * np.eye(kn.size) + np.outer(kn, kn) * (inv_eps + inv_eps.T) / 2
    beta2 = sla.eigh((a_tm + a_tm.T) / 2, t_inv, eigvals_only=True)
    assert np.abs(modes.beta2_tm - beta2).max() <= 1e-12 * beta2.max()
    gram = modes.vec_tm.T @ t_inv @ modes.vec_tm
    assert np.abs(gram - np.eye(kn.size)).max() <= 1e-12


def test_indefinite_layer_raises_modal_error():
    # a negative solid eps makes T[1/eps] indefinite: no Cholesky factor
    kn = (0.3 + 2.0 * np.arange(-4, 5)) * math.pi / LAM
    with pytest.raises(ModalError, match="eigenproblem failed at CTX"):
        grating._layer_modes(1e6, kn, -2.0, 0.5, "CTX")


def test_lost_tm_mode_names_polarization_eps_and_orders(trench):
    # conductor_proxy's eps is physical; at N = 12 and xi = 1e12 the TM
    # reduction through the near-singular T[1/eps] loses a mode, where
    # N = 8 still solves
    proxy = get_material("conductor_proxy")
    kx = 0.3 * math.pi / LAM
    grating_reflection(trench, proxy, 1e12, kx, 1e6, TruncationSpec(8, 4))
    with pytest.raises(ModalError, match=r"non-positive TM modal eigenvalue "
                       r"at xi=1\.0000e\+12 .* for \|eps\| = 9\.16e\+11 at "
                       r"N = 12: T\[1/eps\], .* smallest eigenvalue 1\.09e-12"):
        grating_reflection(trench, proxy, 1e12, kx, 1e6, TruncationSpec(12, 4))


# --------------------------------------------------------------------------
# Interface matrices and the loop trace against dense references.


def dense_fields(modes, q, kn, ky):
    """Scaled upward-mode fields W = E(+), V = H(+), their inverses, scale.

    Matrices have shape (nky, 2 n1, 2 n1): rows stack (Ex, Ey) resp.
    (Hx, Hy) orders, columns TE then TM modes, each column scaled by
    1 / max(|W column|, |V column|).  W = [[0, P], [Q, S]] and
    V = [[T, 0], [U, Y]] are block triangular, so the inverses follow
    block by block.
    """
    n1 = kn.size
    kap_te = np.sqrt(modes.alpha2_te[None, :] + ky[:, None] ** 2)
    kap_tm = np.sqrt(modes.beta2_tm[None, :] + ky[:, None] ** 2)
    ky_q = (ky / q)[:, None, None]
    w, v, w_inv, v_inv = blocks = np.zeros((4, ky.size, 2 * n1, 2 * n1))
    w[:, :n1, n1:] = -(modes.ex_weight_tm * modes.beta2_tm[None, :] / q)[None]
    w[:, n1:, :n1] = -modes.vec_te[None] * kap_te[:, None, :]
    w[:, n1:, n1:] = -ky_q * modes.ey_weight_tm[None]
    v[:, :n1, :n1] = (modes.vec_te * modes.alpha2_te[None, :] / q)[None]
    v[:, n1:, :n1] = ky_q * (kn[:, None] * modes.vec_te)[None]
    v[:, n1:, n1:] = -modes.vec_tm[None] * kap_tm[:, None, :]
    # W^-1 = [[-Q^-1 S P^-1, Q^-1], [P^-1, 0]],
    # V^-1 = [[T^-1, 0], [-Y^-1 U T^-1, Y^-1]]
    p_inv = w_inv[:, n1:, :n1] = (-(q / modes.beta2_tm)[:, None]
                                  * np.linalg.inv(modes.ex_weight_tm))
    t_inv = v_inv[:, :n1, :n1] = (q / modes.alpha2_te)[:, None] * modes.vec_te.T
    g_inv = np.linalg.inv(modes.vec_tm)
    w_inv[:, :n1, n1:] = -modes.vec_te.T[None] / kap_te[:, :, None]
    w_inv[:, :n1, :n1] = -ky_q * (modes.vec_te.T @ modes.ey_weight_tm
                                  @ p_inv)[None] / kap_te[:, :, None]
    v_inv[:, n1:, n1:] = -g_inv[None] / kap_tm[:, :, None]
    v_inv[:, n1:, :n1] = ky_q * (g_inv @ (kn[:, None] * modes.vec_te)
                                 @ t_inv)[None] / kap_tm[:, :, None]
    col_max = np.maximum(np.abs(w).max(axis=1), np.abs(v).max(axis=1))
    scale = 1.0 / np.where(col_max > 0.0, col_max, 1.0)
    blocks[:2] *= scale[:, None, :]
    blocks[2:] /= scale[:, :, None]
    return w, v, w_inv, v_inv, scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(period=st.floats(200e-9, 800e-9), p1=st.floats(0.05, 0.9),
       run_share=st.floats(0.0, 0.99), depth=st.floats(10e-9, 150e-9),
       material=st.sampled_from(["silicon_doped", "gold_drude",
                                 "conductor_proxy"]),
       log_xi=st.floats(12.0, 16.5), kx_share=st.floats(-1.0, 1.0),
       log_ky=st.floats(4.0, math.log10(3e8)), orders=st.integers(0, 8),
       slices=st.integers(2, 4),
       where=st.sampled_from(["substrate", "slab", "vacuum"]))
def test_interface_matrices_match_dense_fields(period, p1, run_share, depth,
                                               material, log_xi, kx_share,
                                               log_ky, orders, slices, where):
    # (A + B, A - B) from the modal products against the scaled dense
    # W_a^-1 W_b +- V_a^-1 V_b, within 1e-12 of the largest entry plus the
    # dense inverses' own residual |W_a^-1 W_a - I|, |V_a^-1 V_a - I|.
    # That residual reaches 3e-11 at xi ~ 1e12 rad/s with |eps| ~ 1e12,
    # where both forms round at that level.
    run = 0.0 if run_share < 0.01 else run_share * min(
        depth, 0.5 * (1.0 - p1) * period)
    profile = GratingProfile(period=period, top_width=p1 * period,
                             floor_width=(1.0 - p1) * period - 2.0 * run,
                             depth=depth, sidewall_angle_deg=90.0
                             + math.degrees(math.atan(run / depth)))
    xi = 10.0**log_xi
    q = xi / C_LIGHT
    kn = (kx_share + 2.0 * np.arange(-orders, orders + 1)) * math.pi / period
    ky = 10.0 ** np.array([4.0, log_ky, math.log10(3e8)])
    eps = float(get_material(material).epsilon(xi))
    fracs = ([0.0] + [s.slot_width / period
                      for s in reversed(staircase(profile, slices))] + [1.0])
    i = {"substrate": 0, "slab": 1, "vacuum": len(fracs) - 2}[where]
    modes_b, modes_a = (grating._layer_modes(q, kn, eps, f, "test")
                        for f in fracs[i:i + 2])
    below, above = (grating._layer(m, q, kn, ky) for m in (modes_b, modes_a))
    plus, minus = grating._interface(below, above, q, kn, ky)

    w_b, v_b, _, _, scale_b = dense_fields(modes_b, q, kn, ky)
    w_a, v_a, w_inv_a, v_inv_a, scale_a = dense_fields(modes_a, q, kn, ky)
    assert np.array_equal(below.scale, scale_b)
    assert np.array_equal(above.scale, scale_a)
    a, b = w_inv_a @ w_b, v_inv_a @ v_b
    ident = np.eye(a.shape[-1])
    residual = np.maximum(np.abs(w_inv_a @ w_a - ident),
                          np.abs(v_inv_a @ v_a - ident)).max(axis=(1, 2))
    largest = np.maximum(np.abs(a + b), np.abs(a - b)).max(axis=(1, 2))
    for got, want in ((plus, a + b), (minus, a - b)):
        err = np.abs(got - want).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * largest + 4.0 * residual)


def _passive_loop(norms, z, n=10, seed=3):
    """Synthetic (r_sp, kappa_vac, r1_diag) with ||M'||_F = norms at z."""
    rng = np.random.default_rng(seed)
    nky = len(norms)
    kappa = rng.uniform(1e6, 1e8, (nky, n))
    r1 = rng.uniform(-1.0, 1.0, (nky, n))
    u, _ = np.linalg.qr(rng.standard_normal((nky, n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((nky, n, n)))
    r_sp = u * rng.uniform(0.0, 1.0, (nky, 1, n)) @ v  # singular values <= 1
    m = (r1 * np.exp(-2.0 * kappa * z))[:, :, None] * r_sp
    r_sp *= (np.asarray(norms) / np.linalg.norm(m, axis=(1, 2)))[:, None, None]
    return r_sp, kappa, r1


@pytest.mark.parametrize("norms,z,share_small", [
    # ||M'||_F at z[0] just below and above the threshold, and at 1e-3;
    # the second separation shrinks every operator
    ([0.5 * 2.0**-26, 2.0 * 2.0**-26, 1e-3], [1e-8, 3e-8], None),
    ([1e-12, 0.5 * 2.0**-26, 0.9 * 2.0**-26], [1e-8, 3e-8], 1.0),
    ([2.0 * 2.0**-26, 1e-3, 0.5], [1e-8], 0.0),
])
def test_loop_trace_neumann_branch(norms, z, share_small, monkeypatch):
    z = np.array(z)
    r_sp, kappa, r1 = _passive_loop(norms, z[0])
    lam = np.exp(-kappa[None] * z[:, None, None])
    m = (r1 * lam)[..., :, None] * r_sp * lam[..., None, :]  # M = R1 L R2 L
    sol = np.linalg.solve(np.eye(kappa.shape[1]) - m, kappa[:, :, None] * m)
    want = 2.0 * np.einsum("zkii->zk", sol)
    norm = np.linalg.norm((r1 * lam * lam)[..., :, None] * r_sp, axis=(2, 3))
    tol = 1e-14 * kappa.max(axis=1) * norm
    small = np.mean(norm < 2.0**-26)
    assert 0.0 < small < 1.0 if share_small is None else small == share_small

    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: calls.append(1) or solve(*args))
    got = grating._trace_over_z(r_sp, kappa, r1, z, "test")
    assert np.all(np.abs(got - want) <= tol)
    # one batched solve per separation with an operator above the bar
    assert len(calls) == np.sum(np.any(norm > 2.0**(-52 / 64), axis=1))


def test_singular_loop_names_a_passivity_or_reciprocity_breach():
    # the second k_y's R2 has a gain entry 1 / D_00, so M' = D R2 has an
    # exact unit row and 1 - M' an exact zero row, far above the Neumann
    # cut; no passive, reciprocal R2 can do that against a plane with
    # eps >= 1
    kappa = np.full((2, 4), 1e7)
    r1 = np.full((2, 4), 0.5)
    z = np.array([1e-8, 2e-8])
    d = r1 * np.exp(-2.0 * kappa * z[0])  # as _trace_over_z forms it
    assert d[1, 0] * (1.0 / d[1, 0]) == 1.0
    r_sp = np.stack([0.3 * np.eye(4), 0.3 * np.eye(4)])
    r_sp[1, 0, 0] = 1.0 / d[1, 0]
    with pytest.raises(ModalError, match=(
            r"at test is not passive or not reciprocal: 1 - M' is singular "
            r"for z in \(1\.000e-08, 2\.000e-08\)")):
        grating._trace_over_z(r_sp, kappa, r1, z, "test")


# ||M'||_F bars of the doubling series: 2^p terms below 2^(-52 / 2^p)
_NORM_BARS = [2.0 ** (-52 / 2**p) for p in range(1, 7)]


def _at_the_bars(test):
    """Hypothesis examples just below and just above each bar."""
    for bar in _NORM_BARS:
        for side in (1.0 - 1e-6, 1.0 + 1e-6):
            test = example(log2_norms=[math.log2(side * bar)], seed=7)(test)
    return test


@_at_the_bars
@settings(max_examples=60, deadline=None, derandomize=True)
@given(log2_norms=st.lists(st.floats(-30.0, math.log2(0.9)), min_size=1,
                           max_size=4),
       seed=st.integers(0, 2**16))
@example(log2_norms=[-30.0, math.log2(0.9)], seed=1)
def test_loop_trace_series_matches_dense_solve(log2_norms, seed):
    # Each operator's trace against a dense LU of 1 - M', within the
    # remainder bound of the series plus rounding; an operator above the
    # last bar, and only then, goes to the batched solve.
    norms = 2.0 ** np.array(log2_norms)
    z = np.array([1e-8])
    r_sp, kappa, r1 = _passive_loop(norms, z[0], seed=seed)
    m = (r1 * np.exp(-2.0 * kappa * z[0]))[:, :, None] * r_sp
    norm = np.linalg.norm(m, axis=(1, 2))
    want = np.array([2.0 * np.trace(sla.lu_solve(
        sla.lu_factor(np.eye(k.size) - mm), k[:, None] * mm))
        for k, mm in zip(kappa, m)])

    calls = []
    solve = np.linalg.solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    np.linalg.solve = counting
    try:
        got = grating._trace_over_z(r_sp, kappa, r1, z, "test")
    finally:
        np.linalg.solve = solve
    assert np.all(np.abs(got - want) <= 1e-14 * kappa.max(axis=1) * norm)
    assert len(calls) == int(np.any(norm > _NORM_BARS[-1]))


@pytest.mark.parametrize("where", ["r_sp", "r1_diag"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_non_finite_loop_input_names_the_trace(where, value, row):
    # A NaN norm fails every comparison with the series bars, so the bad
    # operator, small or large, must reach the solve and the finite check
    # rather than leave its trace unset.
    z = np.array([1e-8, 2e-8])
    r_sp, kappa, r1 = _passive_loop([1e-20, 0.3], z[0])
    if where == "r_sp":
        r_sp[row, 1, 2] = value
    else:
        r1[row, 3] = value
    with pytest.raises(ModalError, match=(
            r"non-finite loop trace at test, z=1\.000e-08, 2\.000e-08")):
        grating._trace_over_z(r_sp, kappa, r1, z, "test")


def test_row_traces_do_not_depend_on_the_batch(trench):
    # A nested rule reuses a node's k_y rows under a second weight set, so
    # a row's traces must be the same bits alone, inside any subset of rows
    # in any order, and inside the full batch.  At 40 nm the lowest xi
    # node's rows span the batched solve and every level of the series.
    si, gold = get_material("silicon_doped"), get_material("gold_drude")
    z = np.array([40e-9, 100e-9, 250e-9])
    (q, _), (kx, _), (ky, _) = grating._quad_nodes(
        z, LAM, GratingQuadrature(8, 4, 12))

    def loop(rows):
        r_sp, kappa, k_t, context = grating._reflection_batch(
            trench, si, q[0] * C_LIGHT, kx[1], ky[rows], 4, 2)
        r1 = np.concatenate(fresnel_te_tm(gold, q[0] * C_LIGHT, k_t), axis=1)
        return r_sp, kappa, r1, context

    r_sp, kappa, r1, context = loop(np.arange(ky.size))
    norm = np.linalg.norm(
        (r1 * np.exp(-2.0 * kappa * z[0]))[:, :, None] * r_sp, axis=(1, 2))
    assert norm.max() > _NORM_BARS[-1] and norm.min() < _NORM_BARS[0]
    full = grating._trace_over_z(r_sp, kappa, r1, z, context)
    rng = np.random.default_rng(1)
    for rows in [[row] for row in range(ky.size)] + [
            rng.permutation(ky.size)[:size] for size in (2, 5, 9, ky.size)]:
        r_sp, kappa, r1, context = loop(rows)
        got = grating._trace_over_z(r_sp, kappa, r1, z, context)
        assert got.tolist() == full[:, rows].tolist()


@pytest.mark.parametrize("material", ["silicon_doped", "conductor_proxy"])
@pytest.mark.parametrize("xi,k_y", [(3e14, 0.0), (2e15, 2e7)])
def test_vertical_walls_do_not_depend_on_slicing(material, xi, k_y):
    # Vertical walls give every slice the same slot, so each interface
    # between slices joins two identical layers and must act as the
    # identity: the reflection cannot depend on the slice count.
    profile = GratingProfile(LAM, 0.45 * LAM, 0.55 * LAM, DEPTH)
    model = get_material(material)
    r = [grating_reflection(profile, model, xi, 0.3 * math.pi / LAM, k_y,
                            TruncationSpec(4, n_slices))
         for n_slices in (1, 2, 4)]
    scale = np.abs(r[0]).max()
    for other in r[1:]:
        assert np.abs(other - r[0]).max() <= 1e-12 * scale


def _chebyshev(n, a, b):
    """n Chebyshev points on [a, b], largest first, and the matrix that
    differentiates a polynomial through them (Trefethen, Spectral Methods
    in MATLAB, SIAM (2000), program cheb)."""
    k = np.arange(n)
    x = np.cos(np.pi * k / (n - 1))
    c = np.where((k == 0) | (k == n - 1), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n))
    d -= np.diag(d.sum(axis=1))
    return a + 0.5 * (b - a) * (x + 1.0), d * (2.0 / (b - a))


def test_pressure_is_minus_the_derivative_of_the_energy(trench):
    # E(z) = (hbar / 2 pi^3) sum_nodes (q_w c kx_w) sum_ky w_ky
    # log det(1 - M'(z)), M' = diag(r1 e^{-2 kappa z}) R_sp, on exactly the
    # nodes the pressure uses, and P = -dE/dz by Chebyshev differentiation.
    # This pins the trace identity, its factor 2, where kappa sits and the
    # Neumann cut, where R1 and R2 do not commute; the flat limits cannot.
    # Measured: at most 6.5e-11 apart, at z = 200 nm, set by the degree-15
    # interpolation (12 points give 1.3e-7)
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(2, 2, GratingQuadrature(6, 4, 8))
    z, diff = _chebyshev(16, 120e-9, 200e-9)
    (q, q_w), (kx, kx_w), (ky, ky_w) = grating._quad_nodes(
        z, trench.period, spec.quadrature)
    energy = np.zeros(z.size)
    for xi, xi_w in zip(q * C_LIGHT, q_w * C_LIGHT):
        for k_x, k_x_w in zip(kx, kx_w):
            r_sp, kappa, k_t, _ = grating._reflection_batch(
                trench, si, xi, k_x, ky, spec.orders, spec.n_slices)
            r1 = np.concatenate(fresnel_te_tm(gold, xi, k_t), axis=1)
            d = r1 * np.exp(-2.0 * kappa * z[:, None, None])
            m = d[..., None] * r_sp
            sign, logdet = np.linalg.slogdet(np.eye(r_sp.shape[-1]) - m)
            assert np.all(sign == 1.0)
            energy += xi_w * k_x_w * (logdet @ ky_w)
    energy *= HBAR / (2.0 * math.pi**3)
    pressure = casimir_pressure_grating_grid(trench, si, gold, z, spec)
    np.testing.assert_allclose(-(diff @ energy), pressure, rtol=1e-9, atol=0.0)


def test_fill_one_matches_planar_pressure():
    # An un-etched profile run through the full grating pipeline must
    # reproduce the planar Lifshitz module: pins the trace-formula
    # normalization and the Brillouin-zone band bookkeeping.  The order
    # cutoff bounds the covered |k_x| band, so the truncation tail is
    # exp(-2 (2 orders + 1) (pi / period) z); orders = 4 puts it below
    # the tolerance at this separation.
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    prof = GratingProfile(LAM, LAM, 0.0, DEPTH)
    spec = TruncationSpec(4, 1, GratingQuadrature(32, 8, 32))
    z = 150e-9
    got = casimir_force_grating(prof, si, gold, z, spec)
    want = casimir_pressure_planar(gold, si, z)
    assert got == pytest.approx(want, rel=1e-5)
    assert got < 0.0


def test_zero_depth_matches_planar_pressure():
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    prof = GratingProfile(LAM, LAM, 0.0, 0.0)
    spec = TruncationSpec(4, 1, GratingQuadrature(32, 8, 32))
    z = 120e-9
    got = casimir_force_grating(prof, si, gold, z, spec)
    want = casimir_pressure_planar(gold, si, z)
    assert got == pytest.approx(want, rel=1e-5)


def test_truncation_plateau(trench):
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(4, 3, GratingQuadrature(16, 4, 16))
    sweep = convergence_sweep(trench, si, gold, 150e-9, [4, 6, 8], spec)
    orders, values = zip(*sweep)
    assert orders == (4, 6, 8)
    assert abs(values[2] - values[1]) <= 5e-3 * abs(values[2])


def test_convergence_sweep_is_one_grid_call_per_cutoff(trench):
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(2, 2, GratingQuadrature(6, 4, 6))
    z = np.array([100e-9, 150e-9, 250e-9])
    sweep = convergence_sweep(trench, si, gold, z, [2, 4], spec, workers=1)
    assert [n for n, _ in sweep] == [2, 4]
    for n, values in sweep:
        grid = casimir_pressure_grating_grid(
            trench, si, gold, z, TruncationSpec(n, 2, spec.quadrature))
        assert values.tolist() == grid.tolist()  # bit for bit
    # a scalar z gives a float
    (n, value), = convergence_sweep(trench, si, gold, 150e-9, [4], spec)
    assert type(value) is float
    assert value == casimir_pressure_grating_grid(
        trench, si, gold, [150e-9], TruncationSpec(4, 2, spec.quadrature))[0]


def test_worker_count_does_not_change_result(trench):
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    for quad, z in ((GratingQuadrature(6, 4, 6), [150e-9]),
                    (GratingQuadrature(5, 5, 6), [100e-9, 150e-9, 250e-9])):
        spec = TruncationSpec(2, 2, quad)
        serial = casimir_pressure_grating_grid(trench, si, gold, z, spec,
                                               workers=1)
        parallel = casimir_pressure_grating_grid(trench, si, gold, z, spec,
                                                 workers=2)
        assert serial.tolist() == parallel.tolist()


def test_pool_has_at_most_one_thread_per_node(trench, monkeypatch):
    import casigrat.grating

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(casigrat.grating, "ThreadPoolExecutor", SerialPool)
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(1, 1, GratingQuadrature(4, 4, 4))  # 16 nodes
    casimir_pressure_grating_grid(trench, si, gold, [150e-9], spec, workers=64)
    assert sizes == [16]


@pytest.mark.parametrize("workers", [0, -3, grating.MAX_WORKERS + 1])
def test_worker_count_outside_range_raises_before_any_pool(trench, workers,
                                                           monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(grating, "ThreadPoolExecutor", no_pool)
    spec = TruncationSpec(1, 1, GratingQuadrature(4, 4, 4))
    with pytest.raises(ValueError, match="workers"):
        casimir_pressure_grating_grid(trench, get_material("silicon_doped"),
                                      get_material("gold_drude"), [150e-9],
                                      spec, workers=workers)


@pytest.mark.parametrize("env, cores, pools", [("3", 8, [3]), (None, 4, [4])])
def test_grid_without_workers_follows_the_one_default(trench, monkeypatch,
                                                      env, cores, pools):
    # a library call sizes its pool as the CLI does: CASIGRAT_WORKERS, else
    # the usable cores
    sizes = []
    pool = grating.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=1)

    monkeypatch.setattr(grating, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    if env is None:
        monkeypatch.delenv("CASIGRAT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("CASIGRAT_WORKERS", env)
    spec = TruncationSpec(1, 1, GratingQuadrature(4, 4, 4))  # 16 nodes
    casimir_pressure_grating_grid(trench, get_material("silicon_doped"),
                                  get_material("gold_drude"), [150e-9], spec)
    assert sizes == pools


def test_grid_without_workers_rejects_the_variable_before_any_pool(
        trench, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(grating, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("CASIGRAT_WORKERS", str(grating.MAX_WORKERS + 1))
    spec = TruncationSpec(1, 1, GratingQuadrature(4, 4, 4))
    with pytest.raises(ConfigError) as err:
        casimir_pressure_grating_grid(trench, get_material("silicon_doped"),
                                      get_material("gold_drude"), [150e-9],
                                      spec)
    assert str(err.value) == (f"CASIGRAT_WORKERS must lie in "
                              f"[1, {grating.MAX_WORKERS}], got "
                              f"{grating.MAX_WORKERS + 1}")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(slot=st.floats(0.1, 0.9), orders=st.integers(1, 2),
       slices=st.integers(1, 2),
       z=st.lists(st.sampled_from([100e-9, 150e-9, 250e-9]), min_size=1,
                  max_size=3, unique=True))
def test_thread_count_does_not_change_any_bit(slot, orders, slices, z):
    profile = GratingProfile(LAM, LAM * (1 - slot), LAM * slot, DEPTH)
    spec = TruncationSpec(orders, slices, GratingQuadrature(4, 4, 4))
    runs = [casimir_pressure_grating_grid(
        profile, get_material("silicon_doped"), get_material("gold_drude"),
        z, spec, workers=workers).tolist() for workers in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def _uncut_pressure(profile, model_grating, model_plane, z, spec):
    """The grid's sum over every (xi, k_x, k_y) node of the rule."""
    (q, q_w), (kx, kx_w), (ky, ky_w) = grating._quad_nodes(
        z, profile.period, spec.quadrature)
    acc = np.zeros(z.size)
    for xi, xi_w in zip(q * C_LIGHT, q_w * C_LIGHT):
        for k_x, k_x_w in zip(kx, kx_w):
            r_sp, kappa, k_t, context = grating._reflection_batch(
                profile, model_grating, xi, k_x, ky, spec.orders,
                spec.n_slices)
            r1 = np.concatenate(fresnel_te_tm(model_plane, xi, k_t), axis=1)
            acc += xi_w * k_x_w * (grating._trace_over_z(
                r_sp, kappa, r1, z, context) @ ky_w)
    return -(HBAR / (2.0 * math.pi**3)) * acc


def _planned_rows(monkeypatch):
    """Record xi and the k_y row count of every node the grid solves."""
    rows = []
    reflection_batch = grating._reflection_batch

    def reflection(profile, model, xi, k_x, ky, *args):
        rows.append((xi, ky.size))
        return reflection_batch(profile, model, xi, k_x, ky, *args)

    monkeypatch.setattr(grating, "_reflection_batch", reflection)
    return rows


@pytest.mark.parametrize("short_period", [False, True])
def test_row_cut_moves_the_pressure_at_rounding_level(trench, short_period,
                                                      monkeypatch):
    # The plan drops rows whose loop operators lie below 2^-52 of the
    # grid's largest, and nodes left without rows.  With z_min eight
    # periods out, the k_x spread alone exceeds the cut, so whole k_x nodes
    # drop at the lowest xi too.  Measured: 1.7e-14 and 6.9e-14 apart, at
    # z_min; a dropped row's quadrature weight times its decay rate grows
    # with kappa, so far from the period the cut moves P the most.
    si, gold = get_material("silicon_doped"), get_material("gold_drude")
    spec = TruncationSpec(3, 2, GratingQuadrature(12, 6, 16))
    profile, z = trench, np.array([100e-9, 150e-9, 250e-9])
    if short_period:
        profile = GratingProfile(50e-9, 20e-9, 20e-9, 15e-9)
        z = np.array([400e-9, 600e-9])
    want = _uncut_pressure(profile, si, gold, z, spec)
    rows = _planned_rows(monkeypatch)
    got = casimir_pressure_grating_grid(profile, si, gold, z, spec, workers=2)
    xi, counts = zip(*rows)
    assert len(rows) < 12 * 6 and sum(counts) < 12 * 6 * 16
    assert xi.count(min(xi)) == (4 if short_period else 6)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_thread_count_does_not_change_any_bit_of_a_cut_plan(trench,
                                                            monkeypatch):
    # a rule whose plan drops both k_y rows and whole nodes
    spec = TruncationSpec(2, 2, GratingQuadrature(6, 4, 6))
    z = [100e-9, 250e-9]
    rows = _planned_rows(monkeypatch)
    runs = [casimir_pressure_grating_grid(
        trench, get_material("silicon_doped"), get_material("gold_drude"),
        z, spec, workers=workers).tolist() for workers in (1, 2, 3)]
    assert len(rows) == 3 * 20 and sum(n for _, n in rows) < 3 * 20 * 6
    assert runs[0] == runs[1] == runs[2]


def test_modal_error_at_first_node_stops_the_run(trench, monkeypatch):
    quad = GratingQuadrature(10, 10, 4)  # 100 nodes, xi-major
    (q, _), (kx, _), _ = grating._quad_nodes(np.array([150e-9]),
                                             trench.period, quad)
    calls = []
    reflection_batch = grating._reflection_batch

    def reflection(profile, model, xi, k_x, *args):
        calls.append((xi, k_x))
        if (xi, k_x) == (q[0] * C_LIGHT, kx[0]):
            raise ModalError("singular at the first node")
        time.sleep(0.05)
        return reflection_batch(profile, model, xi, k_x, *args)

    monkeypatch.setattr(grating, "_reflection_batch", reflection)
    with pytest.raises(ModalError, match="first node"):
        casimir_pressure_grating_grid(trench, get_material("silicon_doped"),
                                      get_material("gold_drude"), [150e-9],
                                      TruncationSpec(1, 1, quad), workers=2)
    # the pool cancels the nodes not yet started
    assert len(calls) < 10


@pytest.mark.parametrize("case", [False, True, "shipped"])
def test_grid_pressure_regression_pin(trench, case):
    # literal values the kernel must reproduce to rounding.  False (silicon
    # trench) and True (perfect conductor) were recorded from the (4 n1)-
    # sized interface-solve kernel; "shipped" from the dense W/V field
    # kernel at the rho_ratio.cfg shape, where both the Neumann and the
    # solve branch of the loop trace run
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(4, 2, GratingQuadrature(4, 4, 8))
    z = [100e-9, 150e-9, 250e-9]
    if case == "shipped":
        profile, model = trench, si
        spec = TruncationSpec(8, 4, GratingQuadrature(4, 4, 12))
        z = [100e-9, 130e-9, 160e-9, 190e-9, 220e-9, 250e-9]
        want = [-2.3421313097066117, -1.005426806544122, -0.5034622705530142,
                -0.2769571943617971, -0.16270950981792132,
                -0.10054683003061726]
    elif case:
        profile, model = GratingProfile(LAM, LAM, 0.0, 0.0), PerfectConductor()
        want = [-7.537786771390838, -1.9436000834686278, -0.29623816009465037]
    else:
        profile, model = trench, si
        want = [-2.358683360567413, -0.6302582527576783, -0.10112032315967324]
    got = casimir_pressure_grating_grid(profile, model, gold, z, spec)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# --------------------------------------------------------------------------
# Exact-to-PFA ratio.


def test_rho_shallow_corrugation_near_unity():
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    shallow = GratingProfile(LAM, 185.3e-9, 214.7e-9, 10e-9)
    spec = TruncationSpec(6, 2, GratingQuadrature(24, 6, 24))
    curve = rho_ratio(shallow, si, gold, [150e-9], spec)
    assert abs(curve.values[0] - 1.0) < 0.02


def test_rho_refuses_a_non_increasing_grid_before_the_grid(trench,
                                                          monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(grating, "casimir_pressure_grating_grid", unreachable)
    for z in ([200e-9, 100e-9], [150e-9, 150e-9]):
        with pytest.raises(ValueError, match="strictly increasing"):
            rho_ratio(trench, get_material("silicon_doped"),
                      get_material("gold_drude"), z, TruncationSpec(2, 2))


@pytest.mark.parametrize("z", [[100e-9, math.nan], [math.nan, 100e-9],
                               [100e-9, math.inf]])
def test_rho_refuses_a_non_finite_separation_before_the_grid(trench, z,
                                                            monkeypatch):
    # NaN fails the increasing check too; the separations check comes first
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(grating, "casimir_pressure_grating_grid", unreachable)
    with pytest.raises(ValueError, match="separations must be positive and "
                                         "finite"):
        rho_ratio(trench, get_material("silicon_doped"),
                  get_material("gold_drude"), z, TruncationSpec(2, 2))


def test_rho_real_materials_window(trench):
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(6, 3, GratingQuadrature(28, 6, 28))
    z = np.array([100e-9, 175e-9, 250e-9])
    curve = rho_ratio(trench, si, gold, z, spec)
    assert curve.unit == "dimensionless"
    assert np.all(curve.values > 1.0)
    # the deviation from the additive approximation stays at the ten
    # percent scale across the window and never collapses toward zero
    assert np.all(curve.values > 1.05)
    assert np.all(curve.values < 1.20)


def test_rho_idealized_conductor_exceeds_real(trench):
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    proxy = get_material("conductor_proxy")
    spec = TruncationSpec(5, 2, GratingQuadrature(20, 5, 20))
    z = np.array([120e-9, 250e-9])
    real = rho_ratio(trench, si, gold, z, spec)
    ideal = rho_ratio(trench, proxy, proxy, z, spec)
    assert np.all(ideal.values > real.values)
    assert np.all(ideal.values > 1.0)
