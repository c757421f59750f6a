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

The force assembly is checked against the planar module in the fill-1 limit
and through truncation/worker invariances.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from casigrat import (
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
from casigrat.constants import C_LIGHT
from casigrat.planar import fresnel_te_tm

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
                             TruncationSpec(n_orders, n_slices)).matrix
    want = _oracle_reflection(prof, si, xi, kx, ky, n_orders, n_slices)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# --------------------------------------------------------------------------
# Analytic limits of the patterned layer.


def test_slot_fraction_continuity_solid_limit():
    mat = FixedEps(3.3)
    xi, kx, ky = 1.2e15, 0.3 * math.pi / LAM, 3e6
    frac = 1e-6
    prof = GratingProfile(LAM, LAM * (1 - frac), LAM * frac, DEPTH)
    got = grating_reflection(prof, mat, xi, kx, ky, TruncationSpec(4, 1)).matrix
    ref = grating_reflection(GratingProfile(LAM, LAM, 0.0, DEPTH), mat, xi,
                             kx, ky, TruncationSpec(4, 1)).matrix
    assert np.abs(got - ref).max() < 1e-4


def test_slot_fraction_continuity_open_limit():
    # A nearly period-wide slot is the bare substrate, its Fresnel
    # reflection propagated up through the empty layer.
    mat = FixedEps(3.3)
    xi, kx, ky = 1.2e15, 0.3 * math.pi / LAM, 3e6
    q = xi / C_LIGHT
    frac = 1.0 - 1e-6
    prof = GratingProfile(LAM, LAM * (1 - frac), LAM * frac, DEPTH)
    got = grating_reflection(prof, mat, xi, kx, ky, TruncationSpec(4, 1)).matrix
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
                                 TruncationSpec(n_ord, 1)).matrix
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
                             TruncationSpec(6, 1)).matrix
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
                             TruncationSpec(n_ord, 1)).matrix
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
        op = grating_reflection(trench, si, xi, kx, ky, TruncationSpec(5, 3))
        assert op.max_singular_value() <= 1.0 + 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(period=st.floats(200e-9, 800e-9), p1=st.floats(0.05, 0.9),
       run_share=st.floats(0.0, 0.99), depth=st.floats(10e-9, 150e-9),
       log_xi=st.floats(12.0, 16.5), kx_share=st.floats(-1.0, 1.0),
       log_ky=st.floats(4.0, 7.7), orders=st.integers(1, 8),
       slices=st.integers(1, 5))
def test_passivity_on_random_trapezoids(period, p1, run_share, depth, log_xi,
                                        kx_share, log_ky, orders, slices):
    # the wall angle is derived from the widths, so the profile is
    # consistent; near-vertical walls snap to 90 degrees, where the
    # widths-derived run would be lost to cancellation
    run = run_share * min(depth, 0.5 * (1.0 - p1) * period)
    if run_share < 0.01:
        run = 0.0
    angle = 90.0 + math.degrees(math.atan(run / depth))
    profile = GratingProfile(period=period, top_width=p1 * period,
                             floor_width=(1.0 - p1) * period - 2.0 * run,
                             depth=depth, sidewall_angle_deg=angle)
    op = grating_reflection(profile, get_material("silicon_doped"),
                            10.0**log_xi, kx_share * math.pi / period,
                            10.0**log_ky, TruncationSpec(orders, slices))
    assert op.max_singular_value() <= 1.0 + 1e-8


def test_brillouin_zone_evenness(trench):
    si = get_material("silicon_doped")
    xi, kx, ky = 1.2e15, 0.35 * math.pi / LAM, 4e6
    spec = TruncationSpec(4, 2)
    sv_plus = np.linalg.svd(
        grating_reflection(trench, si, xi, kx, ky, spec).matrix,
        compute_uv=False)
    sv_minus = np.linalg.svd(
        grating_reflection(trench, si, xi, -kx, ky, spec).matrix,
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
    with pytest.raises(ValueError):
        TruncationSpec(4, 0)
    with pytest.raises(ValueError):
        GratingQuadrature(2, 8, 8)
    assert issubclass(ModalError, Exception)


# --------------------------------------------------------------------------
# Force assembly.


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


def test_worker_count_does_not_change_result(trench):
    gold = get_material("gold_drude")
    si = get_material("silicon_doped")
    spec = TruncationSpec(2, 2, GratingQuadrature(6, 4, 6))
    z = np.array([150e-9])
    serial = casimir_pressure_grating_grid(trench, si, gold, z, spec, workers=1)
    parallel = casimir_pressure_grating_grid(trench, si, gold, z, spec,
                                             workers=2)
    assert serial[0] == parallel[0]


@pytest.mark.parametrize("conductor", [False, True])
def test_grid_pressure_regression_pin(trench, conductor):
    # literal values recorded from the (4 n1)-sized interface-solve kernel;
    # the kernel must reproduce them to rounding
    gold = get_material("gold_drude")
    if conductor:
        profile, model = GratingProfile(LAM, LAM, 0.0, 0.0), PerfectConductor()
        want = [-7.537786771390838, -1.9436000834686278, -0.29623816009465037]
    else:
        profile, model = trench, get_material("silicon_doped")
        want = [-2.358683360567413, -0.6302582527576783, -0.10112032315967324]
    spec = TruncationSpec(4, 2, GratingQuadrature(4, 4, 8))
    got = casimir_pressure_grating_grid(profile, model, gold,
                                        [100e-9, 150e-9, 250e-9], spec)
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
