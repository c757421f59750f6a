"""Exact Casimir force between a planar mirror and a lamellar grating.

The grating is sliced into lamellar layers (``geometry.staircase``) and
each layer is solved by a Fourier modal method formulated directly on the
imaginary frequency axis, where the field equations are real and the
modal eigenproblems are symmetric (definite) ones:

* TE-to-x modes (electric field transverse to the grating axis x):
  ``(Kx^2 + q^2 T[eps]) f = alpha^2 f`` with ``q = xi/c``.
* TM-to-x modes, with the inverse-rule factorization that restores fast
  Fourier convergence for discontinuous permittivity:
  ``(q^2 I + Kx T[eps]^{-1} Kx) g = beta^2 T[1/eps] g``.

``T[.]`` is the Toeplitz matrix of Fourier coefficients over one period.
A mode with eigenvalue ``s2`` decays vertically as ``exp(-kappa y)`` with
``kappa = sqrt(s2 + k_y^2)``: at imaginary frequency nothing propagates,
which is what makes scattering-matrix recursion with decaying-only
factors unconditionally stable.

Layers are joined by matching tangential (Ex, Ey, Hx, Hy) blocks; the
half-space reflection is accumulated bottom-up through Redheffer-style
updates.  The vacuum-side result is converted to the per-order (s, p)
polarization basis, in which a flat surface reproduces the planar Fresnel
coefficients on the diagonal.

The force between mirror 1 (planar, below at distance z) and mirror 2
(the grating) follows from the round-trip operator

    M = R1 e^{-kappa z} R2 e^{-kappa z},
    P(z) = -(hbar / 2 pi^3) Int_0^inf dxi Int_0^{pi/L} dk_x
           Int_0^inf dk_y  tr[(1 - M)^{-1} (-dM/dz)],

with -dM/dz = R1 kappa e^{-kappa z} R2 e^{-kappa z}
            + R1 e^{-kappa z} R2 kappa e^{-kappa z} (the operators do not
commute), kappa the diagonal of vacuum decay rates per diffraction order,
and the normalization pinned by the planar ideal-mirror limit exactly as
in ``planar``.  Evenness in k_x and k_y is folded into the prefactor.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .constants import C_LIGHT, HBAR
from .curves import ForceCurve
from .geometry import GratingProfile, Slab, staircase
from .materials import DielectricModel, is_perfect_conductor
from .pfa import flat_pressure_law, pfa_corrugated
# casimir_pressure_planar stays bound here for perfbench's tracer tests
from .planar import (NumericalError, casimir_pressure_planar,  # noqa: F401
                     fresnel_te_tm)
from .quadrature import asinh_gauss_legendre, gauss_legendre

Array = np.ndarray


class ModalError(NumericalError):
    """Modal eigenproblem or interface solve failed; carries (xi, k) context."""


@dataclass(frozen=True)
class GratingQuadrature:
    """Node counts and scaled-variable window for the (xi, k_x, k_y) grid.

    xi and k_y run on arcsinh-mapped Gauss-Legendre rules: linear near the
    axis origin, where the product-grid integrand stays finite, and
    logarithmic out to y = 2 kappa z ~ y_hi for the smallest requested z
    (the transition sits at y ~ y_scale for the largest z).  k_x runs on a
    plain Gauss-Legendre rule over half the Brillouin zone.
    """

    xi_nodes: int = 40
    kx_nodes: int = 8
    ky_nodes: int = 40
    y_scale: float = 1.0
    y_hi: float = 45.0

    def __post_init__(self) -> None:
        if min(self.xi_nodes, self.kx_nodes, self.ky_nodes) < 4:
            raise ValueError("need at least 4 nodes per axis")
        if not 0.0 < self.y_scale < self.y_hi:
            raise ValueError("need 0 < y_scale < y_hi")


@dataclass(frozen=True)
class TruncationSpec:
    """Diffraction-order cutoff, staircase slicing, and quadrature."""

    orders: int = 10
    n_slices: int = 4
    quadrature: GratingQuadrature = GratingQuadrature()

    def __post_init__(self) -> None:
        if self.orders < 0:
            raise ValueError("orders must be >= 0")
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")


@dataclass(frozen=True)
class ReflectionOperator:
    """Grating reflection matrix at one (xi, k_x, k_y) evaluation point.

    ``matrix`` has dimension 2(2N+1), indexed [s-amplitudes of orders
    -N..N, then p-amplitudes].  The basis is flux-weighted so that a flat
    surface gives the planar Fresnel values on the diagonal and passive
    surfaces have singular values <= 1.
    """

    matrix: Array
    xi: float
    k_x: float
    k_y: float
    orders: int
    period: float

    def max_singular_value(self) -> float:
        return float(np.linalg.svd(self.matrix, compute_uv=False)[0])


# --------------------------------------------------------------------------
# Layer eigenproblems


@dataclass
class _LayerModes:
    alpha2_te: Array      # (n1,) TE eigenvalues (kappa^2 - k_y^2)
    vec_te: Array         # (n1, n1)
    beta2_tm: Array       # (n1,)
    vec_tm: Array         # (n1, n1)
    ex_weight_tm: Array   # T[1/eps] @ vec_tm; Ex is recovered from the
    #                       continuous eps*Ex, so the 1/eps Toeplitz applies
    ey_weight_tm: Array   # T[eps]^{-1} @ Kx @ vec_tm (Ey via Laurent rule)


def _toeplitz_pair(eps_solid: float, slot_frac: float, order_n: int):
    """Toeplitz matrices of eps(x) and 1/eps(x) for a centered vacuum slot."""
    j = np.arange(2 * order_n + 1)
    window = slot_frac * np.sinc(j * slot_frac)
    c_eps = (1.0 - eps_solid) * window
    c_eps[0] += eps_solid
    c_inv = (1.0 - 1.0 / eps_solid) * window
    c_inv[0] += 1.0 / eps_solid
    return sla.toeplitz(c_eps), sla.toeplitz(c_inv)


def _layer_modes(q: float, kn: Array, eps_solid: float | None,
                 slot_frac: float, context: str) -> _LayerModes:
    """Vertical eigenmodes of one lamellar (or homogeneous) layer.

    ``eps_solid`` is the solid permittivity at this frequency; None means
    vacuum.  ``slot_frac`` is the vacuum opening fraction (0 = solid
    everywhere, 1 = vacuum everywhere).
    """
    n1 = kn.size
    ident = np.eye(n1)
    if eps_solid is None or slot_frac >= 1.0 or slot_frac <= 0.0:
        eps_h = 1.0 if (eps_solid is None or slot_frac >= 1.0) else eps_solid
        s2 = eps_h * q * q + kn * kn
        return _LayerModes(alpha2_te=s2, vec_te=ident, beta2_tm=s2.copy(),
                           vec_tm=ident, ex_weight_tm=ident / eps_h,
                           ey_weight_tm=np.diag(kn) / eps_h)

    t_eps, t_inv = _toeplitz_pair(eps_solid, slot_frac, (n1 - 1) // 2)
    try:
        a_te = np.diag(kn * kn) + q * q * t_eps
        alpha2, vec_te = sla.eigh(0.5 * (a_te + a_te.T))

        inv_eps = sla.inv(t_eps)
        inv_eps = 0.5 * (inv_eps + inv_eps.T)
        a_tm = q * q * ident + kn[:, None] * inv_eps * kn[None, :]
        beta2, vec_tm = sla.eigh(0.5 * (a_tm + a_tm.T), 0.5 * (t_inv + t_inv.T))
    except sla.LinAlgError as exc:
        raise ModalError(f"modal eigenproblem failed at {context}: {exc}") from None
    if alpha2.min() <= 0.0 or beta2.min() <= 0.0:
        raise ModalError(f"non-positive modal eigenvalue at {context}; "
                         "the layer permittivity is unphysical")
    return _LayerModes(alpha2_te=alpha2, vec_te=vec_te, beta2_tm=beta2,
                       vec_tm=vec_tm, ex_weight_tm=t_inv @ vec_tm,
                       ey_weight_tm=inv_eps @ (kn[:, None] * vec_tm))


# --------------------------------------------------------------------------
# Tangential field blocks and interface scattering


def _field_blocks(modes: _LayerModes, q: float, kn: Array, ky: Array):
    """Tangential field matrices E(+-), H(+-) and the decay rates.

    Shapes (nky, 2 n1, 2 n1); rows stack (Ex, Ey) resp. (Hx, Hy) Fourier
    orders, columns stack TE then TM modes.  Only the kappa-carrying
    blocks change sign between upward (+) and downward (-) modes:
    E(s) = [s*PE | QE], H(s) = [PH | s*QH].
    """
    n1 = kn.size
    nky = ky.size
    kap_te = np.sqrt(modes.alpha2_te[None, :] + ky[:, None] ** 2)
    kap_tm = np.sqrt(modes.beta2_tm[None, :] + ky[:, None] ** 2)

    e_plus = np.zeros((nky, 2 * n1, 2 * n1))
    h_plus = np.zeros((nky, 2 * n1, 2 * n1))

    # E blocks.
    e_plus[:, :n1, n1:] = -(modes.ex_weight_tm * modes.beta2_tm[None, :] / q)[None]
    e_plus[:, n1:, :n1] = -modes.vec_te[None] * kap_te[:, None, :]
    e_plus[:, n1:, n1:] = -(ky / q)[:, None, None] * modes.ey_weight_tm[None]
    # H blocks.
    h_plus[:, :n1, :n1] = (modes.vec_te * modes.alpha2_te[None, :] / q)[None]
    h_plus[:, n1:, :n1] = (ky / q)[:, None, None] * (kn[:, None] * modes.vec_te)[None]
    h_plus[:, n1:, n1:] = -modes.vec_tm[None] * kap_tm[:, None, :]

    e_minus = e_plus.copy()
    e_minus[:, n1:, :n1] *= -1.0
    h_minus = h_plus.copy()
    h_minus[:, n1:, n1:] *= -1.0

    kappa = np.concatenate([kap_te, kap_tm], axis=1)  # (nky, 2 n1)
    return e_plus, e_minus, h_plus, h_minus, kappa


def _scaled_fields(modes: _LayerModes, q: float, kn: Array, ky: Array):
    """Field blocks with per-mode column scaling to tame dynamic range."""
    e_p, e_m, h_p, h_m, kappa = _field_blocks(modes, q, kn, ky)
    col_max = np.maximum(np.abs(e_p).max(axis=1), np.abs(h_p).max(axis=1))
    scale = 1.0 / np.where(col_max > 0.0, col_max, 1.0)  # (nky, 2 n1)
    s = scale[:, None, :]
    return e_p * s, e_m * s, h_p * s, h_m * s, kappa, scale


def _interface_blocks(below, above, context: str):
    """Scattering blocks of one interface.

    Returns (r_b, t_td, t_bu, r_t) mapping incoming (up from below, down
    from above) to outgoing (down into below, up into above) amplitudes.
    """
    eb_p, eb_m, hb_p, hb_m = below
    ea_p, ea_m, ha_p, ha_m = above
    n2 = eb_p.shape[-1]
    lhs = np.concatenate([
        np.concatenate([-eb_m, ea_p], axis=2),
        np.concatenate([-hb_m, ha_p], axis=2),
    ], axis=1)
    rhs = np.concatenate([
        np.concatenate([eb_p, -ea_m], axis=2),
        np.concatenate([hb_p, -ha_m], axis=2),
    ], axis=1)
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ModalError(f"interface solve failed at {context}: {exc}") from None
    return (x[:, :n2, :n2], x[:, :n2, n2:], x[:, n2:, :n2], x[:, n2:, n2:])


def _reflection_stack(q: float, kn: Array, ky: Array,
                      slabs_bottom_up: list[tuple[float | None, float, float]],
                      substrate_eps: float | None,
                      substrate_pc: bool, context: str):
    """Upward-looking reflection matrix of the full stack, x-mode basis.

    ``slabs_bottom_up``: (eps_solid, slot_frac, thickness) per finite
    layer from the substrate up; the list excludes the two half-spaces.
    Returns (R, scale_vac, kappa_vac) with R in scaled vacuum-mode
    amplitudes.
    """
    # Modal data for every distinct layer, bottom to top, then vacuum.
    fields = []
    kappas = []
    for eps_solid, slot_frac, _h in slabs_bottom_up:
        modes = _layer_modes(q, kn, eps_solid, slot_frac, context)
        e_p, e_m, h_p, h_m, kappa, _sc = _scaled_fields(modes, q, kn, ky)
        fields.append((e_p, e_m, h_p, h_m))
        kappas.append(kappa)
    vac_modes = _layer_modes(q, kn, None, 1.0, context)
    e_p, e_m, h_p, h_m, kappa_vac, scale_vac = _scaled_fields(vac_modes, q, kn, ky)
    fields.append((e_p, e_m, h_p, h_m))

    # Reflection looking down from the first finite layer (or vacuum if
    # there are no slabs) into the substrate.
    if substrate_pc:
        # Vanishing tangential E on the conductor: E(+) c+ + E(-) c- = 0.
        eb_p, eb_m = fields[0][0], fields[0][1]
        try:
            r = -np.linalg.solve(eb_p, eb_m)
        except np.linalg.LinAlgError as exc:
            raise ModalError(f"conductor boundary solve failed at {context}: "
                             f"{exc}") from None
    else:
        sub_modes = _layer_modes(q, kn, substrate_eps, 0.0, context)
        sub_fields = _scaled_fields(sub_modes, q, kn, ky)[:4]
        _rb, _ttd, _tbu, r = _interface_blocks(sub_fields, fields[0], context)

    # March upward: propagate through each slab, then cross its top
    # interface, keeping only the upward-looking reflection.
    for idx, (_eps, _frac, h) in enumerate(slabs_bottom_up):
        phi = np.exp(-kappas[idx] * h)  # (nky, 2 n1)
        r = phi[:, :, None] * r * phi[:, None, :]
        r_b, t_td, t_bu, r_t = _interface_blocks(fields[idx], fields[idx + 1],
                                                 context)
        n2 = r.shape[-1]
        eye = np.eye(n2)
        try:
            mid = np.linalg.solve(eye[None] - r @ r_b, r @ t_td)
        except np.linalg.LinAlgError as exc:
            raise ModalError(f"scattering recursion failed at {context}: "
                             f"{exc}") from None
        r = r_t + t_bu @ mid

    return r, scale_vac, kappa_vac


def _sp_conversion(q: float, kn: Array, ky: Array):
    """Conversion matrices between vacuum x-mode and (s, p) amplitudes.

    Per order the map is a 2x2 block acting on (TE-to-x, TM-to-x)
    amplitudes; rows are flux-weighted by sqrt(kappa_n) so the resulting
    reflection operator is passivity-normalized.  Returns (C_plus,
    C_minus) for upward and downward waves, shape (nky, 2 n1, 2 n1).
    """
    n1 = kn.size
    nky = ky.size
    kap = np.sqrt(q * q + kn[None, :] ** 2 + ky[:, None] ** 2)  # (nky, n1)
    k_t = np.sqrt(kn[None, :] ** 2 + ky[:, None] ** 2)
    if np.any(k_t == 0.0):
        raise ValueError("(k_x, k_y) = (0, 0) has no (s, p) decomposition; "
                         "use a nonzero transverse wavevector")
    w = np.sqrt(kap)
    diag_ss = -kap * kn[None, :] / k_t * w
    diag_sp = q * ky[:, None] / k_t * w
    out = []
    for sign in (+1.0, -1.0):
        c = np.zeros((nky, 2 * n1, 2 * n1))
        idx = np.arange(n1)
        c[:, idx, idx] = sign * diag_ss
        c[:, idx, idx + n1] = diag_sp
        c[:, idx + n1, idx] = -diag_sp
        c[:, idx + n1, idx + n1] = sign * diag_ss
        out.append(c)
    return out[0], out[1]


def _reflection_batch(profile: GratingProfile, model: DielectricModel,
                      xi: float, k_x: float, ky: Array, orders: int,
                      n_slices: int):
    """Flux-normalized (s,p) reflection matrices for a batch of k_y.

    Returns (R_sp, kappa_vac) with shapes (nky, 2 n1, 2 n1), (nky, n1).
    """
    context = f"xi={xi:.4e} rad/s, k_x={k_x:.4e} 1/m"
    q = xi / C_LIGHT
    g = 2.0 * math.pi / profile.period
    n = np.arange(-orders, orders + 1)
    kn = k_x + n * g

    pc = is_perfect_conductor(model)
    eps_solid = None if pc else float(model.epsilon(xi))
    slabs = staircase(profile, n_slices)
    if pc and slabs:
        raise ValueError(
            "a corrugated perfect conductor has no finite permittivity for "
            "the modal expansion; use get_material('conductor_proxy')")
    layer_list = [(eps_solid, s.slot_width / profile.period, s.thickness)
                  for s in reversed(slabs)]  # bottom-up

    r_x, scale_vac, kappa_vac_2 = _reflection_stack(
        q, kn, ky, layer_list, eps_solid, pc, context)

    # Undo the vacuum column scaling: rows by scale, columns by 1/scale.
    r_raw = scale_vac[:, :, None] * r_x / scale_vac[:, None, :]

    c_plus, c_minus = _sp_conversion(q, kn, ky)
    left = c_plus @ r_raw
    # R_sp = C+ R C-^{-1}, as solve on the right.
    r_sp = np.linalg.solve(np.transpose(c_minus, (0, 2, 1)),
                           np.transpose(left, (0, 2, 1)))
    r_sp = np.transpose(r_sp, (0, 2, 1))
    n1 = kn.size
    kappa_vac = kappa_vac_2[:, :n1]
    return r_sp, kappa_vac


def grating_reflection(profile: GratingProfile, model: DielectricModel,
                       xi: float, k_x: float, k_y: float,
                       spec: TruncationSpec | None = None) -> ReflectionOperator:
    """Reflection operator of the staircased grating at one (xi, k_x, k_y).

    Parameters
    ----------
    profile, model : grating geometry and its material.
    xi : imaginary angular frequency, rad/s, > 0.
    k_x : Bloch momentum along the grating axis, within the first
        Brillouin zone [-pi/period, pi/period].
    k_y : transverse wavevector along the grooves, >= 0.
    spec : TruncationSpec; only ``orders`` and ``n_slices`` are used here.
    """
    spec = spec or TruncationSpec()
    if not xi > 0.0:
        raise ValueError("xi must be positive")
    bz = math.pi / profile.period
    if not -bz <= k_x <= bz:
        raise ValueError(f"k_x outside first Brillouin zone [{-bz:.4e}, {bz:.4e}]")
    if k_y < 0.0:
        raise ValueError("k_y must be >= 0")
    r_sp, _ = _reflection_batch(profile, model, xi, k_x,
                                np.array([k_y], dtype=float),
                                spec.orders, spec.n_slices)
    return ReflectionOperator(matrix=r_sp[0], xi=xi, k_x=k_x, k_y=k_y,
                              orders=spec.orders, period=profile.period)


# --------------------------------------------------------------------------
# Force assembly


def _quad_nodes(z_grid: Array, period: float, quad: GratingQuadrature):
    z_min, z_max = float(z_grid.min()), float(z_grid.max())
    scale = quad.y_scale / (2.0 * z_max)
    hi = quad.y_hi / (2.0 * z_min)
    q_nodes, q_w = asinh_gauss_legendre(scale, hi, quad.xi_nodes)
    ky_nodes, ky_w = asinh_gauss_legendre(scale, hi, quad.ky_nodes)
    kx_nodes, kx_w = gauss_legendre(0.0, math.pi / period, quad.kx_nodes)
    return (q_nodes, q_w), (kx_nodes, kx_w), (ky_nodes, ky_w)


def _trace_over_z(r_sp: Array, kappa_vac: Array, r1_diag: Array,
                  z_grid: Array, ky_w: Array, context: str) -> Array:
    """Sum_ky w_ky tr[(1-M)^{-1}(-dM/dz)] for each z; M = R1 L R2 L."""
    nky, n1 = kappa_vac.shape
    kappa2 = np.concatenate([kappa_vac, kappa_vac], axis=1)  # (nky, 2 n1)
    eye = np.eye(2 * n1)
    out = np.empty(z_grid.size)
    for iz, z in enumerate(z_grid):
        lam = np.exp(-kappa2 * z)
        d1 = r1_diag * lam                      # R1 e^{-kz}, diagonal
        m = d1[:, :, None] * r_sp * lam[:, None, :]
        a = (d1 * kappa2)[:, :, None] * r_sp * lam[:, None, :] \
            + d1[:, :, None] * r_sp * (kappa2 * lam)[:, None, :]
        try:
            sol = np.linalg.solve(eye[None] - m, a)
        except np.linalg.LinAlgError as exc:
            raise ModalError(f"loop operator singular at {context}, "
                             f"z={z:.3e}: {exc}") from None
        tr = np.einsum("kii->k", sol)
        if not np.all(np.isfinite(tr)):
            raise ModalError(f"non-finite loop trace at {context}, z={z:.3e}")
        out[iz] = ky_w @ tr
    return out


def _node_contribution(args) -> tuple[int, Array]:
    """One (xi, k_x) node: k_y-batched reflection plus z-grid traces."""
    (idx, profile, model_grating, model_plane, xi, k_x, ky_nodes, ky_w,
     z_grid, orders, n_slices) = args
    r_sp, kappa_vac = _reflection_batch(profile, model_grating, xi, k_x,
                                        ky_nodes, orders, n_slices)
    n = np.arange(-orders, orders + 1)
    kn = k_x + n * 2.0 * math.pi / profile.period
    k_t = np.sqrt(kn[None, :] ** 2 + ky_nodes[:, None] ** 2)  # (nky, n1)
    r_te, r_tm = fresnel_te_tm(model_plane, xi, k_t)
    r1_diag = np.concatenate([r_te, r_tm], axis=1)            # (nky, 2 n1)
    context = f"xi={xi:.4e} rad/s, k_x={k_x:.4e} 1/m"
    return idx, _trace_over_z(r_sp, kappa_vac, r1_diag, z_grid, ky_w, context)


def casimir_pressure_grating_grid(profile: GratingProfile,
                                  model_grating: DielectricModel,
                                  model_plane: DielectricModel,
                                  z_grid,
                                  spec: TruncationSpec | None = None,
                                  workers: int = 1) -> Array:
    """Grating-plane Casimir pressure (Pa, negative) on a separation grid.

    The modal eigenproblems depend only on (xi, k_x), so one reflection
    table is reused across the whole z grid.  Each (xi, k_x) node is an
    independent task; reduction is an ordered sum over nodes regardless
    of worker count, so results are deterministic.
    """
    spec = spec or TruncationSpec()
    z_arr = np.atleast_1d(np.asarray(z_grid, dtype=float))
    if np.any(z_arr <= 0.0):
        raise ValueError("separations must be positive")
    (q_nodes, q_w), (kx_nodes, kx_w), (ky_nodes, ky_w) = _quad_nodes(
        z_arr, profile.period, spec.quadrature)

    tasks = []
    idx = 0
    for iq, qv in enumerate(q_nodes):
        for ik, kxv in enumerate(kx_nodes):
            weight = q_w[iq] * C_LIGHT * kx_w[ik]
            tasks.append(((idx, profile, model_grating, model_plane,
                           qv * C_LIGHT, kxv, ky_nodes, ky_w, z_arr,
                           spec.orders, spec.n_slices), weight))
            idx += 1

    partials: list[Array | None] = [None] * len(tasks)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, contrib in pool.map(_node_contribution,
                                       [t[0] for t in tasks], chunksize=4):
                partials[i] = contrib
    else:
        for args, _w in tasks:
            i, contrib = _node_contribution(args)
            partials[i] = contrib

    acc = np.zeros(z_arr.size)
    for (args, weight), contrib in zip(tasks, partials):
        acc += weight * contrib
    return -(HBAR / (2.0 * math.pi**3)) * acc


def casimir_force_grating(profile: GratingProfile,
                          model_grating: DielectricModel,
                          model_plane: DielectricModel, z: float,
                          spec: TruncationSpec | None = None) -> float:
    """Pressure (Pa, negative = attractive) at a single separation."""
    return float(casimir_pressure_grating_grid(profile, model_grating,
                                               model_plane, [z], spec)[0])


def rho_ratio(profile: GratingProfile, model_grating: DielectricModel,
              model_plane: DielectricModel, z_grid,
              spec: TruncationSpec | None = None,
              workers: int = 1) -> ForceCurve:
    """Ratio of the exact grating pressure to its proximity-force value.

    Both numerator and denominator refer to the same flat-surface theory;
    the sphere mapping 2 pi R cancels, so the plane-plane ratio is also
    the sphere force-gradient ratio.
    """
    z_arr = np.atleast_1d(np.asarray(z_grid, dtype=float))
    exact = casimir_pressure_grating_grid(profile, model_grating, model_plane,
                                          z_arr, spec, workers=workers)
    law = flat_pressure_law(model_plane, model_grating,
                            float(z_arr.min()),
                            float(z_arr.max()) + profile.depth)
    pfa = np.array([pfa_corrugated(law, profile, z) for z in z_arr])
    return ForceCurve(z_arr, exact / pfa, unit="dimensionless",
                      label="exact-to-pfa pressure ratio")


def convergence_sweep(profile: GratingProfile, model_grating: DielectricModel,
                      model_plane: DielectricModel, z_ref: float,
                      orders_list, spec: TruncationSpec | None = None,
                      workers: int = 1) -> list[tuple[int, float]]:
    """Pressure at z_ref for each diffraction-order cutoff in the list."""
    spec = spec or TruncationSpec()
    out = []
    for n_orders in orders_list:
        sub = replace(spec, orders=int(n_orders))
        p = casimir_pressure_grating_grid(profile, model_grating, model_plane,
                                          [z_ref], sub, workers=workers)[0]
        out.append((int(n_orders), float(p)))
    return out
