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

Upward and downward modes differ only in the sign of their kappa-carrying
field blocks, so each layer's fields take the W/V form E = W (c+ + D c-),
H = V (c+ - D c-) with D = diag(-I, I) (Moharam et al., JOSA A 12, 1068
(1995); Rumpf, PIER B 35, 241 (2011)).  One reflection matrix R
(c+ = R c-) is marched up from the substrate, propagated through each
layer and carried across each interface as R <- (F + G)(F - G)^{-1} D,
F = W_a^-1 W_b (R + D), G = V_a^-1 V_b (R - D).  The vacuum-side result
is converted to the per-order (s, p) polarization basis, in which a flat
surface reproduces the planar Fresnel coefficients on the diagonal.

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
from .geometry import GratingProfile, staircase
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
# Tangential field blocks and the reflection recursion


def _field_blocks(modes: _LayerModes, q: float, kn: Array, ky: Array):
    """Upward-mode field matrices W = E(+), V = H(+) and their inverses.

    Returns (W, V, W^-1, V^-1, kappa, scale), matrices of shape
    (nky, 2 n1, 2 n1).  Rows of W, V stack (Ex, Ey) resp. (Hx, Hy) Fourier
    orders, columns TE then TM modes, each scaled by ``scale`` (nky, 2 n1)
    to tame dynamic range.  Downward modes flip the kappa-carrying blocks:
    with D = diag(-I, I), E(-) = W D and H(-) = -V D.  Unscaled,
    W = [[0, P], [Q, S]] and V = [[T, 0], [U, Y]] are block triangular and
    Q, T are the orthonormal vec_te times diagonals, so the inverses need
    one solve against the k_y-independent factors of P and Y.
    """
    n1 = kn.size
    kap_te = np.sqrt(modes.alpha2_te[None, :] + ky[:, None] ** 2)
    kap_tm = np.sqrt(modes.beta2_tm[None, :] + ky[:, None] ** 2)
    ky_q = (ky / q)[:, None, None]
    w, v, w_inv, v_inv = blocks = np.zeros((4, ky.size, 2 * n1, 2 * n1))

    # E blocks.
    w[:, :n1, n1:] = -(modes.ex_weight_tm * modes.beta2_tm[None, :] / q)[None]
    w[:, n1:, :n1] = -modes.vec_te[None] * kap_te[:, None, :]
    w[:, n1:, n1:] = -ky_q * modes.ey_weight_tm[None]
    # H blocks.
    v[:, :n1, :n1] = (modes.vec_te * modes.alpha2_te[None, :] / q)[None]
    v[:, n1:, :n1] = ky_q * (kn[:, None] * modes.vec_te)[None]
    v[:, n1:, n1:] = -modes.vec_tm[None] * kap_tm[:, None, :]

    # Inverses: W^-1 = [[-Q^-1 S P^-1, Q^-1], [P^-1, 0]] and
    # V^-1 = [[T^-1, 0], [-Y^-1 U T^-1, Y^-1]], where S and U are k_y/q
    # times k_y-independent matrices.
    x_inv, g_inv = np.linalg.solve(
        np.stack([modes.ex_weight_tm, modes.vec_tm]), np.eye(n1)[None])
    p_inv = w_inv[:, n1:, :n1] = -(q / modes.beta2_tm)[:, None] * x_inv
    t_inv = v_inv[:, :n1, :n1] = (q / modes.alpha2_te)[:, None] * modes.vec_te.T
    w_inv[:, :n1, n1:] = -modes.vec_te.T[None] / kap_te[:, :, None]
    w_inv[:, :n1, :n1] = -ky_q * (modes.vec_te.T @ modes.ey_weight_tm
                                  @ p_inv)[None] / kap_te[:, :, None]
    v_inv[:, n1:, n1:] = -g_inv[None] / kap_tm[:, :, None]
    v_inv[:, n1:, :n1] = ky_q * (g_inv @ (kn[:, None] * modes.vec_te)
                                 @ t_inv)[None] / kap_tm[:, :, None]

    col_max = np.maximum(np.abs(w).max(axis=1), np.abs(v).max(axis=1))
    scale = 1.0 / np.where(col_max > 0.0, col_max, 1.0)  # (nky, 2 n1)
    blocks[:2] *= scale[:, None, :]
    blocks[2:] /= scale[:, :, None]
    kappa = np.concatenate([kap_te, kap_tm], axis=1)  # (nky, 2 n1)
    return w, v, w_inv, v_inv, kappa, scale


def _climb(r: Array, below, above, d: Array, context: str) -> Array:
    """Reflection just above an interface from the one just below it.

    ``below`` and ``above`` are ``_field_blocks`` tuples; ``r`` maps
    downward to upward amplitudes (c+ = r c-) in the layer below.
    F = W_a^-1 W_b (r + D) and G = V_a^-1 V_b (r - D) are the above-layer
    amplitude sums c+ + D c- and c+ - D c- per unit c- below.
    """
    w_b, v_b = below[0], below[1]
    f = above[2] @ (w_b @ r + w_b * d)
    g = above[3] @ (v_b @ r - v_b * d)
    try:
        # X (F - G) = F + G, as a solve on the transposes.
        x_t = np.linalg.solve(np.transpose(f - g, (0, 2, 1)),
                              np.transpose(f + g, (0, 2, 1)))
    except np.linalg.LinAlgError as exc:
        raise ModalError(f"interface solve failed at {context}: {exc}") from None
    return np.transpose(x_t, (0, 2, 1)) * d


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
    # Field blocks for every finite layer, bottom to top, then vacuum.
    layers = [_field_blocks(_layer_modes(q, kn, eps, frac, context), q, kn, ky)
              for eps, frac, _h in slabs_bottom_up + [(None, 1.0, 0.0)]]
    n1 = kn.size
    d = np.concatenate([-np.ones(n1), np.ones(n1)])
    if substrate_pc:
        # Vanishing tangential E on the conductor: W (c+ + D c-) = 0.
        r = np.broadcast_to(np.diag(-d), layers[0][0].shape)
    else:
        # The substrate carries no upward wave: climb from r = 0.
        substrate = _field_blocks(
            _layer_modes(q, kn, substrate_eps, 0.0, context), q, kn, ky)
        r = _climb(np.zeros(layers[0][0].shape), substrate, layers[0], d,
                   context)

    # March upward: propagate through each slab, then cross its top.
    for (_eps, _frac, h), below, above in zip(slabs_bottom_up, layers,
                                              layers[1:]):
        phi = np.exp(-below[4] * h)  # (nky, 2 n1)
        r = _climb(phi[:, :, None] * r * phi[:, None, :], below, above, d,
                   context)

    *_blocks, kappa_vac, scale_vac = layers[-1]
    return r, scale_vac, kappa_vac


def _sp_conversion(q: float, kn: Array, ky: Array, kap: Array):
    """Conversion matrix from vacuum x-mode to (s, p) amplitudes.

    Per order the map is a 2x2 block [[a, b], [-b, a]] acting on
    (TE-to-x, TM-to-x) amplitudes of upward waves; rows are flux-weighted
    by sqrt(kappa_n) so the resulting reflection operator is
    passivity-normalized.  Downward waves map through C- = -C+^T, and
    C+ C+^T = (a^2 + b^2) I.  ``kap`` holds the vacuum decay rates
    (nky, n1).  Returns (C+, a^2 + b^2) with shapes (nky, 2 n1, 2 n1) and
    (nky, 2 n1).
    """
    n1 = kn.size
    k_t = np.sqrt(kn[None, :] ** 2 + ky[:, None] ** 2)
    if np.any(k_t == 0.0):
        raise ValueError("(k_x, k_y) = (0, 0) has no (s, p) decomposition; "
                         "use a nonzero transverse wavevector")
    w = np.sqrt(kap)
    a = -kap * kn[None, :] / k_t * w
    b = q * ky[:, None] / k_t * w
    c = np.zeros((ky.size, 2 * n1, 2 * n1))
    idx = np.arange(n1)
    c[:, idx, idx] = c[:, idx + n1, idx + n1] = a
    c[:, idx, idx + n1] = b
    c[:, idx + n1, idx] = -b
    return c, np.tile(a * a + b * b, 2)


def _reflection_batch(profile: GratingProfile, model: DielectricModel,
                      xi: float, k_x: float, ky: Array, orders: int,
                      n_slices: int):
    """Flux-normalized (s,p) reflection matrices for a batch of k_y.

    Returns (R_sp, kappa_vac) with shapes (nky, 2 n1, 2 n1), (nky, 2 n1);
    kappa_vac repeats the vacuum decay rates for the TE and TM halves.
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

    r_x, scale_vac, kappa_vac = _reflection_stack(
        q, kn, ky, layer_list, eps_solid, pc, context)

    # Undo the vacuum column scaling: rows by scale, columns by 1/scale.
    r_raw = scale_vac[:, :, None] * r_x / scale_vac[:, None, :]

    # R_sp = C+ R C-^{-1} = -C+ R C+ / (a^2 + b^2).
    c_plus, norm2 = _sp_conversion(q, kn, ky, kappa_vac[:, :kn.size])
    return -(c_plus @ r_raw @ c_plus) / norm2[:, None, :], kappa_vac


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
    """Sum_ky w_ky tr[(1-M)^{-1}(-dM/dz)] for each z; M = R1 L R2 L.

    With K the diagonal of vacuum decay rates, -dM/dz = K M + M K, and
    since M commutes with (1-M)^{-1} the trace is 2 tr[(1-M)^{-1} K M].
    Every (z, k_y) loop operator is solved in one batched call.
    """
    lam = np.exp(-kappa_vac[None] * z_grid[:, None, None])  # (nz, nky, 2 n1)
    m = (r1_diag * lam)[..., :, None] * r_sp * lam[..., None, :]
    try:
        sol = np.linalg.solve(np.eye(kappa_vac.shape[1]) - m,
                              kappa_vac[:, :, None] * m)
    except np.linalg.LinAlgError as exc:
        zs = ", ".join(f"{z:.3e}" for z in z_grid)
        raise ModalError(f"loop operator singular at {context}, "
                         f"z in ({zs}): {exc}") from None
    tr = 2.0 * np.einsum("zkii->zk", sol)
    bad = ~np.all(np.isfinite(tr), axis=1)
    if np.any(bad):
        zs = ", ".join(f"{z:.3e}" for z in z_grid[bad])
        raise ModalError(f"non-finite loop trace at {context}, z={zs}")
    return tr @ ky_w


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
