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
The Cholesky factor L of the positive definite T[1/eps] = L L^T reduces
the TM pencil to L^-1 (L^-1 A)^T y = beta^2 y with g = L^-T y, as LAPACK
dsygv does.  A mode with eigenvalue ``s2`` decays vertically as
``exp(-kappa y)`` with ``kappa = sqrt(s2 + k_y^2)``: at imaginary
frequency nothing propagates, which is what makes scattering-matrix
recursion with decaying-only factors unconditionally stable.

Upward and downward modes differ only in the sign of their kappa-carrying
field blocks, so each layer's fields take the W/V form E = W (c+ + D c-),
H = V (c+ - D c-) with D = diag(-I, I) (Moharam et al., JOSA A 12, 1068
(1995); Rumpf, PIER B 35, 241 (2011)).  The reflection matrix R
(c+ = R c-) is carried as S = R D, marched up from the substrate (S = 0;
S = -I on a perfect conductor), propagated through each layer as
Phi S Phi and carried across each interface as S <- (P S + M)(M S +
P)^{-1}, with P = A + B, M = A - B, A = W_a^-1 W_b and B = V_a^-1 V_b.
W and V are block triangular, so A and B are too, and each of their
blocks is a k_y-independent n1 x n1 product of the two layers' modal
matrices times per-k_y diagonals of decay rates, k_y/q and column scales.
R = S D is formed at the vacuum, where the column scaling is undone.  A
scaled 2 x 2 rotation of each order's (TE-to-x, TM-to-x) pair, acting on
the row and column halves of the vacuum-side R, converts it to the
per-order (s, p) polarization basis, in which a flat surface reproduces
the planar Fresnel coefficients on the diagonal.

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
The trace equals 2 tr[(1 - M')^{-1} kappa M'] for M' = R1 e^{-2 kappa z}
R2, which is similar to M.  Where ||M'||_F^(2^p) <= 2^-52 for some
p <= 6, the trace is the doubling series 2 tr[kappa (M' + ... +
M'^(2^p))] at the least such p, whose remainder lies below
sqrt(2 n1) kappa_max ||M'||_F 2^-52 / (1 - ||M'||_F); only operators
with ||M'||_F > 2^(-52/64) ~ 0.57 go through the batched linear solve.

Before any node runs, the grid builds a plan: an xi-major list of
(xi, k_x) nodes, each with its weight and the k_y rows it keeps.  |r1| <= 1
and a passive R2 bound a row's loop operator by ||M'||_F <= sqrt(2 n1)
e^{-2 kappa0 z_min}, kappa0 its smallest vacuum decay rate; a row whose
bound lies below 2^-52 of the grid's largest, that is with (kappa0 -
min kappa0) z_min > 26 ln 2, is dropped at every z, and so is a node left
without rows.  The leading row always stays.  A pool of
``worker_count(workers)`` threads, at most one per entry, maps the node
function over the plan in order, numpy's linear algebra releasing the
GIL.  Nodes return unweighted traces per (z, k_y row); only the grid
weighs them, entry by entry in plan order, so for any worker count the
sum sees the same operands in the same order and cannot change.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError
from .constants import C_LIGHT, HBAR
from .curves import ForceCurve
from .geometry import GratingProfile, staircase
from .materials import DielectricModel, is_perfect_conductor
from .pfa import flat_pressure_law, pfa_corrugated
# casimir_pressure_planar stays bound here for perfbench's tracer tests
from .planar import (NumericalError, casimir_pressure_planar,  # noqa: F401
                     fresnel_te_tm)
from .quadrature import _check_counts, decay_rule, gauss_legendre

Array = np.ndarray

# Loop operators M' (see _trace_over_z) with ||M'||_F^(2^p) <= 2^-52 =
# _NEUMANN_NORM^2, p <= 6, skip the solve for the 2^p-term doubling series,
# whose remainder is below sqrt(2 n1) 2^-52 / (1 - ||M'||_F) of kappa_max
# ||M'||_F; _SERIES_BARS are these bars on ||M'||_F^2.  The grid drops a
# row whose loop-operator bound is below _NEUMANN_NORM^2 of the largest.
_NEUMANN_NORM = 2.0 ** -26
_SERIES_BARS = _NEUMANN_NORM ** 2.0 ** (1 - np.arange(6))


class ModalError(NumericalError):
    """Modal eigenproblem or interface solve failed; carries (xi, k) context."""


@dataclass(frozen=True)
class GratingQuadrature:
    """Node counts for the (xi, k_x, k_y) grid.

    xi and k_y run on ``quadrature.decay_rule`` over the requested z range,
    the rule of the planar pressure too: linear near the axis origin, where
    the product-grid integrand stays finite, and logarithmic out to the
    decay cutoff at the smallest z.  k_x runs on a plain Gauss-Legendre
    rule over half the Brillouin zone.
    """

    xi_nodes: int = 40
    kx_nodes: int = 8
    ky_nodes: int = 40

    def __post_init__(self) -> None:
        _check_counts(xi_nodes=self.xi_nodes, kx_nodes=self.kx_nodes,
                      ky_nodes=self.ky_nodes)
        if min(self.xi_nodes, self.kx_nodes, self.ky_nodes) < 4:
            raise ValueError("need at least 4 nodes per axis")


# Largest order cutoff N, slice count and worker thread count: each worker
# holds a node's (n_ky, 4N+2, 4N+2) float64 tables, 52 MB apiece at N = 100
# and 40 k_y, and its staircase's layers, 1.5 MB each there, 51 MB for 33.
MAX_ORDERS = 100
MAX_SLICES = 32
MAX_WORKERS = 64


def worker_count(workers: int | None = None) -> int:
    """Threads of the grating node map: ``workers`` if given, else the
    CASIGRAT_WORKERS environment variable, else the cores this process may
    run on, at most MAX_WORKERS.  A count outside [1, MAX_WORKERS] raises
    a ValueError naming ``workers``, or a ConfigError naming the variable.
    """
    name, error = "workers", ValueError
    if workers is None:
        raw = os.environ.get("CASIGRAT_WORKERS")
        if raw is None:
            cores = (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            return min(cores, MAX_WORKERS)
        name, error = "CASIGRAT_WORKERS", ConfigError
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"CASIGRAT_WORKERS must be an integer, got "
                              f"{raw!r}") from None
    if not 1 <= workers <= MAX_WORKERS:
        raise error(f"{name} must lie in [1, {MAX_WORKERS}], got {workers}")
    return workers


@dataclass(frozen=True)
class TruncationSpec:
    """Diffraction-order cutoff, staircase slicing, and quadrature."""

    orders: int = 8
    n_slices: int = 4
    quadrature: GratingQuadrature = GratingQuadrature()

    def __post_init__(self) -> None:
        _check_counts(orders=self.orders, slices=self.n_slices)
        if not 0 <= self.orders <= MAX_ORDERS:
            raise ValueError(f"orders must lie in [0, {MAX_ORDERS}], got "
                             f"{self.orders}")
        if not 1 <= self.n_slices <= MAX_SLICES:
            raise ValueError(f"slices must lie in [1, {MAX_SLICES}], got "
                             f"{self.n_slices}")


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
    lag = np.abs(j[:, None] - j[None, :])
    return c_eps[lag], c_inv[lag]


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
        alpha2, vec_te = np.linalg.eigh(np.diag(kn * kn) + q * q * t_eps)
        inv_eps = np.linalg.inv(t_eps)
        inv_eps = 0.5 * (inv_eps + inv_eps.T)
        a_tm = q * q * ident + kn[:, None] * inv_eps * kn[None, :]
        chol = np.linalg.cholesky(t_inv)
        beta2, y = np.linalg.eigh(np.linalg.solve(
            chol, np.linalg.solve(chol, 0.5 * (a_tm + a_tm.T)).T))
        vec_tm = np.linalg.solve(chol.T, y)
    except np.linalg.LinAlgError as exc:
        raise ModalError(f"modal eigenproblem failed at {context}: {exc}") from None
    if alpha2.min() <= 0.0 or beta2.min() <= 0.0:  # rounding, not bad eps
        raise ModalError(
            f"non-positive {'TE' if alpha2.min() <= 0.0 else 'TM'} modal "
            f"eigenvalue at {context} for |eps| = {abs(eps_solid):.3g} at "
            f"N = {(n1 - 1) // 2}: T[1/eps], which reduces the TM modes, has "
            f"smallest eigenvalue {np.linalg.eigvalsh(t_inv)[0]:.3g}")
    return _LayerModes(alpha2_te=alpha2, vec_te=vec_te, beta2_tm=beta2,
                       vec_tm=vec_tm, ex_weight_tm=t_inv @ vec_tm,
                       ey_weight_tm=inv_eps @ (kn[:, None] * vec_tm))


# --------------------------------------------------------------------------
# Interface matrices and the reflection recursion


@dataclass
class _Layer:
    modes: _LayerModes
    kappa: Array          # (nky, 2 n1) decay rates, TE then TM modes
    scale: Array          # (nky, 2 n1) field column scale


def _layer(modes: _LayerModes, q: float, kn: Array, ky: Array) -> _Layer:
    """Decay rates and field column scale of one layer for every k_y.

    The upward-mode fields are W = E(+) = [[0, P], [Q, S]] and
    V = H(+) = [[T, 0], [U, Y]] (rows (Ex, Ey) resp. (Hx, Hy) orders,
    columns TE then TM modes), with P = -X diag(beta^2/q),
    Q = -vec_te diag(kappa_TE), S = -(k_y/q) E, T = vec_te diag(alpha^2/q),
    U = (k_y/q) diag(k_n) vec_te and Y = -vec_tm diag(kappa_TM), where
    X = ex_weight_tm and E = ey_weight_tm.  Each column of W and V is
    scaled by 1 / max(|W column|, |V column|) to tame dynamic range; every
    block is a fixed matrix times a non-negative factor, so the maxima come
    from the fixed matrices' column maxima.  The scale is load-bearing:
    set to 1 it leaves P unchanged but lifts R's reciprocity residual at
    k_y = 0 by up to eight orders, to 6e-7 for conductor_proxy, and a
    k_y-independent scale still loses up to four orders for gold_drude.
    """
    kap_te = np.sqrt(modes.alpha2_te[None, :] + ky[:, None] ** 2)
    kap_tm = np.sqrt(modes.beta2_tm[None, :] + ky[:, None] ** 2)
    ky_q = (ky / q)[:, None]

    def col_max(m):
        return np.abs(m).max(axis=0)

    te_max = np.maximum(col_max(modes.vec_te) * kap_te, np.maximum(
        col_max(modes.vec_te) * modes.alpha2_te / q,
        ky_q * col_max(kn[:, None] * modes.vec_te)))
    tm_max = np.maximum(col_max(modes.vec_tm) * kap_tm, np.maximum(
        col_max(modes.ex_weight_tm) * modes.beta2_tm / q,
        ky_q * col_max(modes.ey_weight_tm)))
    col = np.concatenate([te_max, tm_max], axis=1)
    return _Layer(modes, np.concatenate([kap_te, kap_tm], axis=1),
                  1.0 / np.where(col > 0.0, col, 1.0))


def _interface(below: _Layer, above: _Layer, q: float, kn: Array,
               ky: Array):
    """Scaled sum and difference of A = W_a^-1 W_b and B = V_a^-1 V_b.

    Block triangularity makes A = [[A11, A12], [0, A22]] and
    B = [[B11, 0], [B21, B22]] with, for E = ey_weight_tm and
    G = vec_tm^-1,
      A11 = diag(1/kappa_TE,a) vec_te,a^T vec_te,b diag(kappa_TE,b),
      A12 = (k_y/q) diag(1/kappa_TE,a) vec_te,a^T (E_b - E_a A22),
      A22 = P_a^-1 P_b,  B11 = T_a^-1 T_b,
      B21 = -(k_y/q) diag(1/kappa_TM,a) G_a diag(k_n) (vec_te,b
            - vec_te,a B11),
      B22 = diag(1/kappa_TM,a) G_a vec_tm,b diag(kappa_TM,b),
    each a k_y-independent n1 x n1 product times per-k_y diagonals.
    Returns (A + B, A - B) with entry (i, j) times scale_b[j] / scale_a[i],
    the interface matrices between the scaled fields, shape (nky, 2n1, 2n1).
    """
    mb, ma = below.modes, above.modes
    n1 = kn.size
    x_inv, g_inv = np.linalg.solve(
        np.stack([ma.ex_weight_tm, ma.vec_tm]), np.eye(n1)[None])
    te_te = ma.vec_te.T @ mb.vec_te
    a22 = ((x_inv @ mb.ex_weight_tm)
           * (mb.beta2_tm[None, :] / ma.beta2_tm[:, None]))
    b11 = te_te * (mb.alpha2_te[None, :] / ma.alpha2_te[:, None])
    a12 = ma.vec_te.T @ (mb.ey_weight_tm - ma.ey_weight_tm @ a22)
    b21 = g_inv @ (kn[:, None] * (mb.vec_te - ma.vec_te @ b11))
    tm_tm = g_inv @ mb.vec_tm

    te, tm = slice(None, n1), slice(n1, None)
    row_te, row_tm = (1.0 / above.scale[:, h, None] for h in (te, tm))
    col_te, col_tm = (below.scale[:, None, h] for h in (te, tm))
    inv_te = row_te / above.kappa[:, te, None]
    inv_tm = row_tm / above.kappa[:, tm, None]
    ky_q = (ky / q)[:, None, None]
    a11 = inv_te * te_te * (below.kappa[:, None, te] * col_te)
    b22 = inv_tm * tm_tm * (below.kappa[:, None, tm] * col_tm)
    b11, a22 = row_te * b11 * col_te, row_tm * a22 * col_tm
    plus = np.empty((ky.size, 2 * n1, 2 * n1))
    minus = np.empty_like(plus)
    for h, x, y in ((te, a11, b11), (tm, a22, b22)):
        np.add(x, y, out=plus[:, h, h])
        np.subtract(x, y, out=minus[:, h, h])
    np.multiply(ky_q * inv_te * a12, col_tm, out=plus[:, te, tm])
    minus[:, te, tm] = plus[:, te, tm]
    np.multiply(-ky_q * inv_tm * b21, col_te, out=plus[:, tm, te])
    np.negative(plus[:, tm, te], out=minus[:, tm, te])
    return plus, minus


def _climb(s: Array, plus: Array, minus: Array, context: str) -> Array:
    """S = R D just above an interface from the one just below it.

    ``plus`` and ``minus`` are the ``_interface`` matrices P = A + B and
    M = A - B; R maps downward to upward amplitudes (c+ = R c-) and ``s``
    is R D in the layer below.  F = A (R + D) and G = B (R - D) are the
    above-layer amplitude sums c+ + D c- and c+ - D c- per unit c- below,
    so F - G = (M S + P) D, F + G = (P S + M) D and the new
    S = (F + G)(F - G)^-1 = (P S + M)(M S + P)^-1.
    """
    lhs, rhs = minus @ s, plus @ s
    lhs += plus
    rhs += minus
    try:
        # X (M S + P) = P S + M, as a solve on the transposes.
        x_t = np.linalg.solve(np.swapaxes(lhs, 1, 2), np.swapaxes(rhs, 1, 2))
    except np.linalg.LinAlgError as exc:
        raise ModalError(f"interface solve failed at {context}: {exc}") from None
    return np.swapaxes(x_t, 1, 2)


def _reflection_batch(profile: GratingProfile, model: DielectricModel,
                      xi: float, k_x: float, ky: Array, orders: int,
                      n_slices: int):
    """Flux-normalized (s,p) reflection matrices for a batch of k_y.

    Returns (R_sp, kappa_vac, k_t, context): R_sp of shape
    (nky, 2 n1, 2 n1); kappa_vac (nky, 2 n1) repeats the vacuum decay
    rates for the TE and TM halves; k_t (nky, n1) holds the transverse
    wavevector of each order; context names (xi, k_x) in error messages.
    """
    context = f"xi={xi:.4e} rad/s, k_x={k_x:.4e} 1/m"
    q = xi / C_LIGHT
    g = 2.0 * math.pi / profile.period
    n = np.arange(-orders, orders + 1)
    kn = k_x + n * g
    k_t = np.sqrt(kn[None, :] ** 2 + ky[:, None] ** 2)
    if np.any(k_t == 0.0):
        raise ValueError("(k_x, k_y) = (0, 0) has no (s, p) decomposition; "
                         "use a nonzero transverse wavevector")

    pc = is_perfect_conductor(model)
    eps_solid = None if pc else float(model.epsilon(xi))
    slabs = list(reversed(staircase(profile, n_slices)))  # bottom-up
    if pc and slabs:
        raise ValueError(
            "a corrugated perfect conductor has no finite permittivity for "
            "the modal expansion; use get_material('conductor_proxy')")

    n2 = 2 * kn.size
    d = np.concatenate([-np.ones(kn.size), np.ones(kn.size)])
    # (slot fraction, thickness) of each level below the vacuum, bottom up.
    levels = [(s.slot_width / profile.period, s.thickness) for s in slabs]
    if pc:
        # Vanishing tangential E on the conductor: W (c+ + D c-) = 0.
        s_rd = np.broadcast_to(-np.eye(n2), (ky.size, n2, n2))
    else:
        # The substrate, a level of slot 0 and thickness 0, carries no
        # upward wave: climb from S = 0.
        s_rd = np.zeros((ky.size, n2, n2))
        levels.insert(0, (0.0, 0.0))
    layers = [_layer(_layer_modes(q, kn, eps_solid, f, context), q, kn, ky)
              for f, _ in levels + [(1.0, 0.0)]]

    # March upward: propagate through each level, then cross its top.
    for (_, thickness), below, above in zip(levels, layers, layers[1:]):
        phi = np.exp(-below.kappa * thickness)  # (nky, 2 n1)
        s_rd = _climb(phi[:, :, None] * s_rd * phi[:, None, :],
                      *_interface(below, above, q, kn, ky), context)

    # R = S D, with the vacuum column scaling undone: rows by scale,
    # columns by D / scale.
    kappa_vac, scale_vac = layers[-1].kappa, layers[-1].scale
    r_raw = scale_vac[:, :, None] * s_rd * (d / scale_vac)[:, None, :]

    # Per order, C+ = [[a, b], [-b, a]] maps upward (TE-to-x, TM-to-x)
    # amplitudes to (s, p), rows flux-weighted by sqrt(kappa_n) for a
    # passivity-normalized R_sp; C- = -C+^T and C+ C+^T = (a^2 + b^2) I, so
    # R_sp = C+ R C-^-1 = -C+ R C+ / (a^2 + b^2): rows, columns, division.
    n1 = kn.size
    kap = kappa_vac[:, :n1]
    w = np.sqrt(kap)
    a = (-kap * kn[None, :] / k_t * w)[:, :, None]
    b = (q * ky[:, None] / k_t * w)[:, :, None]
    te, tm = r_raw[:, :n1], r_raw[:, n1:]
    rows = np.concatenate([a * te + b * tm, a * tm - b * te], axis=1)
    a, b = np.swapaxes(a, 1, 2), np.swapaxes(b, 1, 2)
    te, tm = rows[..., :n1], rows[..., n1:]
    r_sp = np.concatenate([te * a - tm * b, te * b + tm * a], axis=2)
    return -r_sp / np.tile(a * a + b * b, 2), kappa_vac, k_t, context


def grating_reflection(profile: GratingProfile, model: DielectricModel,
                       xi: float, k_x: float, k_y: float,
                       spec: TruncationSpec | None = None) -> Array:
    """Reflection matrix of the staircased grating at one (xi, k_x, k_y).

    Rows and columns run over the s-amplitudes of orders -N..N, then the
    p-amplitudes, flux-weighted: a flat surface gives the planar Fresnel
    values on the diagonal, a passive one singular values <= 1.

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
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be positive and finite, got {xi}")
    bz = math.pi / profile.period
    if not -bz <= k_x <= bz:
        raise ValueError(f"k_x outside first Brillouin zone [{-bz:.4e}, {bz:.4e}]")
    if not 0.0 <= k_y < math.inf:
        raise ValueError(f"k_y must be finite and >= 0, got {k_y}")
    r_sp, *_ = _reflection_batch(profile, model, xi, k_x,
                                 np.array([k_y], dtype=float),
                                 spec.orders, spec.n_slices)
    return r_sp[0]


# --------------------------------------------------------------------------
# Force assembly


def _quad_nodes(z_grid: Array, period: float, quad: GratingQuadrature):
    z_min, z_max = float(z_grid.min()), float(z_grid.max())
    q_nodes, q_w = decay_rule(z_min, z_max, quad.xi_nodes)
    ky_nodes, ky_w = decay_rule(z_min, z_max, quad.ky_nodes)
    kx_nodes, kx_w = gauss_legendre(0.0, math.pi / period, quad.kx_nodes)
    return (q_nodes, q_w), (kx_nodes, kx_w), (ky_nodes, ky_w)


def _trace_over_z(r_sp: Array, kappa_vac: Array, r1_diag: Array,
                  z_grid: Array, context: str) -> Array:
    """Unweighted tr[(1-M)^{-1}(-dM/dz)], shape (n_z, n_ky); M = R1 L R2 L.

    With K the diagonal of vacuum decay rates, -dM/dz = K M + M K, and
    since M commutes with (1-M)^{-1} the trace is 2 tr[(1-M)^{-1} K M].
    M' = R1 L^2 R2 = L M L^-1 has the same trace, as K commutes with L.
    Per z, an operator with ||M'||_F^(2^p) <= 2^-52 at the least p <= 6
    takes the series 2 tr[K S_p], S_p = M' + ... + M'^(2^p) = S_(p-1) +
    S_(p-1) M'^(2^(p-1)): p - 1 squarings and a last product of which only
    the diagonal is formed; the rest, NaN norms too, take one batched solve.
    Every material has eps >= 1, so R1 has the signs of -S = diag(-I, I)
    on the (s, p) orders; for a passive, reciprocal R2 (R2^T = S R2 S)
    1 - M' is then positive definite up to a diagonal similarity.
    """
    tr = np.empty((z_grid.size, kappa_vac.shape[0]))
    for t, z in zip(tr, z_grid):
        m = (r1_diag * np.exp(-2.0 * kappa_vac * z))[..., :, None] * r_sp
        norm2 = np.einsum("...ij,...ij->...", m, m)
        order = np.argsort(norm2)  # a NaN norm sorts last, past every bar
        ends = np.searchsorted(norm2[order], _SERIES_BARS, side="right")
        s = p = m[order[:ends[-1]]]  # S_(p-1), P = M'^(2^(p-1)) at level p
        done = 0
        for level, end in enumerate(ends, 1):
            rows, n = order[done:end], end - done
            k = kappa_vac[rows]
            t[rows] = (np.einsum("bi,bii->b", k, s[:n])
                       + np.einsum("bi,bij,bji->b", k, s[:n], p[:n]))
            s, p, done = s[n:], p[n:], end
            if done == ends[-1]:
                break
            sp = s @ p
            s, p = s + sp, sp if level == 1 else p @ p
        big = order[done:]
        if big.size:
            m_b = m[big]
            try:
                sol = np.linalg.solve(np.eye(m.shape[-1]) - m_b,
                                      kappa_vac[big][:, :, None] * m_b)
            except np.linalg.LinAlgError as exc:
                zs = ", ".join(f"{zz:.3e}" for zz in z_grid)
                raise ModalError(f"a reflection matrix at {context} is not "
                                 "passive or not reciprocal: 1 - M' is "
                                 f"singular for z in ({zs}): {exc}") from None
            t[big] = np.einsum("bii->b", sol)
    tr *= 2.0
    bad = ~np.all(np.isfinite(tr), axis=1)
    if np.any(bad):
        zs = ", ".join(f"{z:.3e}" for z in z_grid[bad])
        raise ModalError(f"non-finite loop trace at {context}, z={zs}")
    return tr


def _separations(z_grid) -> Array:
    z_arr = np.atleast_1d(np.asarray(z_grid, dtype=float))
    if not np.all((z_arr > 0.0) & (z_arr < math.inf)):
        raise ValueError("separations must be positive and finite")
    return z_arr


def casimir_pressure_grating_grid(profile: GratingProfile,
                                  model_grating: DielectricModel,
                                  model_plane: DielectricModel,
                                  z_grid,
                                  spec: TruncationSpec | None = None,
                                  workers: int | None = None) -> Array:
    """Grating-plane Casimir pressure (Pa, negative) on a separation grid.

    The modal eigenproblems depend only on (xi, k_x), so one reflection
    table is reused across the whole z grid.  The plan's nodes, less the
    k_y rows and nodes whose loop operators lie below rounding at z_min,
    run on a pool of ``worker_count(workers)`` threads, at most one per
    planned node; weights apply here, and every count gives the same bits.
    """
    workers = worker_count(workers)
    spec = spec or TruncationSpec()
    z_arr = _separations(z_grid)
    (q_nodes, q_w), (kx_nodes, kx_w), (ky_nodes, ky_w) = _quad_nodes(
        z_arr, profile.period, spec.quadrature)

    # The plan (module docstring): xi-major (xi, k_x, weight (q_w c) kx_w,
    # kept k_y rows, their weights, read by the sum, not the node).  k_x
    # lies in half the Brillouin zone, so order 0 has a row's smallest
    # decay rate kappa0; the cut keeps the rows whose bound
    # e^{-2 kappa0 z_min} is within _NEUMANN_NORM^2 of the largest.
    kappa0 = np.sqrt((q_nodes[:, None, None] ** 2 + kx_nodes[:, None] ** 2)
                     + ky_nodes ** 2)
    keep = (kappa0 - kappa0.min()) * z_arr.min() <= -math.log(_NEUMANN_NORM)
    plan = [(q * C_LIGHT, k_x, w_q * C_LIGHT * w_x, ky_nodes[rows],
             ky_w[rows])
            for q, w_q, keep_q in zip(q_nodes, q_w, keep)
            for k_x, w_x, rows in zip(kx_nodes, kx_w, keep_q) if rows.any()]

    def node(entry) -> Array:
        """One plan entry's per-(z, k_y row) loop traces."""
        xi, k_x, _, ky, _ = entry
        r_sp, kappa_vac, k_t, context = _reflection_batch(
            profile, model_grating, xi, k_x, ky, spec.orders, spec.n_slices)
        r1_diag = np.concatenate(fresnel_te_tm(model_plane, xi, k_t), axis=1)
        return _trace_over_z(r_sp, kappa_vac, r1_diag, z_arr, context)

    with ThreadPoolExecutor(max_workers=min(workers, len(plan))) as pool:
        traces = list(pool.map(node, plan))

    acc = np.zeros(z_arr.size)
    for (_, _, weight, _, ky_wt), tr in zip(plan, traces):
        acc += weight * (tr @ ky_wt)
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
              workers: int | None = None) -> ForceCurve:
    """Ratio of the exact grating pressure to its proximity-force value.

    Both numerator and denominator refer to the same flat-surface theory;
    the sphere mapping 2 pi R cancels, so the plane-plane ratio is also
    the sphere force-gradient ratio.
    """
    z_arr = _separations(z_grid)  # both checked before the costly grid
    if not np.all(np.diff(z_arr) > 0.0):
        raise ValueError("z grid must be strictly increasing")
    exact = casimir_pressure_grating_grid(profile, model_grating, model_plane,
                                          z_arr, spec, workers=workers)
    law = flat_pressure_law(model_plane, model_grating,
                            float(z_arr.min()),
                            float(z_arr.max()) + profile.depth)
    pfa = pfa_corrugated(law, profile, z_arr)
    return ForceCurve(z_arr, exact / pfa, unit="dimensionless",
                      label="exact-to-pfa pressure ratio")


def convergence_sweep(profile: GratingProfile, model_grating: DielectricModel,
                      model_plane: DielectricModel, z, orders_list,
                      spec: TruncationSpec | None = None,
                      workers: int | None = None) -> list[tuple]:
    """(cutoff, pressure) for each diffraction-order cutoff in the list,
    one grid call each: a float at a scalar z, an array on an array of z."""
    spec = spec or TruncationSpec()
    out = []
    for n_orders in orders_list:
        sub = replace(spec, orders=int(n_orders))
        p = casimir_pressure_grating_grid(profile, model_grating, model_plane,
                                          z, sub, workers=workers)
        out.append((int(n_orders), p if np.ndim(z) else float(p[0])))
    return out
