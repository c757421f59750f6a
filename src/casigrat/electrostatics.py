"""Conductor electrostatics for the force-calibration stage.

Two force models:

1. the exact sphere-plane series in the bispherical parameter
   alpha = acosh(1 + d / R) for scalar or array gaps and voltages (a
   float back for scalars, else an array of their broadcast shape), all
   gaps summed together, each until its geometric tail bound drops below
   a relative threshold,
2. a first-order (P1) triangular finite-element solve of the Laplace
   problem in one period of the trench cell, whose field energy per unit
   area maps to the sphere force through the close-proximity rule
   F = 2 pi R E.

The cell's gap block, the x-periodic tensor grid between the ridge-top
level y = 0 and the electrode, is split into right triangles, so its
stiffness is exactly Ax (x) My + Mx (x) Ay (1-D stiffness A, lumped
length M).  The solver eliminates it by block elimination: the column
eigenmodes Ax v = lam Mx v are computed once per column layout, and each
mode reduces to a 2x2 map between y = 0 and the electrode.  The rows
are the same graded fractions of every gap, so that map has a closed
partial-fraction form over the eigenpairs of the unit-gap row pencil,
computed once per row count; a gap costs one small matrix product.  The
trench block below y = 0 depends on the gap only through its row count,
so it is reduced onto the trench mouths once per mesh layout, by a
block Cholesky sweep over its columns, and cached.  Each gap then solves
one dense system on the mouths; no solve builds a sparse matrix.

Forces are signed along the surface normal, negative = attractive,
matching the Casimir modules; force gradients dF/dz are then positive
for the decaying attractions computed here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import EPS0
from .geometry import GratingProfile, height_profile
from .interpolate import _tridiagonal_solve
from .planar import NumericalError
from .quadrature import _check_counts

Array = np.ndarray

# Below this bispherical alpha (gap / radius ~ alpha^2 / 2 ~ 5e-9) the
# series needs > 1e5 terms and its summands cancel catastrophically; the
# small-gap plate law is then exact to O(gap / radius).
ALPHA_SERIES_MIN = 1e-4
_TAIL_RTOL = 1e-10
_BLOCK = 512


@dataclass(frozen=True, eq=False)
class SpherePlaneES:
    """Sphere-plane capacitor: radius R, gap d, potentials V and V0.

    V0 is the residual (contact-potential) voltage; the interaction is
    driven by V - V0.  d, V and V0 are scalars or broadcastable arrays,
    so instances compare and hash by identity, not by field values.
    """

    R: float
    d: float | Array
    V: float | Array
    V0: float | Array = 0.0

    def __post_init__(self) -> None:
        if not np.all((np.asarray(self.d) > 0.0) & np.isfinite(self.d)):
            raise ValueError("gap d must be positive and finite")
        if not 0.0 < self.R < math.inf:
            raise ValueError("radius R must be positive and finite")
        for name in ("V", "V0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


def _series_terms(alpha: Array, coth_a: Array, n: Array,
                  csch2_a: Array | None = None) -> Array:
    # image orders n (a row) for every gap (a column of alpha and its
    # coth); with csch2_a, the alpha-derivative of the terms.  The
    # e^{-n alpha} form: sinh(n alpha) overflows float64 past
    # n alpha ~ 710 while the terms themselves decay like n e^{-n alpha}
    na = n * alpha
    em = np.exp(-na)
    one_m = -np.expm1(-2.0 * na)  # 1 - e^{-2 n alpha}, no cancellation
    inv_sinh = 2.0 * em / one_m
    coth_na = (2.0 - one_m) / one_m
    term = (coth_a - n * coth_na) * inv_sinh
    if csch2_a is None:
        return term
    return ((-csch2_a + n * n * inv_sinh * inv_sinh) * inv_sinh
            - term * n * coth_na)


def _series_tail_bound(alpha: float, n_done: int) -> float:
    # |term_n| <= 2 coth(a) n e^{-n a} / (1 - e^{-2a}); sum the geometric
    # majorant Sum_{n > N} n x^n = x^{N+1} ((N+1)(1-x) + x) / (1-x)^2.
    x = math.exp(-alpha)
    coth_a = 1.0 / math.tanh(alpha)
    major = x ** (n_done + 1) * ((n_done + 1) * (1.0 - x) + x) / (1.0 - x) ** 2
    return 2.0 * coth_a * major / (1.0 - x * x)


def _image_series(es: SpherePlaneES, gradient: bool) -> float | Array:
    """Force (gradient=False) or its gap derivative at every broadcast
    element of ``es``: a float if its fields are scalars.

    The gaps are summed together in blocks of ``_BLOCK`` image orders; a
    gap leaves the block once its tail bound drops below ``_TAIL_RTOL`` of
    its running total.  Per-gap scalars come from ``math`` and the block
    sums run along contiguous rows, so every value is the one a single-gap
    call gives.
    """
    d, v, v0 = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                     for x in (es.d, es.V, es.V0)))
    radius, gaps, dv = es.R, d.ravel(), (v - v0).ravel()
    out = np.zeros(gaps.shape)
    alpha = np.array([math.acosh(1.0 + gap / radius) for gap in gaps])
    plate = (dv != 0.0) & (alpha < ALPHA_SERIES_MIN)
    # below the crossover the plate law pi eps0 R dv^2 / d is exact
    law = math.pi * EPS0 * radius * dv[plate] * dv[plate]
    out[plate] = (law / (gaps[plate] * gaps[plate]) if gradient
                  else -(law / gaps[plate]))
    live = np.flatnonzero((dv != 0.0) & ~plate)
    a = alpha[live]
    coth_a = np.array([1.0 / math.tanh(x) for x in a])
    csch2_a = (np.array([1.0 / math.sinh(x) ** 2 for x in a]) if gradient
               else None)
    total = np.zeros(live.size)
    active = np.arange(live.size)
    n_done = 0
    while active.size:
        n = np.arange(n_done + 1, n_done + _BLOCK + 1, dtype=float)
        terms = _series_terms(
            a[active, None], coth_a[active, None], n,
            None if csch2_a is None else csch2_a[active, None])
        total[active] += terms.sum(axis=1)
        n_done += _BLOCK
        # the differentiated tail decays with the same geometric rate,
        # one extra power of n
        grow = n_done + 2 if gradient else 1
        active = np.array([i for i in active
                           if not _series_tail_bound(a[i], n_done) * grow
                           < _TAIL_RTOL * max(abs(total[i]), 1e-300)],
                          dtype=int)
        if active.size and n_done > 10_000_000:
            raise NumericalError(f"sphere-plane series did not converge "
                                 f"(alpha={a[active[0]]:.3e})")
    out[live] = 2.0 * math.pi * EPS0 * dv[live] * dv[live] * total
    if gradient:  # d(alpha)/d(d) from cosh(alpha) = 1 + d/R
        out[live] *= 1.0 / (radius * np.array([math.sinh(x) for x in a]))
    return float(out[0]) if d.ndim == 0 else out.reshape(d.shape)


def sphere_plane_force(es: SpherePlaneES) -> float | Array:
    """Exact series force (N, negative = attractive) on the sphere: a
    float for scalar fields, else an array of their broadcast shape whose
    elements equal the scalar calls bit for bit.

    The sum over image orders stops once the geometric tail bound falls
    below 1e-10 of the accumulated value.  For alpha below the declared
    crossover the small-gap plate law -pi eps0 R (V - V0)^2 / d replaces
    the series.
    """
    return _image_series(es, False)


def sphere_plane_gradient(es: SpherePlaneES) -> float | Array:
    """d(force)/d(gap) in N/m, by term-wise differentiation of the series.

    A float or an array as ``sphere_plane_force``.  Positive for the
    decaying attraction.  Uses the small-gap form
    +pi eps0 R (V - V0)^2 / d^2 below the series crossover.
    """
    return _image_series(es, True)


# --------------------------------------------------------------------------
# Periodic-cell capacitor FEM


@dataclass(frozen=True)
class MeshControl:
    """Structured-mesh resolution: column and gap-row interval counts.

    Trench rows are added in proportion to depth / (depth + gap).  The
    default exceeds the 10,000-triangle floor required of production
    meshes.
    """

    nx: int = 112
    ny: int = 48

    def __post_init__(self) -> None:
        _check_counts(nx=self.nx, ny=self.ny)
        if self.nx < 8 or self.ny < 4:
            raise ValueError("need nx >= 8 and ny >= 4")

    def scaled(self, factor: float) -> "MeshControl":
        """Scale both directions so the triangle count scales by factor."""
        s = math.sqrt(factor)
        return replace(self, nx=max(8, round(self.nx * s)),
                       ny=max(4, round(self.ny * s)))


@dataclass(frozen=True)
class Mesh2D:
    """Triangulated periodic cell between the two electrodes.

    ``nodes`` is (N, 2); ``triangles`` (M, 3) reference geometric node
    ids with positive orientation.  ``left_nodes`` (x = 0) and
    ``right_nodes`` (x = period) are the conforming periodic columns;
    ``dof_map`` folds each right node onto its left partner, so assembly
    in dof space closes the cell.  ``bottom_nodes`` lie on the corrugated
    (grounded) surface, ``top_nodes`` on the flat electrode.
    """

    nodes: Array
    triangles: Array
    bottom_nodes: Array
    top_nodes: Array
    left_nodes: Array
    right_nodes: Array
    dof_map: Array

    @property
    def n_triangles(self) -> int:
        return int(self.triangles.shape[0])

    def signed_areas(self) -> Array:
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def validate(self) -> None:
        if not np.all(self.signed_areas() > 0.0):
            raise NumericalError("mesh contains inverted or degenerate "
                                 "triangles")
        if self.left_nodes.size != self.right_nodes.size or not np.allclose(
                self.nodes[self.left_nodes, 1], self.nodes[self.right_nodes, 1],
                rtol=0.0, atol=1e-15):
            raise NumericalError("periodic columns do not conform")
        if np.intersect1d(self.dof_map[self.bottom_nodes],
                          self.dof_map[self.top_nodes]).size:
            raise NumericalError("electrode boundaries overlap")


# Power-law mesh grading exponent.  The convex ridge-top corners carry an
# r^(2/3) potential singularity; grading x_i ~ (i/n)^mu with mu > 2 keeps
# the P1 energy error at its smooth-solution O(n^-2) rate.
_GRADE_MU = 2.5


def _graded_to_both_ends(a: float, b: float, n_intervals: int) -> Array:
    # symmetric power-law clustering toward both endpoints, where the
    # corner breakpoints sit
    s = np.linspace(0.0, 1.0, n_intervals + 1)
    lo = 0.5 * (2.0 * s) ** _GRADE_MU
    hi = 1.0 - 0.5 * (2.0 * (1.0 - s)) ** _GRADE_MU
    u = np.where(s < 0.5, lo, hi)
    u[0], u[-1] = 0.0, 1.0
    return a + (b - a) * u


def _graded_from_start(n_intervals: int) -> Array:
    # one-sided fractions clustering toward 0 (the corrugated surface)
    s = np.linspace(0.0, 1.0, n_intervals + 1)
    return s**_GRADE_MU


def _is_flat(profile: GratingProfile) -> bool:
    return profile.depth == 0.0 or profile.top_width >= profile.period


# Shortest meshed ramp, as a fraction of the period.  Near-vertical walls
# get this ramp, and a plateau or floor under half of it gets no columns.
# Every column spacing then stays above about 1e-5 of the period, which
# bounds the conditioning of the x-modes in solve_corrugated_capacitor.
_MIN_RAMP = 1e-4


def _meshing_profile(profile: GratingProfile) -> GratingProfile:
    # near-vertical walls: mesh with a minimal ramp so the terrain map
    # stays single-valued; geometry perturbation O(1e-4) period
    min_ramp = profile.period * _MIN_RAMP
    if 0.0 < profile.depth < min_ramp:
        raise ValueError(f"depth = {profile.depth:.6g} m is under the FEM "
                         f"cell's minimum of 1e-4 * period = {min_ramp:.6g} m")
    if _is_flat(profile) or profile.p3 * profile.period >= min_ramp:
        return profile
    if profile.period - profile.top_width < 2.0 * min_ramp:
        raise ValueError(f"top_width = {profile.top_width:.6g} m leaves the "
                         "FEM cell a trench opening under 2e-4 * period "
                         f"(period = {profile.period:.6g} m)")
    return replace(profile, sidewall_angle_deg=90.0,
                   floor_width=profile.period - profile.top_width
                   - 2.0 * min_ramp)


def _column_positions(profile: GratingProfile, nx: int) -> Array:
    lam = profile.period
    if _is_flat(profile):
        return np.linspace(0.0, lam, max(nx, 8) + 1)[:-1]
    ramp = profile.p3 * lam
    l1 = profile.top_width
    l2 = lam - l1 - 2.0 * ramp
    bounds = np.array([0.0, l1, l1 + ramp, l1 + ramp + l2, lam])
    lengths = np.diff(bounds)
    live = lengths > 0.5 * _MIN_RAMP * lam
    weights = np.where(live, lengths**0.6, 0.0)
    alloc = np.zeros(4, dtype=int)
    alloc[live] = np.maximum(3, np.round(
        nx * weights[live] / weights.sum()).astype(int))
    cols = [np.array([0.0])]
    for seg in range(4):
        if not live[seg]:
            continue
        xs = _graded_to_both_ends(bounds[seg], bounds[seg + 1], alloc[seg])
        cols.append(xs[1:])
    return np.concatenate(cols)[:-1]  # half-open [0, period)


@functools.lru_cache(maxsize=16)
def _columns(shape: GratingProfile, nx: int) -> tuple[Array, Array]:
    # column abscissae of a meshing profile, the closing column at
    # x = period included, and the etch depth under each; read-only
    xs = np.append(_column_positions(shape, nx), shape.period)
    h = height_profile(shape, np.minimum(xs, np.nextafter(shape.period,
                                                          0.0)))
    h[-1] = h[0]  # periodic closure is exact by construction
    for arr in (xs, h):
        arr.flags.writeable = False
    return xs, h


def _trench_rows(shape: GratingProfile, gap: float,
                 control: MeshControl) -> int:
    # nb, the row intervals below y = 0, in proportion to depth / (depth +
    # gap); 0 for a cell without trench columns
    depth = float(_columns(shape, control.nx)[1].max())
    return (max(3, round(control.ny * depth / (depth + gap)))
            if depth > 0.0 else 0)


def build_trench_mesh(profile: GratingProfile, gap: float,
                      control: MeshControl | None = None) -> Mesh2D:
    """Triangulate one period of the capacitor in two structured blocks.

    The blocks meet at the ridge-top level y = 0, where the reentrant
    surface corners sit.  Above it an axis-aligned grid spans the full
    period with rows graded toward y = 0.  Below it every column has the
    same nb + 1 row ids: a column over the trench carries rows from the
    local surface y = -h(x) up to its mouth node at y = 0, graded toward
    the mouth, and any other column repeats its mouth node in every row.
    Both blocks are split two triangles per grid cell and triangles that
    repeat a node are dropped, so beside a trench edge the lower cells
    fan out from the corner node and both corners are refined radially
    from every side.  The closing column at x = period duplicates the
    x = 0 layout and is folded onto it by ``dof_map``.
    """
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be positive and finite, got {gap!r} m")
    control = control or MeshControl()
    shape = _meshing_profile(profile)
    mesh = _cell_mesh(shape, gap, control, _trench_rows(shape, gap, control))
    mesh.validate()
    return mesh


def _cell_mesh(shape: GratingProfile, gap: float, control: MeshControl,
               nb: int) -> Mesh2D:
    # the unvalidated mesh of build_trench_mesh, for a meshing profile
    # with nb trench rows
    xs, h = _columns(shape, control.nx)
    n_cols = xs.size
    na = control.ny
    y_up = gap * _graded_from_start(na)
    up_id = np.arange(n_cols * (na + 1)).reshape(n_cols, na + 1)

    deep = h > 0.0
    n_deep = np.count_nonzero(deep)
    s = np.linspace(0.0, 1.0, nb + 1)
    rise = 1.0 - (1.0 - s) ** _GRADE_MU  # dense near the mouth y = 0
    low_id = np.repeat(up_id[:, :1], nb + 1, axis=1)  # all on the mouth
    low_id[deep, :nb] = (up_id.size
                         + np.arange(n_deep * nb).reshape(n_deep, nb))
    nodes = np.vstack([
        np.column_stack([np.repeat(xs, na + 1), np.tile(y_up, n_cols)]),
        np.column_stack([np.repeat(xs[deep], nb),
                         (-h[deep, None] * (1.0 - rise[:nb])).ravel()])])

    # per column: the upper rows, then the lower rows, two per cell
    tris = np.concatenate([_cell_triangles(up_id), _cell_triangles(low_id)],
                          axis=1).reshape(-1, 3)
    distinct = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 2] != tris[:, 0]))

    dof_map = np.arange(nodes.shape[0])
    dof_map[up_id[-1]] = up_id[0]  # the closing column has no lower nodes

    return Mesh2D(nodes=nodes, triangles=tris[distinct],
                  bottom_nodes=low_id[:, 0].copy(),
                  top_nodes=up_id[:, na].copy(),
                  left_nodes=up_id[0].copy(),
                  right_nodes=up_id[-1].copy(),
                  dof_map=dof_map)


def _cell_triangles(ids: Array) -> Array:
    # (n_cols - 1, rows, 2, 3): each cell of the (n_cols, rows + 1) id
    # grid split along its rising diagonal, counter-clockwise
    corners = np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:],
                        ids[:-1, 1:]], axis=-1)
    return corners[..., [[0, 1, 2], [0, 2, 3]]]


def _element_stiffness(nodes: Array, triangles: Array) -> Array:
    # (M, 3, 3) P1 stiffness of each triangle from its node coordinates
    p = nodes[triangles]  # (M, 3, 2)
    x = p[:, :, 0]
    y = p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1)
    area4 = 2.0 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                   - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    return (b[:, :, None] * b[:, None, :]
            + c[:, :, None] * c[:, None, :]) / area4[:, None, None]


@functools.lru_cache(maxsize=16)
def _x_modes(shape: GratingProfile, nx: int) -> tuple[Array, Array, Array]:
    """Modes of the periodic column layout ``_columns(shape, nx)``.

    Solves Ax v = lam Mx v (1-D P1 stiffness, lumped lengths) with
    Mx-orthonormal v and returns (lam, mx, Mx V), built once per layout
    and read-only.  Mode 0 is set to the exact constant 1 / sqrt(period)
    with lam = 0, so a uniform potential couples to no other mode.
    """
    hx = np.diff(_columns(shape, nx)[0])
    inv = 1.0 / hx
    mx = 0.5 * (hx + np.roll(hx, 1))
    i = np.arange(hx.size)
    ax = np.diag(inv + np.roll(inv, 1))
    ax[i, (i + 1) % hx.size] -= inv
    ax[(i + 1) % hx.size, i] -= inv
    root = np.sqrt(mx)
    lam, q = np.linalg.eigh(ax / root[:, None] / root[None, :])
    mv = root[:, None] * q
    lam[0] = 0.0
    mv[:, 0] = mx / math.sqrt(hx.sum())
    for arr in (lam, mx, mv):
        arr.flags.writeable = False
    return lam, mx, mv


@functools.lru_cache(maxsize=8)
def _row_pencil(ny: int) -> tuple[Array, Array, float, float]:
    """(nu, p, m0, m1): the gap rows of unit height, ready for reduction.

    With row spacings d_k = diff(_graded_from_start(ny)), the interior
    rows carry the pencil Ay w = nu My w (1-D stiffness, lumped lengths),
    or the tridiagonal T = My^-1/2 Ay My^-1/2.  numpy's eigh solves T to
    absolute accuracy only (7e-11 relative on the lowest eigenvalues of
    191 graded rows), so each eigenvector z_k takes one inverse-iteration
    step (T - nu_k) y = z_k by ``interpolate._tridiagonal_solve``, and
    each eigenvalue is replaced by its Rayleigh quotient
    Sum (w_{k+1} - w_k)^2 / d_k / Sum m_k w_k^2, a ratio of positive sums
    stationary in w.  With a = -w(first interior row) / d_0 and
    b = -w(last interior row) / d_last for My-normalised w, the columns of
    ``p`` are pa = a (a + b) / nu, pd = b (a + b) / nu and pab = a b / nu,
    all read-only; m0 and m1 are the lumped lengths of the two end rows.
    Built once per row count.
    """
    d = np.diff(_graded_from_start(ny))
    inv = 1.0 / d
    m = 0.5 * (d[:-1] + d[1:])
    root = np.sqrt(m)
    diag = (inv[:-1] + inv[1:]) / m
    off = (-inv[1:-1] / (root[:-1] * root[1:])).tolist()
    nu, z = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    try:
        z = np.array([_tridiagonal_solve(off[:], (diag - shift).tolist(),
                                         off[:], col.tolist())
                      for shift, col in zip(nu, z.T)]).T
    except ZeroDivisionError as exc:
        raise NumericalError(f"inverse iteration met an exact eigenvalue "
                             f"of the {ny}-row gap pencil") from exc
    w = z / (root[:, None] * np.sqrt((z * z).sum(axis=0)))
    edges = np.diff(w, axis=0, prepend=0.0, append=0.0)
    energy = (edges * edges * inv[:, None]).sum(axis=0)
    nu = energy / (m[:, None] * w * w).sum(axis=0)
    a = -inv[0] * w[0]
    b = -inv[-1] * w[-1]
    p = np.column_stack([a * (a + b), b * (a + b), a * b]) / nu[:, None]
    for arr in (nu, p):
        arr.flags.writeable = False
    return nu, p, 0.5 * d[0], 0.5 * d[-1]


def _end_row_schur(lam: Array, gap: float,
                   ny: int) -> tuple[Array, Array, Array]:
    """(s00, s01, s11): lam My + Ay on the ny gap rows, graded toward
    y = 0 and ending at y = gap, reduced onto its end rows for every
    x-mode lam.

    The map is 1 / gap times a function of mu = lam gap^2, whose partial
    fractions run over the interior eigenpairs of ``_row_pencil``.  With
    r = 1 / (nu + mu), the row sums sa = s00 + s01 = mu (m0 + r . pa)
    and sd = s11 + s01 = mu (m1 + r . pd) carry their zero at mu = 0 as a
    factor, and s01 = mu r . pab - 1, since Sum pab = 1 is -s01 at
    mu = 0.  The pa are non-negative, so s00 = sa - s01 adds two positive
    parts and no digit cancels on the graded rows; a mode with lam = 0
    gets s00 = s11 = -s01 = 1 / gap exactly.
    """
    nu, p, m0, m1 = _row_pencil(ny)
    mu = lam * (gap * gap)
    q = (1.0 / (nu + mu[:, None])) @ p
    s01 = mu * q[:, 2] - 1.0
    return ((mu * (m0 + q[:, 0]) - s01) / gap, s01 / gap,
            (mu * (m1 + q[:, 1]) - s01) / gap)


# A gap table meets one trench layout per distinct nb (18 on the 48 gaps
# of electrostatic_gradient.cfg).
@functools.lru_cache(maxsize=64)
def _reduce_trench(shape: GratingProfile, control: MeshControl,
                   nb: int) -> tuple[Array, Array, Array, Array]:
    """(lam, schur, modes, weights): a trench layout, reduced for solves.

    ``lam`` are the x-mode eigenvalues of ``_x_modes``.  ``schur`` is the
    trench stiffness reduced onto the mouth nodes of the columns whose
    grounded surface lies below y = 0 (the closing column folds onto
    column 0): K_mm - K_mi K_ii^-1 K_im.  ``modes`` and ``weights`` are
    the mouth rows of Mx V and of mx.  The trench interior is numbered
    column by column, as ``build_trench_mesh`` numbers it, so its
    stiffness is SPD and block tridiagonal over the trench columns, and
    one forward block Cholesky sweep (``np.linalg.cholesky`` and
    ``solve`` per column) eliminates it.  None of this depends on the
    gap, so the cell is built and validated with a gap of one period; the
    arrays are read-only.
    """
    mesh = _cell_mesh(shape, shape.period, control, nb)
    mesh.validate()
    rows = mesh.left_nodes.size  # na + 1; upper node id = col * rows + row
    n_up = mesh.top_nodes.size * rows
    n = mesh.nodes.shape[0]
    lam, mx, mv = _x_modes(shape, control.nx)
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
    k = _element_stiffness(mesh.nodes, trench).ravel()
    keep = (r >= 0) & (c >= 0)
    r, c, k = r[keep], c[keep], k[keep]
    m = mouths.size

    def gather(sel: Array, flat: Array, *shape: int) -> Array:
        return np.bincount(flat[sel], k[sel],
                           minlength=math.prod(shape)).reshape(shape)

    schur = gather((r < m) & (c < m), r * m + c, m, m)
    if m:
        q = (unknown.size - m) // m  # interior rows under each mouth
        col_r, col_c = (r - m) // q, (c - m) // q
        flat = (r - m) * q + (c - m) % q
        both = (r >= m) & (c >= m)
        diag = gather(both & (col_c == col_r), flat, m, q, q)
        after = gather(both & (col_c == col_r + 1), flat, m, q, q)
        k_im = gather((r >= m) & (c < m), (r - m) * m + c, m, q, m)
        # K_ii = L L^T column by column: L_jj L_jj^T = K_ii(j, j) - W^T W
        # and [W | Y] = L_jj^-1 [K_ii(j, j + 1) | K_im(j) - W^T Y] with the
        # previous column's W and Y; K_mi K_ii^-1 K_im = Sum_j Y^T Y
        w = np.zeros((q, q + m))
        for block, nxt, right in zip(diag, after, k_im):
            carry = w[:, :q].T @ w
            low = np.linalg.cholesky(block - carry[:, :q])
            w = np.linalg.solve(low, np.hstack([nxt, right - carry[:, q:]]))
            schur -= w[:, q:].T @ w[:, q:]
    out = (lam, schur, mv[mouths], mx[mouths])
    for arr in out:
        arr.flags.writeable = False
    return out


def solve_corrugated_capacitor(profile: GratingProfile, gap: float, V: float,
                               control: MeshControl | None = None,
                               return_mesh: bool = False):
    """Field energy per unit area (J/m^2) of the corrugated capacitor.

    Dirichlet conditions: corrugated surface at 0, flat electrode at V;
    the vertical cuts are periodic.  The energy comes from the P1 field-
    energy integral (eps0 / 2) Int |grad phi|^2 over one period, divided
    by the period.

    Both blocks of the mesh are eliminated onto the trench mouths at
    y = 0 (capacitance-matrix method: Buzbee, Dorr, George and Golub,
    SIAM J. Numer. Anal. 8, 722 (1971)).  The gap block's stiffness is
    Ax (x) My + Mx (x) Ay, so in the x-modes of ``_x_modes`` it reduces
    to a 2x2 map per mode between the rows y = 0 and y = gap, closed in
    the unit-gap row eigenpairs of ``_row_pencil`` (cached per
    ``control.ny``).  The trench block depends on the gap only through
    its row count nb; its block Cholesky reduction (``_reduce_trench``)
    is cached per mesh layout and shared by every gap with the same nb.
    A gap then costs one (modes x rows) matrix product and one dense
    ``np.linalg.solve`` on the mouths.  ``return_mesh=True`` also returns
    ``build_trench_mesh`` of the same cell.

    A non-finite or non-positive gap, or a non-finite V, raises
    ValueError before any mesh or cache work.
    """
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be positive and finite, got {gap!r} m")
    if not math.isfinite(V):
        raise ValueError(f"V must be finite, got {V!r} V")
    control = control or MeshControl()
    shape = _meshing_profile(profile)
    try:
        lam, schur, modes, weights = _reduce_trench(
            shape, control, _trench_rows(shape, gap, control))
        s00, s01, s11 = _end_row_schur(lam, gap, control.ny)
        rhs = -s01[0] * V * weights
        u = np.linalg.solve(schur + (modes * s00) @ modes.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"capacitor cell solve failed at gap = "
                             f"{gap:.6g} m for {profile}: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"capacitor cell solve returned non-finite "
                             f"potentials at gap = {gap:.6g} m for {profile}")
    # u^T K u = s11(0) V^2 period - u . rhs: the electrode row enters
    # through the constant mode alone
    energy = 0.5 * EPS0 * (s11[0] * V * V - float(u @ rhs) / profile.period)
    if return_mesh:
        return energy, build_trench_mesh(profile, gap, control)
    return energy


def corrugated_sphere_force(profile: GratingProfile, z: float, V: float,
                            R: float, control: MeshControl | None = None,
                            V0: float = 0.0) -> float:
    """Sphere-grating force (N, negative = attractive), 2 pi R times the
    plane-grating field energy per unit area at potential V - V0."""
    if not 0.0 < R < math.inf:
        raise ValueError("radius R must be positive and finite")
    energy = solve_corrugated_capacitor(profile, z, V - V0, control)
    return -2.0 * math.pi * R * energy


def mesh_statistics(mesh: Mesh2D) -> dict:
    """Size and quality numbers for convergence reports."""
    areas = mesh.signed_areas()
    p = mesh.nodes[mesh.triangles]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]],
                     axis=1)
    longest = np.sqrt((edges**2).sum(axis=2)).max(axis=1)
    return {
        "n_nodes": int(mesh.nodes.shape[0]),
        "n_triangles": mesh.n_triangles,
        "min_area_m2": float(areas.min()),
        "max_area_m2": float(areas.max()),
        "max_aspect": float((longest**2 / (2.0 * areas)).max()),
    }
