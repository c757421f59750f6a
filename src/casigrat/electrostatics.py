"""Conductor electrostatics for the force-calibration stage.

Two force models:

1. the exact sphere-plane series in the bispherical parameter
   alpha = acosh(1 + d / R), summed until a geometric tail bound drops
   below a relative threshold,
2. a first-order (P1) triangular finite-element solve of the Laplace
   problem in one period of the trench cell, whose field energy per unit
   area maps to the sphere force through the close-proximity rule
   F = 2 pi R E.

Forces are signed along the surface normal, negative = attractive,
matching the Casimir modules; force gradients dF/dz are then positive
for the decaying attractions computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constants import EPS0
from .geometry import GratingProfile, height_profile
from .planar import NumericalError

Array = np.ndarray

# Below this bispherical alpha (gap / radius ~ alpha^2 / 2 ~ 5e-9) the
# series needs > 1e5 terms and its summands cancel catastrophically; the
# small-gap plate law is then exact to O(gap / radius).
ALPHA_SERIES_MIN = 1e-4
_TAIL_RTOL = 1e-10
_BLOCK = 512


@dataclass(frozen=True)
class SpherePlaneES:
    """Sphere-plane capacitor: radius R, gap d, potentials V and V0.

    V0 is the residual (contact-potential) voltage; the interaction is
    driven by V - V0.
    """

    R: float
    d: float
    V: float
    V0: float = 0.0

    def __post_init__(self) -> None:
        if not self.d > 0.0:
            raise ValueError("gap d must be positive")
        if not self.R > 0.0:
            raise ValueError("radius R must be positive")


def _series_terms(alpha: float, n: Array, gradient: bool = False) -> Array:
    # e^{-n alpha} form: sinh(n alpha) overflows float64 past
    # n alpha ~ 710 while the terms themselves decay like n e^{-n alpha}
    coth_a = 1.0 / math.tanh(alpha)
    na = n * alpha
    em = np.exp(-na)
    one_m = -np.expm1(-2.0 * na)  # 1 - e^{-2 n alpha}, no cancellation
    inv_sinh = 2.0 * em / one_m
    coth_na = (2.0 - one_m) / one_m
    term = (coth_a - n * coth_na) * inv_sinh
    if not gradient:
        return term
    # d(term)/d(alpha)
    csch2_a = 1.0 / math.sinh(alpha) ** 2
    return ((-csch2_a + n * n * inv_sinh * inv_sinh) * inv_sinh
            - term * n * coth_na)


def _series_tail_bound(alpha: float, n_done: int) -> float:
    # |term_n| <= 2 coth(a) n e^{-n a} / (1 - e^{-2a}); sum the geometric
    # majorant Sum_{n > N} n x^n = x^{N+1} ((N+1)(1-x) + x) / (1-x)^2.
    x = math.exp(-alpha)
    coth_a = 1.0 / math.tanh(alpha)
    major = x ** (n_done + 1) * ((n_done + 1) * (1.0 - x) + x) / (1.0 - x) ** 2
    return 2.0 * coth_a * major / (1.0 - x * x)


def _image_series(es: SpherePlaneES, n_max: int | None,
                  gradient: bool) -> float:
    # Force (gradient=False) or its gap derivative: the image sum in
    # blocks of _BLOCK orders until the tail bound drops below _TAIL_RTOL
    # of the running total, or n_max orders.
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be >= 1")
    dv = es.V - es.V0
    if dv == 0.0:
        return 0.0
    alpha = math.acosh(1.0 + es.d / es.R)
    if alpha < ALPHA_SERIES_MIN:
        plate = math.pi * EPS0 * es.R * dv * dv
        return plate / (es.d * es.d) if gradient else -(plate / es.d)
    total = 0.0
    n_done = 0
    while True:
        block = min(_BLOCK, n_max - n_done) if n_max is not None else _BLOCK
        n = np.arange(n_done + 1, n_done + block + 1, dtype=float)
        total += float(_series_terms(alpha, n, gradient).sum())
        n_done += block
        if n_max is not None and n_done >= n_max:
            break
        tail = _series_tail_bound(alpha, n_done)
        if gradient:
            # the differentiated tail decays with the same geometric
            # rate, one extra power of n
            tail *= n_done + 2
        if tail < _TAIL_RTOL * max(abs(total), 1e-300):
            break
        if n_done > 10_000_000:
            raise NumericalError(
                f"sphere-plane series did not converge (alpha={alpha:.3e})")
    pref = 2.0 * math.pi * EPS0 * dv * dv
    if gradient:
        # d(alpha)/d(d) from cosh(alpha) = 1 + d/R.
        return pref * total * (1.0 / (es.R * math.sinh(alpha)))
    return pref * total


def sphere_plane_force(es: SpherePlaneES, n_max: int | None = None) -> float:
    """Exact series force (N, negative = attractive) on the sphere.

    The sum over image orders stops once the geometric tail bound falls
    below 1e-10 of the accumulated value, or at ``n_max`` terms if given.
    For alpha below the declared crossover the small-gap plate law
    -pi eps0 R (V - V0)^2 / d replaces the series.
    """
    return _image_series(es, n_max, gradient=False)


def sphere_plane_gradient(es: SpherePlaneES, n_max: int | None = None) -> float:
    """d(force)/d(gap) in N/m, by term-wise differentiation of the series.

    Positive for the decaying attraction.  Uses the small-gap form
    +pi eps0 R (V - V0)^2 / d^2 below the series crossover.
    """
    return _image_series(es, n_max, gradient=True)


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
    period: float

    @property
    def n_triangles(self) -> int:
        return int(self.triangles.shape[0])

    def signed_areas(self) -> Array:
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def validate(self) -> None:
        if np.any(self.signed_areas() <= 0.0):
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


def _meshing_profile(profile: GratingProfile) -> GratingProfile:
    # near-vertical walls: mesh with a minimal ramp so the terrain map
    # stays single-valued; geometry perturbation O(1e-4) period
    min_ramp = profile.period * 1e-4
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
    live = lengths > 0.0
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


def build_trench_mesh(profile: GratingProfile, gap: float,
                      control: MeshControl | None = None) -> Mesh2D:
    """Triangulate one period of the capacitor in two structured blocks.

    The blocks meet at the ridge-top level y = 0, where the reentrant
    surface corners sit.  Above it an axis-aligned grid spans the full
    period with rows graded toward y = 0; below it, columns over the
    trench carry rows from the local surface y = -h(x) up to y = 0,
    graded toward the mouth.  Where the trench opens (h crosses zero)
    the lower rows collapse onto the corner node as a triangle fan, so
    both corners are refined radially from every side.  The closing
    column at x = period duplicates the x = 0 layout and is folded onto
    it by ``dof_map``.
    """
    if not gap > 0.0:
        raise ValueError("gap must be positive")
    control = control or MeshControl()
    shape = _meshing_profile(profile)
    xs = np.append(_column_positions(shape, control.nx), profile.period)
    n_cols = xs.size
    h = height_profile(shape, np.minimum(xs, np.nextafter(profile.period,
                                                          0.0)))
    h[-1] = h[0]  # periodic closure is exact by construction
    na = control.ny
    y_up = gap * _graded_from_start(na)
    up_id = np.arange(n_cols * (na + 1)).reshape(n_cols, na + 1)
    blocks = [np.column_stack([np.repeat(xs, na + 1),
                               np.tile(y_up, n_cols)])]

    deep = h > 0.0
    nb = 0
    low_id = np.full((n_cols, 1), -1)
    if deep.any():
        depth = float(h.max())
        nb = max(3, round(na * depth / (depth + gap)))
        s = np.linspace(0.0, 1.0, nb + 1)
        rise = 1.0 - (1.0 - s) ** _GRADE_MU  # dense near the mouth y = 0
        low_id = np.full((n_cols, nb + 1), -1)
        low_id[:, nb] = up_id[:, 0]  # mouth-level node is shared
        next_id = n_cols * (na + 1)
        for i in np.flatnonzero(deep):
            low_id[i, :nb] = next_id + np.arange(nb)
            next_id += nb
            blocks.append(np.column_stack([
                np.full(nb, xs[i]), -h[i] * (1.0 - rise[:nb])]))
    nodes = np.vstack(blocks)

    tris = []
    for i in range(n_cols - 1):
        lu, ru = up_id[i], up_id[i + 1]
        for j in range(na):
            tris.append((lu[j], ru[j], ru[j + 1]))
            tris.append((lu[j], ru[j + 1], lu[j + 1]))
        if deep[i] and deep[i + 1]:
            ll, rl = low_id[i], low_id[i + 1]
            for j in range(nb):
                tris.append((ll[j], rl[j], rl[j + 1]))
                tris.append((ll[j], rl[j + 1], ll[j + 1]))
        elif deep[i + 1]:  # trench opens: fan from the left corner node
            rl = low_id[i + 1]
            for j in range(nb):
                tris.append((up_id[i, 0], rl[j], rl[j + 1]))
        elif deep[i]:  # trench closes: fan onto the right corner node
            ll = low_id[i]
            for j in range(nb):
                tris.append((ll[j], up_id[i + 1, 0], ll[j + 1]))
    triangles = np.array(tris, dtype=int)

    dof_map = np.arange(nodes.shape[0])
    dof_map[up_id[-1]] = up_id[0]  # the closing column has no lower nodes

    mesh = Mesh2D(nodes=nodes, triangles=triangles,
                  bottom_nodes=np.where(deep, low_id[:, 0], up_id[:, 0]),
                  top_nodes=up_id[:, na].copy(),
                  left_nodes=up_id[0].copy(),
                  right_nodes=up_id[-1].copy(),
                  dof_map=dof_map,
                  period=profile.period)
    mesh.validate()
    return mesh


def _stiffness(mesh: Mesh2D) -> sp.csr_matrix:
    # element geometry from the true node coordinates, scatter-add into
    # dof space so the periodic columns share equations
    p = mesh.nodes[mesh.triangles]  # (M, 3, 2)
    x = p[:, :, 0]
    y = p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1)
    area4 = 2.0 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                   - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    k_local = (b[:, :, None] * b[:, None, :]
               + c[:, :, None] * c[:, None, :]) / area4[:, None, None]
    dofs = mesh.dof_map[mesh.triangles]
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    n = mesh.nodes.shape[0]
    return sp.coo_matrix((k_local.ravel(), (rows, cols)),
                         shape=(n, n)).tocsr()


def solve_corrugated_capacitor(profile: GratingProfile, gap: float, V: float,
                               control: MeshControl | None = None,
                               return_mesh: bool = False):
    """Field energy per unit area (J/m^2) of the corrugated capacitor.

    Dirichlet conditions: corrugated surface at 0, flat electrode at V;
    the vertical cuts are periodic.  The energy comes from the P1 field-
    energy integral (eps0 / 2) Int |grad phi|^2 over one period, divided
    by the period.
    """
    mesh = build_trench_mesh(profile, gap, control)
    n = mesh.nodes.shape[0]
    stiff = _stiffness(mesh)

    u = np.zeros(n)
    u[mesh.dof_map[mesh.top_nodes]] = V
    fixed = np.zeros(n, dtype=bool)
    fixed[mesh.dof_map[mesh.top_nodes]] = True
    fixed[mesh.dof_map[mesh.bottom_nodes]] = True
    free = ~fixed
    # the folded right-column ids own no equations; a dangling all-zero
    # row would make the reduced system singular
    used = np.zeros(n, dtype=bool)
    used[mesh.dof_map[mesh.triangles].ravel()] = True
    free &= used

    k_ff = stiff[free][:, free]
    rhs = -stiff[free][:, fixed] @ u[fixed]
    try:
        u_free = spla.spsolve(k_ff.tocsc(), rhs)
    except Exception as exc:  # pragma: no cover - solver backend failure
        raise NumericalError(f"capacitor linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(u_free)):
        raise NumericalError("capacitor linear solve returned non-finite "
                             "potentials")
    u[free] = u_free
    energy = 0.5 * EPS0 * float(u @ (stiff @ u)) / profile.period
    if return_mesh:
        return energy, mesh
    return energy


def corrugated_sphere_force(profile: GratingProfile, z: float, V: float,
                            R: float, control: MeshControl | None = None,
                            V0: float = 0.0) -> float:
    """Sphere-grating force (N, negative = attractive), 2 pi R times the
    plane-grating field energy per unit area at potential V - V0."""
    if not R > 0.0:
        raise ValueError("radius R must be positive")
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
