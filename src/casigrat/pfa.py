"""Proximity-force (pairwise-additive) treatment of shallow corrugations.

For a corrugation whose local depth below the top surface is h(x), the
proximity-force approximation replaces the structured surface by a
weighted family of flat problems:

    F_grat(z) = (1/period) Int_0^period F_flat(z + h(x)) dx
              = p1 F(z) + p2 F(z + t) + 2 p3 Int_0^1 F(z + t u) du

for the trapezoidal trench (top plateau p1, floor p2 at depth t, two
linear sidewalls of fractional width p3 each).  ``F_flat`` may be any
flat-geometry law: a plane-plane pressure in Pa or a sphere-plane
quantity; the mapping is agnostic to the unit.

``flat_pressure_law`` builds the one tabulated planar Lifshitz pressure
that the PFA, roughness and rho paths all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import GratingProfile
from .interpolate import not_a_knot
from .materials import DielectricModel
from .planar import NumericalError, casimir_pressure_planar
from .quadrature import _check_counts, gauss_legendre

Array = np.ndarray

# nodes of the coarse Gauss-Legendre sidewall rule; the fine rule has twice
# as many and agrees with adaptive quadrature to ~1e-11 on gold/Si tables
_WALL_NODES = 32
# largest accepted error estimate of the sidewall rule, relative to the total
_WALL_RTOL = 1e-9


@dataclass(frozen=True)
class FlatForceLaw:
    """A flat-geometry force law F(z) with an explicit validity domain."""

    fn: Callable[[Array], Array]
    z_min: float
    z_max: float
    unit: str = ""

    def __post_init__(self) -> None:
        if not (self.z_min > 0.0 and self.z_max > self.z_min):
            raise ValueError("need 0 < z_min < z_max")

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=float)
        if not np.all((z_arr >= self.z_min) & (z_arr <= self.z_max)):
            raise ValueError(
                f"separations {np.min(z_arr):.3e}..{np.max(z_arr):.3e} m "
                f"outside law domain [{self.z_min:.3e}, {self.z_max:.3e}] m")
        return self.fn(z_arr) if z_arr.ndim else float(self.fn(z_arr))

    @classmethod
    def from_table(cls, z: Array, values: Array,
                   unit: str = "") -> "FlatForceLaw":
        """Cubic spline of log|F| against log z through sampled values.

        The values must be nonzero and of one sign.  A power law is a
        straight line in these variables, so the C2 spline follows the
        smooth decay of a Lifshitz pressure closely between knots and
        gives the sidewall rule of ``pfa_corrugated`` a smooth integrand.
        """
        z = np.asarray(z, dtype=float)
        values = np.asarray(values, dtype=float)
        if z.ndim != 1 or z.size < 4 or values.shape != z.shape:
            raise ValueError("need matching 1-d arrays with >= 4 samples")
        if not np.all(np.diff(z) > 0.0):
            raise ValueError("z grid must be strictly increasing")
        sign = np.sign(values[0])
        if sign == 0.0 or np.any(np.sign(values) != sign):
            raise ValueError("tabulated values must be nonzero and of one sign")
        spline = not_a_knot(np.log(z), np.log(np.abs(values)))
        return cls(fn=lambda zz: sign * np.exp(spline(np.log(zz))),
                   z_min=float(z[0]), z_max=float(z[-1]), unit=unit)

    @classmethod
    def from_callable(cls, fn: Callable[[Array], Array], z_min: float,
                      z_max: float, unit: str = "") -> "FlatForceLaw":
        return cls(fn=fn, z_min=z_min, z_max=z_max, unit=unit)


def flat_pressure_law(material_a: DielectricModel,
                      material_b: DielectricModel,
                      z_min: float, z_max: float,
                      n_points: int = 48) -> FlatForceLaw:
    """Planar Lifshitz pressure law (Pa) tabulated on [z_min, z_max].

    ``casimir_pressure_planar`` is sampled at ``n_points`` geometric
    separations from 0.98 z_min to 1.02 z_max and interpolated by
    ``FlatForceLaw.from_table``.
    """
    if not 0.0 < z_min <= z_max:
        raise ValueError(f"need 0 < z_min <= z_max, got z_min = {z_min:.4g} m, "
                         f"z_max = {z_max:.4g} m")
    _check_counts(n_points=n_points)
    z = np.geomspace(0.98 * z_min, 1.02 * z_max, n_points)
    vals = np.array([casimir_pressure_planar(material_a, material_b, zi)
                     for zi in z])
    return FlatForceLaw.from_table(z, vals, unit="Pa")


def pfa_corrugated(law: FlatForceLaw, profile: GratingProfile, z):
    """Proximity-force value for the trench array at separation(s) z.

    A scalar z gives a float, an array of z an array of the same shape;
    the law must cover [z, z + depth] at every z.  One law call feeds the
    sidewall integral on Gauss-Legendre rules of _WALL_NODES and twice as
    many nodes; the finer value is used, and NumericalError is raised where
    the difference, weighted as in the total, exceeds ``_WALL_RTOL`` of it.
    """
    z_arr = np.asarray(z, dtype=float)
    u_n, w_n = gauss_legendre(0.0, 1.0, _WALL_NODES)
    u_2n, w_2n = gauss_legendre(0.0, 1.0, 2 * _WALL_NODES)
    u = np.concatenate(([0.0, 1.0], u_n, u_2n))
    vals = law(z_arr.reshape(-1, 1) + profile.depth * u)
    wall_n = vals[:, 2:2 + _WALL_NODES] @ w_n
    wall_2n = vals[:, 2 + _WALL_NODES:] @ w_2n
    total = (profile.p1 * vals[:, 0] + profile.p2 * vals[:, 1]
             + 2.0 * profile.p3 * wall_2n)
    err = 2.0 * profile.p3 * np.abs(wall_2n - wall_n)
    bad = np.flatnonzero(err > _WALL_RTOL * np.abs(total))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"pfa sidewall rule unresolved at z = {z_arr.flat[i]:.3e} m: "
            f"error estimate {err[i]:.3e} exceeds rtol = {_WALL_RTOL:.1e} of "
            f"the total {total[i]:.3e}")
    return total.reshape(z_arr.shape) if z_arr.ndim else float(total[0])


def pfa_share_topbottom(law: FlatForceLaw, profile: GratingProfile, z):
    """Fraction of the proximity-force value carried by plateau + floor.

    z is a scalar or an array, as in ``pfa_corrugated``.  For the shallow
    reference trench the share stays near 0.97 across the measured
    separations: the sidewalls are almost passengers.
    """
    z = np.asarray(z, dtype=float)
    total = pfa_corrugated(law, profile, z)
    top_bottom = profile.p1 * law(z) + profile.p2 * law(z + profile.depth)
    if np.any(total == 0.0):
        raise ValueError("total proximity force vanishes; share undefined")
    return top_bottom / total
