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
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .curves import ForceCurve
from .geometry import GratingProfile
from .materials import DielectricModel
from .planar import casimir_pressure_planar

Array = np.ndarray


@dataclass(frozen=True)
class FlatForceLaw:
    """A flat-geometry force law F(z) with an explicit validity domain."""

    fn: Callable[[float], float]
    z_min: float
    z_max: float
    unit: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.z_min > 0.0 and self.z_max > self.z_min):
            raise ValueError("need 0 < z_min < z_max")

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=float)
        if np.any(z_arr < self.z_min) or np.any(z_arr > self.z_max):
            raise ValueError(
                f"separation outside law domain [{self.z_min:.3e}, {self.z_max:.3e}] m")
        out = self.fn(z_arr) if z_arr.ndim else self.fn(float(z_arr))
        return out if np.ndim(z) else float(out)

    @classmethod
    def from_table(cls, z: Array, values: Array, unit: str = "",
                   label: str = "") -> "FlatForceLaw":
        """Cubic spline of log|F| against log z through sampled values.

        The values must be nonzero and of one sign.  A power law is a
        straight line in these variables, so the C2 spline follows the
        smooth decay of a Lifshitz pressure closely between knots and
        gives ``quad`` a smooth integrand.
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
        spline = CubicSpline(np.log(z), np.log(np.abs(values)),
                             extrapolate=False)
        return cls(fn=lambda zz: sign * np.exp(spline(np.log(zz))),
                   z_min=float(z[0]), z_max=float(z[-1]),
                   unit=unit, label=label)

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], z_min: float,
                      z_max: float, unit: str = "", label: str = "") -> "FlatForceLaw":
        return cls(fn=fn, z_min=z_min, z_max=z_max, unit=unit, label=label)


def flat_pressure_law(material_a: DielectricModel,
                      material_b: DielectricModel,
                      z_min: float, z_max: float,
                      n_points: int = 48) -> FlatForceLaw:
    """Planar Lifshitz pressure law (Pa) tabulated on [z_min, z_max].

    ``casimir_pressure_planar`` is sampled at ``n_points`` geometric
    separations from 0.98 z_min to 1.02 z_max and interpolated by
    ``FlatForceLaw.from_table``.
    """
    z = np.geomspace(0.98 * z_min, 1.02 * z_max, n_points)
    vals = np.array([casimir_pressure_planar(material_a, material_b, zi)
                     for zi in z])
    return FlatForceLaw.from_table(z, vals, unit="Pa",
                                   label="flat-pair pressure")


def pfa_corrugated(law: FlatForceLaw, profile: GratingProfile, z: float,
                   rtol: float = 1e-9) -> float:
    """Proximity-force value for the trench array at separation z.

    Requires the law to cover [z, z + depth].  The sidewall contribution
    is integrated adaptively to relative tolerance ``rtol``; on a law from
    ``FlatForceLaw.from_table`` the integrand is a C2 spline, so ``quad``
    converges in a few panels.
    """
    if not z > 0.0:
        raise ValueError("separation z must be positive")
    t = profile.depth
    if z < law.z_min or z + t > law.z_max:
        raise ValueError(
            f"pfa needs the law on [{z:.3e}, {z + t:.3e}] m but its domain is "
            f"[{law.z_min:.3e}, {law.z_max:.3e}] m")
    total = profile.p1 * law(z)
    if t == 0.0:
        return total + (profile.p2 + 2.0 * profile.p3) * law(z)
    total += profile.p2 * law(z + t)
    if profile.p3 > 0.0:
        wall, _ = quad(lambda u: law(z + t * u), 0.0, 1.0,
                       epsabs=0.0, epsrel=rtol, limit=200)
        total += 2.0 * profile.p3 * wall
    return total


def pfa_curve(law: FlatForceLaw, profile: GratingProfile, z_grid: Array,
              unit: str | None = None, label: str = "") -> ForceCurve:
    values = np.array([pfa_corrugated(law, profile, z) for z in np.asarray(z_grid, float)])
    return ForceCurve(np.asarray(z_grid, float), values,
                      unit=unit if unit is not None else law.unit, label=label)


def pfa_share_topbottom(law: FlatForceLaw, profile: GratingProfile,
                        z: float) -> float:
    """Fraction of the proximity-force value carried by plateau + floor.

    For the shallow reference trench this stays near 0.97 across the
    measured separation range: the sidewalls are almost passengers.
    """
    total = pfa_corrugated(law, profile, z)
    top_bottom = profile.p1 * law(z) + profile.p2 * law(z + profile.depth)
    if total == 0.0:
        raise ValueError("total proximity force vanishes; share undefined")
    return top_bottom / total
