"""Zero-temperature Casimir pressure between planar mirrors (Lifshitz theory).

Everything is evaluated on the imaginary frequency axis, where the
round-trip factor of each polarization is real and the pressure between
half-spaces separated by a vacuum gap z is

    P(z) = -(hbar / 2 pi^2) Int_0^inf dxi Int_0^inf k dk  kappa0
           Sum_p m_p / (1 - m_p),
    m_p  = r1_p r2_p exp(-2 kappa0 z),
    kappa0 = sqrt(xi^2/c^2 + k^2),

with p in {TE, TM} and r_p the imaginary-frequency Fresnel coefficients.
Negative P means attraction.  The polar substitution xi = c kappa cos(t),
k = kappa sin(t) turns this into a radial integral whose scaled decay
variable is y = 2 kappa z, handled by ``quadrature.decay_rule`` (the rule
of the grating integrals too); for ideal mirrors it reproduces
-pi^2 hbar c / (240 z^4) exactly, which pins the prefactor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .materials import DielectricModel, is_perfect_conductor
from .quadrature import (QuadratureSpec, _check_counts, decay_rule,
                         gauss_legendre)

Array = np.ndarray


class NumericalError(RuntimeError):
    """Quadrature failed to converge; the message carries the residual."""


def fresnel_te_tm(model: DielectricModel, xi, k_perp):
    """Imaginary-frequency Fresnel reflection coefficients of a half-space.

    Parameters
    ----------
    model : DielectricModel
        Mirror material.  A PerfectConductor returns the exact limits
        (-1, +1) without evaluating a permittivity.
    xi : float or array
        Imaginary angular frequency in rad/s, > 0.
    k_perp : float or array
        Transverse wavevector magnitude in 1/m, >= 0.  Broadcast against xi.

    Returns
    -------
    (r_te, r_tm) : arrays broadcast to the common shape.
    """
    xi_arr = np.asarray(xi, dtype=float)
    k_arr = np.asarray(k_perp, dtype=float)
    if not np.all(xi_arr > 0.0):
        raise ValueError("xi must be strictly positive")
    if not np.all(k_arr >= 0.0):
        raise ValueError("k_perp must be non-negative")
    shape = np.broadcast_shapes(xi_arr.shape, k_arr.shape)
    if is_perfect_conductor(model):
        return -np.ones(shape), np.ones(shape)
    eps = model.epsilon(xi_arr)
    q2 = (xi_arr / C_LIGHT) ** 2
    kappa0 = np.sqrt(q2 + k_arr**2)
    kappa_m = np.sqrt(eps * q2 + k_arr**2)
    r_te = (kappa0 - kappa_m) / (kappa0 + kappa_m)
    r_tm = (eps * kappa0 - kappa_m) / (eps * kappa0 + kappa_m)
    return np.broadcast_to(r_te, shape).copy(), np.broadcast_to(r_tm, shape).copy()


def _pressure_once(material_a: DielectricModel, material_b: DielectricModel,
                   z: float, quad: QuadratureSpec) -> float:
    kappa, w_kappa = decay_rule(z, z, quad.xi_nodes)
    ct, w_ct = gauss_legendre(0.0, 1.0, quad.k_nodes)

    # Polar grid: rows kappa, columns cos(theta).
    kap = kappa[:, None]
    xi = C_LIGHT * kap * ct[None, :]
    k_perp = kap * np.sqrt(1.0 - ct[None, :] ** 2)

    decay = np.exp(-2.0 * kap * z)
    total = np.zeros_like(xi)
    ra = fresnel_te_tm(material_a, xi, k_perp)
    rb = fresnel_te_tm(material_b, xi, k_perp)
    for r1, r2 in zip(ra, rb):
        m = r1 * r2 * decay
        total += m / (1.0 - m)

    inner = total @ w_ct
    return float(-(HBAR * C_LIGHT / (2.0 * math.pi**2))
                 * np.sum(w_kappa * kappa**3 * inner))


def casimir_pressure_planar(material_a: DielectricModel,
                            material_b: DielectricModel,
                            z: float,
                            quad: QuadratureSpec | None = None,
                            rtol: float = 1e-6) -> float:
    """Casimir pressure (Pa, negative = attractive) between two half-spaces.

    The rule from ``quad`` is refined (node counts doubled, up to three
    times) until two successive evaluations agree to ``rtol``; the finest
    value is returned.  Raises NumericalError if refinement stalls.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("separation z must be positive and finite")
    quad = quad or QuadratureSpec()
    prev = _pressure_once(material_a, material_b, z, quad)
    for factor in (2, 4, 8):
        cur = _pressure_once(material_a, material_b, z, quad.scaled(factor))
        resid = abs(cur - prev) / max(abs(cur), 1e-300)
        if resid <= rtol:
            return cur
        prev = cur
    raise NumericalError(
        f"planar pressure quadrature did not converge at z = {z:.3e} m; "
        f"last relative change {resid:.3e} exceeds rtol = {rtol:.1e}")


def ideal_pressure(z: float) -> float:
    """Closed-form ideal-mirror pressure -pi^2 hbar c / (240 z^4)."""
    if not z > 0.0:
        raise ValueError("separation z must be positive")
    return -(math.pi**2) * HBAR * C_LIGHT / (240.0 * z**4)


def force_gradient_sphere_plane(material_sphere: DielectricModel,
                                material_plane: DielectricModel,
                                z: float, radius: float) -> float:
    """Sphere-plane force gradient F'(z) in N/m, proximity-force mapping.

    F'(z) = 2 pi R |P(z)| with P the plane-plane pressure; reported
    positive (gradient magnitude of an attractive force).  Valid for
    z << R; warns beyond z/R = 0.05.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError("sphere radius must be positive and finite")
    if z / radius > 0.05:
        warnings.warn(f"z/R = {z / radius:.3f} strains the proximity-force "
                      "mapping (valid for z << R)", stacklevel=2)
    pressure = casimir_pressure_planar(material_sphere, material_plane, z)
    return 2.0 * math.pi * radius * abs(pressure)


_TRUNCATION_SIGMAS = 3.0


@dataclass(frozen=True)
class RoughnessSpec:
    """Discretized distribution of local surface-height offsets.

    ``offsets`` (m) and ``weights`` describe the probability mass of the
    local gap deviating from the nominal separation; weights sum to one.
    """

    offsets: Array
    weights: Array

    def __post_init__(self) -> None:
        off = np.asarray(self.offsets, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)
        if off.ndim != 1 or w.shape != off.shape or off.size == 0:
            raise ValueError("offsets and weights must be matching 1-d arrays")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @classmethod
    def gaussian(cls, rms: float, n_points: int = 21) -> "RoughnessSpec":
        """Gaussian height distribution, truncated at 3 rms and
        renormalized."""
        if not rms > 0.0:
            raise ValueError("rms must be positive")
        _check_counts(n_points=n_points)
        if n_points < 3 or n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 3")
        h = np.linspace(-_TRUNCATION_SIGMAS * rms, _TRUNCATION_SIGMAS * rms,
                        n_points)
        w = np.exp(-0.5 * (h / rms) ** 2)
        return cls(h, w / w.sum())

    @classmethod
    def combined_gaussian(cls, rms_a: float, rms_b: float,
                          n_points: int = 21) -> "RoughnessSpec":
        """Two independent rough surfaces combine in quadrature."""
        return cls.gaussian(math.hypot(rms_a, rms_b), n_points)

    @property
    def rms(self) -> float:
        mean = float(self.weights @ self.offsets)
        return math.sqrt(float(self.weights @ (self.offsets - mean) ** 2))


def roughness_average(law, z, spec: RoughnessSpec):
    """Geometrically averaged force law over the roughness distribution.

    ``law`` takes an array of separations; sum_i w_i law(z + h_i) is formed
    for every z in one law call.  Raises if any shifted separation is <= 0.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    shifted = z_arr[:, None] + spec.offsets[None, :]
    if np.any(shifted <= 0.0):
        raise ValueError("roughness offsets drive the local gap non-positive")
    out = law(shifted) @ spec.weights
    return out if np.ndim(z) else float(out[0])
