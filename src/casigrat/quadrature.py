"""Gauss-Legendre quadrature helpers for the frequency/momentum integrals.

Every Casimir integrand here decays exponentially in the scaled variable
y = 2 kappa z, so the workhorse rule is Gauss-Legendre applied in
log-space, which resolves both the power-law rise at small argument and
the exponential tail with a few tens of nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Scaled-variable window for radial rules: below Y_LO the phase-space factor
# suppresses the integrand polynomially, above Y_HI it is dead to double
# precision (e^-60 ~ 9e-27).
Y_LO = 1e-3
Y_HI = 60.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the planar two-axis (frequency x momentum) rule."""

    xi_nodes: int = 64
    k_nodes: int = 32

    def __post_init__(self) -> None:
        if self.xi_nodes < 8 or self.k_nodes < 8:
            raise ValueError("quadrature needs at least 8 nodes per axis")

    def scaled(self, factor: int) -> "QuadratureSpec":
        return QuadratureSpec(self.xi_nodes * factor, self.k_nodes * factor)


@functools.lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[Array, Array]:
    """Read-only Gauss-Legendre rule on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    if not b > a:
        raise ValueError("need b > a")
    x, w = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def log_gauss_legendre(a: float, b: float, n: int) -> tuple[Array, Array]:
    """Gauss-Legendre in log-space on [a, b], weights carry the Jacobian.

    Exact for integrands of the form (polynomial in log x) / x; efficient
    for smooth positive integrands spanning decades.
    """
    if not 0.0 < a < b:
        raise ValueError("need 0 < a < b")
    u, wu = gauss_legendre(np.log(a), np.log(b), n)
    x = np.exp(u)
    return x, wu * x


def radial_rule(z: float, n: int) -> tuple[Array, Array]:
    """Nodes/weights in kappa = sqrt(xi^2/c^2 + k^2) for separation z.

    Covers y = 2 kappa z in [Y_LO, Y_HI] on a log-mapped rule.
    """
    if not z > 0.0:
        raise ValueError("separation must be positive")
    return log_gauss_legendre(Y_LO / (2.0 * z), Y_HI / (2.0 * z), n)


def asinh_gauss_legendre(scale: float, upper: float, n: int) -> tuple[Array, Array]:
    """Gauss-Legendre on [0, upper] under the map x = scale * sinh(u).

    Suited to integrands that are finite at the origin but span decades:
    the map is linear below ``scale`` (no lost endpoint strip, unlike a
    log rule) and logarithmic above it.  Weights carry the Jacobian.
    """
    if not 0.0 < scale < upper:
        raise ValueError("need 0 < scale < upper")
    u, wu = gauss_legendre(0.0, float(np.arcsinh(upper / scale)), n)
    return scale * np.sinh(u), wu * scale * np.cosh(u)
