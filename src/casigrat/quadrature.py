"""Gauss-Legendre quadrature helpers for the frequency/momentum integrals.

Every Casimir integrand here decays exponentially in the scaled variable
y = 2 kappa z, so every such integral, planar and grating alike, runs on
``decay_rule``: Gauss-Legendre under the map x = scale sinh(u), linear
below y ~ Y_SCALE (no lost strip at the origin) and logarithmic out to
y = Y_HI, which resolves both the power-law rise at small argument and
the exponential tail with a few tens of nodes.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Scaled-variable window y = 2 kappa z of ``decay_rule``: linear below
# Y_SCALE, logarithmic above it, cut at Y_HI where the integrand is dead to
# double precision (e^-45 ~ 3e-20).
Y_SCALE = 1.0
Y_HI = 45.0


def _check_counts(**counts) -> None:
    """Refuse a non-integral count, naming it; numpy integers pass."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the planar two-axis (frequency x momentum) rule."""

    xi_nodes: int = 64
    k_nodes: int = 32

    def __post_init__(self) -> None:
        _check_counts(xi_nodes=self.xi_nodes, k_nodes=self.k_nodes)
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


def asinh_gauss_legendre(scale: float, upper: float, n: int) -> tuple[Array, Array]:
    """Gauss-Legendre on [0, upper] under the map x = scale * sinh(u).

    Suited to integrands that are finite at the origin but span decades:
    the map is linear below ``scale`` (no lost strip at the origin) and
    logarithmic above it.  Weights carry the Jacobian.
    """
    if not 0.0 < scale < upper:
        raise ValueError("need 0 < scale < upper")
    u, wu = gauss_legendre(0.0, float(np.arcsinh(upper / scale)), n)
    return scale * np.sinh(u), wu * scale * np.cosh(u)


def decay_rule(z_min: float, z_max: float, n: int) -> tuple[Array, Array]:
    """Nodes/weights in a decay rate kappa for separations in [z_min, z_max].

    The asinh map turns linear-to-logarithmic at y = 2 kappa z_max ~ Y_SCALE
    and the rule ends at y = 2 kappa z_min = Y_HI.
    """
    if not 0.0 < z_min <= z_max:
        raise ValueError("need 0 < z_min <= z_max")
    return asinh_gauss_legendre(Y_SCALE / (2.0 * z_max), Y_HI / (2.0 * z_min), n)
