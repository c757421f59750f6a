"""Dielectric response models along the imaginary frequency axis.

All Casimir kernels in this package evaluate permittivities at imaginary
frequencies omega = i*xi with xi > 0 (in rad/s), where every causal
dielectric function is real, greater than one, and monotonically
decreasing in xi.  Each of the four models is one frozen class that holds
its own parameters and defines its own ``epsilon``:

* ``PerfectConductor()`` -- the ideal-mirror limit.  It has no finite
  permittivity; reflection code must branch on it instead of evaluating
  ``epsilon``.
* ``Drude(plasma_frequency, relaxation_rate)`` -- a free-electron metal,
  eps(i xi) = 1 + wp^2 / (xi (xi + gamma)).
* ``Tabulated(xi, eps)`` -- a two-column table, interpolated as a
  monotone cubic in log-log (``interpolate.pchip``: Fritsch-Butland
  harmonic-mean slopes inside, a clamped three-point rule at the two ends),
  held constant below the grid and continued above it with
  (eps - 1) ~ 1/xi^2.
* ``DrudeLorentz(drude, intrinsic)`` -- a doped semiconductor: the
  ``Tabulated`` bound-electron background plus the free-carrier term of
  the ``Drude``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .constants import ev_to_rad_per_s
from .curves import read_table
from .interpolate import pchip

Array = np.ndarray


class MaterialDataError(ValueError):
    """Raised when a tabulated material file is malformed."""


def _on_positive_xi(method):
    """Run ``method(self, x)`` on a float array x of the frequencies ``xi``
    after checking xi > 0, which NaN fails: a scalar xi gives a float, an
    array xi an array of its shape."""

    @functools.wraps(method)
    def epsilon(self, xi):
        x = np.asarray(xi, dtype=float)
        if not np.all(x > 0.0):
            raise ValueError("imaginary frequency xi must be strictly positive")
        return method(self, x) if x.ndim else float(method(self, x.reshape(1))[0])

    return epsilon


@dataclass(frozen=True)
class PerfectConductor:
    """Ideal mirror: |r_TE| = |r_TM| = 1 at all frequencies.

    Represented as a limit flag.  ``epsilon`` is deliberately absent from
    the numeric path: evaluating it raises.
    """

    def epsilon(self, xi):
        raise ValueError("a perfect conductor has no finite permittivity; "
                         "branch on is_perfect_conductor() instead")


@dataclass(frozen=True)
class Drude:
    """Free-electron metal; plasma frequency and relaxation rate in rad/s."""

    plasma_frequency: float
    relaxation_rate: float

    def __post_init__(self) -> None:
        if not self.plasma_frequency > 0.0:
            raise ValueError("plasma_frequency must be positive")
        if not self.relaxation_rate > 0.0:
            raise ValueError("relaxation_rate must be positive")

    @classmethod
    def from_ev(cls, plasma_ev: float, relaxation_ev: float) -> "Drude":
        """Build from photon energies in eV."""
        return cls(ev_to_rad_per_s(plasma_ev), ev_to_rad_per_s(relaxation_ev))

    @_on_positive_xi
    def epsilon(self, xi):
        return 1.0 + self.plasma_frequency**2 / (xi * (xi + self.relaxation_rate))


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Permittivity samples on a strictly increasing imaginary-frequency grid.

    Between the knots, log eps is a monotone cubic in log xi: each interior
    knot takes the Fritsch-Butland weighted harmonic mean of its two secant
    slopes (zero at a local extremum or a flat piece), each end knot the
    one-sided three-point slope, clamped to zero against a sign flip and to
    three times the end secant at a turn.  Instances compare and hash by
    identity, since their fields are arrays.
    """

    xi: Array
    eps: Array

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=float)
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eps", eps)
        if xi.ndim != 1 or xi.size < 2 or eps.shape != xi.shape:
            raise MaterialDataError("table needs matching 1-d xi and eps columns, >= 2 rows")
        if not np.all(np.diff(xi) > 0.0):
            raise MaterialDataError("xi grid must be strictly increasing")
        if not np.all(xi > 0.0):
            raise MaterialDataError("xi grid must be positive")
        if np.any(eps < 1.0):
            raise MaterialDataError("eps(i xi) < 1 is unphysical for a passive dielectric")
        # Monotone cubic in log-log: C1 smooth (kink-free integrands for
        # fixed-order quadrature), overshoot-free, exact at the knots.
        object.__setattr__(self, "_spline", pchip(np.log(xi), np.log(eps)))

    @_on_positive_xi
    def epsilon(self, xi):
        """Interpolate (monotone cubic in log-log); extrapolation rules:
        hold the first value below the grid, roll off as 1/xi^2 above."""
        out = np.empty(xi.shape)
        low = xi <= self.xi[0]
        high = xi > self.xi[-1]
        mid = ~(low | high)
        out[low] = self.eps[0]
        out[high] = 1.0 + (self.eps[-1] - 1.0) * (self.xi[-1] / xi[high]) ** 2
        if np.any(mid):
            out[mid] = np.exp(self._spline(np.log(xi[mid])))
        return out


@dataclass(frozen=True)
class DrudeLorentz:
    """Doped semiconductor: intrinsic background table plus free carriers."""

    drude: Drude
    intrinsic: Tabulated

    @_on_positive_xi
    def epsilon(self, xi):
        return self.intrinsic.epsilon(xi) + (self.drude.epsilon(xi) - 1.0)


DielectricModel = PerfectConductor | Drude | DrudeLorentz | Tabulated


def is_perfect_conductor(model: DielectricModel) -> bool:
    return isinstance(model, PerfectConductor)


def load_tabulated_epsilon(path) -> Tabulated:
    """Read a two-column (xi [rad/s], eps) whitespace-separated table.

    Lines starting with ``#`` and blank lines are ignored.  Errors carry
    the 1-based line number of the offending row.
    """
    try:
        _, (xi, eps) = read_table(path, 2, sep=None)
    except ValueError as exc:
        raise MaterialDataError(str(exc)) from None
    if xi.size < 2:
        raise MaterialDataError(f"{path}: table needs at least two data rows")
    return Tabulated(xi, eps)


def intrinsic_silicon_table() -> Tabulated:
    """The packaged intrinsic-silicon eps(i xi) table."""
    ref = resources.files("casigrat.data").joinpath("silicon_intrinsic_epsilon.txt")
    with resources.as_file(ref) as path:
        return load_tabulated_epsilon(path)


# The materials used by the bundled pipelines, by name.
#   gold_drude      : Drude gold, wp = 9 eV, gamma = 35 meV
#   silicon_doped   : intrinsic background + free carriers of the etched sample,
#                     wp = 1.36e14 rad/s, gamma = 4.75e13 rad/s
#   conductor_proxy : Drude mirror with wp far above every sampled frequency;
#                     stands in for the ideal conductor where a finite
#                     permittivity is required (corrugated-layer expansions)
#   silicon_intrinsic, perfect_conductor, vacuum : as named
_MATERIALS = {
    "gold_drude": lambda: Drude.from_ev(9.0, 0.035),
    "silicon_doped": lambda: DrudeLorentz(Drude(1.36e14, 4.75e13),
                                          intrinsic_silicon_table()),
    "silicon_intrinsic": intrinsic_silicon_table,
    "conductor_proxy": lambda: Drude.from_ev(1000.0, 0.001),
    "perfect_conductor": PerfectConductor,
    "vacuum": lambda: Tabulated(np.array([1e11, 1e19]), np.array([1.0, 1.0])),
}


def available_materials() -> tuple[str, ...]:
    return tuple(_MATERIALS)


def get_material(name: str) -> DielectricModel:
    """Look up a named material model."""
    if name not in _MATERIALS:
        raise KeyError(f"unknown material {name!r}; known: {available_materials()}")
    return _MATERIALS[name]()
