"""Torsional-oscillator calibration: frequency shifts to force gradients.

The oscillator converts a force gradient at the sphere into a resonance
frequency shift, delta_f = coeff * dF/dz, with the signed transduction
coefficient coeff = -b^2 / (8 pi^2 I f0) < 0 (lever arm b, moment of
inertia I, unperturbed frequency f0).  Force gradients of decaying
attractions are positive in this package, so attractive interactions
lower the frequency.

Distance bookkeeping: the sphere-surface gap of a sample is
z = z0 - z_piezo - b * theta, with z0 the unextended standoff, z_piezo
the piezo extension and theta the measured tilt.

Gradient models broadcast gaps against voltages, like ``FlatForceLaw``,
so the fit and the synthetic sweep evaluate all samples in one call.

``fit_calibration`` recovers (coeff, z0) from frequency-shift samples by
separable least squares: for trial z0 the model is linear in coeff, and
the concentrated residual is minimized over z0 by Brent's bounded
search; each trial evaluates the model once, on the gaps of both
voltages when it fits voltage differences.  A known Casimir
force-gradient background can be added to the model, or cancelled exactly
by fitting voltage differences at shared distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import EPS0
from .curves import read_table, write_table
from .electrostatics import (SpherePlaneES, solve_corrugated_capacitor,
                             sphere_plane_gradient)
from .geometry import GratingProfile
from .interpolate import pchip
from .quadrature import _check_counts

Array = np.ndarray


class FitError(ValueError):
    """Calibration data cannot support the requested fit."""


# --------------------------------------------------------------------------
# measurement model


@dataclass(frozen=True)
class FrequencyShiftSample:
    """One oscillator reading: piezo extension, tilt, voltage, shift."""

    z_piezo: float
    theta: float
    volt: float
    delta_f: float

    def __post_init__(self) -> None:
        vals = (self.z_piezo, self.theta, self.volt, self.delta_f)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("sample fields must be finite")


def predict_frequency_shift(coeff: float, grad):
    """Frequency shift (Hz) for a force gradient (N/m): coeff * grad."""
    return coeff * np.asarray(grad, dtype=float) if np.ndim(grad) \
        else coeff * grad


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")


def oscillator_coefficient(lever_b: float, inertia: float, f0: float) -> float:
    """Signed transduction coefficient -b^2 / (8 pi^2 I f0), in m/(N s)."""
    _check_positive(lever_b=lever_b, inertia=inertia, f0=f0)
    return -lever_b**2 / (8.0 * math.pi**2 * inertia * f0)


def inertia_from_coefficient(coeff: float, lever_b: float, f0: float) -> float:
    """Moment of inertia consistent with a signed coefficient (kg m^2)."""
    if not -math.inf < coeff < 0.0:
        raise ValueError(f"transduction coefficient coeff must be negative "
                         f"and finite, got {coeff!r}")
    _check_positive(lever_b=lever_b, f0=f0)
    return -lever_b**2 / (8.0 * math.pi**2 * coeff * f0)


# --------------------------------------------------------------------------
# electrostatic force-gradient models


@dataclass(frozen=True)
class GradientModel:
    """Force gradient dF/dz (N/m) as a function of gap and voltage.

    ``model(z, volt)`` broadcasts z against volt and returns a float for
    scalars, else an array; ``fn`` gets the broadcast arrays once every gap
    lies in [z_min, z_max].  The residual voltage is part of the model, so
    callers pass raw applied voltages.
    """

    fn: Callable[[Array, Array], Array]
    z_min: float
    z_max: float
    label: str

    def __call__(self, z, volt):
        z, volt = np.broadcast_arrays(np.asarray(z, dtype=float),
                                      np.asarray(volt, dtype=float))
        outside = ~((z >= self.z_min) & (z <= self.z_max))
        if outside.any():
            raise ValueError(
                f"gap {z[outside][0]:.3e} m outside the {self.label} model "
                f"domain [{self.z_min:.3e}, {self.z_max:.3e}] m")
        grad = self.fn(z, volt)
        return float(grad) if np.ndim(grad) == 0 else grad


def series_gradient_model(radius: float, v0: float = 0.0) -> GradientModel:
    """Sphere-plane gradient from the exact image-charge series: one
    ``sphere_plane_gradient`` call per sample array."""
    _check_positive(radius=radius)

    def fn(z: Array, volt: Array) -> Array:
        return sphere_plane_gradient(SpherePlaneES(radius, z, volt, v0))

    return GradientModel(fn=fn, z_min=1e-12, z_max=0.1 * radius,
                         label="series")


def fem_gradient_model(profile: GratingProfile, radius: float,
                       z_min: float, z_max: float, n_points: int = 48,
                       v0: float = 0.0) -> GradientModel:
    """Sphere-grating gradient from tabulated capacitor-cell energies.

    The unit-voltage field energy per area E1(z) is solved on a geometric
    grid and interpolated monotonically; the sphere force follows the
    close-proximity mapping F = -2 pi R (V - V0)^2 E1(z), so the gradient
    is -2 pi R (V - V0)^2 E1'(z) > 0.
    """
    _check_positive(radius=radius)
    if not (0.0 < z_min < z_max and math.isfinite(z_max)):
        raise ValueError(f"need 0 < z_min < z_max < inf, got z_min = "
                         f"{z_min!r} m, z_max = {z_max!r} m")
    _check_counts(n_points=n_points)
    if n_points < 8:
        raise ValueError("n_points must be >= 8")
    grid = np.geomspace(0.98 * z_min, 1.02 * z_max, n_points)
    energies = np.array([solve_corrugated_capacitor(profile, z, 1.0)
                         for z in grid])
    slope = pchip(grid, energies).derivative()

    def fn(z: Array, volt: Array) -> Array:
        dv = volt - v0
        return -2.0 * math.pi * radius * dv * dv * slope(z)

    return GradientModel(fn=fn, z_min=z_min, z_max=z_max, label="capacitor-fem")


def plate_gradient_model(radius: float, v0: float = 0.0) -> GradientModel:
    """Small-gap plate law pi eps0 R (V - V0)^2 / z^2, for fast synthetics."""
    _check_positive(radius=radius)

    def fn(z: Array, volt: Array) -> Array:
        dv = volt - v0
        return math.pi * EPS0 * radius * dv * dv / (z * z)

    return GradientModel(fn=fn, z_min=1e-12, z_max=0.1 * radius, label="plate")


# --------------------------------------------------------------------------
# calibration fit


@dataclass(frozen=True)
class CalibrationFit:
    """Separable least-squares estimate of (coeff, z0) with 1-sigma errors."""

    coeff: float
    coeff_sigma: float
    z0: float
    z0_sigma: float
    n_samples: int
    rss: float
    residuals: Array

    def report(self) -> str:
        return (f"coeff = {self.coeff:.6g} +/- {self.coeff_sigma:.2g} m/(N s)\n"
                f"z0    = {self.z0 * 1e9:.4f} +/- {self.z0_sigma * 1e9:.2g} nm\n"
                f"rss   = {self.rss:.3e} Hz^2 over {self.n_samples} samples")


def _sample_columns(samples: Sequence[FrequencyShiftSample]):
    """z_piezo, theta, volt and delta_f of the samples, four contiguous
    arrays."""
    return np.array([(s.z_piezo, s.theta, s.volt, s.delta_f)
                     for s in samples], dtype=float).T.copy()


def _difference_observations(offsets: Array, volts: Array, shifts: Array):
    """Pair each sample with the first at its distance and another voltage;
    rows run by distance, then sample order.  Differences cancel any
    background."""
    _, first, group = np.unique(offsets, return_index=True,
                                return_inverse=True)
    ref = first[group]
    order = np.argsort(group, kind="stable")
    rows = order[volts[order] != volts[ref[order]]]
    if rows.size == 0:
        raise FitError("voltage differencing needs repeated distances at "
                       "distinct voltages")
    ref = ref[rows]
    return offsets[rows], volts[rows], volts[ref], shifts[rows] - shifts[ref]


# the z0 search's absolute tolerance (m) and cap on model evaluations
_Z0_XATOL = 1e-15
_Z0_MAXITER = 500


def _bounded_minimum(fn: Callable, lo: float, hi: float) -> float:
    """The minimiser of ``fn`` on [lo, hi] by Brent's bounded search
    (golden sections and parabolic steps), in the arithmetic of scipy's
    ``minimize_scalar(method="bounded")``.  A NaN, or ``_Z0_MAXITER``
    evaluations without convergence, raise FitError."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = fn(xf)
    fu, rat, e, num = math.inf, 0.0, 0.0, 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _Z0_XATOL / 3.0
        if not abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden, rat = False, p / q
                if xf + rat - a < 2.0 * tol1 or b - (xf + rat) < 2.0 * tol1:
                    rat = -tol1 if xm - xf < 0.0 else tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu, num = fn(x), num + 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if num >= _Z0_MAXITER:
            raise FitError(f"z0 search stopped after {num} model "
                           "evaluations without converging")
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise FitError("z0 search met a NaN model value")
    return xf


def fit_calibration(samples: Sequence[FrequencyShiftSample],
                    gradient_model: GradientModel,
                    casimir_background: Callable[[Array], Array] | None = None,
                    lever_b: float = 0.0,
                    use_voltage_differences: bool = False
                    ) -> CalibrationFit:
    """Fit the transduction coefficient and standoff distance.

    The model for each sample is delta_f = coeff * [g_es(z, V) + g_cas(z)]
    with z = z0 - z_piezo - lever_b * theta.  For a trial z0 the optimal
    coeff is the linear projection; the concentrated sum of squares is
    minimized over z0 inside bounds derived from the data and the model
    domain.  With ``use_voltage_differences`` the fit runs on shift
    differences at shared distances, which cancels any voltage-independent
    background exactly.

    Each trial z0 makes one ``gradient_model`` call, on the gap array
    (on it twice over, once per voltage, with voltage differences), and
    one ``casimir_background`` call on the gap array.  The two-sided
    Jacobian step at the optimum makes one call of each on the gaps of
    both steps, so both callables must act elementwise.

    Returns a CalibrationFit; 1-sigma uncertainties come from the
    residual covariance at the optimum.
    """
    if not math.isfinite(lever_b):
        raise ValueError(f"lever_b must be finite, got {lever_b!r}")
    if len(samples) < 3:
        raise FitError("need at least 3 samples")
    z_piezo, thetas, volts, shifts = _sample_columns(samples)
    offsets = z_piezo + lever_b * thetas
    if np.unique(volts).size < 2 and len(samples) < 10:
        raise FitError("need >= 2 distinct voltages or >= 10 samples")
    if np.unique(offsets).size < 2:
        raise FitError("all samples share one distance; z0 and coeff are "
                       "degenerate")

    if use_voltage_differences:
        offsets, volts, volt_b, shifts = _difference_observations(
            offsets, volts, shifts)
        if np.unique(offsets).size < 2:
            raise FitError("voltage differencing left a single distance")
        # both voltages of every difference go into one model call
        offsets, volts = np.tile(offsets, 2), np.concatenate([volts, volt_b])
    n = shifts.size

    def model_rows(*z0s: float) -> Array:
        """The model vector at each trial z0, one row each, from one
        ``gradient_model`` call on all their gaps."""
        gaps = np.concatenate([z0 - offsets for z0 in z0s])
        g = gradient_model(gaps, np.tile(volts, len(z0s)))
        g = g.reshape(len(z0s), -1)
        if use_voltage_differences:
            return g[:, :n] - g[:, n:]
        if casimir_background is not None:
            g = g + casimir_background(gaps).reshape(len(z0s), -1)
        return g

    base = float(offsets.max())
    floor = float(offsets.min())
    z0_bounds = (base + max(gradient_model.z_min, 1e-10),
                 min(floor + gradient_model.z_max, base + 50e-6))
    if not z0_bounds[0] < z0_bounds[1]:
        raise FitError("empty z0 search interval; distances are "
                       "incompatible with the gradient model domain")

    def concentrated(z0: float):
        g = model_rows(z0)[0]
        gg = float(g @ g)
        if gg == 0.0:
            raise FitError("gradient model vanishes on all samples")
        coeff = float(g @ shifts) / gg
        resid = shifts - coeff * g
        return float(resid @ resid), coeff, g, resid

    z0_hat = _bounded_minimum(lambda z0: concentrated(z0)[0], *z0_bounds)
    rss, coeff_hat, g_hat, resid = concentrated(z0_hat)

    # 1-sigma errors from the residual covariance at the optimum
    dof = max(n - 2, 1)
    sigma2 = rss / dof
    h = max(1e-12, 1e-7 * (z0_hat - base))
    g_up, g_down = model_rows(z0_hat + h, z0_hat - h)
    dg = (g_up - g_down) / (2.0 * h)
    jac = np.column_stack([g_hat, coeff_hat * dg])
    # normalize columns (they carry different units) before conditioning
    scale = np.sqrt((jac**2).sum(axis=0))
    if np.any(scale == 0.0):
        raise FitError("rank-deficient design: a fit direction has no "
                       "leverage in the data")
    corr = (jac / scale).T @ (jac / scale)
    if np.linalg.cond(corr) > 1e12:
        raise FitError("rank-deficient design: distance leverage is "
                       "insufficient to separate coeff from z0")
    cov = sigma2 * np.linalg.inv(corr) / np.outer(scale, scale)
    return CalibrationFit(coeff=coeff_hat,
                          coeff_sigma=math.sqrt(max(cov[0, 0], 0.0)),
                          z0=z0_hat,
                          z0_sigma=math.sqrt(max(cov[1, 1], 0.0)),
                          n_samples=n, rss=rss, residuals=resid)


# --------------------------------------------------------------------------
# residual voltage


def find_residual_voltage(samples: Sequence[FrequencyShiftSample]) -> float:
    """Vertex of the parabolic delta_f(V) at one fixed distance.

    The electrostatic shift scales with (V - V0)^2, so the applied
    voltage at which the shift magnitude is smallest is the residual
    voltage V0.  Requires >= 3 distinct voltages bracketing the vertex.
    """
    if len(samples) < 3:
        raise FitError("need at least 3 samples")
    zp, th, volts, shifts = _sample_columns(samples)
    if np.ptp(zp) > 1e-12 or np.ptp(th) > 1e-12:
        raise FitError("vertex samples must share one distance")
    if np.unique(volts).size < 3:
        raise FitError("need >= 3 distinct voltages")

    quad, lin, _ = np.polyfit(volts, shifts, 2)
    span = np.ptp(volts)
    scale = np.ptp(shifts)
    if scale == 0.0 or abs(quad) * span * span < 1e-9 * scale:
        raise FitError("shift data show no parabolic curvature in voltage")
    vertex = -lin / (2.0 * quad)
    if not volts.min() <= vertex <= volts.max():
        raise FitError(f"parabola vertex {vertex:.4f} V lies outside the "
                       "sampled voltage range")
    return float(vertex)


# --------------------------------------------------------------------------
# synthetic data and CSV interchange


def synthesize_frequency_shifts(coeff: float, z0: float,
                                gradient_model: GradientModel,
                                voltages: Sequence[float],
                                z_piezo: Sequence[float],
                                thetas: Sequence[float] | None = None,
                                lever_b: float = 0.0,
                                casimir_background=None,
                                noise_frac: float = 0.0,
                                rng: np.random.Generator | None = None,
                                ) -> list[FrequencyShiftSample]:
    """Forward-model samples on the (voltage x piezo) grid.

    Tilts default to zero.  The models are called once on the positive
    gap array of the grid.  ``noise_frac`` adds multiplicative Gaussian
    noise, one draw in sample order, and requires an explicit ``rng``.
    """
    z_piezo = np.asarray(z_piezo, dtype=float)
    thetas = (np.zeros_like(z_piezo) if thetas is None
              else np.asarray(thetas, dtype=float))
    if thetas.shape != z_piezo.shape:
        raise ValueError("thetas must match z_piezo in shape")
    if noise_frac < 0.0:
        raise ValueError("noise_frac must be non-negative")
    if noise_frac > 0.0 and rng is None:
        raise ValueError("noisy synthesis requires an explicit rng")
    volts = np.asarray(voltages, dtype=float)
    gaps = z0 - z_piezo - lever_b * thetas
    if not np.all(gaps > 0.0):
        raise ValueError("distance model gives a non-positive gap")
    gaps = np.broadcast_to(gaps, (volts.size, gaps.size))
    grad = gradient_model(gaps, volts[:, None])
    if casimir_background is not None:
        grad = grad + casimir_background(gaps)
    shifts = predict_frequency_shift(coeff, grad)
    if noise_frac > 0.0:
        shifts = shifts * (1.0 + noise_frac * rng.standard_normal(
            shifts.shape))
    return [FrequencyShiftSample(z_piezo=zp, theta=th, volt=volt, delta_f=df)
            for volt, row in zip(volts, shifts)
            for zp, th, df in zip(z_piezo, thetas, row)]


_CSV_FIELDS = ("z_piezo_nm", "theta_rad", "V_volt", "delta_f_hz")


def read_frequency_shift_samples(path) -> list[FrequencyShiftSample]:
    """Load samples from CSV with columns z_piezo_nm, theta_rad, V_volt,
    delta_f_hz through ``curves.read_table``, which names a bad row."""
    _, columns = read_table(path, _CSV_FIELDS)
    if not columns.shape[1]:
        raise ValueError("CSV contains no data rows")
    return [FrequencyShiftSample(z_nm * 1e-9, theta, volt, delta_f)
            for z_nm, theta, volt, delta_f in columns.T.tolist()]


def write_frequency_shift_samples(path,
                                  samples: Sequence[FrequencyShiftSample],
                                  ) -> None:
    """Write samples as CSV in the ingestion column convention."""
    write_table(path, _CSV_FIELDS,  # repr of a float round-trips exactly
                ([repr(float(v)) for v in (s.z_piezo * 1e9, s.theta, s.volt,
                                           s.delta_f)] for s in samples))
