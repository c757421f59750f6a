"""Corrugation geometry: trapezoidal trench arrays and their staircase slicing.

The unit cell of width ``period`` consists of, left to right: a solid top
plateau of width ``top_width`` at height 0, a sidewall ramp descending to
``depth``, a trench floor of width ``floor_width``, and a ramp back up.
Heights are measured downward from the top surface, so ``height_profile``
returns the local etch depth.

Fractions of the period:

* ``p1 = top_width / period`` faces the opposing surface at the nominal gap,
* ``p2 = floor_width / period`` at gap + depth,
* ``p3 = (1 - p1 - p2) / 2`` per sidewall, at least 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GratingProfile:
    """Trapezoidal trench array, lengths in meters.

    Parameters
    ----------
    period : float
        Lateral period of the array.
    top_width : float
        Width of the un-etched plateau at the top surface.
    floor_width : float
        Width of the trench floor.
    depth : float
        Etch depth.
    sidewall_angle_deg : float, optional
        Interior angle between the trench floor and the sidewall; 90 means
        vertical walls.  Used only as a consistency check against the
        width-derived sidewall run.
    """

    period: float
    top_width: float
    floor_width: float
    depth: float
    sidewall_angle_deg: float = 90.0

    def __post_init__(self) -> None:
        for name in ("period", "top_width", "floor_width", "depth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r} m")
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        # top_width == period (with floor_width == 0) is the degenerate
        # un-etched limit, kept valid as a cross-check configuration.
        if not 0.0 < self.top_width <= self.period:
            raise ValueError("top_width must lie in (0, period]")
        if not 0.0 <= self.floor_width < self.period:
            raise ValueError("floor_width must lie in [0, period)")
        # slack for rounding: period - top_width may sum an ulp above period
        if self.top_width + self.floor_width > self.period * (1.0 + 1e-15):
            raise ValueError("top_width + floor_width must not exceed period")
        if self.depth < 0.0:
            raise ValueError("depth must be non-negative")
        if not 45.0 <= self.sidewall_angle_deg <= 135.0:
            raise ValueError("sidewall_angle_deg outside the supported 45..135 range")
        self._check_sidewall_consistency()

    def _check_sidewall_consistency(self) -> None:
        # The horizontal sidewall run implied by the angle should agree with
        # the run implied by the widths; a >10% mismatch means the inputs
        # describe different trapezoids.
        if self.depth == 0.0 or self.sidewall_angle_deg == 90.0:
            return
        run_widths = self.p3 * self.period
        run_angle = self.depth * abs(math.tan(math.radians(self.sidewall_angle_deg - 90.0)))
        if run_widths <= 0.0:
            if run_angle > 0.1 * self.depth:
                warnings.warn("sidewall angle implies sloped walls but widths give p3 = 0",
                              stacklevel=3)
            return
        mismatch = abs(run_angle - run_widths) / run_widths
        if mismatch > 0.10:
            warnings.warn(
                f"sidewall angle and widths disagree on the sidewall run by "
                f"{100.0 * mismatch:.1f}% ({run_angle * 1e9:.2f} nm vs "
                f"{run_widths * 1e9:.2f} nm)", stacklevel=3)

    @property
    def p1(self) -> float:
        return self.top_width / self.period

    @property
    def p2(self) -> float:
        return self.floor_width / self.period

    @property
    def p3(self) -> float:
        return max(0.0, 0.5 * (1.0 - self.p1 - self.p2))


def reference_trench_profile() -> GratingProfile:
    """The measured trench-array sample targeted by the validation suite.

    400 nm period, 185.3 nm top plateau, 199.1 nm floor, 98 nm deep,
    94.6 degree sidewalls.
    """
    return GratingProfile(period=400e-9, top_width=185.3e-9,
                          floor_width=199.1e-9, depth=98e-9,
                          sidewall_angle_deg=94.6)


def height_profile(profile: GratingProfile, x):
    """Etch depth h(x) over one unit cell, x in [0, period).

    Layout: plateau (h = 0) on [0, top_width), descending ramp, floor
    (h = depth), ascending ramp back to the period boundary: the linear
    interpolant through the cell's five corners.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr >= profile.period):
        raise ValueError("x must lie in [0, period)")
    top, run = profile.top_width, profile.p3 * profile.period
    floor_end = min(top + run + profile.floor_width, profile.period)
    h = np.interp(x_arr, [0.0, top, top + run, floor_end, profile.period],
                  [0.0, 0.0, profile.depth, profile.depth, 0.0])
    return h if np.ndim(x) else float(h)


@dataclass(frozen=True)
class Slab:
    """One staircase slice of the trench cross-section; ``slot_width`` is
    its vacuum opening."""

    thickness: float
    slot_width: float


def staircase(profile: GratingProfile, n_slices: int) -> list[Slab]:
    """Slice the trapezoidal trench into n equal-thickness lamellar slabs.

    Returned top to bottom (index 0 touches the top surface).  Each slab
    takes the trench width at its mid-depth, which preserves the etched
    cross-section area exactly for the linear sidewalls used here.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    if profile.depth == 0.0:
        return []
    dt = profile.depth / n_slices
    run2 = 2.0 * profile.p3 * profile.period
    return [Slab(thickness=dt, slot_width=profile.floor_width + run2 * (
                (profile.depth - (i + 0.5) * dt) / profile.depth))
            for i in range(n_slices)]

