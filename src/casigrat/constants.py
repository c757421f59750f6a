"""Shared physical constants and unit conversions.

Every module takes its constants from here so that unit conversions
(notably eV -> rad/s for plasma frequencies) agree to the last digit
across materials, force kernels, and the CLI.
"""

from __future__ import annotations

# CODATA 2022 values, equal to scipy.constants' (tests pin them); written
# as literals so that importing the package loads no scipy module.
HBAR = 1.0545718176461565e-34   # J s
C_LIGHT = 299792458.0           # m / s
EPS0 = 8.8541878188e-12         # F / m
E_CHARGE = 1.602176634e-19      # C

# One electron-volt of photon energy expressed as an angular frequency.
EV_TO_RAD_PER_S = E_CHARGE / HBAR


def ev_to_rad_per_s(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * EV_TO_RAD_PER_S

