"""
Physical constants in SI units (CODATA 2018) and the eV → rad/s conversion.

All internal frequencies in this package are angular frequencies in rad/s;
energies quoted in eV are converted once, at model-build time.
"""

from __future__ import annotations

import math

__all__ = ["ev_to_rad_s"]

# Boltzmann constant [J/K]
KB = 1.380649e-23

# Planck constant [J s]
H_PLANCK = 6.62607015e-34

# Reduced Planck constant [J s]
HBAR = H_PLANCK / (2.0 * math.pi)

# Speed of light [m/s]
C = 299792458.0

# Elementary charge [C]
E_CHARGE = 1.602176634e-19

# Angular frequency of a 1 eV photon [rad/s]; identical to e/hbar
EV_TO_RAD_S = E_CHARGE / HBAR


def ev_to_rad_s(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * EV_TO_RAD_S
