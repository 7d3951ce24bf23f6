"""
Physical constants in SI units (CODATA 2018) and the eV <-> rad/s conversion.

All internal frequencies in this package are angular frequencies in rad/s;
energies quoted in eV are converted once, at model-build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CONSTANTS", "PhysicalConstants", "ev_to_rad_s", "rad_s_to_ev"]

# Boltzmann constant [J/K]
KB = 1.380649e-23

# Planck constant [J s]
H_PLANCK = 6.62607015e-34

# Reduced Planck constant [J s]
HBAR = H_PLANCK / (2.0 * math.pi)

# Speed of light [m/s]
C = 299792458.0

# Vacuum permittivity [F/m]
EPS0 = 8.8541878128e-12

# Elementary charge [C]
E_CHARGE = 1.602176634e-19

# Electron mass [kg]
ME = 9.1093837015e-31

# Angular frequency of a 1 eV photon [rad/s]; identical to e/hbar
EV_TO_RAD_S = E_CHARGE / HBAR


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of the SI constants used throughout the package.

    The default instance is the CODATA 2018 set.  ``eV_to_rad_s`` must equal
    ``e / hbar``; constructing an inconsistent set raises ``ValueError``.
    """

    kB: float = KB
    hbar: float = HBAR
    c: float = C
    eps0: float = EPS0
    e: float = E_CHARGE
    me: float = ME
    eV_to_rad_s: float = EV_TO_RAD_S

    def __post_init__(self) -> None:
        for name in ("kB", "hbar", "c", "eps0", "e", "me", "eV_to_rad_s"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")
        if abs(self.eV_to_rad_s * self.hbar / self.e - 1.0) > 1e-12:
            raise ValueError("eV_to_rad_s must equal e/hbar")


CONSTANTS = PhysicalConstants()


def ev_to_rad_s(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * EV_TO_RAD_S


def rad_s_to_ev(omega: float) -> float:
    """Convert an angular frequency in rad/s to a photon energy in eV."""
    return omega / EV_TO_RAD_S
