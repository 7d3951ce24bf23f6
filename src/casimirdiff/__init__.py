"""
casimirdiff: finite-temperature Casimir difference forces and pressures.

Computes forces between a metal-coated sphere (or plate) and semiconductor
surfaces from their permittivities along the imaginary frequency axis:
Matsubara sums of the two-polarization reflection terms, sphere-plate forces
via the proximity force approximation, and the closed-form zero-frequency
gap between competing low-frequency conductivity models of a poorly
conducting plate.
"""

from . import constants, experiment, lifshitz, materials
from .constants import *
from .experiment import *
from .lifshitz import *
from .materials import *

__version__ = "0.1.0"

__all__ = constants.__all__ + experiment.__all__ + lifshitz.__all__ + materials.__all__
