"""
casimirdiff: finite-temperature Casimir difference forces and pressures.

Computes forces between a metal-coated sphere (or plate) and semiconductor
surfaces from their permittivities along the imaginary frequency axis:
Matsubara sums of the two-polarization reflection terms, sphere-plate forces
via the proximity force approximation, and the closed-form zero-frequency
gap between competing low-frequency conductivity models of a poorly
conducting plate.
"""

from .constants import CONSTANTS, PhysicalConstants, ev_to_rad_s, rad_s_to_ev
from .experiment import (
    CantileverParams,
    five_point_gradient,
    min_detectable_force,
    pressure_from_force_gradient,
    resonance_shift,
)
from .lifshitz import (
    Curve,
    HalfspacePair,
    MatsubaraGrid,
    ReflectionPair,
    SumDiagnostics,
    TruncationError,
    ZETA3,
    difference_force,
    difference_force_curve,
    difference_pressure,
    difference_pressure_curve,
    free_energy_per_area,
    matsubara_frequency,
    plate_plate_pressure,
    polylog3,
    reflection_coefficients,
    sphere_plate_force,
    zero_freq_gap_force,
    zero_freq_gap_pressure,
)
from .materials import (
    CarrierParams,
    DrudeParams,
    HighFreqTail,
    OpticalDataTable,
    OscillatorParams,
    PermittivityModel,
    build_material,
    catalog_names,
    kk_to_imaginary_axis,
    load_optical_table,
    plasma_frequency,
    scattering_time,
    with_dc_conductivity,
    with_te_zero,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "PhysicalConstants",
    "ev_to_rad_s",
    "rad_s_to_ev",
    "CarrierParams",
    "DrudeParams",
    "HighFreqTail",
    "OpticalDataTable",
    "OscillatorParams",
    "PermittivityModel",
    "build_material",
    "catalog_names",
    "kk_to_imaginary_axis",
    "load_optical_table",
    "plasma_frequency",
    "scattering_time",
    "with_dc_conductivity",
    "with_te_zero",
    "Curve",
    "HalfspacePair",
    "MatsubaraGrid",
    "ReflectionPair",
    "SumDiagnostics",
    "TruncationError",
    "ZETA3",
    "difference_force",
    "difference_force_curve",
    "difference_pressure",
    "difference_pressure_curve",
    "free_energy_per_area",
    "matsubara_frequency",
    "plate_plate_pressure",
    "polylog3",
    "reflection_coefficients",
    "sphere_plate_force",
    "zero_freq_gap_force",
    "zero_freq_gap_pressure",
    "CantileverParams",
    "five_point_gradient",
    "min_detectable_force",
    "pressure_from_force_gradient",
    "resonance_shift",
]
