"""
Mapping computed forces onto measurable cantilever quantities: thermal-noise
force sensitivity, resonance-frequency shifts of the dynamic detection
scheme, and the gradient-to-pressure relation of the proximity force
approximation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import KB

__all__ = [
    "CantileverParams",
    "min_detectable_force",
    "resonance_shift",
    "pressure_from_force_gradient",
    "five_point_gradient",
]

# Linearized-regime bound for the frequency-shift relation.
GRADIENT_RATIO_LIMIT = 0.01

# Five-point stencil step as a fraction of the evaluation point.
GRADIENT_STEP_FRACTION = 1.0 / 200.0


@dataclass(frozen=True)
class CantileverParams:
    """Cantilever and measurement parameters.

    k is the spring constant (N/m), f_r the resonance frequency (Hz), Q the
    quality factor, B the equivalent noise bandwidth (Hz), T the temperature
    (K); each must be positive and finite.
    """

    k: float
    f_r: float
    Q: float
    B: float
    T: float

    def __post_init__(self) -> None:
        for name in ("k", "f_r", "Q", "B", "T"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"cantilever parameter {name} must be positive and finite")


def min_detectable_force(p: CantileverParams) -> float:
    """Thermal-noise-limited force sensitivity sqrt(2 kB T k B / (pi Q f_r)), N."""
    return math.sqrt(2.0 * KB * p.T * p.k * p.B / (math.pi * p.Q * p.f_r))


def resonance_shift(p: CantileverParams, force_gradient: float) -> float:
    """Resonance-frequency shift (Hz) caused by a force gradient (N/m).

    The angular-frequency relation -(omega_r / 2k) dF/dz is converted to Hz
    at this boundary.  Valid in the linearized regime |gradient| << k; a
    diagnostic warning is emitted beyond |gradient|/k = 0.01.  A non-finite
    gradient raises ``ValueError``.
    """
    if not math.isfinite(force_gradient):
        raise ValueError("force gradient must be finite")
    if abs(force_gradient) / p.k >= GRADIENT_RATIO_LIMIT:
        warnings.warn(
            f"|force gradient|/k = {abs(force_gradient) / p.k:.3g} is outside "
            "the linearized regime",
            stacklevel=2,
        )
    return -p.f_r * force_gradient / (2.0 * p.k)


def pressure_from_force_gradient(R: float, dF_dz: float) -> float:
    """Equivalent parallel-plate pressure -dF/dz / (2 pi R), Pa."""
    if not 0.0 < R < math.inf:
        raise ValueError("sphere radius must be positive and finite")
    if not math.isfinite(dF_dz):
        raise ValueError("force gradient must be finite")
    return -dF_dz / (2.0 * math.pi * R)


def five_point_gradient(fn, z: float) -> float:
    """Five-point central-difference derivative of fn at z.

    The step z/200 balances truncation against cancellation at piconewton
    force scales; the same stencil backs the consistency checks between
    force gradients and pressures.  A z that is not positive and finite
    raises ``ValueError`` before fn is called.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("z must be positive and finite")
    h = z * GRADIENT_STEP_FRACTION
    return (fn(z - 2 * h) - 8.0 * fn(z - h) + 8.0 * fn(z + h) - fn(z + 2 * h)) / (12.0 * h)
