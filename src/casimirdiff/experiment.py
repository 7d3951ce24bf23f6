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

# Shared five-point stencil step as a fraction of the evaluation point.
GRADIENT_STEP_FRACTION = 1.0 / 200.0


@dataclass(frozen=True)
class CantileverParams:
    """Cantilever and measurement parameters.

    k is the spring constant (N/m), f_r the resonance frequency (Hz), Q the
    quality factor, B the equivalent noise bandwidth (Hz), T the temperature
    (K).  M (kg) defaults to k/(2 pi f_r)^2 and, when given explicitly, must
    reproduce omega_r = sqrt(k/M) to 1e-9 relative.
    """

    k: float
    f_r: float
    Q: float
    B: float
    T: float
    M: float | None = None

    def __post_init__(self) -> None:
        for name in ("k", "f_r", "Q", "B", "T"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"cantilever parameter {name} must be positive and finite")
        if self.M is not None:
            if not 0.0 < self.M < math.inf:
                raise ValueError("cantilever parameter M must be positive and finite")
            if abs(math.sqrt(self.k / self.M) / self.omega_r - 1.0) > 1e-9:
                raise ValueError("M inconsistent with k and f_r")

    @property
    def omega_r(self) -> float:
        """Angular resonance frequency, rad/s."""
        return 2.0 * math.pi * self.f_r

    @property
    def mass(self) -> float:
        """Effective mass, kg."""
        if self.M is not None:
            return self.M
        return self.k / self.omega_r**2


def min_detectable_force(p: CantileverParams) -> float:
    """Thermal-noise-limited force sensitivity sqrt(2 kB T k B / (pi Q f_r)), N."""
    return math.sqrt(2.0 * KB * p.T * p.k * p.B / (math.pi * p.Q * p.f_r))


def resonance_shift(p: CantileverParams, force_gradient: float) -> float:
    """Resonance-frequency shift (Hz) caused by a force gradient (N/m).

    The angular-frequency relation -(omega_r / 2k) dF/dz is converted to Hz
    at this boundary.  Valid in the linearized regime |gradient| << k; a
    diagnostic warning is emitted beyond |gradient|/k = 0.01.
    """
    if abs(force_gradient) / p.k >= GRADIENT_RATIO_LIMIT:
        warnings.warn(
            f"|force gradient|/k = {abs(force_gradient) / p.k:.3g} is outside "
            "the linearized regime",
            stacklevel=2,
        )
    return -p.f_r * force_gradient / (2.0 * p.k)


def pressure_from_force_gradient(R: float, dF_dz: float) -> float:
    """Equivalent parallel-plate pressure -dF/dz / (2 pi R), Pa."""
    if not R > 0.0:
        raise ValueError("sphere radius must be positive")
    return -dF_dz / (2.0 * math.pi * R)


def five_point_gradient(fn, z: float, step: float | None = None) -> float:
    """Five-point central-difference derivative of fn at z.

    The default step z/200 balances truncation against cancellation at
    piconewton force scales; the same stencil backs the consistency checks
    between force gradients and pressures.
    """
    h = z * GRADIENT_STEP_FRACTION if step is None else step
    if not h > 0.0:
        raise ValueError("step must be positive")
    return (fn(z - 2 * h) - 8.0 * fn(z - h) + 8.0 * fn(z + h) - fn(z + 2 * h)) / (12.0 * h)
