"""
Finite-temperature Lifshitz computations for two half-spaces.

The free energy per unit area of two parallel half-spaces at separation z is
a Matsubara sum over imaginary frequencies xi_l = 2 pi kB T l / hbar (the
l = 0 term carries half weight) of a transverse-momentum integral over the
two polarization log terms ln(1 - r_TM^a r_TM^b e^{-2 q z}) and the TE
analog; the pressure sums r^a r^b e^{-2 q z} / (1 - r^a r^b e^{-2 q z})
instead.  The sphere-plate force follows from the proximity force
approximation F = 2 pi R E(z).

Every quantity is computed by one kernel, ``_thermal_sum``: a probe facing
two plate sections, evaluated in a single pass as the difference of the two
pairs, sharing q_l and the probe reflection amplitudes between the sections.
A single-pair quantity is the difference against a vacuum section, whose
amplitudes are exactly 0.  Matsubara indices l >= 1 are evaluated in fixed
blocks, as (block x node) arrays; the terms are then added one at a time in
index order, and the sum stops once the latest term falls below ``rel_tol``
times the running total.  That test bounds the last term, not the
truncation error, which can be several times larger (4.6 times for the VO2
difference force at 100 nm with rel_tol = 1e-12).

The momentum integral is evaluated after the substitution y = 2 q z, which
maps it onto a fixed window [y_l, y_l + Y_WINDOW] with an exponentially
decaying integrand, handled by fixed-order Gauss-Legendre quadrature
(120 nodes by default; doubling the order changes results below 1e-5
relative).  At zero frequency the integral reduces to trilogarithms, which
gives the closed-form gap between the two low-frequency conductivity models.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .constants import C, HBAR, KB
from .materials import PermittivityModel, with_dc_conductivity

__all__ = [
    "MatsubaraGrid",
    "ReflectionPair",
    "HalfspacePair",
    "Curve",
    "SumDiagnostics",
    "TruncationError",
    "matsubara_frequency",
    "reflection_coefficients",
    "free_energy_per_area",
    "sphere_plate_force",
    "plate_plate_pressure",
    "difference_force",
    "difference_pressure",
    "difference_force_curve",
    "difference_pressure_curve",
    "polylog3",
    "zero_freq_gap_force",
    "zero_freq_gap_pressure",
    "ZETA3",
]

# Riemann zeta(3)
ZETA3 = 1.2020569031595942

# Width of the y = 2 q z integration window beyond the lower edge; the
# integrand carries e^{-y}, so the neglected tail is below 1e-25 relative.
Y_WINDOW = 62.0

DEFAULT_NODES = 120

# PFA error is bounded by z/R; warn beyond this ratio.
PFA_RATIO_LIMIT = 0.01

# Matsubara indices l >= 1 evaluated together, as (block x node) arrays.
_BLOCK = 32


class TruncationError(RuntimeError):
    """Matsubara sum hit the term cap before reaching the requested tolerance."""

    def __init__(self, message: str, diagnostics: "SumDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class MatsubaraGrid:
    """Temperature and truncation policy of the thermal sum.

    The sum stops once the latest term falls below ``rel_tol`` times the
    accumulated value, and raises :class:`TruncationError` if that has not
    happened after ``l_max_cap`` terms.
    """

    T: float
    rel_tol: float = 1e-9
    l_max_cap: int = 20000

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError("temperature T must be positive and finite")
        if not 0.0 < self.rel_tol < 1e-3:
            raise ValueError("rel_tol must lie in (0, 1e-3)")
        if self.l_max_cap < 100:
            raise ValueError("l_max_cap must be at least 100")


class ReflectionPair(NamedTuple):
    r_tm: float
    r_te: float


@dataclass(frozen=True)
class HalfspacePair:
    """Two bounding materials plus the probe geometry.

    ``sphere_radius`` is None for plate-plate computations and the sphere
    radius in meters for sphere-plate ones.
    """

    side_a: PermittivityModel
    side_b: PermittivityModel
    sphere_radius: float | None = None

    def __post_init__(self) -> None:
        if self.sphere_radius is not None and not 0.0 < self.sphere_radius < math.inf:
            raise ValueError("sphere radius must be positive and finite")


@dataclass(frozen=True)
class SumDiagnostics:
    """Truncation record of one Matsubara sum."""

    n_terms: int
    last_term_rel: float
    converged: bool


@dataclass(frozen=True)
class Curve:
    """Difference force (N) or pressure (Pa) on a separation grid; attractive values negative."""

    separations: tuple[float, ...]
    values: tuple[float, ...]
    metadata: dict

    def __post_init__(self) -> None:
        separations = tuple(float(z) for z in self.separations)
        values = tuple(float(v) for v in self.values)
        if len(separations) != len(values):
            raise ValueError("separations and values differ in length")
        if any(b <= a for a, b in zip(separations, separations[1:])):
            raise ValueError("separations must be strictly increasing")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "separations", separations)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "metadata", dict(self.metadata))


def matsubara_frequency(l, T: float):
    """xi_l = 2 pi kB T l / hbar in rad/s, for an index or an array of indices."""
    if np.any(np.less(l, 0)):
        raise ValueError("Matsubara index must be non-negative")
    if not T > 0.0:
        raise ValueError("temperature must be positive")
    return 2.0 * math.pi * KB * T * l / HBAR


# --- reflection amplitudes ---------------------------------------------


def _fresnel(eps, xi_c2, kp2):
    """r_TM, r_TE at xi > 0 from eps(i xi), (xi/c)^2 and kp2 = k_perp^2.

    Floats or broadcastable arrays.  q is built from kp2 with the same
    expression as k, so eps = 1 gives bitwise-equal q and k, hence exactly
    vanishing amplitudes.
    """
    q = (kp2 + 1.0 * xi_c2) ** 0.5
    k = (kp2 + eps * xi_c2) ** 0.5
    eq = eps * q
    return (eq - k) / (eq + k), (k - q) / (k + q)


def _zero_freq_reflections(eps0, te_zero, omega_p, kp2):
    """The xi = 0 reflection rule: r_TM, r_TE over kp2 = k_perp^2 (float or array).

    A finite static permittivity gives r_TM = (eps0 - 1)/(eps0 + 1) and
    r_TE = 0.  ``eps0 = math.inf`` marks a dc conductor: r_TM = 1, and r_TE
    follows ``te_zero``: 0 for ``"zero"``; for ``"plasma"`` the plasma-limit
    value (kappa - k_perp)/(kappa + k_perp) with kappa^2 = k_perp^2 +
    (omega_p/c)^2, which is 1 for ``omega_p = None`` (a perfect conductor).
    """
    if not math.isinf(eps0):
        return (eps0 - 1.0) / (eps0 + 1.0), 0.0
    if te_zero == "zero":
        return 1.0, 0.0
    if omega_p is None:
        return 1.0, 1.0
    q = kp2**0.5
    kappa = (kp2 + (omega_p / C) ** 2) ** 0.5
    return 1.0, (kappa - q) / (kappa + q)


def reflection_coefficients(
    eps: float,
    xi: float,
    k_perp: float,
    *,
    te_zero: str = "zero",
    plasma_omega_p: float | None = None,
) -> ReflectionPair:
    """TM/TE reflection amplitudes at imaginary frequency xi.

    For xi > 0 and finite eps >= 1:

        q = sqrt(k_perp^2 + xi^2/c^2),  k = sqrt(k_perp^2 + eps xi^2/c^2),
        r_TM = (eps q - k)/(eps q + k),  r_TE = (k - q)/(k + q).

    ``eps = math.inf`` is the marker for a diverging (dc conducting)
    permittivity: r_TM = 1 at any frequency.  At xi = 0 the TE amplitude of
    such a material follows ``te_zero``: 0 for the default prescription, or
    the plasma-limit value computed from ``plasma_omega_p`` (1 if no plasma
    frequency is given, i.e. the perfect-conductor limit).  Finite-eps
    materials always have r_TE = 0 at zero frequency.
    """
    if k_perp < 0.0:
        raise ValueError("k_perp must be non-negative")
    if xi < 0.0:
        raise ValueError("xi must be non-negative")
    if xi == 0.0 and k_perp == 0.0:
        raise ValueError("xi and k_perp cannot both vanish (undefined direction)")
    if not math.isinf(eps) and eps < 1.0:
        raise ValueError("eps must be >= 1 or the 'infinite' marker math.inf")
    if te_zero not in ("zero", "plasma"):
        raise ValueError("te_zero must be 'zero' or 'plasma'")
    if xi == 0.0:
        return ReflectionPair(*_zero_freq_reflections(eps, te_zero, plasma_omega_p, k_perp * k_perp))
    if math.isinf(eps):
        return ReflectionPair(1.0, 1.0)
    return ReflectionPair(*_fresnel(eps, (xi / C) ** 2, k_perp * k_perp))


def _reflections(model: PermittivityModel, xi, kp2):
    """r_TM, r_TE of one material over a block of frequencies.

    ``xi`` has shape (block,) and is either all zero or all positive;
    ``kp2`` = k_perp^2 has shape (block, nodes).
    """
    if not xi[0]:
        # the plasma scale of the TE rule: none for a perfect conductor, 0
        # (hence r_TE = 0) for a dc flag without free-carrier parameters
        omega_p = model.drude.omega_p if model.drude is not None else 0.0
        if model.perfect_conductor:
            omega_p = None
        return _zero_freq_reflections(model.static_permittivity(), model.te_zero, omega_p, kp2)
    if model.perfect_conductor:
        return 1.0, 1.0
    return _fresnel(model.eval(xi)[:, None], ((xi / C) ** 2)[:, None], kp2)


# --- quadrature ---------------------------------------------------------


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _momentum_grid(xi, z: float, nodes: int):
    """Quadrature grid in y = 2 q z together with the k_perp^2 array.

    For a float xi, y and kp2 have shape (nodes,); for an array of
    frequencies, (len(xi), nodes).  The weights, shape (nodes,), are shared.
    Nodes are placed in u with y = y_min + u^2, which clusters points at the
    lower edge; the zero-frequency integrand has a y ln y endpoint behaviour
    that the substitution turns into the quadrature-friendly u^3 ln u.
    """
    x, w = _leggauss(nodes)
    half = 0.5 * math.sqrt(Y_WINDOW)
    u = (x + 1.0) * half
    y_min = 2.0 * z * np.asarray(xi)[..., None] / C
    y = y_min + u * u
    weights = w * half * 2.0 * u
    # q^2 - (xi/c)^2 = u^2 (u^2 + 2 y_min) / (2 z)^2, free of cancellation
    kp2 = u * u * (u * u + 2.0 * y_min) / (4.0 * z * z)
    return y, weights, kp2


# --- the thermal-sum kernel ---------------------------------------------


def _energy_integrand(a, y):
    return np.log1p(-a * np.exp(-y))


def _pressure_integrand(a, y):
    # a e^{-y} / (1 - a e^{-y}) written as a / (expm1(y) + (1 - a)) for
    # stability near y = 0 with a = 1.
    return a / (np.expm1(y) + (1.0 - a))


# quantity -> (integrand g(A, y) of the amplitude product A = r_probe r_plate,
# power of y in the measure, factor c of the closed-form zero-frequency
# integral c Li3(A)): the integral of y ln(1 - A e^{-y}) over [0, inf) is
# -Li3(A), that of y^2 A e^{-y}/(1 - A e^{-y}) is 2 Li3(A).
_QUANTITIES = {
    "energy": (_energy_integrand, 1, -1.0),
    "pressure": (_pressure_integrand, 2, 2.0),
}

_VACUUM = PermittivityModel(label="vacuum")


def _thermal_sum(quantity, probe, high, low, z, grid, nodes, analytic_l0=False):
    """Matsubara sum of ``quantity`` for ``probe`` facing ``high`` minus facing ``low``.

    Returns the dimensionless sum and its :class:`SumDiagnostics`.  The l = 0
    term carries half weight; ``analytic_l0`` replaces it with its exact
    trilogarithm value, which needs both sections to have vanishing
    zero-frequency TE reflection.  Raises ``ValueError`` at the first
    non-finite term and :class:`TruncationError` at the term cap.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("separation z must be positive and finite")
    integrand, power, l0_factor = _QUANTITIES[quantity]

    def amplitudes(xi, kp2):
        return [_reflections(model, xi, kp2) for model in (probe, high, low)]

    def block_terms(xi):
        y, weights, kp2 = _momentum_grid(xi, z, nodes)
        (rtp, rep), (rth, reh), (rtl, rel) = amplitudes(xi, kp2)
        # grouped per polarization: identical sections cancel exactly
        g = (integrand(rtp * rth, y) - integrand(rtp * rtl, y)) + (
            integrand(rep * reh, y) - integrand(rep * rel, y)
        )
        return ((y**power * g) @ weights).tolist()

    def indexed_terms():
        zero = np.zeros(1)
        if analytic_l0:
            (rtp, _), (rth, reh), (rtl, rel) = amplitudes(zero, _momentum_grid(zero, z, nodes)[2])
            if np.any(reh) or np.any(rel):
                raise ValueError(
                    "analytic zero-frequency term requires both plate sections to have "
                    "vanishing TE reflection at zero frequency"
                )
            t0 = l0_factor * _li3_difference(rtp, rth, rtl)
        else:
            t0 = block_terms(zero)[0]
        yield 0, 0.5 * t0
        for start in range(1, grid.l_max_cap + 1, _BLOCK):
            ls = np.arange(start, min(start + _BLOCK, grid.l_max_cap + 1))
            yield from zip(ls.tolist(), block_terms(matsubara_frequency(ls, grid.T)))

    total = 0.0
    for l, t in indexed_terms():
        if not math.isfinite(t):
            raise ValueError(f"Matsubara term l = {l} is not finite")
        total += t
        if l >= 1 and abs(t) <= grid.rel_tol * abs(total):
            rel = abs(t) / abs(total) if total != 0.0 else 0.0
            return total, SumDiagnostics(n_terms=l + 1, last_term_rel=rel, converged=True)
    rel = abs(t) / abs(total) if total != 0.0 else math.inf
    diag = SumDiagnostics(n_terms=grid.l_max_cap + 1, last_term_rel=rel, converged=False)
    raise TruncationError(
        f"Matsubara sum not converged after {diag.n_terms} terms "
        f"(last term {rel:.3e} of total, tolerance {grid.rel_tol:.1e})",
        diag,
    )


# --- core quantities -----------------------------------------------------


def _check_sphere(R: float, z: float) -> None:
    if not 0.0 < R < math.inf:
        raise ValueError("sphere radius must be positive and finite")
    if z / R > PFA_RATIO_LIMIT:
        warnings.warn(
            f"z/R = {z / R:.3g} exceeds {PFA_RATIO_LIMIT}; the proximity force "
            "approximation error grows like z/R",
            stacklevel=3,
        )


def free_energy_per_area(
    pair: HalfspacePair,
    z: float,
    grid: MatsubaraGrid,
    *,
    nodes: int = DEFAULT_NODES,
    with_diagnostics: bool = False,
):
    """Free energy per unit area (J/m^2) of two half-spaces at separation z.

    Negative for attractive configurations.
    """
    s, diag = _thermal_sum("energy", pair.side_a, pair.side_b, _VACUUM, z, grid, nodes)
    value = KB * grid.T / (8.0 * math.pi * z * z) * s
    return (value, diag) if with_diagnostics else value


def sphere_plate_force(
    pair: HalfspacePair,
    z: float,
    grid: MatsubaraGrid,
    *,
    nodes: int = DEFAULT_NODES,
    with_diagnostics: bool = False,
):
    """Sphere-plate force (N) via the proximity force approximation 2 pi R E(z)."""
    if pair.sphere_radius is None:
        raise ValueError("sphere_plate_force needs a sphere-plate pair")
    R = pair.sphere_radius
    _check_sphere(R, z)
    energy, diag = free_energy_per_area(pair, z, grid, nodes=nodes, with_diagnostics=True)
    value = 2.0 * math.pi * R * energy
    return (value, diag) if with_diagnostics else value


def plate_plate_pressure(
    pair: HalfspacePair,
    z: float,
    grid: MatsubaraGrid,
    *,
    nodes: int = DEFAULT_NODES,
    with_diagnostics: bool = False,
):
    """Pressure (Pa) between two half-space plates; negative = attractive."""
    s, diag = _thermal_sum("pressure", pair.side_a, pair.side_b, _VACUUM, z, grid, nodes)
    value = -KB * grid.T / (8.0 * math.pi * z**3) * s
    return (value, diag) if with_diagnostics else value


def _apply_low_freq_model(model: PermittivityModel, low_freq_model: str | None):
    if low_freq_model is None:
        return model
    if low_freq_model == "a":
        return with_dc_conductivity(model, False)
    if low_freq_model == "b":
        return with_dc_conductivity(model, True)
    raise ValueError("low_freq_model must be None, 'a' or 'b'")


def difference_force(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    R: float,
    z: float,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    nodes: int = DEFAULT_NODES,
    analytic_l0: bool = False,
    with_diagnostics: bool = False,
):
    """One-pass difference force F_high(z) - F_low(z) on a sphere of radius R.

    ``low_freq_model`` forces the zero-frequency dc-conductivity treatment of
    ``mat_low``: ``"a"`` neglects it (finite static permittivity), ``"b"``
    keeps it; by default the material is used as built.  ``analytic_l0``
    replaces the numerically integrated zero-frequency term with its exact
    trilogarithm value (valid when both plate sections have vanishing
    zero-frequency TE reflection).
    """
    _check_sphere(R, z)
    mat_low = _apply_low_freq_model(mat_low, low_freq_model)
    s, diag = _thermal_sum("energy", probe, mat_high, mat_low, z, grid, nodes, analytic_l0)
    value = KB * grid.T * R / (4.0 * z * z) * s
    return (value, diag) if with_diagnostics else value


def difference_pressure(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    z: float,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    nodes: int = DEFAULT_NODES,
    analytic_l0: bool = False,
    with_diagnostics: bool = False,
):
    """One-pass difference pressure P_high(z) - P_low(z) between plates."""
    mat_low = _apply_low_freq_model(mat_low, low_freq_model)
    s, diag = _thermal_sum("pressure", probe, mat_high, mat_low, z, grid, nodes, analytic_l0)
    value = -KB * grid.T / (8.0 * math.pi * z**3) * s
    return (value, diag) if with_diagnostics else value


# --- separation sweeps ---------------------------------------------------


def _sweep(point, separations, workers, probe, mat_high, mat_low, grid,
           low_freq_model, nodes) -> Curve:
    """Curve of ``point(z) -> (value, diagnostics)`` over the separations."""
    zs = tuple(float(z) for z in separations)
    if workers > 1:
        # imported on demand: the pool's modules add about 2 MB to every
        # process, and most sweeps run serially
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point, zs))
    else:
        results = [point(z) for z in zs]
    diags = [diag for _, diag in results]
    metadata = {
        "probe": probe.label,
        "material_high": mat_high.label,
        "material_low": mat_low.label,
        "temperature_K": grid.T,
        "low_freq_model": low_freq_model,
        "rel_tol": grid.rel_tol,
        "nodes": nodes,
        "l_terms_per_z": tuple(d.n_terms for d in diags),
        "tail_rel_per_z": tuple(d.last_term_rel for d in diags),
        "max_tail_rel": max(d.last_term_rel for d in diags),
    }
    return Curve(zs, tuple(value for value, _ in results), metadata)


def difference_force_curve(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    R: float,
    separations,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    nodes: int = DEFAULT_NODES,
    workers: int = 1,
) -> Curve:
    """Difference force over a separation grid.

    Each separation is an independent work item; with ``workers > 1`` the
    points are dispatched to a process pool.  The per-point Matsubara sums
    run in fixed index order, so results are bit-identical for any worker
    count.
    """
    point = partial(
        difference_force, probe, mat_high, mat_low, R, grid=grid,
        low_freq_model=low_freq_model, nodes=nodes, with_diagnostics=True,
    )
    curve = _sweep(point, separations, workers, probe, mat_high, mat_low, grid,
                   low_freq_model, nodes)
    curve.metadata["sphere_radius_m"] = R
    return curve


def difference_pressure_curve(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    separations,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    nodes: int = DEFAULT_NODES,
    workers: int = 1,
) -> Curve:
    """Difference pressure over a separation grid (see difference_force_curve)."""
    point = partial(
        difference_pressure, probe, mat_high, mat_low, grid=grid,
        low_freq_model=low_freq_model, nodes=nodes, with_diagnostics=True,
    )
    return _sweep(point, separations, workers, probe, mat_high, mat_low, grid,
                  low_freq_model, nodes)


# --- trilogarithm and zero-frequency gap formulas ------------------------

_PI2_6 = math.pi**2 / 6.0


def polylog3(x: float) -> float:
    """Trilogarithm Li3(x) = sum x^k/k^3 for 0 <= x <= 1, to 1e-12 absolute.

    Uses the defining series up to x = 0.99; closer to 1 it switches to the
    expansion in u = -ln x,

        Li3(e^-u) = zeta(3) - (pi^2/6) u + (3/2 - ln u) u^2/2 + u^3/12
                    - u^4/288 + u^6/86400 - ...

    whose truncation error is below 1e-18 for u <= 0.011.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("polylog3 is defined here for x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return ZETA3
    if x <= 0.99:
        total = 0.0
        power = x
        k = 1
        while True:
            term = power / (k * k * k)
            total += term
            # geometric bound on the series tail
            if term * x / (1.0 - x) < 1e-15:
                return total
            power *= x
            k += 1
    u = -math.log(x)
    u2 = u * u
    return (
        ZETA3
        - _PI2_6 * u
        + (1.5 - math.log(u)) * 0.5 * u2
        + u2 * u / 12.0
        - u2 * u2 / 288.0
        + u2 * u2 * u2 / 86400.0
    )


def _li3_difference(r_probe: float, r_high: float, r_low: float) -> float:
    """Li3(r_probe r_high) - Li3(r_probe r_low), zero-frequency TM amplitudes.

    Times the quantity's factor in ``_QUANTITIES`` it is the closed-form
    zero-frequency integral of a probe facing two plate sections.
    """
    return polylog3(r_probe * r_high) - polylog3(r_probe * r_low)


def _zero_freq_gap(r_probe: float, eps0: float, z: float, T: float, R: float | None) -> float:
    """Model-a minus model-b value of a probe over a plate of static permittivity eps0.

    Only the l = 0 term differs between the two low-frequency models: a plate
    with dc conductivity reflects TM with 1, without it with
    (eps0 - 1)/(eps0 + 1).  ``r_probe`` is the probe's zero-frequency TM
    amplitude (1 for a metal).  Returns the sphere-plate force for a sphere
    of radius ``R``, or the plate-plate pressure when ``R`` is None.
    """
    r_plate = _zero_freq_reflections(eps0, "zero", None, 0.0)[0]
    li3 = _li3_difference(r_probe, 1.0, r_plate)
    if R is None:
        return -KB * T / (8.0 * math.pi * z**3) * li3
    return -KB * T * R / (8.0 * z * z) * li3


def zero_freq_gap_force(R: float, z: float, T: float, eps0: float) -> float:
    """Closed-form force gap between the two low-frequency conductivity models.

    Returns -(kB T R)/(8 z^2) * (zeta(3) - Li3[(eps0-1)/(eps0+1)]), the exact
    zero-frequency-term difference for a metallic sphere above a plate section
    of static permittivity ``eps0``.  Tends to 0 as eps0 -> inf.
    """
    if not all(0.0 < v < math.inf for v in (R, z, T)):
        raise ValueError("R, z, T must be positive and finite")
    if not eps0 > 1.0:
        raise ValueError("eps0 must exceed 1")
    return _zero_freq_gap(1.0, eps0, z, T, R)


def zero_freq_gap_pressure(z: float, T: float, eps0: float) -> float:
    """Closed-form pressure gap, -(kB T)/(8 pi z^3) * (zeta(3) - Li3[...])."""
    if not all(0.0 < v < math.inf for v in (z, T)):
        raise ValueError("z, T must be positive and finite")
    if not eps0 > 1.0:
        raise ValueError("eps0 must exceed 1")
    return _zero_freq_gap(1.0, eps0, z, T, None)
