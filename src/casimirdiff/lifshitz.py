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
pairs, sharing the momentum grid and the probe reflection amplitudes between
the sections.  A single-pair quantity is the difference against a vacuum
section, whose amplitudes are exactly 0.  Matsubara indices l >= 1 are
evaluated in blocks, as fresh (rows x node) arrays; the terms are then added
one at a time in index order, and the sum stops once the latest term falls
below ``rel_tol`` times the running total.  That test bounds the last term,
not the truncation error, which can be several times larger (4.6 times for
the VO2 difference force at 100 nm with rel_tol = 1e-12).  Blocks are sized
to the sum they finish, from the previous curve point's term count and then
from the decay of the terms.  Every step of a block is elementwise or a
per-row sum over the nodes, so a row's value does not depend on the block
it falls in.  A curve keeps one spectrum of eps(i xi) that every block
slices, evaluated once and reused at every separation, which leaves every
value equal to its pointwise one.

The momentum integral is evaluated after the substitution y = 2 q z, which
maps it onto a fixed window [y_l, y_l + Y_WINDOW] with an exponentially
decaying integrand, handled by fixed-order Gauss-Legendre quadrature
(120 nodes by default; doubling the order changes results below 1e-5
relative).  The Fresnel amplitudes are formed in the same scaled lengths
(see ``_fresnel``), so no k_perp appears, and a block computes its factor
e^{-y} (or expm1(y) for the pressure) once for all four amplitude products.
At zero frequency the integral reduces to trilogarithms, which gives the
closed-form gap between the two low-frequency conductivity models.
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

# Matsubara indices l >= 1 whose eps(i xi) a spectrum adds at a time, in
# aligned chunks (1-32, 33-64, ...): a tabulated probe's Kramers-Kronig
# product is a matrix product whose row values depend on the chunk, so it
# must always see the same rows.  Also the first block of a sum with no
# earlier point to size it by.
_CHUNK = 32

# Most rows of a block (Matsubara indices evaluated together, as
# (rows x nodes) arrays): a bound on a block's memory.
_MAX_ROWS = 64


class TruncationError(RuntimeError):
    """Matsubara sum hit the term cap before reaching the requested tolerance."""

    def __init__(self, message: str, diagnostics: "SumDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics

    def __reduce__(self):
        # raised in a pool worker, it is pickled back to the caller
        return type(self), (self.args[0], self.diagnostics)


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
        _check_count("l_max_cap", self.l_max_cap, least=100)


def _check_count(name: str, value, least: int = 1) -> None:
    """Reject anything but an int (a bool included) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}")


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
        separations = _separation_grid(self.separations)
        values = tuple(float(v) for v in self.values)
        if len(separations) != len(values):
            raise ValueError("separations and values differ in length")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "separations", separations)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "metadata", dict(self.metadata))


def _separation_grid(separations) -> tuple[float, ...]:
    """The separations as floats: at least one, positive, finite and increasing."""
    zs = tuple(float(z) for z in separations)
    if not zs:
        raise ValueError("separations must not be empty")
    if not all(0.0 < z < math.inf for z in zs):
        raise ValueError("separations must be positive and finite")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("separations must be strictly increasing")
    return zs


def matsubara_frequency(l, T: float):
    """xi_l = 2 pi kB T l / hbar in rad/s, for an index or an array of indices."""
    if np.any(np.less(l, 0)):
        raise ValueError("Matsubara index must be non-negative")
    if not T > 0.0:
        raise ValueError("temperature must be positive")
    return 2.0 * math.pi * KB * T * l / HBAR


# --- reflection amplitudes ---------------------------------------------


def _fresnel(eps, y, ymin2):
    """r_TM, r_TE at xi > 0 from eps(i xi), y = s q and ymin2 = (s xi/c)^2.

    Lengths are scaled by any s > 0 (s = 2z in the kernel, 1 for a single
    amplitude); floats or broadcastable arrays.  With K = s k,

        K = sqrt(y^2 + (eps - 1) ymin2),
        r_TM = (eps y - K)/(eps y + K),  r_TE = (eps - 1) ymin2/(K + y)^2,

    the latter being (K - y)/(K + y) without its cancellation.  eps = 1
    gives K = sqrt(fl(y^2)) = y, hence exactly vanishing amplitudes.  Every
    step is an IEEE operation or a ufunc (np.sqrt and np.square, not pow), so
    floats and arrays get the same bits.
    """
    d = (eps - 1.0) * ymin2
    K = np.sqrt(y * y + d)
    ey = eps * y
    return (ey - K) / (ey + K), d / np.square(K + y)


def _zero_freq_reflections(eps0, te_zero, omega_p, y, s=1.0):
    """The xi = 0 reflection rule: r_TM, r_TE over y = s k_perp (float or array).

    A finite static permittivity gives r_TM = (eps0 - 1)/(eps0 + 1) and
    r_TE = 0.  ``eps0 = math.inf`` marks a dc conductor: r_TM = 1, and r_TE
    follows ``te_zero``: 0 for ``"zero"``; for ``"plasma"`` the plasma-limit
    value (kappa - y)/(kappa + y) = p^2/(kappa + y)^2 with p = s omega_p/c and
    kappa^2 = y^2 + p^2, which is 1 for ``omega_p = None`` (a perfect conductor).
    """
    if not math.isinf(eps0):
        return (eps0 - 1.0) / (eps0 + 1.0), 0.0
    if te_zero == "zero":
        return 1.0, 0.0
    if omega_p is None:
        return 1.0, 1.0
    # ufuncs, not ** (pow on floats): a float y gets the bits of an array
    p2 = np.square(s * omega_p / C)
    return 1.0, p2 / np.square(np.sqrt(y * y + p2) + y)


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
    materials always have r_TE = 0 at zero frequency.  The amplitudes are
    those of the kernel's block arithmetic, bit for bit.
    """
    if not 0.0 <= k_perp < math.inf:
        raise ValueError("k_perp must be non-negative and finite")
    if not 0.0 <= xi < math.inf:
        raise ValueError("xi must be non-negative and finite")
    if xi == 0.0 and k_perp == 0.0:
        raise ValueError("xi and k_perp cannot both vanish (undefined direction)")
    if not eps >= 1.0:
        raise ValueError("eps must be >= 1 or the 'infinite' marker math.inf")
    if te_zero not in ("zero", "plasma"):
        raise ValueError("te_zero must be 'zero' or 'plasma'")
    if xi == 0.0:
        r = _zero_freq_reflections(eps, te_zero, plasma_omega_p, k_perp)
    elif math.isinf(eps):
        r = 1.0, 1.0
    else:
        xi_c2 = np.square(xi / C)
        r = _fresnel(eps, np.sqrt(k_perp * k_perp + xi_c2), xi_c2)
    return ReflectionPair(*map(float, r))


def _reflections(model: PermittivityModel, eps, y, ymin2, s):
    """r_TM, r_TE of one material over a block of frequencies.

    ``eps`` is None for the zero-frequency block, else eps(i xi) of the
    block's positive frequencies with shape (rows, 1); ``y`` = s q has shape
    (rows, nodes), ``ymin2`` = (s xi/c)^2 shape (rows, 1), and s = 2z.
    """
    if eps is None:
        # the plasma scale of the TE rule: none for a perfect conductor, 0
        # (hence r_TE = 0) for a dc flag without free-carrier parameters
        omega_p = model.drude.omega_p if model.drude is not None else 0.0
        if model.perfect_conductor:
            omega_p = None
        return _zero_freq_reflections(model.static_permittivity(), model.te_zero, omega_p, y, s)
    if model.perfect_conductor:
        return 1.0, 1.0
    return _fresnel(eps, y, ymin2)


# --- quadrature ---------------------------------------------------------


@lru_cache(maxsize=None)
def _nodes(n: int):
    """u^2 and the weights of the n-node rule on y = y_min + u^2, u^2 in [0, Y_WINDOW]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * math.sqrt(Y_WINDOW)
    u = (x + 1.0) * half
    u2, weights = u * u, w * half * 2.0 * u
    u2.setflags(write=False)
    weights.setflags(write=False)
    return u2, weights


def _momentum_grid(xi, z: float, nodes: int):
    """Quadrature grid in y = 2 q z: ``(y_min, y, weights)``.

    y_min = 2 z xi/c has shape (1,) for a float xi and (len(xi), 1) for an
    array of frequencies; y has shape (nodes,) or (len(xi), nodes), and the
    weights, shape (nodes,), are shared.
    Nodes are placed in u with y = y_min + u^2, which clusters points at the
    lower edge; the zero-frequency integrand has a y ln y endpoint behaviour
    that the substitution turns into the quadrature-friendly u^3 ln u.
    """
    u2, weights = _nodes(nodes)
    y_min = 2.0 * z * np.asarray(xi)[..., None] / C
    return y_min, y_min + u2, weights


# --- the thermal-sum kernel ---------------------------------------------


# quantity -> (factor f(y) shared by a block's four integrands, integrand
# g(A, f) of the amplitude product A = r_probe r_plate, measure m(y) of the
# y integral, factor c of the closed-form zero-frequency integral c Li3(A)).
# The energy integrand ln(1 - A e^{-y}) takes f = -e^{-y}; the pressure one,
# A e^{-y}/(1 - A e^{-y}), is written as A/(expm1(y) + (1 - A)) with
# f = expm1(y), for stability near y = 0 with A = 1.  The integral of
# y ln(1 - A e^{-y}) over [0, inf) is -Li3(A), that of
# y^2 A e^{-y}/(1 - A e^{-y}) is 2 Li3(A).
_QUANTITIES = {
    "energy": (lambda y: -np.exp(-y), lambda a, f: np.log1p(a * f), lambda y: y, -1.0),
    "pressure": (np.expm1, lambda a, f: a / (f + (1.0 - a)), np.square, 2.0),
}

_VACUUM = PermittivityModel(label="vacuum")


class _Spectrum:
    """xi_l and the eps(i xi_l) of a sum's three materials, for l = 1..len(xi).

    A curve passes one spectrum to all its points, so each permittivity is
    evaluated once.  It grows in aligned chunks of _CHUNK indices, for the
    Kramers-Kronig product of a tabulated model, and every block slices it.
    ``last_terms`` is the term count of the latest sum that used it: a
    curve's next point lies further out and needs no more.
    """

    def __init__(self):
        self.xi = np.empty(0)
        self.eps = (self.xi,) * 3
        self.last_terms = None

    def block(self, start: int, stop: int, models, grid: MatsubaraGrid):
        """xi of l = start..stop-1 and the three materials' eps there, shape (rows, 1)."""
        while len(self.xi) < stop - 1:
            first = len(self.xi) + 1
            ls = np.arange(first, min(first + _CHUNK, grid.l_max_cap + 1))
            xi = matsubara_frequency(ls, grid.T)
            self.xi = np.concatenate((self.xi, xi))
            self.eps = tuple(np.concatenate((e, m.eval(xi))) for e, m in zip(self.eps, models))
        rows = slice(start - 1, stop - 1)
        return self.xi[rows], [e[rows, None] for e in self.eps]


def _block_rows(count) -> int:
    """``count`` rows rounded up to a whole row, at most _MAX_ROWS."""
    return min(_MAX_ROWS, math.ceil(count))


def _next_rows(terms, total: float, rel_tol: float) -> float:
    """Rows the next block needs: as many as the geometric decay of the last two
    ``terms`` takes to meet the stopping test, plus one, or _CHUNK if they do
    not decay.  The margin row spares most sums a 1-3-row last block when the
    decay estimate falls just short of the stop."""
    if len(terms) < 2 or not terms[-2]:
        return _CHUNK
    last = abs(terms[-1])
    ratio, goal = last / abs(terms[-2]), rel_tol * abs(total) / last
    if not (0.0 < ratio < 1.0 and goal > 0.0):
        return _CHUNK
    return math.log(goal) / math.log(ratio) + 1.0


def _thermal_sum(quantity, probe, high, low, z, grid, nodes, analytic_l0, spectrum):
    """Matsubara sum of ``quantity`` for ``probe`` facing ``high`` minus facing ``low``.

    Returns the dimensionless sum and its :class:`SumDiagnostics`.  The l = 0
    term carries half weight; ``analytic_l0`` replaces it with its exact
    trilogarithm value, which needs both sections to have vanishing
    zero-frequency TE reflection.  ``spectrum`` (a :class:`_Spectrum`)
    supplies eps(i xi); a curve passes one to its points in increasing z.
    A block's rows are sized to the sum it finishes: the first block
    covers the term count of the spectrum's previous sum (_CHUNK without
    one), later ones follow the decay of the last two terms.  The node sum
    is numpy's own einsum loop, which gives each row the same bits in any
    block, where a BLAS product ``g @ weights`` does not.  The terms are
    then added one at a time in index order.  Raises ``ValueError`` at the
    first non-finite term and :class:`TruncationError` at the term cap.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("separation z must be positive and finite")
    _check_count("nodes", nodes)
    shared, integrand, measure, l0_factor = _QUANTITIES[quantity]
    models = (probe, high, low)

    def amplitudes(xi, block_eps):
        y_min, y, weights = _momentum_grid(xi, z, nodes)
        ymin2 = y_min * y_min
        rs = [_reflections(m, e, y, ymin2, 2.0 * z) for m, e in zip(models, block_eps)]
        return y, weights, rs

    def block_terms(xi, block_eps):
        y, weights, ((rtp, rep), (rth, reh), (rtl, rel)) = amplitudes(xi, block_eps)
        f = shared(y)
        # grouped per polarization: identical sections cancel exactly
        g = integrand(rtp * rth, f) - integrand(rtp * rtl, f)
        h = integrand(rep * reh, f) - integrand(rep * rel, f)
        return np.einsum("ij,j->i", (g + h) * measure(y), weights).tolist()

    zero, static = np.zeros(1), (None,) * 3
    if analytic_l0:
        _, _, ((rtp, _), (rth, reh), (rtl, rel)) = amplitudes(zero, static)
        if np.any(reh) or np.any(rel):
            raise ValueError(
                "analytic zero-frequency term requires both plate sections to have "
                "vanishing TE reflection at zero frequency"
            )
        t0 = l0_factor * _li3_difference(rtp, rth, rtl)
    else:
        t0 = block_terms(zero, static)[0]
    total = t = 0.5 * t0
    if not math.isfinite(t):
        raise ValueError("Matsubara term l = 0 is not finite")
    start = 1
    rows = _block_rows(_CHUNK if spectrum.last_terms is None else spectrum.last_terms - 1)
    while start <= grid.l_max_cap:
        stop = min(start + rows, grid.l_max_cap + 1)
        terms = block_terms(*spectrum.block(start, stop, models, grid))
        for l, t in enumerate(terms, start):
            if not math.isfinite(t):
                raise ValueError(f"Matsubara term l = {l} is not finite")
            total += t
            if abs(t) <= grid.rel_tol * abs(total):
                spectrum.last_terms = l + 1
                rel = abs(t) / abs(total) if total != 0.0 else 0.0
                return total, SumDiagnostics(n_terms=l + 1, last_term_rel=rel, converged=True)
        start, rows = stop, _block_rows(_next_rows(terms, total, grid.rel_tol))
    rel = abs(t) / abs(total) if total != 0.0 else math.inf
    diag = SumDiagnostics(n_terms=grid.l_max_cap + 1, last_term_rel=rel, converged=False)
    raise TruncationError(
        f"not converged at T = {grid.T:g} K, z = {z * 1e9:g} nm: this temperature needs "
        f"more Matsubara terms than l_max_cap = {grid.l_max_cap} (terms={diag.n_terms}, "
        f"tail_rel={rel:.3e}, rel_tol={grid.rel_tol:.1e})",
        diag,
    )


# --- core quantities -----------------------------------------------------


def _check_sphere(R: float, z: float) -> None:
    """Reject a bad radius and warn, at the public function's caller, beyond
    z/R = PFA_RATIO_LIMIT."""
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
    s, diag = _thermal_sum("energy", pair.side_a, pair.side_b, _VACUUM, z, grid, nodes,
                           False, _Spectrum())
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
    _check_sphere(pair.sphere_radius, z)
    value, diag = _difference(pair.side_a, pair.side_b, _VACUUM, pair.sphere_radius, grid,
                              None, nodes, False, _Spectrum(), z)
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
    value, diag = _difference(pair.side_a, pair.side_b, _VACUUM, None, grid, None, nodes,
                              False, _Spectrum(), z)
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
    value, diag = _difference(probe, mat_high, mat_low, R, grid, low_freq_model, nodes,
                              analytic_l0, _Spectrum(), z)
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
    value, diag = _difference(probe, mat_high, mat_low, None, grid, low_freq_model, nodes,
                              analytic_l0, _Spectrum(), z)
    return (value, diag) if with_diagnostics else value


def _difference(probe, mat_high, mat_low, R, grid, low_freq_model, nodes, analytic_l0,
                spectrum, z):
    """(value, diagnostics) of the difference force on a sphere of radius R,
    or of the difference pressure for R = None; ``spectrum`` as in _thermal_sum.
    The caller has checked R."""
    mat_low = _apply_low_freq_model(mat_low, low_freq_model)
    quantity = "pressure" if R is None else "energy"
    s, diag = _thermal_sum(quantity, probe, mat_high, mat_low, z, grid, nodes, analytic_l0,
                           spectrum)
    return _scale(grid.T, z, R) * s, diag


def _scale(T: float, z: float, R: float | None) -> float:
    """The sphere-plate force (N) per unit of the energy sum for a sphere of
    radius R, or the plate-plate pressure (Pa) per unit of the pressure sum for
    R = None: 2 pi R kB T/(8 pi z^2) and -kB T/(8 pi z^3)."""
    if R is None:
        return -KB * T / (8.0 * math.pi * z**3)
    return KB * T * R / (4.0 * z * z)


# --- separation sweeps ---------------------------------------------------


def _sweep(point, separations, workers, probe, mat_high, mat_low, grid,
           low_freq_model, nodes) -> Curve:
    """Curve of ``point(z) -> (value, diagnostics)`` over the separations."""
    zs = _separation_grid(separations)
    _check_count("workers", workers)
    if workers > 1:
        # imported on demand: the pool's modules add about 2 MB to every
        # process, and most sweeps run serially
        from concurrent.futures import ProcessPoolExecutor

        # one chunk of separations per worker: a task unpickles the
        # materials and the curve's spectrum once for its chunk
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point, zs, chunksize=-(-len(zs) // workers)))
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
    points are dispatched to a process pool, one chunk per worker.  The
    per-point Matsubara sums run in fixed index order, so results are
    bit-identical for any worker count.  The z/R warning is given once, for
    the largest separation, before any point runs, so a pool cannot lose it.
    """
    separations = _separation_grid(separations)
    _check_sphere(R, separations[-1])
    # one spectrum for every point; each pool task gets its own copy
    point = partial(_difference, probe, mat_high, mat_low, R, grid, low_freq_model, nodes,
                    False, _Spectrum())
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
    point = partial(_difference, probe, mat_high, mat_low, None, grid, low_freq_model, nodes,
                    False, _Spectrum())
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
    l0_factor = _QUANTITIES["pressure" if R is None else "energy"][3]
    # the half-weight l = 0 term of the sum, in the quantity's scale
    return _scale(T, z, R) * (0.5 * l0_factor * _li3_difference(r_probe, 1.0, r_plate))


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
