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
section, whose amplitudes are exactly 0.  The half-weight l = 0 term is an
input of the kernel (``_zero_term``).  Matsubara indices l >= 1 are
evaluated in blocks, as fresh (rows x node) arrays; the terms are then added
one at a time in index order, and the sum stops once the latest term falls
below ``rel_tol`` times the running total.  That test bounds the last term,
not the truncation error, which can be several times larger (4.6 times for
the VO2 difference force at 100 nm with rel_tol = 1e-12).  Blocks are sized
to the sum they finish, from the previous curve point's term count and then
from the decay of the terms.  Every step of a block is elementwise or a
per-row sum over the nodes, so a row's value does not depend on the block
it falls in.  A curve computes its separations as runs of points in
increasing z, each passing its term count on to the next; that sizes
blocks only, so every value equals its pointwise one.  Every block slices
eps(i xi) from each material's memo (see ``_matsubara_eps``), so a
material is evaluated once per temperature, not once per sum or curve.

A curve also computes once what its points repeat.  The l = 0 term is the
same float at every separation, so a curve evaluates it once per run and
passes it to every point, unless a plasma TE amplitude at xi = 0 makes it
depend on z (``_zero_term_depends_on_z``); then each point evaluates its
own.  The two low-frequency models differ only in the l = 0 term, so the
kernel takes one half-term per model and keeps one running total and one
stopping test for each over a single set of rows l >= 1: ``compare``'s two
curves cost about one, and each equals its own curve bit for bit.

The momentum integral is evaluated after the substitution y = 2 q z, which
maps it onto a fixed window above y_l with an exponentially decaying
integrand, handled by fixed-order Gauss-Legendre quadrature in
u = sqrt(y - y_l).  A row l >= 1 takes DEFAULT_NODES = 80 nodes on a
window of 40; the l = 0 term, whose y ln y endpoint converges more slowly,
takes three times as many on a window of 62.  The order is fixed, and its
values lie within 1e-13 of a 480-node rule.  The rules are built by
Newton's method, with no eigenproblem, and cached.  The Fresnel amplitudes
are formed in the same scaled lengths (see ``_fresnel``), so no k_perp
appears, and a block computes its factor e^{-y} (or expm1(y) for the
pressure) once for all four amplitude products.
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
]

# Riemann zeta(3)
_ZETA3 = 1.2020569031595942

# Widths of the y = 2 q z integration window beyond the lower edge, for
# the l = 0 term and for the rows l >= 1.  The integrand carries e^{-y} and
# at most a y^2 measure, so a window W neglects at most
# e^{-W} (1 + W + W^2/2) of a term: 3e-24 for 62, 4e-15 for 40.
Y_WINDOW = 62.0
_ROW_WINDOW = 40.0

# Gauss-Legendre order of an l >= 1 row.  The l = 0 term takes three times
# as many: its y ln y endpoint converges as about n^-8, and twice as many
# left 1.2e-13 of the force at 3 um and 300 K.
DEFAULT_NODES = 80

# PFA error is bounded by z/R; warn beyond this ratio.
PFA_RATIO_LIMIT = 0.01

# Matsubara indices l >= 1 a material's memo grows by at a time, and the
# first block of a sum with no earlier point to size it by.
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
    """xi_l = 2 pi kB T l / hbar in rad/s: a float for an index, an array for
    a sequence or an array of indices.

    Raises ``ValueError`` unless every index is a non-negative integer (an
    integral float counts) and T is positive and finite.
    """
    ls = np.asarray(l)
    if not np.all(np.isfinite(ls) & (ls >= 0) & (np.floor(ls) == ls)):
        raise ValueError("Matsubara index must be a non-negative integer")
    if not 0.0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")
    xi = _xi(ls, T)
    return float(xi) if ls.ndim == 0 else xi


def _xi(l, T: float):
    """xi_l of ``matsubara_frequency``, unchecked: the kernel's frequencies."""
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


def _gauss_legendre(n: int):
    """Nodes x (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nodes are the roots of P_n, found by Newton's method on the
    three-term recurrence from Tricomi's estimate, with no eigenproblem
    (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)); the weights
    2/((1 - x^2) P_n'(x)^2) carry the first-order correction of the last
    Newton step.  The roots x >= 0 are computed and mirrored.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    # Newton converges quadratically: after a step below 1e-12 the root is
    # exact to rounding
    dx = math.inf
    while np.max(np.abs(dx)) > 1e-12:
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        s = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / s
        dx = p / dp
        x = x - dx
    w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * dx / s)
    # an odd n's middle root, x = 0, is not mirrored
    return np.concatenate([-x[:n // 2], x[::-1]]), np.concatenate([w[:n // 2], w[::-1]])


@lru_cache(maxsize=None)
def _nodes(n: int, window: float):
    """u^2 and the weights of the n-node Gauss-Legendre rule on y = y_min + u^2,
    u^2 in [0, window]."""
    # Allocate and free one 1 MB array.  Freeing an mmapped block raises
    # glibc's mmap threshold to its size and the heap trim threshold to twice
    # that (mallopt(3), "dynamic mmap threshold"), so the arrays of a block
    # (0.54 MB at a time for 64 rows of 80 nodes) stay on a resident heap
    # instead of being trimmed after each block and faulted back in: a warm
    # 41-point 300 K curve in a fresh process went from 1000-1550 minor
    # faults to 0.1.
    # Another C library just allocates and frees it.
    np.empty(1 << 17)
    x, w = _gauss_legendre(n)
    half = 0.5 * math.sqrt(window)
    u = (x + 1.0) * half
    u2, weights = u * u, w * half * 2.0 * u
    u2.setflags(write=False)
    weights.setflags(write=False)
    return u2, weights


def _momentum_grid(xi, z: float, nodes: int, window: float):
    """Quadrature grid in y = 2 q z over [y_min, y_min + window]: ``(y_min, y, weights)``.

    y_min = 2 z xi/c has shape (1,) for a float xi and (len(xi), 1) for an
    array of frequencies; y has shape (nodes,) or (len(xi), nodes), and the
    weights, shape (nodes,), are shared.
    Nodes are placed in u with y = y_min + u^2, which clusters points at the
    lower edge; the zero-frequency integrand has a y ln y endpoint behaviour
    that the substitution turns into the quadrature-friendly u^3 ln u.
    """
    u2, weights = _nodes(nodes, window)
    y_min = 2.0 * z * np.asarray(xi)[..., None] / C
    return y_min, y_min + u2, weights


# --- the thermal-sum kernel ---------------------------------------------


# quantity -> (factor f(y) shared by a block's four integrands, integrand
# g(A, f) of the amplitude product A = r_probe r_plate, measure m(y) of the
# y integral).  The energy integrand ln(1 - A e^{-y}) takes f = -e^{-y}; the
# pressure one, A e^{-y}/(1 - A e^{-y}), is written as A/(expm1(y) + (1 - A))
# with f = expm1(y), for stability near y = 0 with A = 1.
_QUANTITIES = {
    "energy": (lambda y: -np.exp(-y), lambda a, f: np.log1p(a * f), lambda y: y),
    "pressure": (np.expm1, lambda a, f: a / (f + (1.0 - a)), np.square),
}


def _vacuum() -> PermittivityModel:
    """The section a single-pair quantity is taken against; built per call,
    so that no module-level model holds a memo."""
    return PermittivityModel(label="vacuum")


def _matsubara_eps(model: PermittivityModel, T: float, n: int):
    """eps(i xi_l) of ``model`` at temperature T for l = 1..n or more.

    Served from the model's memo of the temperature, which one evaluation
    of the missing frequencies extends to a whole number of _CHUNKs.  It is
    read and replaced as one entry, with no lock: a thread that loses a
    race to another only evaluates again.
    """
    memo_T, eps = model._eps_memo.entry
    if memo_T != T:
        eps = np.empty(0)
    if len(eps) < n:
        count = -(-n // _CHUNK) * _CHUNK
        eps = np.concatenate([eps, model.eval(_xi(np.arange(len(eps) + 1, count + 1), T))])
        eps.setflags(write=False)
        model._eps_memo.entry = (T, eps)
    return eps


def _next_rows(terms, total: float, rel_tol: float) -> int:
    """Rows the next block needs, at most _MAX_ROWS: as many as the geometric
    decay of the last two ``terms`` takes to meet the stopping test, plus
    one, or _CHUNK if they do not decay.  The margin row spares most sums a
    1-3-row last block when the decay estimate falls just short of the stop."""
    rows = _CHUNK
    if len(terms) >= 2 and terms[-2]:
        last = abs(terms[-1])
        ratio, goal = last / abs(terms[-2]), rel_tol * abs(total) / last
        if 0.0 < ratio < 1.0 and goal > 0.0:
            rows = math.ceil(math.log(goal) / math.log(ratio) + 1.0)
    return min(_MAX_ROWS, rows)


def _block_terms(quantity, models, z, xi, block_eps, nodes, window):
    """Terms of ``quantity`` at the frequencies ``xi`` for models = (probe,
    high, low): one per row, ``nodes`` nodes on a window of ``window``.

    ``block_eps`` holds each model's eps(i xi) as in _reflections.  The node
    sum is numpy's own einsum loop, which gives each row the same bits in
    any block, where a BLAS product ``g @ weights`` does not.
    """
    shared, integrand, measure = _QUANTITIES[quantity]
    y_min, y, weights = _momentum_grid(xi, z, nodes, window)
    ymin2 = y_min * y_min
    (rtp, rep), (rth, reh), (rtl, rel) = [
        _reflections(m, e, y, ymin2, 2.0 * z) for m, e in zip(models, block_eps)
    ]
    f = shared(y)
    # grouped per polarization: identical sections cancel exactly
    g = integrand(rtp * rth, f) - integrand(rtp * rtl, f)
    h = integrand(rep * reh, f) - integrand(rep * rel, f)
    return np.einsum("ij,j->i", (g + h) * measure(y), weights).tolist()


def _zero_term(quantity, models, z, nodes):
    """Half the l = 0 term of ``quantity`` for models = (probe, high, low)
    at separation z: one row on its own rule, three times ``nodes`` on a
    window of Y_WINDOW.

    In the y-form its lower edge is 0 and its amplitudes are constants, so
    it is the same float at every z unless ``_zero_term_depends_on_z``.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("separation z must be positive and finite")
    t = 0.5 * _block_terms(quantity, models, z, np.zeros(1), (None,) * 3, 3 * nodes, Y_WINDOW)[0]
    if not math.isfinite(t):
        raise ValueError("Matsubara term l = 0 is not finite")
    return t


def _zero_term_depends_on_z(models) -> bool:
    """Whether the l = 0 term of any of ``models`` depends on z: only a dc
    conductor with the plasma TE rule and a plasma frequency, not a perfect
    conductor, has a xi = 0 amplitude that scales with s = 2z
    (see ``_zero_freq_reflections``)."""
    return any(m.has_dc_conductivity and m.te_zero == "plasma" and m.drude is not None
               and not m.perfect_conductor for m in models)


def _thermal_sum(quantity, models, z, grid, nodes, zero_terms, first_rows=_CHUNK):
    """Matsubara sums of ``quantity`` for a probe facing ``high`` minus facing
    ``low``, models = (probe, high, low), one per l = 0 half-term.

    ``zero_terms`` holds half the l = 0 term (``_zero_term``) of each
    low-frequency variant of the low section; the variants share their
    terms l >= 1, which are evaluated once.  Returns a list of the
    dimensionless sum and its :class:`SumDiagnostics`, one per half-term.
    A block's rows are sized to the sums it finishes: the first block
    covers ``first_rows`` (a curve passes the previous point's l >= 1 term
    count), later ones follow the decay of the last two terms; at most
    _MAX_ROWS each.  Each sum adds the block's terms one at a time in index
    order and stops by its own test, so it has the bits of a call with its
    half-term alone; the kernel stops after the block in which the last sum
    stopped.  Raises ``ValueError`` at the first non-finite term and
    :class:`TruncationError` at the term cap.
    """
    totals, results = list(zero_terms), [None] * len(zero_terms)
    start, rows = 1, min(_MAX_ROWS, first_rows)
    while start <= grid.l_max_cap:
        stop = min(start + rows, grid.l_max_cap + 1)
        block_eps = [_matsubara_eps(m, grid.T, stop - 1)[start - 1:stop - 1, None] for m in models]
        terms = _block_terms(quantity, models, z, _xi(np.arange(start, stop), grid.T), block_eps,
                             nodes, _ROW_WINDOW)
        rows = 0
        for k, total in enumerate(totals):
            if results[k] is not None:
                continue
            for l, t in enumerate(terms, start):
                if not math.isfinite(t):
                    raise ValueError(f"Matsubara term l = {l} is not finite")
                total += t
                if abs(t) <= grid.rel_tol * abs(total):
                    rel = abs(t) / abs(total) if total != 0.0 else 0.0
                    results[k] = total, SumDiagnostics(n_terms=l + 1, last_term_rel=rel,
                                                       converged=True)
                    break
            else:
                # still running: the next block is sized for the slowest sum
                totals[k] = total
                rows = max(rows, _next_rows(terms, total, grid.rel_tol))
        if None not in results:
            return results
        start = stop
    total, t = totals[results.index(None)], terms[-1]
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
    with_diagnostics: bool = False,
):
    """Free energy per unit area (J/m^2) of two half-spaces at separation z.

    Negative for attractive configurations.
    """
    models = (pair.side_a, pair.side_b, _vacuum())
    [(s, diag)] = _thermal_sum("energy", models, z, grid, DEFAULT_NODES,
                               [_zero_term("energy", models, z, DEFAULT_NODES)])
    value = KB * grid.T / (8.0 * math.pi * z * z) * s
    return (value, diag) if with_diagnostics else value


def sphere_plate_force(
    pair: HalfspacePair,
    z: float,
    grid: MatsubaraGrid,
    *,
    with_diagnostics: bool = False,
):
    """Sphere-plate force (N) via the proximity force approximation 2 pi R E(z)."""
    if pair.sphere_radius is None:
        raise ValueError("sphere_plate_force needs a sphere-plate pair")
    _check_sphere(pair.sphere_radius, z)
    value, diag = _difference(pair.side_a, pair.side_b, _vacuum(), pair.sphere_radius, grid,
                              None, DEFAULT_NODES, z)
    return (value, diag) if with_diagnostics else value


def plate_plate_pressure(
    pair: HalfspacePair,
    z: float,
    grid: MatsubaraGrid,
    *,
    with_diagnostics: bool = False,
):
    """Pressure (Pa) between two half-space plates; negative = attractive."""
    value, diag = _difference(pair.side_a, pair.side_b, _vacuum(), None, grid, None,
                              DEFAULT_NODES, z)
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
    with_diagnostics: bool = False,
):
    """One-pass difference force F_high(z) - F_low(z) on a sphere of radius R.

    ``low_freq_model`` forces the zero-frequency dc-conductivity treatment of
    ``mat_low``: ``"a"`` neglects it (finite static permittivity), ``"b"``
    keeps it; by default the material is used as built.  The two models
    differ only in the l = 0 term.
    """
    _check_sphere(R, z)
    value, diag = _difference(probe, mat_high, mat_low, R, grid, low_freq_model, DEFAULT_NODES, z)
    return (value, diag) if with_diagnostics else value


def difference_pressure(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    z: float,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    with_diagnostics: bool = False,
):
    """One-pass difference pressure P_high(z) - P_low(z) between plates.

    The arguments are those of :func:`difference_force`.
    """
    value, diag = _difference(probe, mat_high, mat_low, None, grid, low_freq_model,
                              DEFAULT_NODES, z)
    return (value, diag) if with_diagnostics else value


def _difference(probe, mat_high, mat_low, R, grid, low_freq_model, nodes, z):
    """(value, diagnostics) of the difference force on a sphere of radius R,
    or of the difference pressure for R = None, with ``nodes`` nodes per row
    l >= 1: the public functions pass DEFAULT_NODES, the quadrature tests
    other orders.  The caller has checked R."""
    lows = (_apply_low_freq_model(mat_low, low_freq_model),)
    return _point(probe, mat_high, lows, R, grid, nodes, None, z, _CHUNK)[0]


def _point(probe, high, lows, R, grid, nodes, zero_terms, z, first_rows):
    """[(value, diagnostics)] at separation z, one per section of ``lows``
    (low-frequency variants of one material): the difference force on a
    sphere of radius R, or the difference pressure for R = None.

    ``zero_terms`` holds the sections' l = 0 half-terms, or is None to
    compute them at z; ``first_rows`` as in _thermal_sum.
    """
    quantity = "pressure" if R is None else "energy"
    if zero_terms is None:
        zero_terms = [_zero_term(quantity, (probe, high, low), z, nodes) for low in lows]
    sums = _thermal_sum(quantity, (probe, high, lows[0]), z, grid, nodes, zero_terms, first_rows)
    scale = _scale(grid.T, z, R)
    return [(scale * s, diag) for s, diag in sums]


def _scale(T: float, z: float, R: float | None) -> float:
    """The sphere-plate force (N) per unit of the energy sum for a sphere of
    radius R, or the plate-plate pressure (Pa) per unit of the pressure sum for
    R = None: 2 pi R kB T/(8 pi z^2) and -kB T/(8 pi z^3)."""
    if R is None:
        return -KB * T / (8.0 * math.pi * z**3)
    return KB * T * R / (4.0 * z * z)


# --- separation sweeps ---------------------------------------------------


def _run(point, zs):
    """``point(z, first_rows) -> [(value, diagnostics)]`` at the increasing
    separations ``zs``: each point's first block covers the previous
    point's longest term count, since counts fall as z grows."""
    results, rows = [], _CHUNK
    for z in zs:
        result = point(z, rows)
        results.append(result)
        rows = max(diag.n_terms for _, diag in result) - 1
    return results


def _sweep(probe, high, low, R, zs, grid, low_freq_models, workers) -> list[Curve]:
    """Difference force curves on a sphere of radius R, or difference
    pressure curves for R = None, over the checked separations ``zs``: one
    per model of ``low_freq_models``, from one run of sums.

    The l = 0 half-terms are computed once, at zs[0], and passed to every
    point, a pool's runs included, unless a plasma TE amplitude makes them
    depend on z (``_zero_term_depends_on_z``); then each point computes its
    own.
    """
    _check_count("workers", workers)
    lows = tuple(_apply_low_freq_model(low, model) for model in low_freq_models)
    zero_terms = None
    if not _zero_term_depends_on_z((probe, high) + lows):
        quantity = "pressure" if R is None else "energy"
        zero_terms = tuple(_zero_term(quantity, (probe, high, section), zs[0], DEFAULT_NODES)
                           for section in lows)
    point = partial(_point, probe, high, lows, R, grid, DEFAULT_NODES, zero_terms)
    if workers > 1:
        # imported on demand: the pool's modules add about 2 MB to every
        # process, and most sweeps run serially
        from concurrent.futures import ProcessPoolExecutor

        # one contiguous run of separations per worker: a task unpickles
        # the materials, with their memos, once for its run.  There can be
        # fewer runs than workers, and the pool forks all its processes at
        # the first task, so it gets one per run.
        size = -(-len(zs) // workers)
        runs = [zs[k:k + size] for k in range(0, len(zs), size)]
        with ProcessPoolExecutor(max_workers=len(runs)) as pool:
            results = [result for run in pool.map(partial(_run, point), runs) for result in run]
    else:
        results = _run(point, zs)
    curves = []
    for k, low_freq_model in enumerate(low_freq_models):
        diags = [result[k][1] for result in results]
        metadata = {
            "probe": probe.label,
            "material_high": high.label,
            "material_low": low.label,
            "temperature_K": grid.T,
            "low_freq_model": low_freq_model,
            "rel_tol": grid.rel_tol,
            "nodes": DEFAULT_NODES,
            "l_terms_per_z": tuple(d.n_terms for d in diags),
            "tail_rel_per_z": tuple(d.last_term_rel for d in diags),
            "max_tail_rel": max(d.last_term_rel for d in diags),
            "sphere_radius_m": R,
        }
        curves.append(Curve(zs, tuple(result[k][0] for result in results), metadata))
    return curves


def difference_force_curve(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    R: float,
    separations,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    workers: int = 1,
) -> Curve:
    """Difference force over a separation grid.

    The separations are computed as runs of points in increasing z: one
    run, or with ``workers > 1`` one contiguous run per process of a pool.
    Within a run each point's first block covers the previous point's term
    count; block sizes move no number, and the per-point Matsubara sums run
    in fixed index order, so every value equals its pointwise one for any
    worker count.  The z/R warning is given once, for the largest
    separation, before any point runs, so a pool cannot lose it.  The other
    arguments are those of :func:`difference_force`.
    """
    zs = _separation_grid(separations)
    _check_sphere(R, zs[-1])
    return _sweep(probe, mat_high, mat_low, R, zs, grid, (low_freq_model,), workers)[0]


def difference_pressure_curve(
    probe: PermittivityModel,
    mat_high: PermittivityModel,
    mat_low: PermittivityModel,
    separations,
    grid: MatsubaraGrid,
    *,
    low_freq_model: str | None = None,
    workers: int = 1,
) -> Curve:
    """Difference pressure over a separation grid (see difference_force_curve)."""
    return _sweep(probe, mat_high, mat_low, None, _separation_grid(separations), grid,
                  (low_freq_model,), workers)[0]


def _model_curves(probe, high, low, R, separations, grid, low_freq_models,
                  workers) -> list[Curve]:
    """The curves of :func:`difference_force_curve` for a sphere of radius R,
    or of :func:`difference_pressure_curve` for R = None, one per model of
    ``low_freq_models``, from one run of sums: each equals its own curve bit
    for bit, and two cost about one."""
    zs = _separation_grid(separations)
    if R is not None:
        _check_sphere(R, zs[-1])
    return _sweep(probe, high, low, R, zs, grid, low_freq_models, workers)


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
        return _ZETA3
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
        _ZETA3
        - _PI2_6 * u
        + (1.5 - math.log(u)) * 0.5 * u2
        + u2 * u / 12.0
        - u2 * u2 / 288.0
        + u2 * u2 * u2 / 86400.0
    )


def _zero_freq_gap(r_probe: float, eps0: float, z: float, T: float, R: float | None) -> float:
    """Model-a minus model-b value of a probe over a plate of static permittivity eps0.

    Only the l = 0 term differs between the two low-frequency models: a plate
    with dc conductivity reflects TM with 1, without it with
    (eps0 - 1)/(eps0 + 1).  ``r_probe`` is the probe's zero-frequency TM
    amplitude (1 for a metal).  Returns the sphere-plate force for a sphere
    of radius ``R``, or the plate-plate pressure when ``R`` is None.

    The l = 0 integrals over y in [0, inf) are trilogarithms of the TM
    amplitude product A: that of y ln(1 - A e^{-y}) (energy) is -Li3(A), that
    of y^2 A e^{-y}/(1 - A e^{-y}) (pressure) is 2 Li3(A).
    """
    r_plate = _zero_freq_reflections(eps0, "zero", None, 0.0)[0]
    factor = 2.0 if R is None else -1.0
    # the half-weight l = 0 term of the sum, in the quantity's scale
    return _scale(T, z, R) * (0.5 * factor * (polylog3(r_probe) - polylog3(r_probe * r_plate)))


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
