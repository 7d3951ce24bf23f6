"""
Finite-temperature Lifshitz computations for two half-spaces.

The free energy per unit area of two parallel half-spaces at separation z is
a Matsubara sum over imaginary frequencies xi_l = 2 pi kB T l / hbar (the
l = 0 term carries half weight) of a transverse-momentum integral over the
two polarization log terms ln(1 - r_TM^a r_TM^b e^{-2 q z}) and the TE
analog; the pressure sums r^a r^b e^{-2 q z} / (1 - r^a r^b e^{-2 q z})
instead.  The sphere-plate force follows from the proximity force
approximation F = 2 pi R E(z).

Every quantity is computed by one kernel: a probe facing two plate
sections, evaluated in a single pass as the difference of the two pairs,
sharing the momentum grid and the probe reflection amplitudes between the
sections.  A single pair is the difference against a vacuum section, whose
amplitudes are exactly 0: its force and pressure are ``difference_force``
and ``difference_pressure`` with a vacuum low section, and
``free_energy_per_area`` takes its vacuum internally.  The kernel has three
parts, which ``_run`` drives:

* the row evaluator, ``_row_terms``: the terms of a block of rows, each
  row a Matsubara index l >= 1 with its own separation.  It cuts the block
  into at most one block per momentum band of the rows (see below), each
  evaluated by ``_block_terms`` as fresh (rows x node) arrays with z a
  (rows, 1) column beside xi.  Every step is elementwise or a per-row sum
  over the nodes, and a row's band follows from the row alone, so a row's
  value does not depend on the block it falls in or on the other rows
  there.  The half-weight l = 0 term is one row of its own at a float z
  (``_zero_term``);
* the accumulator, ``_Sum``, one per point and l = 0 half-term: it adds
  the point's terms one at a time in index order and stops once the latest
  term falls below ``rel_tol`` times the running total.  That test bounds
  the last term, not the truncation error, which can be several times
  larger (4.6 times for the VO2 difference force at 100 nm with
  rel_tol = 1e-12).  It owns the diagnostics and both errors;
* the row chooser, ``_next_block``: it fills each block, of at most as
  many rows as a 32-node block of _MAX_CELLS cells holds (320), with the
  rows the points of a run ask for.
  Every point asks by one rule, ``_next_rows``: first for the rows its
  own z predicts, then, while it runs, for more from the decay of its
  terms.  All first requests are served before any later one, and later
  ones nearest z first.

Every block takes eps(i xi) from each material's memo (see
``_matsubara_eps``), so a material is evaluated once per temperature, not
once per sum or curve.

One loop, ``_run``, takes separations to the kernel, and ``_sums`` sets it
up for the force and the pressure: a sum at one separation is a run of one
point, and a curve is one run of points in increasing z, or one per process
of a pool.  ``free_energy_per_area`` is a run of one point with its own
scale.  The blocks a run shares between its points move no number, so every
value equals its pointwise one.  ``nodes`` names the Gauss-Legendre order of
the rows with 0.01 <= y_min < 1, from which the other bands and the l = 0
row take theirs; it is DEFAULT_NODES everywhere but the quadrature tests.

A run also computes once what its points repeat.  The l = 0 term is the
same float at every separation, so ``_run`` evaluates it at its first point
and keeps it, unless a plasma TE amplitude at xi = 0 makes it depend on z
(``_zero_term_depends_on_z``); then each point evaluates its own.
The two low-frequency models differ only in the l = 0 term, so the
kernel takes one half-term per model and keeps one accumulator for each
over a single set of rows l >= 1: ``compare``'s two
curves cost about one, and each equals its own curve bit for bit.

The momentum integral is evaluated after the substitution y = 2 q z, which
maps it onto a fixed window above y_l with an exponentially decaying
integrand, handled by fixed-order Gauss-Legendre quadrature in
u = sqrt(y - y_l).  A row l >= 1 takes its order from its own lower edge
y_min = 2 z xi_l/c, on a window of 40: 160 nodes below 0.01, 80
(DEFAULT_NODES) from 0.01 to 1 and 32 from 1 up (``_band_orders``).  The
l = 0 term, whose y ln y endpoint converges more slowly, takes three times
DEFAULT_NODES on a window of 62.  The orders are fixed, and the values lie
within 1e-13 of the bands of a 480-node rule from 4 K to 340 K.  The rules
are built by Newton's method, with no eigenproblem, at their first use, and
cached.  The Fresnel amplitudes are formed in the same scaled lengths (see
``_fresnel``), so no k_perp appears, and a block computes its factor
e^{-y} (or expm1(y) for the pressure) once for all four amplitude products.
At zero frequency the integral reduces to trilogarithms, which gives the
closed-form gap between the two low-frequency conductivity models.
"""

from __future__ import annotations

import heapq
import math
import os
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
    "Curve",
    "SumDiagnostics",
    "TruncationError",
    "matsubara_frequency",
    "reflection_coefficients",
    "free_energy_per_area",
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

# Gauss-Legendre order of the rows l >= 1 with 0.01 <= y_min < 1, the middle
# of the three momentum bands (see ``_band_orders``).  The l = 0 term takes
# three times as many: its y ln y endpoint converges as about n^-8, and
# twice as many left 1.2e-13 of the force at 3 um and 300 K.
DEFAULT_NODES = 80

# Lower edges y_min = 2 z xi_l/c of the upper two momentum bands of a row
# l >= 1 (see ``_band_orders``).
_BAND_EDGES = (0.01, 1.0)

# PFA error is bounded by z/R; warn beyond this ratio.
PFA_RATIO_LIMIT = 0.01

# Matsubara indices l >= 1 a material's memo grows by at a time, and the
# most rows a point asks for before it has any terms.
_CHUNK = 32

# Most cells (rows x nodes) of a block of rows l >= 1, evaluated together as
# (rows x nodes) arrays: a bound on a block's memory.  The row chooser fills
# blocks of up to _MAX_CELLS // 32 = 320 rows, as many as a block of the
# 32-node band holds, and the row evaluator cuts them by momentum band into
# blocks of at most 64 rows at 160 nodes, 128 at 80 and 320 at 32.  A
# block keeps about 12 such arrays alive at once, 82 KB each at _MAX_CELLS
# cells: about 1 MB, half of glibc's 2 MB heap trim threshold (see
# ``_nodes``).  Near the threshold the heap is trimmed after each block and
# faulted back in: at 256 rows of 80 nodes, 41-point curves in a process
# holding other arrays took thousands of minor faults each and 1.45 times
# as long, and at 320 rows of 80 they did so alone.  Of 96 to 256 rows of
# 80 nodes, 128 also cost least per row.
_MAX_CELLS = 128 * DEFAULT_NODES


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


def _static_tm(eps0: float) -> float:
    """r_TM at xi = 0 from the static permittivity: (eps0 - 1)/(eps0 + 1),
    and 1 for the dc-conductor marker ``eps0 = math.inf``."""
    return 1.0 if math.isinf(eps0) else (eps0 - 1.0) / (eps0 + 1.0)


def _plasma_omega_p(model: PermittivityModel) -> float | None:
    """The plasma frequency that scales the xi = 0 TE amplitude of ``model``,
    or None where that amplitude is a constant: only a dc conductor with the
    plasma TE rule and free-carrier parameters, not a perfect conductor, has
    one."""
    if model.te_zero == "plasma" and model.has_dc_conductivity and not model.perfect_conductor:
        return None if model.drude is None else model.drude.omega_p
    return None


def reflection_coefficients(eps: float, xi: float, k_perp: float) -> ReflectionPair:
    """TM/TE reflection amplitudes at imaginary frequency xi.

    For xi > 0 and finite eps >= 1:

        q = sqrt(k_perp^2 + xi^2/c^2),  k = sqrt(k_perp^2 + eps xi^2/c^2),
        r_TM = (eps q - k)/(eps q + k),  r_TE = (k - q)/(k + q).

    ``eps = math.inf`` is the marker for a diverging (dc conducting)
    permittivity: r_TM = 1 at any frequency, and r_TE = 1 at xi > 0.  At
    xi = 0 a finite eps gives r_TM = (eps - 1)/(eps + 1), and r_TE = 0 for
    any eps.  A material's own xi = 0 TE rule, such as the plasma one, is its
    ``te_zero`` (see :func:`with_te_zero`), which the sums apply.  The
    amplitudes are those of the kernel's block arithmetic, bit for bit.
    """
    if not 0.0 <= k_perp < math.inf:
        raise ValueError("k_perp must be non-negative and finite")
    if not 0.0 <= xi < math.inf:
        raise ValueError("xi must be non-negative and finite")
    if xi == 0.0 and k_perp == 0.0:
        raise ValueError("xi and k_perp cannot both vanish (undefined direction)")
    if not eps >= 1.0:
        raise ValueError("eps must be >= 1 or the 'infinite' marker math.inf")
    if xi == 0.0:
        r = _static_tm(eps), 0.0
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
        # r_TE of the plasma TE rule: (kappa - y)/(kappa + y) = p^2/(kappa + y)^2
        # with p = s omega_p/c and kappa^2 = y^2 + p^2, and 1 for a perfect
        # conductor; 0 for the zero rule and for a dc flag without free carriers
        omega_p = _plasma_omega_p(model)
        if omega_p is None:
            return (_static_tm(model.static_permittivity()),
                    float(model.perfect_conductor and model.te_zero == "plasma"))
        p2 = np.square(s * omega_p / C)
        return 1.0, p2 / np.square(np.sqrt(y * y + p2) + y)
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
    # (about 1 MB at a time at _MAX_CELLS cells, 128 rows of 80 nodes or 320
    # of 32) stay on a resident heap instead of being trimmed after each
    # block and faulted back in: a warm 41-point 300 K curve in a fresh
    # process went from 1000-1550 minor faults to 0.1.
    # Another C library just allocates and frees it.
    np.empty(1 << 17)
    x, w = _gauss_legendre(n)
    half = 0.5 * math.sqrt(window)
    u = (x + 1.0) * half
    u2, weights = u * u, w * half * 2.0 * u
    u2.setflags(write=False)
    weights.setflags(write=False)
    return u2, weights


def _momentum_grid(xi, z, nodes: int, window: float):
    """Quadrature grid in y = 2 q z over [y_min, y_min + window]: ``(y_min, y, weights)``.

    y_min = 2 z xi/c has shape (1,) for a float xi and z, and (len(xi), 1)
    for an array of frequencies, with z a float or a (len(xi), 1) column of
    each row's separation; y has shape (nodes,) or (len(xi), nodes), and the
    weights, shape (nodes,), are shared.  Each element of y_min is the same
    IEEE expression, so a row has the same bits whatever rows it is with.
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
    """The low section of ``free_energy_per_area``; built per call, so that
    no module-level model holds a memo."""
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


def _next_rows(terms, total: float, rel_tol: float, tau: float) -> int:
    """Rows a sum asks for next.  Its terms fall about as e^{-l tau}, where
    tau = 2 z xi_1/c is the y_min of its row l = 1.  With no ``terms`` yet
    it asks for the rows that decay takes to rel_tol, at most _CHUNK; after
    that, for the rows its stopping test needs at e^{-tau} a row or at the
    ratio of its last two ``terms``, whichever predicts fewer, plus one.
    The margin row spares most sums a 1-3-row last block.  A goal that is
    not positive (a total of exactly 0) asks for _CHUNK."""
    if not terms:
        return math.ceil(min(_CHUNK, math.log(1.0 / rel_tol) / tau))
    last = abs(terms[-1])
    goal = rel_tol * abs(total) / last
    if not goal > 0.0:
        return _CHUNK
    if len(terms) >= 2 and terms[-2]:
        ratio = last / abs(terms[-2])
        if 0.0 < ratio < 1.0:
            tau = max(tau, -math.log(ratio))
    return math.ceil(-math.log(goal) / tau + 1.0)


def _block_terms(quantity, models, z, xi, block_eps, nodes, window):
    """Terms of ``quantity`` at the frequencies ``xi`` for models = (probe,
    high, low): an array of one per row, ``nodes`` nodes on a window of
    ``window``.

    ``z`` is each row's separation, a (rows, 1) column, or a float for the
    l = 0 row; ``block_eps`` holds each model's eps(i xi) as in
    _reflections.  The node sum is numpy's own einsum loop, which gives each
    row the same bits in any block, where a BLAS product ``g @ weights``
    does not.
    """
    shared, integrand, measure = _QUANTITIES[quantity]
    y_min, y, weights = _momentum_grid(xi, z, nodes, window)
    ymin2, s = y_min * y_min, 2.0 * z
    (rtp, rep), (rth, reh), (rtl, rel) = [
        _reflections(m, e, y, ymin2, s) for m, e in zip(models, block_eps)
    ]
    f = shared(y)
    # grouped per polarization: identical sections cancel exactly
    g = integrand(rtp * rth, f) - integrand(rtp * rtl, f)
    h = integrand(rep * reh, f) - integrand(rep * rel, f)
    return np.einsum("ij,j->i", (g + h) * measure(y), weights)


def _band_orders(nodes: int) -> tuple[int, int, int]:
    """Gauss-Legendre orders of the three momentum bands of a row l >= 1, by
    its lower edge y_min: 2 ``nodes`` below 0.01, ``nodes`` from 0.01 to 1
    and max(32, 2 ``nodes`` // 5) from 1 up; 160, 80 and 32 at DEFAULT_NODES.

    Below 0.01 the amplitudes change on the scale y_min sqrt(eps), far
    inside the window: 80 nodes left 1.7e-13 of an ideal-metal energy row
    at 1 K, and 1.2e-13 of the si pressure at 4 K and 100 nm.  From 1 up the
    integrand is smooth on the window, and at 32 nodes the rows of a 77 K
    sum lay within 5e-15 of the sum at 480.  The floor of 32 holds for any
    ``nodes``."""
    return 2 * nodes, nodes, max(32, 2 * nodes // 5)


def _row_terms(quantity, models, z, xi, block_eps, nodes):
    """The row evaluator: the terms of a block of rows l >= 1, a list of one
    per row, each row on the rule of its momentum band (``_band_orders``)
    over a window of _ROW_WINDOW.  The arguments are those of
    ``_block_terms``, with ``z`` a (rows, 1) column.

    The rows of a band are evaluated together, in sub-blocks of at most
    _MAX_CELLS cells, so a row's value depends on the row alone: its band
    follows from its y_min, computed as in ``_momentum_grid``.
    """
    band = np.searchsorted(_BAND_EDGES, (2.0 * z * xi[:, None] / C)[:, 0], side="right")
    terms = np.empty(len(xi))
    for k, order in enumerate(_band_orders(nodes)):
        rows = np.flatnonzero(band == k)
        size = max(1, _MAX_CELLS // order)
        for at in (rows[i:i + size] for i in range(0, len(rows), size)):
            terms[at] = _block_terms(quantity, models, z[at], xi[at], [e[at] for e in block_eps],
                                     order, _ROW_WINDOW)
    return terms.tolist()


def _zero_term(quantity, models, z, nodes):
    """Half the l = 0 term of ``quantity`` for models = (probe, high, low)
    at separation z: one row on its own rule, three times ``nodes`` on a
    window of Y_WINDOW.

    In the y-form its lower edge is 0 and its amplitudes are constants, so
    it is the same float at every z unless ``_zero_term_depends_on_z``.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("separation z must be positive and finite")
    t = 0.5 * float(_block_terms(quantity, models, z, np.zeros(1), (None,) * 3, 3 * nodes,
                                 Y_WINDOW)[0])
    if not math.isfinite(t):
        raise ValueError("Matsubara term l = 0 is not finite")
    return t


def _zero_term_depends_on_z(models) -> bool:
    """Whether the l = 0 term of any of ``models`` depends on z: only a
    plasma TE amplitude at xi = 0 scales with s = 2z (see ``_plasma_omega_p``)."""
    return any(_plasma_omega_p(m) is not None for m in models)


class _Sum:
    """The accumulator of one Matsubara sum: a point of a run under one
    l = 0 half-term.  It takes the point's terms l >= 1 in index order and
    owns the stopping test, the diagnostics and the errors."""

    __slots__ = ("total", "result")

    def __init__(self, zero_term: float):
        self.total, self.result = zero_term, None

    def add(self, terms, start: int, rel_tol: float) -> bool:
        """Adds ``terms``, the indices ``start``, ``start`` + 1, ..., one at a
        time until a term falls below ``rel_tol`` times the running total,
        and returns whether one did.  Raises ``ValueError`` at a non-finite
        term."""
        total = self.total
        for l, t in enumerate(terms, start):
            if not math.isfinite(t):
                raise ValueError(f"Matsubara term l = {l} is not finite")
            total += t
            if abs(t) <= rel_tol * abs(total):
                rel = abs(t) / abs(total) if total != 0.0 else 0.0
                self.result = total, SumDiagnostics(n_terms=l + 1, last_term_rel=rel,
                                                    converged=True)
                return True
        self.total = total
        return False

    def truncated(self, last: float, grid: MatsubaraGrid, z: float) -> TruncationError:
        """The error of a sum still running after the term l_max_cap, ``last``."""
        rel = abs(last) / abs(self.total) if self.total != 0.0 else math.inf
        diag = SumDiagnostics(n_terms=grid.l_max_cap + 1, last_term_rel=rel, converged=False)
        return TruncationError(
            f"not converged at T = {grid.T:g} K, z = {z * 1e9:g} nm: this temperature needs "
            f"more Matsubara terms than l_max_cap = {grid.l_max_cap} (terms={diag.n_terms}, "
            f"tail_rel={rel:.3e}, rel_tol={grid.rel_tol:.1e})",
            diag,
        )


class _Point:
    """A separation of a run: its sums, one per l = 0 half-term, and its
    rows l >= 1, those evaluated and those asked for."""

    __slots__ = ("index", "z", "tau", "sums", "running", "next", "wanted", "tail")

    def __init__(self, index: int, z: float, zero_terms, xi_1: float):
        self.index, self.z, self.tau = index, z, 2.0 * z * xi_1 / C
        self.sums = [_Sum(t) for t in zero_terms]
        self.running = self.sums
        # the next index to evaluate, the rows asked for from it on, and
        # the last two terms evaluated
        self.next, self.wanted, self.tail = 1, 0, []

    def add(self, terms, start: int, rel_tol: float) -> bool:
        """Gives the terms l = start, start + 1, ... to each running sum;
        returns whether one still runs."""
        self.running = [s for s in self.running if not s.add(terms, start, rel_tol)]
        self.tail = (self.tail + terms[-2:])[-2:]
        return bool(self.running)

    def ask(self, rel_tol: float, max_rows: int):
        """Asks for the most rows ``_next_rows`` predicts for a running sum,
        at most ``max_rows``, and returns the point's queue entry: every
        point's first request sorts before any later one, and then nearer
        points before farther ones."""
        self.wanted = min(max_rows, max(_next_rows(self.tail, s.total, rel_tol, self.tau)
                                        for s in self.running))
        return self.next > 1, self.index, self


def _next_block(queue, max_rows: int, cap: int, live: int):
    """The row chooser: the next block's rows, [(point, start, stop)], up to
    ``max_rows`` of those asked for by the points first in ``queue``, a heap
    of the entries of ``_Point.ask``.

    A point's rows run on from its next index, and at most to l_max_cap =
    ``cap``.  A point leaves the queue once all its asked rows are taken, or
    when it is found stopped or dropped (its index is ``live`` or more).
    """
    segments, room = [], max_rows
    while queue and room:
        point = queue[0][-1]
        if point.index >= live or not point.running:
            heapq.heappop(queue)
            continue
        take = min(point.wanted, room, cap + 1 - point.next)
        segments.append((point, point.next, point.next + take))
        point.next += take
        point.wanted -= take
        room -= take
        if not point.wanted or point.next > cap:
            heapq.heappop(queue)
    return segments


# --- core quantities -----------------------------------------------------


def _checked_lows(R: float | None, z: float, low: PermittivityModel, low_freq_models,
                  workers: int = 1) -> tuple[PermittivityModel, ...]:
    """``low`` under each of ``low_freq_models``: None uses it as built, "a"
    neglects its dc conductivity (finite static permittivity), "b" keeps it.

    Rejects a bad radius, separation (a curve's largest), low-frequency model
    or worker count, builds the sections, then warns, at the public
    function's caller, beyond z/R = PFA_RATIO_LIMIT: a call that fails does
    not warn first.  R = None, the plates of a pressure, has neither a
    radius nor the warning.
    """
    if R is not None and not 0.0 < R < math.inf:
        raise ValueError("sphere radius must be positive and finite")
    if not 0.0 < z < math.inf:
        raise ValueError("separation z must be positive and finite")
    if any(model not in (None, "a", "b") for model in low_freq_models):
        raise ValueError("low_freq_model must be None, 'a' or 'b'")
    lows = tuple(low if model is None else with_dc_conductivity(low, model == "b")
                 for model in low_freq_models)
    _check_count("workers", workers)
    if R is not None and z / R > PFA_RATIO_LIMIT:
        warnings.warn(
            f"z/R = {z / R:.3g} exceeds {PFA_RATIO_LIMIT}; the proximity force "
            "approximation error grows like z/R",
            stacklevel=3,
        )
    return lows


def free_energy_per_area(
    side_a: PermittivityModel,
    side_b: PermittivityModel,
    z: float,
    grid: MatsubaraGrid,
    *,
    with_diagnostics: bool = False,
):
    """Free energy per unit area (J/m^2) of half-spaces ``side_a`` and
    ``side_b`` at separation z.

    Negative for attractive configurations.  The sphere-plate force and the
    plate-plate pressure of a single pair are :func:`difference_force` and
    :func:`difference_pressure` against a vacuum low section.
    """
    [[(value, diag)]] = _run("energy", lambda x: KB * grid.T / (8.0 * math.pi * x * x),
                             side_a, side_b, (_vacuum(),), grid, DEFAULT_NODES, (z,))
    return (value, diag) if with_diagnostics else value


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
    lows = _checked_lows(R, z, mat_low, (low_freq_model,))
    [[(value, diag)]] = _sums(probe, mat_high, lows, R, (z,), grid)
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
    lows = _checked_lows(None, z, mat_low, (low_freq_model,))
    [[(value, diag)]] = _sums(probe, mat_high, lows, None, (z,), grid)
    return (value, diag) if with_diagnostics else value


def _scale(T: float, R: float | None, z: float) -> float:
    """The sphere-plate force (N) per unit of the energy sum for a sphere of
    radius R, or the plate-plate pressure (Pa) per unit of the pressure sum for
    R = None: 2 pi R kB T/(8 pi z^2) and -kB T/(8 pi z^3)."""
    if R is None:
        return -KB * T / (8.0 * math.pi * z**3)
    return KB * T * R / (4.0 * z * z)


def _checked_scale(scale, z: float) -> float:
    """``scale(z)``, or a ``ValueError`` naming z where it is not a finite,
    nonzero float: below about 1e-162 m (force, energy) or 1e-108 m
    (pressure) the power of z in its denominator underflows to 0, and above
    about 1e154 m or 1e102 m it overflows."""
    try:
        value = scale(z)
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value != 0.0):
        raise ValueError(f"separation z = {z:g} m is out of range: the factor that scales its "
                         "Matsubara sum is not a finite nonzero float")
    return value


# --- runs of separations -------------------------------------------------


def _sums(probe, high, lows, R, zs, grid, workers=1, nodes=DEFAULT_NODES):
    """[(value, diagnostics) per section of ``lows``] at each of the checked,
    increasing separations ``zs``: the difference force on a sphere of
    radius R, or the difference pressure for R = None.  A single sum is a
    run of one point.

    ``lows`` are low-frequency variants of one material (``_checked_lows``);
    they share their rows l >= 1.  ``nodes`` is the order of the rows with
    0.01 <= y_min < 1, and the other bands (``_band_orders``) and the l = 0
    term, at three times ``nodes``, follow from it: the public functions and
    the CLI take DEFAULT_NODES, the quadrature tests' reference rule other
    orders.
    The separations form one ``_run``, or with ``workers > 1`` contiguous
    runs, one per process of a pool.  The runs are at most ``os.cpu_count()``
    (1 if unknown), so a one-CPU host runs serially.
    """
    quantity = "pressure" if R is None else "energy"
    run = partial(_run, quantity, partial(_scale, grid.T, R), probe, high, lows, grid, nodes)
    if workers > 1:
        # asked only here: a serial sum reads no CPU count
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        return run(zs)
    # imported on demand: the pool's modules add about 2 MB to every
    # process, and most sweeps run serially
    from concurrent.futures import ProcessPoolExecutor

    # one contiguous run of separations per worker: a task unpickles the
    # materials, with their memos, once for its run.  There can be fewer
    # runs than workers, and the pool forks all its processes at the first
    # task, so it gets one per run.
    size = -(-len(zs) // workers)
    runs = [zs[k:k + size] for k in range(0, len(zs), size)]
    with ProcessPoolExecutor(max_workers=len(runs)) as pool:
        return [result for results in pool.map(run, runs) for result in results]


def _run(quantity, scale, probe, high, lows, grid, nodes, zs):
    """The one loop from separations to the kernel: [(value, diagnostics)
    per section of ``lows``] at the increasing separations ``zs``, each value
    ``scale(z)`` times its sum of ``quantity``; the other arguments are
    those of ``_sums``.  ``nodes`` names the order of the rows with
    0.01 <= y_min < 1: the row evaluator ``_row_terms`` gives each row l >= 1
    the order of its momentum band, and the l = 0 row takes 3 ``nodes``.

    The l = 0 half-terms are computed at the first point and kept for the
    others, since they are the same float at every z, unless a plasma TE
    amplitude makes them depend on z (``_zero_term_depends_on_z``); then
    each point computes its own.  The rows l >= 1 of all points share
    blocks of at most _MAX_CELLS // (least band order) rows, 320 at
    DEFAULT_NODES, each row with its own z beside its xi, which the row
    evaluator cuts by band into blocks of at most _MAX_CELLS cells.  Every
    point asks at once for the rows ``_next_rows`` predicts from its z, and
    a point still running after the rows it asked for asks for more from
    its terms.  The queue is a heap:
    every first request is served before any later one, and the later ones
    nearest z first, so a failing first point reaches l_max_cap before the
    others run on.  Each sum adds its point's terms in index order, so block
    sizes move no number, and every value and term count equals its
    pointwise one.

    A separation whose ``scale`` is not a finite nonzero float
    (``_checked_scale``) fails before any row is evaluated.  A sum fails at
    its first non-finite term l >= 1 or at l_max_cap.  The points after its
    point are dropped, and its error is raised once the points before it
    have stopped: a run raises the error of its first failing point, as a
    loop over its points in order would.  The l = 0 half-terms are all
    computed first, and raise at once.
    """
    scales = [_checked_scale(scale, z) for z in zs]
    models, T, rel_tol, cap = (probe, high, lows[0]), grid.T, grid.rel_tol, grid.l_max_cap
    max_rows = max(1, _MAX_CELLS // min(_band_orders(nodes)))
    per_point = _zero_term_depends_on_z((probe, high) + lows)
    points, zero_terms = [], None
    for index, z in enumerate(zs):
        if zero_terms is None or per_point:
            zero_terms = [_zero_term(quantity, (probe, high, low), z, nodes) for low in lows]
        points.append(_Point(index, z, zero_terms, _xi(1, T)))
    # every point asks at once: its entries, in index order, form a heap
    queue = [point.ask(rel_tol, max_rows) for point in points]
    # the points from index ``live`` on are dropped: one before them failed
    live, error = len(points), None
    while segments := _next_block(queue, max_rows, cap, live):
        ls = np.concatenate([np.arange(a, b) for _, a, b in segments])
        z = np.array([point.z for point, _, _ in segments]).repeat(
            [b - a for _, a, b in segments])[:, None]
        top, at = max(b for _, _, b in segments) - 1, ls - 1
        block_eps = [_matsubara_eps(m, T, top)[at][:, None] for m in models]
        terms = _row_terms(quantity, models, z, _xi(ls, T), block_eps, nodes)
        k = 0
        for point, a, b in segments:
            block, k = terms[k:k + b - a], k + b - a
            if point.index >= live:
                continue
            try:
                if not point.add(block, a, rel_tol):
                    continue
            except ValueError as err:
                live, error = point.index, err
                continue
            if point.next > cap:
                live, error = point.index, point.running[0].truncated(block[-1], grid, point.z)
            elif not point.wanted:
                heapq.heappush(queue, point.ask(rel_tol, max_rows))
    if error is not None:
        raise error
    return [[(scales[point.index] * s.result[0], s.result[1]) for s in point.sums]
            for point in points]


def _sweep(probe, high, lows, R, zs, grid, low_freq_models, workers) -> list[Curve]:
    """The curves of ``_sums`` over the checked separations ``zs``, one per
    section of ``lows``, the low section under each of ``low_freq_models``."""
    results = _sums(probe, high, lows, R, zs, grid, workers)
    curves = []
    for k, (low, low_freq_model) in enumerate(zip(lows, low_freq_models)):
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
    Within a run the points share their Matsubara blocks; blocks move no
    number, and each point's sums run in fixed index order, so every value
    equals its pointwise one for any worker count.  The z/R warning is given once, for the largest
    separation, before any point runs, so a pool cannot lose it.  The other
    arguments are those of :func:`difference_force`.
    """
    zs = _separation_grid(separations)
    lows = _checked_lows(R, zs[-1], mat_low, (low_freq_model,), workers)
    return _sweep(probe, mat_high, lows, R, zs, grid, (low_freq_model,), workers)[0]


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
    return _model_curves(probe, mat_high, mat_low, None, separations, grid, (low_freq_model,),
                         workers)[0]


def _model_curves(probe, high, low, R, separations, grid, low_freq_models,
                  workers) -> list[Curve]:
    """The curves of :func:`difference_force_curve` for a sphere of radius R,
    or of :func:`difference_pressure_curve` for R = None, one per model of
    ``low_freq_models``, from one run of sums: each equals its own curve bit
    for bit, and two cost about one."""
    zs = _separation_grid(separations)
    lows = _checked_lows(R, zs[-1], low, low_freq_models, workers)
    return _sweep(probe, high, lows, R, zs, grid, low_freq_models, workers)


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


def _zero_freq_gap(eps_probe: float, eps0: float, z: float, T: float, R: float | None) -> float:
    """Model-a minus model-b value of a probe of static permittivity
    ``eps_probe`` (``math.inf`` for a metal) over a plate of static
    permittivity eps0.

    Only the l = 0 term differs between the two low-frequency models: a plate
    with dc conductivity reflects TM with 1, without it with
    (eps0 - 1)/(eps0 + 1); both TM amplitudes are those of ``_static_tm``.
    Returns the sphere-plate force for a sphere of radius ``R``, or the
    plate-plate pressure when ``R`` is None.

    The l = 0 integrals over y in [0, inf) are trilogarithms of the TM
    amplitude product A: that of y ln(1 - A e^{-y}) (energy) is -Li3(A), that
    of y^2 A e^{-y}/(1 - A e^{-y}) (pressure) is 2 Li3(A).
    """
    r_probe, r_plate = _static_tm(eps_probe), _static_tm(eps0)
    factor = 2.0 if R is None else -1.0
    # the half-weight l = 0 term of the sum, in the quantity's scale
    return _scale(T, R, z) * (0.5 * factor * (polylog3(r_probe) - polylog3(r_probe * r_plate)))


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
    return _zero_freq_gap(math.inf, eps0, z, T, R)


def zero_freq_gap_pressure(z: float, T: float, eps0: float) -> float:
    """Closed-form pressure gap, -(kB T)/(8 pi z^3) * (zeta(3) - Li3[...])."""
    if not all(0.0 < v < math.inf for v in (z, T)):
        raise ValueError("z, T must be positive and finite")
    if not eps0 > 1.0:
        raise ValueError("eps0 must exceed 1")
    return _zero_freq_gap(math.inf, eps0, z, T, None)
