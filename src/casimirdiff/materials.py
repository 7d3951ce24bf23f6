"""
Dielectric permittivity models evaluated along the imaginary frequency axis.

Every force and pressure computation in this package consumes a single
abstraction, :class:`PermittivityModel`, which evaluates eps(i*xi) for
xi > 0, and gives eps(0) by ``static_permittivity``, from some combination of

* Lorentz oscillators  ``s / (1 + xi^2/w^2 + Gamma*xi/w)``,
* a high-frequency electronic-transition tail ``(eps_inf - 1)/(1 + xi^2/w_inf^2)``,
* a free-carrier (Drude) term ``w_p^2 / (xi*(xi + gamma))``,
* a Kramers-Kronig transform of tabulated Im eps(omega) data.

A small catalog covers the materials used by the difference-force
computations: a Drude gold probe, dielectric and phosphorus-doped silicon,
and vanadium dioxide in its insulating and metallic phases (a half-space;
the substrate of the experimental film is not modelled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .constants import ev_to_rad_s

__all__ = [
    "DrudeParams",
    "OscillatorParams",
    "HighFreqTail",
    "OpticalDataTable",
    "PermittivityModel",
    "build_material",
    "catalog_names",
    "with_dc_conductivity",
    "with_te_zero",
    "kk_to_imaginary_axis",
    "load_optical_table",
]


@dataclass(frozen=True)
class DrudeParams:
    """Free-carrier parameters: plasma frequency and relaxation rate, rad/s."""

    omega_p: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_p < math.inf:
            raise ValueError("plasma frequency omega_p must be positive and finite")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("relaxation parameter gamma must be non-negative and finite")


@dataclass(frozen=True)
class OscillatorParams:
    """One Lorentz oscillator.

    Parameters
    ----------
    omega : float
        Resonance angular frequency, rad/s.
    Gamma : float
        Dimensionless relaxation parameter.
    strength : float
        Dimensionless oscillator strength.
    """

    omega: float
    Gamma: float
    strength: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega < math.inf:
            raise ValueError("oscillator frequency omega must be positive and finite")
        if not 0.0 <= self.Gamma < math.inf:
            raise ValueError("oscillator relaxation Gamma must be non-negative and finite")
        if not 0.0 < self.strength < math.inf:
            raise ValueError("oscillator strength must be positive and finite")


@dataclass(frozen=True)
class HighFreqTail:
    """Static weight and cutoff of the high-frequency electronic transitions."""

    eps_inf: float
    omega_inf: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.eps_inf < math.inf:
            raise ValueError("eps_inf must be >= 1 and finite")
        if not 0.0 < self.omega_inf < math.inf:
            raise ValueError("omega_inf must be positive and finite")


@dataclass(frozen=True)
class OpticalDataTable:
    """Tabulated Im eps(omega) on a strictly increasing frequency grid (rad/s)."""

    omega: tuple[float, ...]
    im_eps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.omega) < 2:
            raise ValueError("optical data table needs at least 2 rows")
        if len(self.omega) != len(self.im_eps):
            raise ValueError("omega and im_eps columns differ in length")
        if not all(0.0 < w < math.inf for w in self.omega):
            raise ValueError("frequencies omega must be positive and finite")
        if any(b <= a for a, b in zip(self.omega, self.omega[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if not all(0.0 <= v < math.inf for v in self.im_eps):
            raise ValueError("im_eps must be non-negative and finite")

    @cached_property
    def _kk_weights(self):
        """omega^2 and trapezoid-weighted omega Im eps(omega) of the grid."""
        w = np.asarray(self.omega, dtype=float)
        half_steps = 0.5 * np.diff(w)
        trapezoid = np.zeros_like(w)
        trapezoid[:-1] += half_steps
        trapezoid[1:] += half_steps
        return w * w, trapezoid * w * np.asarray(self.im_eps, dtype=float)

    @cached_property
    def _kk_static(self) -> float:
        """xi -> 0 limit of the dispersion relation (finite for Im eps >= 0 data)."""
        core = float(_kk_sum(*self._kk_weights, np.zeros(1))[0])
        # constant extension below w[0] would add g0*log(w0/0): cut it at the
        # grid instead, matching the xi->0 limit of the low-frequency term only
        # for Im eps(0) = 0 spectra; tables with nonzero Im eps at the first row
        # describe conductors and should carry an explicit dc flag.
        high = self.im_eps[-1] / 3.0
        return 1.0 + (2.0 / math.pi) * (core + high)


@dataclass(frozen=True)
class PermittivityModel:
    """Permittivity along the imaginary frequency axis.

    ``eval(xi)`` returns ``1 + oscillator terms + tail term + Drude term``
    (plus the Kramers-Kronig transform of ``table`` minus one, if present).

    ``dc_conductor`` controls only the zero-frequency behaviour: ``None``
    infers it from the presence of a Drude term, an explicit ``True`` or
    ``False`` overrides that.  It is the switch between the two low-frequency
    descriptions of a poorly conducting plate: with dc conductivity the
    static permittivity diverges and the zero-frequency TM reflection is 1;
    without it the finite ``eps(0)`` of the bound-charge response is used.
    Evaluation at xi > 0 is unaffected by the flag.

    ``te_zero`` selects the zero-frequency TE reflection prescription for
    materials whose static permittivity diverges: ``"zero"`` (default) or
    ``"plasma"`` (the gamma -> 0 idealization of the free-carrier response).

    A model remembers eps(i xi_l) at the Matsubara frequencies l = 1..n of
    the latest temperature it was summed at (filled by ``lifshitz``), so
    repeated sums at one temperature evaluate it once.  The memo is one
    entry, as many doubles as the longest spectrum a sum at that temperature
    needed, extended when a sum needs more and replaced when the temperature
    changes.  The copies made by :func:`with_dc_conductivity` and
    :func:`with_te_zero` share it, and a pickled model carries it along.
    """

    label: str
    oscillators: tuple[OscillatorParams, ...] = ()
    tail: HighFreqTail | None = None
    drude: DrudeParams | None = None
    table: OpticalDataTable | None = None
    dc_conductor: bool | None = None
    te_zero: str = "zero"
    perfect_conductor: bool = False

    def __post_init__(self) -> None:
        if self.te_zero not in ("zero", "plasma"):
            raise ValueError("te_zero must be 'zero' or 'plasma'")
        # a type test, since 0 == False, 1 == True and a word such as "no" is truthy
        if not (self.dc_conductor is None or isinstance(self.dc_conductor, bool)):
            raise ValueError(f"dc_conductor must be None, True or False: "
                             f"got {self.dc_conductor!r}")
        if not isinstance(self.perfect_conductor, bool):
            raise ValueError(f"perfect_conductor must be True or False: "
                             f"got {self.perfect_conductor!r}")
        # the Matsubara memo: entry = (T, eps array), read and replaced
        # whole, so a thread never pairs one key with another's values
        object.__setattr__(self, "_eps_memo", SimpleNamespace(entry=(None, None)))

    @property
    def has_dc_conductivity(self) -> bool:
        """Whether eps(i*xi) diverges in the xi -> 0 limit."""
        if self.perfect_conductor:
            return True
        if self.dc_conductor is not None:
            return self.dc_conductor
        return self.drude is not None

    def eval(self, xi):
        """Permittivity eps(i*xi) at angular frequencies xi > 0 (rad/s).

        ``xi`` is a float, giving a float, or an array, giving an array of
        its shape; a value has the same bits either way.  Raises
        ``ValueError`` unless every xi is positive: eps at xi = 0 is
        :meth:`static_permittivity`.
        """
        xi = np.asarray(xi, dtype=float)
        if not np.all(xi > 0.0):
            raise ValueError("every imaginary-axis frequency must be positive; "
                             "eps at xi = 0 is static_permittivity()")
        value = np.ones(xi.shape)
        if self.perfect_conductor:
            value *= math.inf
        for osc in self.oscillators:
            ratio = xi / osc.omega
            value += osc.strength / (1.0 + ratio * ratio + osc.Gamma * ratio)
        if self.tail is not None:
            ratio = xi / self.tail.omega_inf
            value += (self.tail.eps_inf - 1.0) / (1.0 + ratio * ratio)
        if self.drude is not None:
            value += self.drude.omega_p**2 / (xi * (xi + self.drude.gamma))
        if self.table is not None:
            value += kk_to_imaginary_axis(self.table, xi) - 1.0
        return value if value.ndim else float(value)

    def static_permittivity(self) -> float:
        """eps(0): ``math.inf`` as the marker for dc-conducting models, else
        the bound-charge response with the free carriers excluded."""
        if self.has_dc_conductivity:
            return math.inf
        value = 1.0
        for osc in self.oscillators:
            value += osc.strength
        if self.tail is not None:
            value += self.tail.eps_inf - 1.0
        if self.table is not None:
            value += self.table._kk_static - 1.0
        return value


def with_dc_conductivity(model: PermittivityModel, enabled: bool) -> PermittivityModel:
    """Copy of ``model`` with the zero-frequency dc-conductivity flag forced.

    Only the static limit changes; eval(xi) for xi > 0 is identical, so the
    copy shares the model's memo of Matsubara permittivities.
    """
    if model.perfect_conductor and not enabled:
        raise ValueError("a perfect conductor cannot drop its dc conductivity")
    return _sharing_memo(model, dc_conductor=enabled)


def with_te_zero(model: PermittivityModel, rule: str) -> PermittivityModel:
    """Copy of ``model`` with the zero-frequency TE prescription replaced.

    eval(xi) for xi > 0 is identical, so the copy shares the model's memo of
    Matsubara permittivities.
    """
    return _sharing_memo(model, te_zero=rule)


def _sharing_memo(model: PermittivityModel, **changes) -> PermittivityModel:
    """``replace(model, **changes)`` for changes that leave eval at xi > 0
    alone: the copy and ``model`` share one Matsubara memo."""
    copy = replace(model, **changes)
    object.__setattr__(copy, "_eps_memo", model._eps_memo)
    return copy


# --- catalog -----------------------------------------------------------


def _osc_from_ev(*rows) -> tuple[OscillatorParams, ...]:
    """Oscillators from (omega eV, Gamma, strength) rows."""
    return tuple(
        OscillatorParams(omega=ev_to_rad_s(w), Gamma=g, strength=s) for w, g, s in rows
    )


def _drude_from_ev(omega_p: float, gamma: float) -> DrudeParams:
    return DrudeParams(omega_p=ev_to_rad_s(omega_p), gamma=ev_to_rad_s(gamma))


# name -> PermittivityModel fields.  An entry with a "drude" or "table" field
# accepts that override in build_material; a None value there makes the
# override required.
_CATALOG = {
    # Gold probe (eV).  Stand-in for tabulated optical data; users may
    # substitute an OpticalDataTable via build_material("tabulated").
    "gold-drude": {"drude": _drude_from_ev(9.0, 0.035)},
    # Silicon: a single-term approximation pinning eps(0) = 11.66 (cutoff in
    # rad/s).  The phosphorus-doped sections (rad/s) are two high carrier
    # densities and the low-density section whose dc conductivity is the
    # model switch.  Their omega_p are rounded values: the densities
    # n = 3.3e26, 3.2e25 and 1.0e23 m^-3 at m* = 0.26 m_e reproduce them,
    # since sqrt(n e^2 / (eps0 m*)) = 2.01e15, 6.26e14 and 3.50e13 rad/s.
    **{
        name: {"tail": HighFreqTail(eps_inf=11.66, omega_inf=6.6e15), **free_carriers}
        for name, free_carriers in (
            ("si-dielectric", {}),
            ("si-doped-n1", {"drude": DrudeParams(omega_p=2.0e15, gamma=2.4e14)}),
            ("si-doped-n2", {"drude": DrudeParams(omega_p=6.3e14, gamma=1.8e13)}),
            ("si-doped-low", {"drude": DrudeParams(omega_p=3.5e13, gamma=1.8e13)}),
            ("si-doped", {"drude": None}),
        )
    },
    # VO2 half-space (substrate not modelled), insulating phase.
    "vo2-insulator": {
        "oscillators": _osc_from_ev(
            (1.02, 0.55, 0.79),
            (1.30, 0.55, 0.474),
            (1.50, 0.50, 0.483),
            (2.75, 0.22, 0.536),
            (3.49, 0.47, 1.316),
            (3.76, 0.38, 1.060),
            (5.1, 0.385, 0.99),
        ),
        "tail": HighFreqTail(eps_inf=4.26, omega_inf=ev_to_rad_s(15.0)),
    },
    # VO2 half-space (substrate not modelled), metallic phase: oscillators
    # plus a free-carrier term.
    "vo2-metal": {
        "oscillators": _osc_from_ev(
            (0.86, 0.95, 1.816),
            (2.8, 0.23, 0.972),
            (3.48, 0.28, 1.04),
            (4.6, 0.34, 1.05),
        ),
        "tail": HighFreqTail(eps_inf=3.95, omega_inf=ev_to_rad_s(15.0)),
        "drude": _drude_from_ev(3.33, 0.66),
    },
    "tabulated": {"table": None},
    # eps -> inf at every frequency; limiting oracle, not a physical entry.
    "ideal-metal": {"perfect_conductor": True, "te_zero": "plasma"},
    "vacuum": {},
}


def catalog_names() -> tuple[str, ...]:
    """Names accepted by :func:`build_material`."""
    return tuple(_CATALOG)


def build_material(
    name: str,
    *,
    drude: DrudeParams | None = None,
    table: OpticalDataTable | None = None,
    label: str | None = None,
) -> PermittivityModel:
    """Build a cataloged permittivity model.

    ``drude`` replaces the preset free-carrier parameters of a Drude-bearing
    entry (and is required for the generic ``"si-doped"``); ``table`` is
    required for ``"tabulated"``.  Either one given to an entry that does
    not use it raises ``ValueError``.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown material {name!r}; known: {', '.join(_CATALOG)}")
    fields = dict(_CATALOG[name])
    for key, override in (("drude", drude), ("table", table)):
        if override is not None:
            if key not in fields:
                raise ValueError(f"{name!r} takes no {key} override")
            fields[key] = override
    missing = [key for key, value in fields.items() if value is None]
    if missing:
        raise ValueError(f"{name!r} requires a {missing[0]} argument")
    return PermittivityModel(label=label or name, **fields)


# --- Kramers-Kronig ingestion of tabulated data ------------------------

# Frequencies per (xi x row) array of a Kramers-Kronig sum, which bounds its
# memory at _KK_SLICE times the table's rows doubles: 256 KB for 4000 rows.
# Once the kernel has raised glibc's mmap threshold (lifshitz._nodes), such
# an array is taken from the resident heap, so its size adds to the
# process's peak memory.
_KK_SLICE = 8


def _kk_sum(w2, weighted, xi):
    """The trapezoid sums of ``weighted / (w2 + xi^2)``, one per entry of the
    1-d array ``xi``.  numpy's own einsum loop gives each sum the same bits
    however many rows share the array, where a BLAS product does not."""
    denom = np.add.outer(np.square(xi), w2)
    return np.einsum("ij,j->i", np.reciprocal(denom, out=denom), weighted)


def kk_to_imaginary_axis(table: OpticalDataTable, xi):
    """eps(i*xi) from tabulated Im eps(omega) via the dispersion relation.

    Evaluates ``1 + (2/pi) * integral of omega Im eps(omega)/(omega^2+xi^2)``
    with the trapezoidal rule on the tabulated grid.  Im eps is extrapolated
    as a constant below the first tabulated frequency and as omega^-3 above
    the last one; both extensions are integrated in closed form, finite at
    every xi > 0.  ``xi`` is a float, giving a float, or an array, giving an
    array of its shape; a value has the same bits whether its xi comes alone
    or in an array.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(xi > 0.0):
        raise ValueError("xi must be positive")
    flat, core = xi.reshape(-1), np.empty(xi.size)
    for i in range(0, xi.size, _KK_SLICE):
        core[i:i + _KK_SLICE] = _kk_sum(*table._kk_weights, flat[i:i + _KK_SLICE])
    w, g = table.omega, table.im_eps
    # 0.5 log1p((w0/xi)^2), which is log(w0) - log(xi) where the square overflows
    with np.errstate(over="ignore"):
        r2 = (w[0] / xi) ** 2
    low = g[0] * np.where(r2 < math.inf, 0.5 * np.log1p(r2), math.log(w[0]) - np.log(xi))
    # (1 - atan(t)/t) / t^2, the omega^-3 extrapolation integral; the series
    # branch avoids cancellation for small t, and the exact one is evaluated
    # at t >= 1e-3 only, where t^2 is not 0
    t = xi / w[-1]
    t2 = t * t
    big = np.maximum(t, 1e-3)
    tail = np.where(t < 1e-3, 1.0 / 3.0 - t2 / 5.0 + t2 * t2 / 7.0,
                    (1.0 - np.arctan(big) / big) / (big * big))
    value = 1.0 + (2.0 / math.pi) * (core.reshape(xi.shape) + low + g[-1] * tail)
    return value if value.ndim else float(value)


def _content_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each line of the file at ``path`` that holds
    more than whitespace and a ``#`` comment, the comment stripped.  Each
    line is decoded on its own, so a line that is not UTF-8 raises a
    ``ValueError`` that names the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if line:
            lines.append((lineno, line))
    return lines


def load_optical_table(path) -> OpticalDataTable:
    """Read a two-column text table of (omega_eV, Im eps).

    Whitespace-separated columns, ``#`` starts a comment.  Frequencies are
    converted from eV to rad/s on load.  Every ``ValueError`` names the file,
    and the line where one is at fault.
    """
    omegas: list[float] = []
    values: list[float] = []
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns")
        try:
            omega, value = map(float, parts)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        omegas.append(ev_to_rad_s(omega))
        values.append(value)
    try:
        return OpticalDataTable(omega=tuple(omegas), im_eps=tuple(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
