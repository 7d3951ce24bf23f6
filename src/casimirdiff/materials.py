"""
Dielectric permittivity models evaluated along the imaginary frequency axis.

Every force and pressure computation in this package consumes a single
abstraction, :class:`PermittivityModel`, which evaluates eps(i*xi) for
xi >= 0 from some combination of

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

import numpy as np

from .constants import EPS0, E_CHARGE, ev_to_rad_s

__all__ = [
    "DrudeParams",
    "OscillatorParams",
    "HighFreqTail",
    "OpticalDataTable",
    "CarrierParams",
    "PermittivityModel",
    "build_material",
    "catalog_names",
    "with_dc_conductivity",
    "with_te_zero",
    "plasma_frequency",
    "scattering_time",
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


@dataclass(frozen=True)
class CarrierParams:
    """Charge-carrier density (m^-3), effective mass (kg), optional dc conductivity (S/m)."""

    n: float
    m_eff: float
    sigma: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.n < math.inf:
            raise ValueError("carrier density n must be positive and finite")
        if not 0.0 < self.m_eff < math.inf:
            raise ValueError("effective mass m_eff must be positive and finite")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ValueError("conductivity sigma must be positive and finite when present")


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

    @property
    def has_dc_conductivity(self) -> bool:
        """Whether eps(i*xi) diverges in the xi -> 0 limit."""
        if self.perfect_conductor:
            return True
        if self.dc_conductor is not None:
            return self.dc_conductor
        return self.drude is not None

    def eval(self, xi):
        """Permittivity eps(i*xi) at angular frequency xi >= 0 (rad/s).

        ``xi`` is a float, giving a float, or an array of positive
        frequencies, giving an array of the same shape.  Raises
        ``ValueError`` for xi < 0, and for xi = 0 when the model has dc
        conductivity (the permittivity diverges there; callers must use the
        zero-frequency reflection limits instead).
        """
        if isinstance(xi, np.ndarray):
            if not np.all(xi > 0.0):
                raise ValueError("an array of imaginary-axis frequencies must be positive")
            value = np.ones(xi.shape)
        else:
            if xi < 0.0:
                raise ValueError("imaginary-axis frequency must be non-negative")
            if xi == 0.0 and not self.perfect_conductor:
                if self.has_dc_conductivity:
                    raise ValueError(
                        f"{self.label}: permittivity diverges at zero frequency; "
                        "use static_permittivity / zero-frequency reflection limits"
                    )
                return self._bound_static()
            value = 1.0
        if self.perfect_conductor:
            return value * math.inf
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
        return value

    def _bound_static(self) -> float:
        """eps(0) of the bound-charge response (free carriers excluded)."""
        value = 1.0
        for osc in self.oscillators:
            value += osc.strength
        if self.tail is not None:
            value += self.tail.eps_inf - 1.0
        if self.table is not None:
            value += _kk_static(self.table) - 1.0
        return value

    def static_permittivity(self) -> float:
        """eps(0), or ``math.inf`` as the marker for dc-conducting models."""
        if self.has_dc_conductivity:
            return math.inf
        return self._bound_static()


def with_dc_conductivity(model: PermittivityModel, enabled: bool) -> PermittivityModel:
    """Copy of ``model`` with the zero-frequency dc-conductivity flag forced.

    Only the static limit changes; eval(xi) for xi > 0 is identical.
    """
    if model.perfect_conductor and not enabled:
        raise ValueError("a perfect conductor cannot drop its dc conductivity")
    return replace(model, dc_conductor=enabled)


def with_te_zero(model: PermittivityModel, rule: str) -> PermittivityModel:
    """Copy of ``model`` with the zero-frequency TE prescription replaced."""
    return replace(model, te_zero=rule)


# --- catalog -----------------------------------------------------------

# Gold probe: Drude parameters (eV).  Stand-in for tabulated optical data;
# users may substitute an OpticalDataTable via build_material("tabulated").
_GOLD_OMEGA_P_EV = 9.0
_GOLD_GAMMA_EV = 0.035

# Dielectric silicon: single-term approximation pinning eps(0) = 11.66.
_SI_EPS_STATIC = 11.66
_SI_OMEGA_UV = 6.6e15  # rad/s

# Phosphorus-doped silicon sections (rad/s): two high carrier densities and
# the low-density section whose dc conductivity is the model switch.
_SI_DRUDE = {
    "si-doped-n1": DrudeParams(omega_p=2.0e15, gamma=2.4e14),
    "si-doped-n2": DrudeParams(omega_p=6.3e14, gamma=1.8e13),
    "si-doped-low": DrudeParams(omega_p=3.5e13, gamma=1.8e13),
}

# VO2 half-space (substrate not modelled), insulating phase: oscillators
# (omega eV, Gamma, s).
_VO2_INSULATOR_OSC = (
    (1.02, 0.55, 0.79),
    (1.30, 0.55, 0.474),
    (1.50, 0.50, 0.483),
    (2.75, 0.22, 0.536),
    (3.49, 0.47, 1.316),
    (3.76, 0.38, 1.060),
    (5.1, 0.385, 0.99),
)
_VO2_INSULATOR_EPS_INF = 4.26

# VO2 half-space (substrate not modelled), metallic phase: oscillators plus a
# free-carrier term.
_VO2_METAL_OSC = (
    (0.86, 0.95, 1.816),
    (2.8, 0.23, 0.972),
    (3.48, 0.28, 1.04),
    (4.6, 0.34, 1.05),
)
_VO2_METAL_EPS_INF = 3.95
_VO2_METAL_OMEGA_P_EV = 3.33
_VO2_METAL_GAMMA_EV = 0.66

_VO2_OMEGA_INF_EV = 15.0


def _osc_from_ev(rows) -> tuple[OscillatorParams, ...]:
    return tuple(
        OscillatorParams(omega=ev_to_rad_s(w), Gamma=g, strength=s) for w, g, s in rows
    )


def _si_core_tail() -> HighFreqTail:
    return HighFreqTail(eps_inf=_SI_EPS_STATIC, omega_inf=_SI_OMEGA_UV)


_CATALOG_NAMES = (
    "gold-drude",
    "si-dielectric",
    "si-doped-n1",
    "si-doped-n2",
    "si-doped-low",
    "si-doped",
    "vo2-insulator",
    "vo2-metal",
    "tabulated",
    "ideal-metal",
    "vacuum",
)


def catalog_names() -> tuple[str, ...]:
    """Names accepted by :func:`build_material`."""
    return _CATALOG_NAMES


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
    required for ``"tabulated"``.
    """
    label = label or name
    if name == "gold-drude":
        dr = drude or DrudeParams(
            omega_p=ev_to_rad_s(_GOLD_OMEGA_P_EV), gamma=ev_to_rad_s(_GOLD_GAMMA_EV)
        )
        return PermittivityModel(label=label, drude=dr)
    if name == "si-dielectric":
        return PermittivityModel(label=label, tail=_si_core_tail())
    if name in _SI_DRUDE:
        return PermittivityModel(
            label=label, tail=_si_core_tail(), drude=drude or _SI_DRUDE[name]
        )
    if name == "si-doped":
        if drude is None:
            raise ValueError("'si-doped' requires explicit DrudeParams")
        return PermittivityModel(label=label, tail=_si_core_tail(), drude=drude)
    if name == "vo2-insulator":
        return PermittivityModel(
            label=label,
            oscillators=_osc_from_ev(_VO2_INSULATOR_OSC),
            tail=HighFreqTail(
                eps_inf=_VO2_INSULATOR_EPS_INF, omega_inf=ev_to_rad_s(_VO2_OMEGA_INF_EV)
            ),
        )
    if name == "vo2-metal":
        dr = drude or DrudeParams(
            omega_p=ev_to_rad_s(_VO2_METAL_OMEGA_P_EV),
            gamma=ev_to_rad_s(_VO2_METAL_GAMMA_EV),
        )
        return PermittivityModel(
            label=label,
            oscillators=_osc_from_ev(_VO2_METAL_OSC),
            tail=HighFreqTail(
                eps_inf=_VO2_METAL_EPS_INF, omega_inf=ev_to_rad_s(_VO2_OMEGA_INF_EV)
            ),
            drude=dr,
        )
    if name == "tabulated":
        if table is None:
            raise ValueError("'tabulated' requires an OpticalDataTable")
        return PermittivityModel(label=label, table=table)
    if name == "ideal-metal":
        # eps -> inf at every frequency; limiting oracle, not a physical entry.
        return PermittivityModel(label=label, perfect_conductor=True, te_zero="plasma")
    if name == "vacuum":
        return PermittivityModel(label=label)
    raise ValueError(f"unknown material {name!r}; known: {', '.join(_CATALOG_NAMES)}")


# --- carrier relations -------------------------------------------------


def plasma_frequency(params: CarrierParams) -> float:
    """Plasma frequency sqrt(n e^2 / (eps0 m_eff)) in rad/s."""
    return math.sqrt(params.n * E_CHARGE**2 / (EPS0 * params.m_eff))


def scattering_time(sigma: float, omega_p: float) -> float:
    """Scattering time tau = sigma / (eps0 omega_p^2) in seconds."""
    if not sigma > 0.0:
        raise ValueError("conductivity must be positive")
    if not omega_p > 0.0:
        raise ValueError("plasma frequency must be positive")
    return sigma / (EPS0 * omega_p**2)


# --- Kramers-Kronig ingestion of tabulated data ------------------------


def kk_to_imaginary_axis(table: OpticalDataTable, xi):
    """eps(i*xi) from tabulated Im eps(omega) via the dispersion relation.

    Evaluates ``1 + (2/pi) * integral of omega Im eps(omega)/(omega^2+xi^2)``
    with the trapezoidal rule on the tabulated grid.  Im eps is extrapolated
    as a constant below the first tabulated frequency and as omega^-3 above
    the last one; both extensions are integrated in closed form.  ``xi`` is
    a float, giving a float, or an array, giving an array.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(xi > 0.0):
        raise ValueError("xi must be positive")
    w2, weighted = table._kk_weights
    # one (xi x row) matrix-vector product; its rows are the trapezoid sums
    denom = w2 + np.square(xi)[..., None]
    core = np.reciprocal(denom, out=denom) @ weighted
    w, g = table.omega, table.im_eps
    low = g[0] * 0.5 * np.log1p((w[0] / xi) ** 2)
    # (1 - atan(t)/t) / t^2, the omega^-3 extrapolation integral; the series
    # branch avoids cancellation for small t
    t = xi / w[-1]
    t2 = t * t
    tail = np.where(t < 1e-3, 1.0 / 3.0 - t2 / 5.0 + t2 * t2 / 7.0, (1.0 - np.arctan(t) / t) / t2)
    value = 1.0 + (2.0 / math.pi) * (core + low + g[-1] * tail)
    return value if value.ndim else float(value)


def _kk_static(table: OpticalDataTable) -> float:
    """xi -> 0 limit of the dispersion relation (finite for Im eps >= 0 data)."""
    w2, weighted = table._kk_weights
    core = float(np.reciprocal(w2) @ weighted)
    # constant extension below w[0] would add g0*log(w0/0): cut it at the
    # grid instead, matching the xi->0 limit of the low-frequency term only
    # for Im eps(0) = 0 spectra; tables with nonzero Im eps at the first row
    # describe conductors and should carry an explicit dc flag.
    high = table.im_eps[-1] / 3.0
    return 1.0 + (2.0 / math.pi) * (core + high)


def load_optical_table(path) -> OpticalDataTable:
    """Read a two-column text table of (omega_eV, Im eps).

    Whitespace-separated columns, ``#`` starts a comment.  Frequencies are
    converted from eV to rad/s on load.
    """
    omegas: list[float] = []
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            omegas.append(ev_to_rad_s(float(parts[0])))
            values.append(float(parts[1]))
    return OpticalDataTable(omega=tuple(omegas), im_eps=tuple(values))
