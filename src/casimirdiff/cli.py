"""
Command-line front end: difference force/pressure sweeps, low-frequency
model comparison reports, permittivity tables, and cantilever estimates.

Output is plot-ready CSV or JSON with the full resolved configuration
embedded, 12 significant digits, and byte-identical reruns for identical
inputs.  Exit codes: 0 success, 1 usage error, 2 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from .constants import EV_TO_RAD_S
from .experiment import (
    CantileverParams,
    five_point_gradient,
    min_detectable_force,
    pressure_from_force_gradient,
    resonance_shift,
)
from .lifshitz import (
    MatsubaraGrid,
    TruncationError,
    _checked_lows,
    _model_curves,
    _sums,
    _zero_freq_gap,
)
from .materials import (
    DrudeParams,
    build_material,
    catalog_names,
    load_optical_table,
    with_dc_conductivity,
    _content_lines,
)

SCHEMA_VERSION = "casimirdiff.v1"

GAP_IDENTITY_TOL = 1e-4


class UsageError(Exception):
    pass


# --- unit-suffixed quantities -------------------------------------------

_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
_TEMPERATURE_UNITS = {"K": 1.0}
_ANGFREQ_UNITS = {"rad/s": 1.0, "eV": EV_TO_RAD_S}
_FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3}
_SPRING_UNITS = {"N/m": 1.0}

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*(.*?)\s*$")


def parse_quantity(text: str, units: dict[str, float], what: str) -> float:
    """Parse '100 nm' / '0.035eV' style values; the unit suffix is mandatory."""
    m = _QUANTITY_RE.match(str(text))
    if not m:
        raise UsageError(f"cannot parse {what}: {text!r}")
    value, unit = m.group(1), m.group(2)
    if not unit:
        raise UsageError(
            f"{what} must carry a unit suffix ({', '.join(units)}): got {text!r}"
        )
    if unit not in units:
        raise UsageError(f"unknown unit {unit!r} for {what}; expected {', '.join(units)}")
    try:
        return float(value) * units[unit]
    except ValueError:  # the pattern admits '1.2.3'
        raise UsageError(f"cannot parse {what}: {text!r}") from None


def sig12(x: float) -> str:
    """Scientific notation with 12 significant digits."""
    return f"{x:.11e}"


def _jsonable(x: float) -> float:
    return float(sig12(x))


# --- configuration -------------------------------------------------------

# Every sweep setting, declared once: its config-file key is its argparse
# dest and its SweepConfig attribute.  key: (flag, default, check, output key,
# help), where the check, applied to every value as it is read, is a unit table
# for a quantity that must be positive and finite, a tuple of the allowed
# words, the least value of a count, or None for a name or a path; the output
# key names the setting in the sweep and compare metadata, None for none.
_SETTINGS = {
    "quantity": ("--quantity", "force", ("force", "pressure"), "quantity", "computed quantity"),
    "z_min": ("--zmin", "100 nm", _LENGTH_UNITS, "z_min_m", "smallest separation"),
    "z_max": ("--zmax", "300 nm", _LENGTH_UNITS, "z_max_m", "largest separation"),
    "points": ("--points", "41", 2, "points", "number of separation points"),
    "spacing": ("--spacing", "log", ("linear", "log"), "spacing", "separation spacing"),
    "temperature": ("--temperature", "300 K", _TEMPERATURE_UNITS, "temperature_K",
                    "temperature"),
    "radius": ("--radius", "100 um", _LENGTH_UNITS, "sphere_radius_m", "sphere radius"),
    "probe": ("--probe", "gold-drude", None, "probe", "probe-side material"),
    "high": ("--high", "si-doped-n1", None, "material_high", "higher carrier density section"),
    "low": ("--low", "si-doped-low", None, "material_low", "lower carrier density section"),
    "model": ("--model", "a", ("a", "b"), "low_freq_model", "low-frequency conductivity model"),
    "format": ("--format", "csv", ("csv", "json"), None, "output format"),
    "out": ("--out", None, None, None, "output path ('-' for stdout)"),
    "workers": ("--workers", "1", 1, None, "worker processes for the separation sweep, at "
                "most the CPU count"),
    "optical_table": ("--optical-table", None, None, None, "two-column (omega_eV, Im eps) file"),
}

_DRUDE_KEY = re.compile(r"^drude_(omega_p|gamma)\.(.+)$")


class SweepConfig(SimpleNamespace):
    """Resolved sweep settings (SI units): one attribute per key of
    ``_SETTINGS``, and ``drude_overrides``."""

    def separations(self) -> tuple[float, ...]:
        if self.spacing == "log":
            grid = np.logspace(math.log10(self.z_min), math.log10(self.z_max), self.points)
        else:
            grid = np.linspace(self.z_min, self.z_max, self.points)
        return tuple(float(z) for z in grid)

    def grid(self) -> MatsubaraGrid:
        return MatsubaraGrid(T=self.temperature)

    def materials(self):
        """The probe, high and low materials."""
        table = _optical_table(self.optical_table)
        return tuple(
            _build_named(name, self.drude_overrides, table)
            for name in (self.probe, self.high, self.low)
        )

    def as_metadata(self) -> dict:
        meta = {"schema": SCHEMA_VERSION}
        for key, (_, _, check, name, _) in _SETTINGS.items():
            if name is not None:
                value = getattr(self, key)
                meta[name] = _jsonable(value) if isinstance(check, dict) else value
        return meta


def _positive(text: str, units: dict[str, float], what: str) -> float:
    """A quantity that must be positive and finite, checked before any grid
    is built from it: np.logspace warns on an infinite end."""
    value = parse_quantity(text, units, what)
    if not 0.0 < value < math.inf:
        raise UsageError(f"{what} must be positive and finite")
    return value


def _setting(key: str, text: str | None = None):
    """The value of one setting from its text, or from its default for None,
    checked as its row of ``_SETTINGS`` says."""
    _, default, check, _, _ = _SETTINGS[key]
    text = default if text is None else text
    if text is None or check is None:
        return text
    if isinstance(check, int):
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"{key} must be an integer: got {text!r}") from None
        if value < check:
            raise UsageError(f"{key} must be at least {check}: got {value}")
        return value
    if isinstance(check, tuple):
        if text not in check:
            raise UsageError(f"{key} must be {' or '.join(map(repr, check))}: got {text!r}")
        return text
    return _positive(text, check, key)


def _resolve(args) -> SweepConfig:
    """Defaults, then the --config file, then the flags; a later source wins.

    Each value is checked as it is read, so a bad value in the file fails,
    with its file and line, even where a flag overrides it.
    """
    values = {key: _setting(key) for key in _SETTINGS}
    overrides: dict[str, dict[str, float]] = {}  # NAME -> {"omega_p": x, "gamma": y}
    lines = _content_lines(args.config) if args.config else []
    for lineno, line in lines:
        key, sep, value = (part.strip() for part in line.partition("="))
        drude = _DRUDE_KEY.match(key)
        try:
            if not sep:
                raise UsageError("expected 'key = value'")
            if drude:
                overrides.setdefault(drude.group(2), {})[drude.group(1)] = parse_quantity(
                    value, _ANGFREQ_UNITS, key
                )
            elif key in _SETTINGS:
                values[key] = _setting(key, value)
            else:
                raise UsageError(f"unknown setting {key!r}")
        except UsageError as exc:
            raise UsageError(f"{args.config}:{lineno}: {exc}") from None
    for key in _SETTINGS:
        if (flag := getattr(args, key, None)) is not None:
            values[key] = _setting(key, flag)
    if not values["z_min"] < values["z_max"]:
        raise UsageError("z_min must be smaller than z_max")
    drude = {name: _drude_override(name, pair) for name, pair in overrides.items()}
    return SweepConfig(**values, drude_overrides=drude)


def _drude_override(name: str, pair: dict[str, float]) -> DrudeParams:
    """The DrudeParams of a drude_omega_p.NAME / drude_gamma.NAME pair.

    Checked whether or not the run uses NAME: the pair must be complete and
    the catalog entry NAME must take a free-carrier override.
    """
    if len(pair) != 2:
        raise UsageError(
            f"drude override for {name!r} needs both drude_omega_p.{name} "
            f"and drude_gamma.{name}"
        )
    try:
        params = DrudeParams(**pair)
        build_material(name, drude=params)
    except ValueError as exc:
        raise UsageError(f"drude override for {name!r}: {exc}") from None
    return params


def _optical_table(path: str | None):
    """The table at ``path``, read whenever a path is given, so that a missing
    or malformed file fails even if no material of the run is ``tabulated``."""
    return load_optical_table(path) if path else None


def _build_named(name: str, drude_overrides: dict, table):
    if name == "tabulated" and table is None:
        raise UsageError("material 'tabulated' requires --optical-table PATH")
    return build_material(name, drude=drude_overrides.get(name),
                          table=table if name == "tabulated" else None)


# --- output writers -------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_table(meta: dict, columns: list[str], rows: list[list], fmt: str, out: str | None):
    if fmt == "json":
        doc = {"config": meta, "columns": columns, "rows": rows}
        _emit(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", out)
        return
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(sig12(v) if isinstance(v, float) else str(v) for v in row))
    _emit("\n".join(lines) + "\n", out)


# --- sweep / compare ------------------------------------------------------


def cmd_sweep(args) -> int:
    """Compute the difference curve of a sweep config and write it out."""
    config = _resolve(args)
    radius = config.radius if config.quantity == "force" else None
    [curve] = _model_curves(*config.materials(), radius, config.separations(), config.grid(),
                            (config.model,), config.workers)
    meta = config.as_metadata()
    meta["rel_tol"] = curve.metadata["rel_tol"]
    meta["nodes"] = curve.metadata["nodes"]
    meta["max_tail_rel"] = _jsonable(curve.metadata["max_tail_rel"])
    unit = "N" if config.quantity == "force" else "Pa"
    columns = ["z_m", f"{config.quantity}_{unit}", f"magnitude_{unit}", "l_terms", "tail_rel"]
    rows = [
        [z, v, abs(v), n, _jsonable(tail)]
        for z, v, n, tail in zip(
            curve.separations,
            curve.values,
            curve.metadata["l_terms_per_z"],
            curve.metadata["tail_rel_per_z"],
        )
    ]
    _emit_table(meta, columns, rows, config.format, config.out)
    return 0


def cmd_compare(args) -> int:
    """Sweep under both low-frequency models and report numeric vs analytic gaps.

    The analytic gap is the closed-form zero-frequency difference: the
    standard zeta(3)/trilogarithm form for a conducting probe (zero-frequency
    TM amplitude 1), and for a finite-permittivity probe the trilogarithm
    difference with the probe's own amplitude, which keeps the identity exact.
    """
    config = _resolve(args)
    probe, high, low = config.materials()
    # a static permittivity of 1 gives a zero-frequency TM amplitude of 0
    eps_probe = probe.static_permittivity()
    if eps_probe == 1.0:
        raise UsageError(
            f"probe {config.probe!r} does not reflect at zero frequency, "
            "so the two low-frequency models cannot differ"
        )
    eps0 = with_dc_conductivity(low, False).static_permittivity()
    radius = config.radius if config.quantity == "force" else None
    curve_a, curve_b = _model_curves(probe, high, low, radius, config.separations(),
                                     config.grid(), ("a", "b"), config.workers)
    zs = curve_a.separations
    gaps = [_zero_freq_gap(eps_probe, eps0, z, config.temperature, radius) for z in zs]
    deviations = [
        abs((a - b) - gap) / abs(gap) for a, b, gap in zip(curve_a.values, curve_b.values, gaps)
    ]
    meta = config.as_metadata()
    del meta["low_freq_model"]
    meta["static_eps_low"] = _jsonable(eps0)
    meta["max_relative_deviation"] = _jsonable(max(deviations))
    meta["gap_identity_ok"] = max(deviations) < GAP_IDENTITY_TOL
    unit = "N" if config.quantity == "force" else "Pa"
    columns = ["z_m", f"value_a_{unit}", f"value_b_{unit}", f"gap_numeric_{unit}",
               f"gap_analytic_{unit}", "relative_deviation"]
    rows = [
        [z, a, b, a - b, gap, _jsonable(dev)]
        for z, a, b, gap, dev in zip(zs, curve_a.values, curve_b.values, gaps, deviations)
    ]
    _emit_table(meta, columns, rows, config.format, config.out)
    return 0


# --- permittivity tables ---------------------------------------------------


def permittivity_table(model, xi_grid) -> list[tuple[float, float]]:
    """(xi, eps(i xi)) rows; a xi = 0 static row leads for non-conducting models."""
    xi = np.asarray(xi_grid, dtype=float)
    rows = list(zip(xi.tolist(), model.eval(xi).tolist()))
    if not model.has_dc_conductivity:
        rows.insert(0, (0.0, model.static_permittivity()))
    return rows


def cmd_permittivity(args) -> int:
    if args.list:
        sys.stdout.write("\n".join(catalog_names()) + "\n")
        return 0
    if not args.material:
        raise UsageError("--material NAME is required (or --list)")
    model = _build_named(args.material, {}, _optical_table(args.optical_table))
    xi_min = _positive(args.ximin, _ANGFREQ_UNITS, "ximin")
    xi_max = _positive(args.ximax, _ANGFREQ_UNITS, "ximax")
    if not xi_min < xi_max:
        raise UsageError("need 0 < ximin < ximax")
    points = _setting("points", args.points)
    fmt = _setting("format", args.format)
    grid = np.logspace(math.log10(xi_min), math.log10(xi_max), points)
    rows = permittivity_table(model, grid)
    if fmt == "json" and not all(math.isfinite(eps) for _, eps in rows):
        raise UsageError(f"eps of {args.material!r} is infinite, which JSON cannot "
                         "hold; use --format csv")
    meta = {
        "schema": SCHEMA_VERSION,
        "material": args.material,
        "xi_min_rad_s": _jsonable(xi_min),
        "xi_max_rad_s": _jsonable(xi_max),
        "points": points,
    }
    _emit_table(meta, ["xi_rad_s", "eps"], [[x, e] for x, e in rows], fmt, args.out)
    return 0


# --- cantilever commands ----------------------------------------------------


def _cantilever_from_args(args) -> CantileverParams:
    return CantileverParams(
        k=parse_quantity(args.spring_constant, _SPRING_UNITS, "spring constant"),
        f_r=parse_quantity(args.resonance_frequency, _FREQUENCY_UNITS, "resonance frequency"),
        Q=args.quality_factor,
        B=parse_quantity(args.bandwidth, _FREQUENCY_UNITS, "bandwidth"),
        T=_setting("temperature", args.temperature),
    )


def cmd_sensitivity(args) -> int:
    value = min_detectable_force(_cantilever_from_args(args))
    sys.stdout.write(f"min_detectable_force_N = {sig12(value)}\n")
    return 0


def cmd_shift(args) -> int:
    params = _cantilever_from_args(args)
    z = _positive(args.z, _LENGTH_UNITS, "z")
    config = _resolve(args)
    radius = config.radius
    # checked also for a given --gradient: a bad material setting fails, and
    # the equivalent pressure is the proximity force relation, valid while
    # z/R is small.  The stencil's four sums are difference_force's at
    # z +- h, z +- 2h, with one z/R warning, at z itself, not one per sum.
    probe, high, low = config.materials()
    lows = _checked_lows(radius, z, low, (config.model,))
    if args.gradient is not None:
        gradient = args.gradient
    else:
        grid = config.grid()
        gradient = five_point_gradient(
            lambda zz: _sums(probe, high, lows, radius, (zz,), grid)[0][0][0], z)
    shift = resonance_shift(params, gradient)
    pressure = pressure_from_force_gradient(radius, gradient)
    sys.stdout.write(f"force_gradient_N_per_m = {sig12(gradient)}\n")
    sys.stdout.write(f"frequency_shift_Hz = {sig12(shift)}\n")
    sys.stdout.write(f"equivalent_pressure_Pa = {sig12(pressure)}\n")
    return 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values, not flags: argparse's own pattern misses -1e-5, -inf and a
        # quantity glued to its unit, -50nm, which the setting then rejects
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?[a-zµ/]*$|^-inf$", re.I)

    def error(self, message):
        raise UsageError(message)


def _add_settings(sub, keys):
    """A flag for each setting of ``keys``, with its help from ``_SETTINGS``."""
    for key in keys:
        flag, default, check, _, help_text = _SETTINGS[key]
        if isinstance(check, tuple):
            help_text += f", {' or '.join(map(repr, check))}"
        if default is not None:
            help_text += f" (default: {default})"
        sub.add_argument(flag, dest=key, help=help_text)


def _add_sweep_flags(sub, exclude=()):
    """--config and a flag for each setting of ``_SETTINGS`` not in ``exclude``."""
    sub.add_argument("--config", help="flat 'key = value' settings file")
    _add_settings(sub, [key for key in _SETTINGS if key not in exclude])


def _add_cantilever_flags(sub):
    sub.add_argument("--spring-constant", required=True, help="e.g. '0.03 N/m'")
    sub.add_argument("--resonance-frequency", required=True, help="e.g. '1130.9 Hz'")
    sub.add_argument("--quality-factor", required=True, type=float, help="dimensionless")
    sub.add_argument("--bandwidth", required=True, help="e.g. '0.3 Hz'")
    _add_settings(sub, ("temperature",))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casimirdiff", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="difference force/pressure over a separation grid")
    _add_sweep_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    compare = subs.add_parser("compare", help="gap between low-frequency models vs the closed form")
    _add_sweep_flags(compare, exclude=("model",))
    compare.set_defaults(func=cmd_compare)

    perm = subs.add_parser("permittivity", help="eps(i xi) table for a cataloged material")
    perm.add_argument("--material", help="catalog name")
    perm.add_argument("--list", action="store_true", help="list catalog names")
    perm.add_argument("--ximin", default="1e13 rad/s")
    perm.add_argument("--ximax", default="1e17 rad/s")
    perm.add_argument("--points", default="60")
    _add_settings(perm, ("format", "out", "optical_table"))
    perm.set_defaults(func=cmd_permittivity)

    sens = subs.add_parser("sensitivity", help="thermal-noise force sensitivity")
    _add_cantilever_flags(sens)
    sens.set_defaults(func=cmd_sensitivity)

    shift = subs.add_parser("shift", help="resonance shift and equivalent pressure from a force gradient")
    _add_cantilever_flags(shift)
    shift.add_argument("--z", required=True, help="separation, e.g. '150 nm'")
    shift.add_argument("--gradient", type=float,
                       help="force gradient in N/m (skip the sweep computation)")
    # one separation and no output file: none of the grid or output settings;
    # --temperature (from the cantilever flags) covers both the noise model
    # and the Matsubara grid of the force computation
    grid_and_output = ("quantity", "z_min", "z_max", "points", "spacing", "temperature",
                       "format", "out", "workers")
    _add_sweep_flags(shift, exclude=grid_and_output)
    shift.set_defaults(func=cmd_shift)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` of a command: the message alone, as errors are printed."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except (UsageError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except TruncationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
