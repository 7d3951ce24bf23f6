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
from dataclasses import dataclass

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
    difference_force,
    difference_force_curve,
    difference_pressure_curve,
    reflection_coefficients,
    _zero_freq_gap,
)
from .materials import (
    DrudeParams,
    build_material,
    catalog_names,
    load_optical_table,
    with_dc_conductivity,
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
    return float(value) * units[unit]


def sig12(x: float) -> str:
    """Scientific notation with 12 significant digits."""
    return f"{x:.11e}"


def _jsonable(x: float) -> float:
    return float(sig12(x))


# --- configuration -------------------------------------------------------


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip()] = value.strip()
    return values


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep parameters (SI units)."""

    quantity: str
    z_min: float
    z_max: float
    n_points: int
    spacing: str
    temperature: float
    sphere_radius: float
    probe: str
    high: str
    low: str
    low_freq_model: str
    out: str | None
    fmt: str
    workers: int
    optical_table: str | None
    drude_overrides: dict

    def __post_init__(self) -> None:
        if self.quantity not in ("force", "pressure"):
            raise UsageError("quantity must be 'force' or 'pressure'")
        if not self.z_min < self.z_max:
            raise UsageError("z_min must be smaller than z_max")
        if self.n_points < 2:
            raise UsageError("at least 2 separation points are required")
        if self.spacing not in ("linear", "log"):
            raise UsageError("spacing must be 'linear' or 'log'")
        if self.low_freq_model not in ("a", "b"):
            raise UsageError("low-frequency model must be 'a' or 'b'")
        if self.fmt not in ("csv", "json"):
            raise UsageError("format must be 'csv' or 'json'")
        for name in ("z_min", "temperature", "sphere_radius"):
            if not getattr(self, name) > 0.0:
                raise UsageError(f"{name} must be positive")
        if self.workers < 1:
            raise UsageError("workers must be >= 1")

    def separations(self) -> tuple[float, ...]:
        if self.spacing == "log":
            grid = np.logspace(math.log10(self.z_min), math.log10(self.z_max), self.n_points)
        else:
            grid = np.linspace(self.z_min, self.z_max, self.n_points)
        return tuple(float(z) for z in grid)

    def grid(self) -> MatsubaraGrid:
        return MatsubaraGrid(T=self.temperature)

    def as_metadata(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "quantity": self.quantity,
            "z_min_m": _jsonable(self.z_min),
            "z_max_m": _jsonable(self.z_max),
            "points": self.n_points,
            "spacing": self.spacing,
            "temperature_K": _jsonable(self.temperature),
            "sphere_radius_m": _jsonable(self.sphere_radius),
            "probe": self.probe,
            "material_high": self.high,
            "material_low": self.low,
            "low_freq_model": self.low_freq_model,
        }


_SWEEP_DEFAULTS = {
    "quantity": "force",
    "z_min": "100 nm",
    "z_max": "300 nm",
    "points": "41",
    "spacing": "log",
    "temperature": "300 K",
    "radius": "100 um",
    "probe": "gold-drude",
    "high": "si-doped-n1",
    "low": "si-doped-low",
    "model": "a",
    "format": "csv",
    "workers": "1",
}


def _resolve_sweep_config(args) -> SweepConfig:
    settings = dict(_SWEEP_DEFAULTS)
    if args.config:
        settings.update(_parse_config_file(args.config))
    flag_map = {
        "quantity": args.quantity,
        "z_min": args.zmin,
        "z_max": args.zmax,
        "points": args.points,
        "spacing": args.spacing,
        "temperature": args.temperature,
        "radius": args.radius,
        "probe": args.probe,
        "high": args.high,
        "low": args.low,
        "model": args.model,
        "format": args.format,
        "out": args.out,
        "workers": args.workers,
        "optical_table": getattr(args, "optical_table", None),
    }
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = str(value)
    overrides = {}
    for key, value in settings.items():
        m = re.match(r"^drude_(omega_p|gamma)\.(.+)$", key)
        if m:
            overrides.setdefault(m.group(2), {})[m.group(1)] = parse_quantity(
                value, _ANGFREQ_UNITS, key
            )
    try:
        n_points = int(settings["points"])
        workers = int(settings["workers"])
    except ValueError as exc:
        raise UsageError(f"bad integer setting: {exc}") from None
    return SweepConfig(
        quantity=settings["quantity"],
        z_min=parse_quantity(settings["z_min"], _LENGTH_UNITS, "z_min"),
        z_max=parse_quantity(settings["z_max"], _LENGTH_UNITS, "z_max"),
        n_points=n_points,
        spacing=settings["spacing"],
        temperature=parse_quantity(settings["temperature"], _TEMPERATURE_UNITS, "temperature"),
        sphere_radius=parse_quantity(settings["radius"], _LENGTH_UNITS, "radius"),
        probe=settings["probe"],
        high=settings["high"],
        low=settings["low"],
        low_freq_model=settings["model"],
        out=settings.get("out"),
        fmt=settings["format"],
        workers=workers,
        optical_table=settings.get("optical_table"),
        drude_overrides=overrides,
    )


def _build_named(name: str, drude_overrides: dict, optical_table: str | None):
    kwargs = {}
    if name in drude_overrides:
        ov = drude_overrides[name]
        if "omega_p" not in ov or "gamma" not in ov:
            raise UsageError(
                f"drude override for {name!r} needs both drude_omega_p.{name} "
                f"and drude_gamma.{name}"
            )
        kwargs["drude"] = DrudeParams(omega_p=ov["omega_p"], gamma=ov["gamma"])
    if name == "tabulated":
        if not optical_table:
            raise UsageError("material 'tabulated' requires --optical-table PATH")
        kwargs["table"] = load_optical_table(optical_table)
    try:
        return build_material(name, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build(config: SweepConfig, name: str):
    return _build_named(name, config.drude_overrides, config.optical_table)


def _materials(config: SweepConfig):
    """The probe, high and low materials of a sweep config."""
    return tuple(_build(config, name) for name in (config.probe, config.high, config.low))


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
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)
        return
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(sig12(v) if isinstance(v, float) else str(v) for v in row))
    _emit("\n".join(lines) + "\n", out)


# --- sweep / compare ------------------------------------------------------


def _curve(config: SweepConfig, probe, high, low, low_freq_model: str):
    """The difference curve of a sweep config under one low-frequency model."""
    zs, grid = config.separations(), config.grid()
    options = dict(low_freq_model=low_freq_model, workers=config.workers)
    if config.quantity == "force":
        return difference_force_curve(probe, high, low, config.sphere_radius, zs, grid, **options)
    return difference_pressure_curve(probe, high, low, zs, grid, **options)


def run_sweep(config: SweepConfig):
    """Compute the difference curve of a sweep config and write it out."""
    curve = _curve(config, *_materials(config), config.low_freq_model)
    value_col = "force_N" if config.quantity == "force" else "pressure_Pa"
    meta = config.as_metadata()
    meta["rel_tol"] = curve.metadata["rel_tol"]
    meta["nodes"] = curve.metadata["nodes"]
    meta["max_tail_rel"] = _jsonable(curve.metadata["max_tail_rel"])
    unit = value_col.split("_")[1]
    columns = ["z_m", value_col, f"magnitude_{unit}", "l_terms", "tail_rel"]
    rows = [
        [z, v, abs(v), n, _jsonable(tail)]
        for z, v, n, tail in zip(
            curve.separations,
            curve.values,
            curve.metadata["l_terms_per_z"],
            curve.metadata["tail_rel_per_z"],
        )
    ]
    _emit_table(meta, columns, rows, config.fmt, config.out)
    return curve


@dataclass(frozen=True)
class ComparisonReport:
    """Per-separation gap between the two low-frequency conductivity models."""

    quantity: str
    separations: tuple[float, ...]
    values_a: tuple[float, ...]
    values_b: tuple[float, ...]
    gap_numeric: tuple[float, ...]
    gap_analytic: tuple[float, ...]
    relative_deviation: tuple[float, ...]

    @property
    def max_relative_deviation(self) -> float:
        return max(self.relative_deviation)

    @property
    def passed(self) -> bool:
        return self.max_relative_deviation < GAP_IDENTITY_TOL


def compare_models(config: SweepConfig) -> ComparisonReport:
    """Sweep under both low-frequency models and report numeric vs analytic gaps."""
    probe, high, low = _materials(config)
    zs = config.separations()
    eps0 = with_dc_conductivity(low, False).static_permittivity()
    analytic = _analytic_gap(config, probe, eps0)
    curve_a = _curve(config, probe, high, low, "a")
    curve_b = _curve(config, probe, high, low, "b")
    gap_num = tuple(a - b for a, b in zip(curve_a.values, curve_b.values))
    gap_ana = tuple(analytic(z) for z in zs)
    rel_dev = tuple(abs(n - a) / abs(a) for n, a in zip(gap_num, gap_ana))
    return ComparisonReport(
        quantity=config.quantity,
        separations=zs,
        values_a=curve_a.values,
        values_b=curve_b.values,
        gap_numeric=gap_num,
        gap_analytic=gap_ana,
        relative_deviation=rel_dev,
    )


def _analytic_gap(config: SweepConfig, probe, eps0_low: float):
    """Closed-form zero-frequency gap as a function of separation.

    For a conducting probe (zero-frequency TM amplitude 1) this is the
    standard zeta(3)/trilogarithm form; for a finite-permittivity probe the
    trilogarithm difference with the probe's own amplitude keeps the report
    identity exact.
    """
    # the zero-frequency TM amplitude does not depend on k_perp
    r_probe = reflection_coefficients(probe.static_permittivity(), 0.0, 1.0).r_tm
    radius = config.sphere_radius if config.quantity == "force" else None
    return lambda z: _zero_freq_gap(r_probe, eps0_low, z, config.temperature, radius)


def _write_report(report: ComparisonReport, config: SweepConfig) -> None:
    unit = "N" if report.quantity == "force" else "Pa"
    meta = config.as_metadata()
    meta.pop("low_freq_model", None)
    meta["static_eps_low"] = _jsonable(
        with_dc_conductivity(_build(config, config.low), False).static_permittivity()
    )
    meta["max_relative_deviation"] = _jsonable(report.max_relative_deviation)
    meta["gap_identity_ok"] = report.passed
    columns = [
        "z_m",
        f"value_a_{unit}",
        f"value_b_{unit}",
        f"gap_numeric_{unit}",
        f"gap_analytic_{unit}",
        "relative_deviation",
    ]
    rows = [
        [z, va, vb, gn, ga, _jsonable(rd)]
        for z, va, vb, gn, ga, rd in zip(
            report.separations,
            report.values_a,
            report.values_b,
            report.gap_numeric,
            report.gap_analytic,
            report.relative_deviation,
        )
    ]
    _emit_table(meta, columns, rows, config.fmt, config.out)


# --- permittivity tables ---------------------------------------------------


def permittivity_table(model, xi_grid) -> list[tuple[float, float]]:
    """(xi, eps(i xi)) rows; a xi = 0 static row leads for non-conducting models."""
    rows: list[tuple[float, float]] = []
    if not model.has_dc_conductivity:
        rows.append((0.0, model.static_permittivity()))
    for xi in xi_grid:
        if not xi > 0.0:
            raise ValueError("permittivity grid frequencies must be positive")
        rows.append((float(xi), model.eval(float(xi))))
    return rows


def cmd_permittivity(args) -> int:
    if args.list:
        sys.stdout.write("\n".join(catalog_names()) + "\n")
        return 0
    if not args.material:
        raise UsageError("--material NAME is required (or --list)")
    model = _build_named(args.material, {}, args.optical_table)
    xi_min = parse_quantity(args.ximin, _ANGFREQ_UNITS, "ximin")
    xi_max = parse_quantity(args.ximax, _ANGFREQ_UNITS, "ximax")
    if not 0.0 < xi_min < xi_max:
        raise UsageError("need 0 < ximin < ximax")
    points = int(args.points)
    if points < 2:
        raise UsageError("at least 2 grid points are required")
    grid = np.logspace(math.log10(xi_min), math.log10(xi_max), points)
    rows = permittivity_table(model, grid)
    meta = {
        "schema": SCHEMA_VERSION,
        "material": args.material,
        "xi_min_rad_s": _jsonable(xi_min),
        "xi_max_rad_s": _jsonable(xi_max),
        "points": points,
    }
    _emit_table(meta, ["xi_rad_s", "eps"], [[x, e] for x, e in rows], args.format or "csv", args.out)
    return 0


# --- cantilever commands ----------------------------------------------------


def _cantilever_from_args(args) -> CantileverParams:
    return CantileverParams(
        k=parse_quantity(args.spring_constant, _SPRING_UNITS, "spring constant"),
        f_r=parse_quantity(args.resonance_frequency, _FREQUENCY_UNITS, "resonance frequency"),
        Q=float(args.quality_factor),
        B=parse_quantity(args.bandwidth, _FREQUENCY_UNITS, "bandwidth"),
        T=parse_quantity(args.temperature or "300 K", _TEMPERATURE_UNITS, "temperature"),
    )


def cmd_sensitivity(args) -> int:
    value = min_detectable_force(_cantilever_from_args(args))
    sys.stdout.write(f"min_detectable_force_N = {sig12(value)}\n")
    return 0


def cmd_shift(args) -> int:
    params = _cantilever_from_args(args)
    z = parse_quantity(args.z, _LENGTH_UNITS, "z")
    config = _resolve_sweep_config(args)
    radius = config.sphere_radius
    if args.gradient is not None:
        gradient = float(args.gradient)
    else:
        probe, high, low = _materials(config)
        grid = MatsubaraGrid(T=config.temperature)

        def force(zz: float) -> float:
            return difference_force(
                probe, high, low, radius, zz, grid,
                low_freq_model=config.low_freq_model,
            )

        gradient = five_point_gradient(force, z)
    shift = resonance_shift(params, gradient)
    pressure = pressure_from_force_gradient(radius, gradient)
    sys.stdout.write(f"force_gradient_N_per_m = {sig12(gradient)}\n")
    sys.stdout.write(f"frequency_shift_Hz = {sig12(shift)}\n")
    sys.stdout.write(f"equivalent_pressure_Pa = {sig12(pressure)}\n")
    return 0


def cmd_sweep(args) -> int:
    run_sweep(_resolve_sweep_config(args))
    return 0


def cmd_compare(args) -> int:
    config = _resolve_sweep_config(args)
    report = compare_models(config)
    _write_report(report, config)
    return 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_sweep_flags(sub, include_quantity=True, include_temperature=True):
    if include_quantity:
        sub.add_argument("--quantity", choices=["force", "pressure"])
    sub.add_argument("--config", help="flat key-value config file")
    sub.add_argument("--zmin", help="smallest separation, e.g. '100 nm'")
    sub.add_argument("--zmax", help="largest separation, e.g. '300 nm'")
    sub.add_argument("--points", help="number of separation points")
    sub.add_argument("--spacing", choices=["linear", "log"])
    if include_temperature:
        sub.add_argument("--temperature", help="e.g. '300 K'")
    sub.add_argument("--radius", help="sphere radius, e.g. '100 um'")
    sub.add_argument("--probe", help="probe-side material")
    sub.add_argument("--high", help="higher carrier density section")
    sub.add_argument("--low", help="lower carrier density section")
    sub.add_argument("--model", choices=["a", "b"], help="low-frequency conductivity model")
    sub.add_argument("--format", choices=["csv", "json"])
    sub.add_argument("--out", help="output path ('-' for stdout)")
    sub.add_argument("--workers", help="worker processes for the separation sweep")
    sub.add_argument("--optical-table", dest="optical_table", help="two-column (omega_eV, Im eps) file")


def _add_cantilever_flags(sub):
    sub.add_argument("--spring-constant", required=True, help="e.g. '0.03 N/m'")
    sub.add_argument("--resonance-frequency", required=True, help="e.g. '1130.9 Hz'")
    sub.add_argument("--quality-factor", required=True, help="dimensionless")
    sub.add_argument("--bandwidth", required=True, help="e.g. '0.3 Hz'")
    sub.add_argument("--temperature", help="e.g. '77 K'")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casimirdiff", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="difference force/pressure over a separation grid")
    _add_sweep_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    compare = subs.add_parser("compare", help="gap between low-frequency models vs the closed form")
    _add_sweep_flags(compare)
    compare.set_defaults(func=cmd_compare)

    perm = subs.add_parser("permittivity", help="eps(i xi) table for a cataloged material")
    perm.add_argument("--material", help="catalog name")
    perm.add_argument("--list", action="store_true", help="list catalog names")
    perm.add_argument("--ximin", default="1e13 rad/s")
    perm.add_argument("--ximax", default="1e17 rad/s")
    perm.add_argument("--points", default="60")
    perm.add_argument("--format", choices=["csv", "json"])
    perm.add_argument("--out")
    perm.add_argument("--optical-table", dest="optical_table")
    perm.set_defaults(func=cmd_permittivity)

    sens = subs.add_parser("sensitivity", help="thermal-noise force sensitivity")
    _add_cantilever_flags(sens)
    sens.set_defaults(func=cmd_sensitivity)

    shift = subs.add_parser("shift", help="resonance shift and equivalent pressure from a force gradient")
    _add_cantilever_flags(shift)
    shift.add_argument("--z", required=True, help="separation, e.g. '150 nm'")
    shift.add_argument("--gradient", help="force gradient in N/m (skip the sweep computation)")
    # --temperature (from the cantilever flags) covers both the noise model
    # and the Matsubara grid of the force computation
    _add_sweep_flags(shift, include_quantity=False, include_temperature=False)
    shift.set_defaults(func=cmd_shift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "quantity"):
            args.quantity = None
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        diag = exc.diagnostics
        print(
            f"error: not converged: terms={diag.n_terms} "
            f"tail_rel={diag.last_term_rel:.3e}",
            file=sys.stderr,
        )
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
