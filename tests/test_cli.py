"""CLI: sweeps, comparison reports, permittivity tables, unit parsing, exits."""

import json
import math
import warnings

import numpy as np
import pytest

import casimirdiff as cd
from casimirdiff import cli
from casimirdiff.constants import EV_TO_RAD_S
from test_golden import _lorentz_table


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- unit parsing -----------------------------------------------------------


def test_parse_quantity_units():
    assert cli.parse_quantity("100 nm", cli._LENGTH_UNITS, "z") == pytest.approx(1e-7)
    assert cli.parse_quantity("100nm", cli._LENGTH_UNITS, "z") == pytest.approx(1e-7)
    assert cli.parse_quantity("0.1 mm", cli._LENGTH_UNITS, "z") == pytest.approx(1e-4)
    assert cli.parse_quantity("1 eV", cli._ANGFREQ_UNITS, "xi") == pytest.approx(EV_TO_RAD_S)
    with pytest.raises(cli.UsageError):
        cli.parse_quantity("100", cli._LENGTH_UNITS, "z")  # missing unit
    with pytest.raises(cli.UsageError):
        cli.parse_quantity("100 K", cli._LENGTH_UNITS, "z")  # wrong dimension
    with pytest.raises(cli.UsageError):
        cli.parse_quantity("abc nm", cli._LENGTH_UNITS, "z")
    # the pattern admits a second point; float() then fails
    with pytest.raises(cli.UsageError, match="cannot parse z_min: '1.2.3nm'"):
        cli.parse_quantity("1.2.3nm", cli._LENGTH_UNITS, "z_min")
    with pytest.raises(cli.UsageError, match="cannot parse temperature: '0.0.1K'"):
        cli.parse_quantity("0.0.1K", cli._TEMPERATURE_UNITS, "temperature")


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--points", "3", "--quantity", "pressure", "--out", "-"
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("quantity = pressure" in l for l in header)
    assert any("schema = casimirdiff.v1" in l for l in header)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "z_m,pressure_Pa,magnitude_Pa,l_terms,tail_rel"
    first = data[1].split(",")
    assert float(first[0]) == pytest.approx(1e-7)
    assert float(first[1]) < 0.0
    assert float(first[2]) == abs(float(first[1]))
    assert int(first[3]) > 10


def test_sweep_json_and_value(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--points", "2", "--format", "json", "--out", "-"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["quantity"] == "force"
    assert doc["config"]["material_low"] == "si-doped-low"
    assert doc["columns"][0] == "z_m"
    value = doc["rows"][0][1]
    direct = cd.difference_force(
        cd.build_material("gold-drude"),
        cd.build_material("si-doped-n1"),
        cd.build_material("si-doped-low"),
        100e-6,
        100e-9,
        cd.MatsubaraGrid(T=300.0),
        low_freq_model="a",
    )
    assert abs(value / direct - 1.0) < 1e-11


def test_sweep_identical_sections_all_zero(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--points", "3", "--high", "si-doped-n1", "--low", "si-doped-n1",
        "--model", "b", "--out", "-",
    )
    assert code == 0
    data = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in data)


def test_sweep_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code = cli.main(["sweep", "--points", "3", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_workers_identical(tmp_path):
    one = tmp_path / "w1.csv"
    two = tmp_path / "w2.csv"
    assert cli.main(["sweep", "--points", "3", "--workers", "1", "--out", str(one)]) == 0
    assert cli.main(["sweep", "--points", "3", "--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_sweep_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "quantity = pressure\n"
        "z_min = 120 nm\n"
        "z_max = 240 nm\n"
        "points = 2\n"
        "temperature = 300 K\n"
        "model = b\n"
    )
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(cfg), "--points", "3", "--out", "-"
    )
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("#")]
    assert any("points = 3" in l for l in header)  # flag wins over file
    assert any("quantity = pressure" in l for l in header)
    assert any("low_freq_model = b" in l for l in header)
    first_z = float([l for l in out.splitlines() if not l.startswith("#")][1].split(",")[0])
    assert first_z == pytest.approx(120e-9)


def test_sweep_drude_override(tmp_path, capsys):
    cfg = tmp_path / "gold.cfg"
    cfg.write_text(
        "points = 2\n"
        "drude_omega_p.gold-drude = 8.5 eV\n"
        "drude_gamma.gold-drude = 0.05 eV\n"
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out", "-")
    assert code == 0
    weaker = float([l for l in out.splitlines() if not l.startswith("#")][1].split(",")[1])
    code, out, _ = run_cli(capsys, "sweep", "--points", "2", "--out", "-")
    stock = float([l for l in out.splitlines() if not l.startswith("#")][1].split(",")[1])
    assert abs(weaker) < abs(stock)


def test_sweep_non_finite_drude_override_exit_1(tmp_path, capsys):
    cfg = tmp_path / "gold.cfg"
    cfg.write_text(
        "points = 2\n"
        "drude_omega_p.gold-drude = 1e999 eV\n"
        "drude_gamma.gold-drude = 0.05 eV\n"
    )
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", "-")
    assert code == 1
    assert "omega_p" in err


def test_sweep_unknown_material_exit_1(capsys):
    code, _, err = run_cli(capsys, "sweep", "--high", "kryptonite", "--points", "2")
    assert code == 1
    assert "kryptonite" in err


def test_sweep_config_validation_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--zmin", "300 nm", "--zmax", "100 nm", "--points", "2"
    )
    assert code == 1
    assert "z_min" in err
    code, _, err = run_cli(capsys, "sweep", "--points", "1")
    assert code == 1
    for flag, value, field in (
        ("--quantity", "energy", "quantity"),
        ("--spacing", "cubic", "spacing"),
        ("--model", "c", "model"),
        ("--format", "xml", "format"),
        ("--zmin", "-50 nm", "z_min"),
        ("--temperature", "0 K", "temperature"),
        ("--radius", "0 um", "radius"),
        ("--workers", "0", "workers"),
        ("--workers", "two", "workers must be an integer"),
    ):
        code, out, err = run_cli(capsys, "sweep", "--points", "2", flag, value)
        assert (code, out) == (1, "")
        assert field in err


def test_sweep_output_is_self_describing(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--points", "2", "--out", "-")
    assert code == 0
    header = "\n".join(l for l in out.splitlines() if l.startswith("#"))
    for key in (
        "quantity", "z_min_m", "z_max_m", "points", "spacing", "temperature_K",
        "sphere_radius_m", "probe", "material_high", "material_low",
        "low_freq_model", "rel_tol", "nodes", "schema",
    ):
        assert f"# {key} = " in header


def test_sweep_bad_unit_exit_1(capsys):
    code, _, err = run_cli(capsys, "sweep", "--zmin", "100", "--points", "2")
    assert code == 1
    assert "unit" in err


def test_sweep_unwritable_output_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--points", "2", "--out", "/nonexistent-dir/out.csv"
    )
    assert code == 1
    assert "error" in err


def test_sweep_nonconvergent_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--points", "2", "--high", "ideal-metal", "--low", "vacuum",
        "--temperature", "1 K", "--out", "-",
    )
    assert code == 2
    assert "not converged" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_term_cap_message_names_temperature_separation_and_cap(workers, capsys):
    # below about 1 K the sum needs more than the default 20000 terms; the
    # message says so, also when the sum ran in a pool worker
    code, out, err = run_cli(
        capsys, "sweep", "--temperature", "0.5 K", "--points", "2", "--workers", workers,
        "--out", "-",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: not converged at T = 0.5 K, z = 100 nm: ")
    assert "this temperature needs more Matsubara terms than l_max_cap = 20000" in err
    assert "Traceback" not in err


# --- compare ------------------------------------------------------------------


def test_compare_force_report(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--points", "3", "--zmin", "100 nm", "--zmax", "300 nm",
        "--out", "-",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any("gap_identity_ok = True" in l for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split(",") == [
        "z_m", "value_a_N", "value_b_N", "gap_numeric_N", "gap_analytic_N",
        "relative_deviation",
    ]
    first = data[1].split(",")
    gap_analytic = float(first[4])
    assert abs(abs(gap_analytic) / 1.2e-12 - 1.0) < 0.02
    assert all(float(row.split(",")[5]) < 1e-4 for row in data[1:])
    # last row: 300 nm analytic gap is one ninth of the first
    last = data[-1].split(",")
    assert abs(float(last[4]) / (gap_analytic / 9.0) - 1.0) < 1e-9


def test_compare_pressure_gap(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--points", "2", "--quantity", "pressure", "--format", "json",
        "--out", "-",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["gap_identity_ok"] is True
    gap_100 = doc["rows"][0][4]
    assert abs(abs(gap_100) / 38.6e-3 - 1.0) < 0.01


def test_compare_dielectric_probe_identity_holds(capsys):
    # the report's analytic gap generalizes to non-conducting probes
    code, out, _ = run_cli(
        capsys, "compare", "--points", "2", "--probe", "si-dielectric",
        "--format", "json", "--out", "-",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["gap_identity_ok"] is True


def test_compare_vo2_report(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--points", "2", "--probe", "gold-drude", "--high", "vo2-metal",
        "--low", "vo2-insulator", "--temperature", "340 K", "--format", "json", "--out", "-",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["static_eps_low"] == pytest.approx(9.909, abs=1e-9)
    gap_100, gap_300 = doc["rows"][0][4], doc["rows"][1][4]
    assert abs(abs(gap_100) / 1.6e-12 - 1.0) < 0.05
    assert abs(abs(gap_300) / 0.2e-12 - 1.0) < 0.15
    assert doc["config"]["gap_identity_ok"] is True


# --- permittivity ---------------------------------------------------------------


def test_permittivity_static_row_and_monotonic(capsys):
    code, out, _ = run_cli(
        capsys, "permittivity", "--material", "vo2-insulator", "--points", "5",
        "--ximin", "1e14 rad/s", "--ximax", "1e17 rad/s", "--out", "-",
    )
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(9.909, abs=1e-9)
    eps = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_permittivity_drude_material_has_no_static_row(capsys):
    code, out, _ = run_cli(
        capsys, "permittivity", "--material", "gold-drude", "--points", "3", "--out", "-"
    )
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert float(rows[0][0]) > 0.0


def test_permittivity_si_high_frequency(capsys):
    code, out, _ = run_cli(
        capsys, "permittivity", "--material", "si-dielectric", "--points", "4",
        "--ximin", "1e17 rad/s", "--ximax", "1e25 rad/s", "--out", "-",
    )
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
    dynamic = [(float(r[0]), float(r[1])) for r in rows if float(r[0]) > 0.0]
    assert all(v < 2.0 for _, v in dynamic)
    assert abs(dynamic[-1][1] - 1.0) < 1e-6


def test_permittivity_list(capsys):
    code, out, _ = run_cli(capsys, "permittivity", "--list")
    assert code == 0
    assert "vo2-insulator" in out.split()


def test_permittivity_tabulated(tmp_path, capsys):
    table = tmp_path / "table.dat"
    table.write_text("0.5 3.0\n1.0 1.5\n2.0 0.4\n")
    code, out, _ = run_cli(
        capsys, "permittivity", "--material", "tabulated", "--optical-table", str(table),
        "--points", "3", "--ximin", "0.5 eV", "--ximax", "2 eV", "--out", "-",
    )
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
    assert all(float(r[1]) > 1.0 for r in rows)


def test_permittivity_requires_material(capsys):
    code, _, err = run_cli(capsys, "permittivity")
    assert code == 1
    for argv, message in (
        (("--material", "tabulated"), "--optical-table"),
        (("--material", "vacuum", "--ximin", "1 eV", "--ximax", "1 eV"), "ximin < ximax"),
        (("--material", "vacuum", "--points", "1"), "at least 2 grid points"),
        (("--material", "vacuum", "--points", "abc"), "points must be an integer: got 'abc'"),
    ):
        code, out, err = run_cli(capsys, "permittivity", *argv)
        assert (code, out) == (1, "")
        assert message in err
    with pytest.raises(ValueError, match="must be positive"):
        cli.permittivity_table(cd.build_material("vacuum"), [1e15, 0.0])


def test_permittivity_json_refuses_an_infinite_eps(capsys):
    # JSON (RFC 8259) has no Infinity; CSV keeps writing inf
    argv = ("permittivity", "--material", "ideal-metal", "--points", "2")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out) == (1, "")
    assert "'ideal-metal'" in err and "--format csv" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[-1].endswith(",inf")
    with pytest.raises(ValueError):
        cli._emit_table({}, ["x"], [[math.nan]], "json", None)


def test_permittivity_table_prints_the_kernels_bits():
    probe = cd.build_material("tabulated", table=_lorentz_table(600))
    vo2 = (cd.build_material("vo2-metal"), cd.build_material("vo2-insulator"))
    cd.difference_force(probe, *vo2, 100e-6, 100e-9, cd.MatsubaraGrid(T=340.0))
    eps = probe._eps_memo.entry[1]
    n = len(eps)
    rows = cli.permittivity_table(probe, cd.matsubara_frequency(np.arange(1, n + 1), 340.0))
    assert rows[0][0] == 0.0
    assert [e for _, e in rows[1:]] == eps.tolist()


# --- cantilever commands ----------------------------------------------------------


def test_sensitivity_command(capsys):
    code, out, _ = run_cli(
        capsys, "sensitivity", "--spring-constant", "0.03 N/m",
        "--resonance-frequency", "1130.9 Hz", "--quality-factor", "5889.2",
        "--bandwidth", "0.3 Hz", "--temperature", "77 K",
    )
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value / 0.96e-15 - 1.0) < 0.01


def test_shift_command_with_explicit_gradient(capsys):
    code, out, _ = run_cli(
        capsys, "shift", "--spring-constant", "0.03 N/m",
        "--resonance-frequency", "1130.9 Hz", "--quality-factor", "5889.2",
        "--bandwidth", "0.3 Hz", "--temperature", "300 K",
        "--z", "150 nm", "--gradient", "1e-5",
    )
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines()
    )
    assert float(values["force_gradient_N_per_m"]) == pytest.approx(1e-5)
    assert float(values["frequency_shift_Hz"]) == pytest.approx(
        -1130.9 * 1e-5 / (2 * 0.03), rel=1e-9
    )
    assert float(values["equivalent_pressure_Pa"]) == pytest.approx(
        -1e-5 / (2 * math.pi * 100e-6), rel=1e-9
    )


def test_shift_command_computed_gradient(capsys):
    code, out, _ = run_cli(
        capsys, "shift", "--spring-constant", "0.03 N/m",
        "--resonance-frequency", "1130.9 Hz", "--quality-factor", "5889.2",
        "--bandwidth", "0.3 Hz", "--temperature", "300 K", "--z", "150 nm",
    )
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["force_gradient_N_per_m"]) == pytest.approx(
        4.7239519662515066e-05, rel=1e-6
    )
    assert float(values["frequency_shift_Hz"]) == pytest.approx(-0.89038621, rel=1e-6)
    # equivalent pressure agrees with the one-pass difference pressure
    direct = cd.difference_pressure(
        cd.build_material("gold-drude"),
        cd.build_material("si-doped-n1"),
        cd.build_material("si-doped-low"),
        150e-9,
        cd.MatsubaraGrid(T=300.0),
        low_freq_model="a",
    )
    assert float(values["equivalent_pressure_Pa"]) == pytest.approx(direct, rel=1e-3)


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--gradient", "nan", "force gradient must be finite"),
        ("--gradient", "inf", "force gradient must be finite"),
        ("--gradient", "-inf", "force gradient must be finite"),
        ("--gradient", "abc", "argument --gradient: invalid float value: 'abc'"),
        ("--quality-factor", "abc", "argument --quality-factor: invalid float value: 'abc'"),
    ],
)
def test_shift_bad_number_exit_1(flag, text, message, capsys):
    # the last of a repeated flag wins
    code, out, err = run_cli(capsys, *_SHIFT, "--gradient=1e-5", f"{flag}={text}")
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("text, code, message", [
    ("-1e-5", 0, ""),
    ("-2.5E-6", 0, ""),
    ("-.5e-5", 0, ""),
    ("-inf", 1, "force gradient must be finite"),
])
def test_shift_negative_gradient_is_a_value(text, code, message, capsys):
    # argparse's own pattern reads -1e-5 and -inf as flags
    spaced = run_cli(capsys, *_SHIFT, "--gradient", text)
    assert spaced == run_cli(capsys, *_SHIFT, f"--gradient={text}")
    assert spaced[0] == code
    assert message in spaced[2]


@pytest.mark.parametrize("z", ["-100 nm", "0 nm", "1e400 nm"])
@pytest.mark.parametrize("gradient", [(), ("--gradient=1e-6",)], ids=["computed", "given"])
def test_shift_separation_must_be_positive(z, gradient, capsys):
    # the last of a repeated flag wins
    code, out, err = run_cli(capsys, *_SHIFT, f"--z={z}", *gradient)
    assert (code, out) == (1, "")
    assert "z must be positive" in err


def test_usage_error_on_bad_flag(capsys):
    code, _, err = run_cli(capsys, "sweep", "--bogus-flag", "1")
    assert code == 1


@pytest.mark.parametrize(
    "flag, text, setting",
    [("--zmin", "1.2.3nm", "z_min"), ("--temperature", "0.0.1K", "temperature")],
)
def test_sweep_malformed_number_names_setting(flag, text, setting, capsys):
    code, out, err = run_cli(capsys, "sweep", "--points", "2", flag, text)
    assert (code, out) == (1, "")
    assert f"cannot parse {setting}: '{text}'" in err


@pytest.mark.parametrize("argv, setting", [
    (("sweep", "--zmax", "1e400 nm"), "z_max"),
    (("sweep", "--zmin", "1e400 nm"), "z_min"),
    (("sweep", "--temperature", "1e400 K"), "temperature"),
    (("sweep", "--radius", "1e400 um"), "radius"),
    (("compare", "--zmax", "1e400 nm"), "z_max"),
    (("permittivity", "--material", "vacuum", "--ximax", "1e400 rad/s"), "ximax"),
    (("permittivity", "--material", "vacuum", "--ximin", "1e400 rad/s"), "ximin"),
], ids=["sweep-zmax", "sweep-zmin", "sweep-temperature", "sweep-radius", "compare-zmax",
        "permittivity-ximax", "permittivity-ximin"])
def test_non_finite_grid_end_names_setting(argv, setting, capsys):
    # an overflowing number parses as inf; it is refused before np.logspace
    # could warn about it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, "--points", "2")
    assert (code, out) == (1, "")
    assert f"{setting} must be positive and finite" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# --- one settings table ---------------------------------------------------------

_SHIFT = (
    "shift", "--spring-constant", "0.03 N/m", "--resonance-frequency", "1130.9 Hz",
    "--quality-factor", "5889.2", "--bandwidth", "0.3 Hz", "--z", "150 nm",
)


def test_compare_non_reflecting_probe_exit_1(capsys, monkeypatch):
    def no_curve(*args, **kwargs):
        raise AssertionError("a curve was computed")

    monkeypatch.setattr(cli, "_model_curves", no_curve)
    code, _, err = run_cli(capsys, "compare", "--probe", "vacuum", "--points", "2")
    assert code == 1
    assert "'vacuum'" in err
    assert "does not reflect at zero frequency" in err


def test_config_unknown_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("points = 2\ntemprature = 77 K\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"{cfg}:2: unknown setting 'temprature'" in err
    cfg.write_text("points = 2\ntemperature 77 K\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert f"{cfg}:2: expected 'key = value'" in err


@pytest.mark.parametrize(
    "lines, entry",
    [
        # a typo for gold-drude
        ("drude_omega_p.gold = 8.5 eV\ndrude_gamma.gold = 0.05 eV\n", "'gold'"),
        # an entry without free carriers
        ("drude_omega_p.si-dielectric = 1 eV\ndrude_gamma.si-dielectric = 0.1 eV\n",
         "'si-dielectric'"),
        # half a pair, for an entry this run does not use
        ("drude_omega_p.si-doped-n2 = 1 eV\n", "'si-doped-n2'"),
    ],
    ids=["typo", "no-free-carriers", "lone-key-unused-entry"],
)
def test_drude_override_checked_for_every_entry_exit_1(lines, entry, tmp_path, capsys):
    cfg = tmp_path / "drude.cfg"
    cfg.write_text("points = 2\n" + lines)
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert f"drude override for {entry}" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("compare", "--points", "2", "--model", "a"), "--model"),
        (_SHIFT + ("--gradient", "1e-5", "--out", "shift.txt"), "--out"),
        (_SHIFT + ("--gradient", "1e-5", "--zmin", "300 nm"), "--zmin"),
    ],
)
def test_flags_a_command_does_not_read_exit_1(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


def test_one_config_file_serves_every_command(tmp_path, capsys):
    # every key of the settings table, the sweep-grid and output keys included;
    # the optical table is read although no material of the run is tabulated
    ignored = tmp_path / "ignored.csv"
    table = tmp_path / "table.dat"
    table.write_text("0.5 3.0\n1.0 1.5\n")
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "quantity = pressure\nz_min = 120 nm\nz_max = 240 nm\npoints = 2\n"
        "spacing = linear\ntemperature = 300 K\nradius = 50 um\nprobe = gold-drude\n"
        "high = si-doped-n1\nlow = si-doped-low\nmodel = b\nformat = json\n"
        f"out = {ignored}\nworkers = 1\noptical_table = {table}\n"
        "drude_omega_p.gold-drude = 9.0 eV\ndrude_gamma.gold-drude = 0.035 eV\n"
    )
    code, from_file, _ = run_cli(capsys, *_SHIFT, "--config", str(cfg))
    assert code == 0
    assert not ignored.exists()
    code, from_flags, _ = run_cli(capsys, *_SHIFT, "--radius", "50 um", "--model", "b")
    assert code == 0
    assert from_file == from_flags
    for command in ("sweep", "compare"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        assert json.loads((tmp_path / command).read_text())["config"]["sphere_radius_m"] == 5e-5


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("0.5 3.0\n1.0\n", "expected two columns"),
    ("1.0 3.0\n0.5 1.5\n", "strictly increasing"),
    ("0.5 3.0\n1.0 abc\n", ":2:"),
], ids=["missing", "one-column", "decreasing", "not-a-number"])
def test_optical_table_read_whenever_given_exit_1(content, message, tmp_path, capsys):
    table = tmp_path / "table.dat"
    if content is not None:
        table.write_text(content)
    for argv in (
        ("sweep", "--points", "2"),
        ("compare", "--points", "2"),
        _SHIFT,
        ("permittivity", "--material", "gold-drude", "--points", "2"),
    ):
        code, out, err = run_cli(capsys, *argv, "--optical-table", str(table))
        assert (code, out) == (1, ""), argv
        assert message in err


@pytest.mark.parametrize("content, message", [
    ("0.5 3.0\n1.0 nan\n", "im_eps must be non-negative and finite"),
    ("0.5 3.0\n1.0 -0.5\n", "im_eps must be non-negative and finite"),
    ("0.5 3.0\n0.5 1.5\n", "frequencies must be strictly increasing"),
    ("0.5 3.0\n", "optical data table needs at least 2 rows"),
], ids=["nan", "negative", "repeated-frequency", "one-row"])
def test_invalid_optical_table_names_its_file(content, message, tmp_path, capsys):
    table = tmp_path / "table.dat"
    table.write_text(content)
    code, out, err = run_cli(capsys, "sweep", "--points", "2", "--optical-table", str(table))
    assert (code, out) == (1, "")
    assert f"error: {table}: {message}" in err


@pytest.mark.parametrize("argv", [
    ("permittivity", "--material", "tabulated", "--optical-table"),
    ("sweep", "--points", "2", "--config"),
], ids=["permittivity-optical-table", "sweep-config"])
def test_undecodable_bytes_name_their_file_and_line(argv, tmp_path, capsys):
    # each line is decoded on its own, after a CRLF line and a blank one
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# measured\r\n\n0.5 3.0 # \xb1 0.1\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert f"error: {path}:3: 'utf-8' codec can't decode byte 0xb1" in err
