"""Permittivity models, catalog parameters, and tabulated-data ingestion."""

import math

import numpy as np
import pytest

import casimirdiff as cd
from casimirdiff.constants import ev_to_rad_s, rad_s_to_ev

# catalog entries with concrete built-in parameters (si-doped and tabulated
# need arguments; ideal-metal is the eps -> inf oracle fixture)
FINITE_MODELS = [
    "gold-drude",
    "si-dielectric",
    "si-doped-n1",
    "si-doped-n2",
    "si-doped-low",
    "vo2-insulator",
    "vo2-metal",
    "vacuum",
]


def test_constants_positive_and_consistent():
    c = cd.CONSTANTS
    for value in (c.kB, c.hbar, c.c, c.eps0, c.e, c.me, c.eV_to_rad_s):
        assert value > 0.0
    assert abs(c.eV_to_rad_s * c.hbar / c.e - 1.0) < 1e-12


def test_inconsistent_conversion_rejected():
    with pytest.raises(ValueError):
        cd.PhysicalConstants(eV_to_rad_s=1.0e15)


@pytest.mark.parametrize(
    "ev", [1.02, 1.30, 1.50, 2.75, 3.49, 3.76, 5.1, 0.86, 2.8, 3.48, 4.6, 15.0, 3.33, 0.66]
)
def test_ev_roundtrip(ev):
    assert abs(rad_s_to_ev(ev_to_rad_s(ev)) / ev - 1.0) < 1e-12


def test_vo2_insulator_catalog():
    m = cd.build_material("vo2-insulator")
    assert len(m.oscillators) == 7
    assert m.oscillators[0].strength == 0.79
    assert abs(m.oscillators[0].omega / ev_to_rad_s(1.02) - 1.0) < 1e-12
    assert m.tail.eps_inf == 4.26
    assert abs(m.tail.omega_inf / ev_to_rad_s(15.0) - 1.0) < 1e-12
    assert m.drude is None


def test_vo2_metal_catalog():
    m = cd.build_material("vo2-metal")
    assert len(m.oscillators) == 4
    assert m.oscillators[0].strength == 1.816
    assert abs(m.oscillators[0].omega / ev_to_rad_s(0.86) - 1.0) < 1e-12
    assert m.tail.eps_inf == 3.95
    assert abs(m.drude.omega_p / ev_to_rad_s(3.33) - 1.0) < 1e-12
    assert abs(m.drude.gamma / ev_to_rad_s(0.66) - 1.0) < 1e-12


def test_si_doped_catalog_parameters():
    expected = {
        "si-doped-n1": (2.0e15, 2.4e14),
        "si-doped-n2": (6.3e14, 1.8e13),
        "si-doped-low": (3.5e13, 1.8e13),
    }
    for name, (omega_p, gamma) in expected.items():
        m = cd.build_material(name)
        assert m.drude.omega_p == omega_p
        assert m.drude.gamma == gamma
        assert m.tail.eps_inf == 11.66


def test_gold_drude_catalog():
    m = cd.build_material("gold-drude")
    assert abs(m.drude.omega_p / ev_to_rad_s(9.0) - 1.0) < 1e-12
    assert abs(m.drude.gamma / ev_to_rad_s(0.035) - 1.0) < 1e-12


def test_build_material_errors():
    with pytest.raises(ValueError):
        cd.build_material("unobtainium")
    with pytest.raises(ValueError):
        cd.build_material("si-doped")
    with pytest.raises(ValueError):
        cd.build_material("tabulated")


def test_static_permittivity_vo2():
    m = cd.build_material("vo2-insulator")
    eps0 = m.static_permittivity()
    assert abs(eps0 - 9.909) < 1e-12
    # exact 7-term sum identity
    assert eps0 == m.tail.eps_inf + sum(o.strength for o in m.oscillators)
    # the xi -> 0 evaluation agrees (no free carriers, no divergence)
    assert m.eval(0.0) == eps0
    assert cd.build_material("si-dielectric").eval(0.0) == 11.66


def test_static_permittivity_si():
    assert cd.build_material("si-dielectric").static_permittivity() == 11.66


@pytest.mark.parametrize("name", ["si-doped-n1", "si-doped-n2", "si-doped-low"])
def test_static_permittivity_doped_is_infinite(name):
    assert math.isinf(cd.build_material(name).static_permittivity())


@pytest.mark.parametrize("name", FINITE_MODELS)
def test_high_frequency_limit(name):
    assert abs(cd.build_material(name).eval(1e25) - 1.0) < 1e-6


@pytest.mark.parametrize("name", FINITE_MODELS)
def test_monotonic_along_imaginary_axis(name):
    m = cd.build_material(name)
    grid = np.logspace(12, 20, 120)
    values = [m.eval(x) for x in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(v >= 1.0 for v in values)


def test_eval_domain_errors():
    doped = cd.build_material("si-doped-n1")
    with pytest.raises(ValueError):
        doped.eval(-1.0)
    with pytest.raises(ValueError):
        doped.eval(0.0)
    # collisionless free carriers still diverge at zero frequency
    lossless = cd.build_material("si-doped", drude=cd.DrudeParams(omega_p=1e15, gamma=0.0))
    assert lossless.eval(1e14) > 1.0
    with pytest.raises(ValueError):
        lossless.eval(0.0)


def test_model_b_matches_closed_form_at_first_matsubara():
    xi1 = cd.matsubara_frequency(1, 300.0)
    m = cd.build_material("si-doped-low")
    expected = (
        1.0
        + (11.66 - 1.0) / (1.0 + (xi1 / 6.6e15) ** 2)
        + 3.5e13**2 / (xi1 * (xi1 + 1.8e13))
    )
    assert abs(m.eval(xi1) / expected - 1.0) < 1e-14
    assert abs(m.eval(xi1) / 11.663864929914096 - 1.0) < 1e-12


def test_tail_only_model():
    tail = cd.HighFreqTail(eps_inf=5.0, omega_inf=2e15)
    m = cd.PermittivityModel(label="tail", tail=tail)
    for xi in (1e13, 1e15, 1e17):
        assert m.eval(xi) == 1.0 + 4.0 / (1.0 + (xi / 2e15) ** 2)


def test_dc_conductivity_toggle():
    m = cd.build_material("si-doped-low")
    off = cd.with_dc_conductivity(m, False)
    on = cd.with_dc_conductivity(m, True)
    assert math.isinf(m.static_permittivity())
    assert off.static_permittivity() == 11.66
    assert math.isinf(on.static_permittivity())
    for xi in (1e13, 2.5e14, 1e16):
        assert off.eval(xi) == m.eval(xi) == on.eval(xi)
    # a dielectric can acquire a dc divergence at zero frequency only
    ins = cd.with_dc_conductivity(cd.build_material("vo2-insulator"), True)
    assert math.isinf(ins.static_permittivity())
    with pytest.raises(ValueError):
        ins.eval(0.0)
    with pytest.raises(ValueError):
        cd.with_dc_conductivity(cd.build_material("ideal-metal"), False)


def test_te_zero_rule():
    gold = cd.build_material("gold-drude")
    assert gold.te_zero == "zero"
    assert cd.with_te_zero(gold, "plasma").te_zero == "plasma"
    with pytest.raises(ValueError):
        cd.with_te_zero(gold, "bogus")


def test_parameter_validation():
    with pytest.raises(ValueError):
        cd.DrudeParams(omega_p=-1.0, gamma=0.0)
    with pytest.raises(ValueError):
        cd.DrudeParams(omega_p=1e15, gamma=-1.0)
    with pytest.raises(ValueError):
        cd.OscillatorParams(omega=0.0, Gamma=0.1, strength=1.0)
    with pytest.raises(ValueError):
        cd.OscillatorParams(omega=1e15, Gamma=0.1, strength=0.0)
    with pytest.raises(ValueError):
        cd.HighFreqTail(eps_inf=0.5, omega_inf=1e15)
    with pytest.raises(ValueError):
        cd.CarrierParams(n=-1e20, m_eff=1e-30)
    with pytest.raises(ValueError):
        cd.CarrierParams(n=1e20, m_eff=1e-30, sigma=0.0)


def test_plasma_frequency_reproduces_quoted_value():
    params = cd.CarrierParams(n=3.2e26, m_eff=0.26 * cd.CONSTANTS.me)
    omega_p = cd.plasma_frequency(params)
    assert abs(omega_p / 2.0e15 - 1.0) < 0.02
    assert abs(omega_p / 1979155174543462.2 - 1.0) < 1e-12


def test_plasma_frequency_square_root_law():
    base = cd.CarrierParams(n=1e23, m_eff=0.26 * cd.CONSTANTS.me)
    quad = cd.CarrierParams(n=4e23, m_eff=0.26 * cd.CONSTANTS.me)
    assert abs(cd.plasma_frequency(quad) / (2.0 * cd.plasma_frequency(base)) - 1.0) < 1e-12
    assert abs(cd.plasma_frequency(base) / 34986851123503.176 - 1.0) < 1e-12


def test_scattering_time():
    assert abs(cd.scattering_time(2e5, 2.0e15) / (2 * cd.scattering_time(1e5, 2.0e15)) - 1) < 1e-12
    sigma = cd.CONSTANTS.eps0 * (2.0e15) ** 2 * 1e-14
    assert abs(cd.scattering_time(sigma, 2.0e15) / 1e-14 - 1.0) < 1e-12
    assert abs(cd.scattering_time(1e5, 2.0e15) / 2.8235226684325477e-15 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        cd.scattering_time(-1.0, 2e15)
    with pytest.raises(ValueError):
        cd.scattering_time(1e5, 0.0)


# --- Kramers-Kronig ingestion -------------------------------------------


def _lorentz_im_eps(omega, omega0, Gamma, strength):
    r = omega / omega0
    return strength * Gamma * r / ((1.0 - r * r) ** 2 + (Gamma * r) ** 2)


def test_kk_zero_spectrum_gives_vacuum():
    table = cd.OpticalDataTable(omega=(1e14, 1e15, 1e16), im_eps=(0.0, 0.0, 0.0))
    for xi in (1e13, 1e15, 1e17):
        assert cd.kk_to_imaginary_axis(table, xi) == 1.0


def test_kk_reproduces_closed_form_oscillator():
    omega0, Gamma, strength = 2.0e15, 0.3, 2.0
    grid = np.logspace(math.log10(omega0 / 300), math.log10(omega0 * 300), 4000)
    table = cd.OpticalDataTable(
        omega=tuple(grid),
        im_eps=tuple(_lorentz_im_eps(w, omega0, Gamma, strength) for w in grid),
    )
    for xi in np.logspace(math.log10(omega0 / 30), math.log10(omega0 * 30), 15):
        exact = 1.0 + strength / (1.0 + (xi / omega0) ** 2 + Gamma * xi / omega0)
        assert abs(cd.kk_to_imaginary_axis(table, xi) / exact - 1.0) < 0.01


def test_kk_tends_to_one_monotonically():
    omega0 = 2.0e15
    grid = np.logspace(13.5, 16.5, 500)
    table = cd.OpticalDataTable(
        omega=tuple(grid),
        im_eps=tuple(_lorentz_im_eps(w, omega0, 0.3, 2.0) for w in grid),
    )
    values = [cd.kk_to_imaginary_axis(table, xi) for xi in np.logspace(17, 20, 10)]
    assert all(v > 1.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] - 1.0 < 1e-4


def test_kk_errors():
    table = cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(1.0, 0.5))
    with pytest.raises(ValueError):
        cd.kk_to_imaginary_axis(table, 0.0)
    with pytest.raises(ValueError):
        cd.kk_to_imaginary_axis(table, -1e14)


def test_optical_table_validation():
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e15,), im_eps=(1.0,))
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e15, 1e14), im_eps=(1.0, 1.0))
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(1.0, -0.1))
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(1.0,))


def test_load_optical_table(tmp_path):
    path = tmp_path / "table.dat"
    path.write_text(
        "# omega_eV  im_eps\n"
        "0.5 3.0   # low edge\n"
        "\n"
        "1.0 1.5\n"
        "2.0 0.4\n"
    )
    table = cd.load_optical_table(path)
    assert len(table.omega) == 3
    assert abs(table.omega[0] / ev_to_rad_s(0.5) - 1.0) < 1e-12
    assert table.im_eps == (3.0, 1.5, 0.4)
    model = cd.build_material("tabulated", table=table, label="sample")
    assert model.eval(ev_to_rad_s(1.0)) > 1.0

    bad = tmp_path / "bad.dat"
    bad.write_text("0.5 1.0 7.0\n")
    with pytest.raises(ValueError):
        cd.load_optical_table(bad)
