"""Permittivity models, catalog parameters, and tabulated-data ingestion."""

import math
import re
import warnings

import numpy as np
import pytest

import casimirdiff as cd
from casimirdiff.constants import C, E_CHARGE, EV_TO_RAD_S, HBAR, KB, ev_to_rad_s

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
    for value in (KB, HBAR, C, E_CHARGE, EV_TO_RAD_S):
        assert value > 0.0
    assert abs(EV_TO_RAD_S * HBAR / E_CHARGE - 1.0) < 1e-12


@pytest.mark.parametrize(
    "ev", [1.02, 1.30, 1.50, 2.75, 3.49, 3.76, 5.1, 0.86, 2.8, 3.48, 4.6, 15.0, 3.33, 0.66]
)
def test_ev_roundtrip(ev):
    assert abs(ev_to_rad_s(ev) / (ev * E_CHARGE / HBAR) - 1.0) < 1e-12


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


def test_catalog_order():
    assert cd.catalog_names() == (
        "gold-drude", "si-dielectric", "si-doped-n1", "si-doped-n2", "si-doped-low",
        "si-doped", "vo2-insulator", "vo2-metal", "tabulated", "ideal-metal", "vacuum",
    )


OVERRIDES = {
    "drude": cd.DrudeParams(omega_p=1e15, gamma=1e13),
    "table": cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(1.0, 0.5)),
}


@pytest.mark.parametrize(
    "name, key",
    [
        ("si-dielectric", "drude"),
        ("vo2-insulator", "drude"),
        ("tabulated", "drude"),
        ("ideal-metal", "drude"),
        ("vacuum", "table"),
        ("gold-drude", "table"),
        ("si-doped", "table"),
    ],
)
def test_override_not_used_by_entry_rejected(name, key):
    with pytest.raises(ValueError, match=rf"^'{name}' takes no {key} override$"):
        cd.build_material(name, **{key: OVERRIDES[key]})


@pytest.mark.parametrize(
    "name, key",
    [(name, "drude") for name in
     ("gold-drude", "si-doped-n1", "si-doped-n2", "si-doped-low", "si-doped", "vo2-metal")]
    + [("tabulated", "table")],
)
def test_override_applies(name, key):
    model = cd.build_material(name, **{key: OVERRIDES[key]})
    assert getattr(model, key) is OVERRIDES[key]


# the one message of eval outside xi > 0, for floats and arrays alike
EVAL_DOMAIN = (r"^every imaginary-axis frequency must be positive; "
               r"eps at xi = 0 is static_permittivity\(\)$")


def test_static_permittivity_vo2():
    m = cd.build_material("vo2-insulator")
    eps0 = m.static_permittivity()
    assert abs(eps0 - 9.909) < 1e-12
    # exact 7-term sum identity
    assert eps0 == m.tail.eps_inf + sum(o.strength for o in m.oscillators)
    # eval takes xi > 0 only, also where eps(0) is finite: eps(0) is
    # static_permittivity()
    for model in (m, cd.build_material("si-dielectric")):
        with pytest.raises(ValueError, match=EVAL_DOMAIN):
            model.eval(0.0)


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
    with pytest.raises(ValueError, match=EVAL_DOMAIN):
        doped.eval(-1.0)
    with pytest.raises(ValueError, match=EVAL_DOMAIN):
        doped.eval(0.0)
    # collisionless free carriers still diverge at zero frequency
    lossless = cd.build_material("si-doped", drude=cd.DrudeParams(omega_p=1e15, gamma=0.0))
    assert lossless.eval(1e14) > 1.0
    with pytest.raises(ValueError, match=EVAL_DOMAIN):
        lossless.eval(0.0)
    with pytest.raises(ValueError, match=EVAL_DOMAIN):
        doped.eval(np.array([1e14, 0.0]))


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
    with pytest.raises(ValueError, match="omega_inf"):
        cd.HighFreqTail(eps_inf=5.0, omega_inf=0.0)
    # the two flags of a model are checked by type: 0 == False and 1 == True,
    # and a word such as "no" is truthy
    for key, allowed, bad in (("dc_conductor", "None, True or False", ("no", 0, 1, 1.0)),
                              ("perfect_conductor", "True or False", ("false", None, 0, 1))):
        for value in bad:
            message = re.escape(f"{key} must be {allowed}: got {value!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                cd.PermittivityModel("m", **{key: value})
    with pytest.raises(ValueError, match="^dc_conductor must be None, True or False: got 'no'$"):
        cd.with_dc_conductivity(cd.build_material("si-doped-low"), "no")
    for flags in ({"dc_conductor": None}, {"dc_conductor": True}, {"dc_conductor": False},
                  {"perfect_conductor": True}, {"perfect_conductor": False}):
        cd.PermittivityModel("m", **flags)


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
    # every positive xi, down to the least double, gives a finite value and no
    # warning, though (w0/xi)^2 overflows below about 1e-140 rad/s here, w0/xi
    # itself below about 1e-294, and t^2 of the omega^-3 tail is 0
    xi = np.array([5e-324, 1e-300, 1e-200, 1e-141, 1e-140, 1e-100, 1e-20, 1.0])
    zero_first = cd.OpticalDataTable(omega=(1e14, 1e15, 1e16), im_eps=(0.0, 1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in (table, zero_first):
            values = cd.kk_to_imaginary_axis(data, xi)
            assert values.tolist() == [cd.kk_to_imaginary_axis(data, x) for x in xi.tolist()]
        # Im eps(w0) > 0: the constant extension below w0 grows as log(w0/xi)
        values = cd.kk_to_imaginary_axis(table, xi)
        assert np.all(np.isfinite(values)) and np.all(np.diff(values) < 0.0)
        # Im eps(w0) = 0: the static limit
        assert cd.kk_to_imaginary_axis(zero_first, xi).tolist() == [zero_first._kk_static] * 8


def test_optical_table_validation():
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e15,), im_eps=(1.0,))
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e15, 1e14), im_eps=(1.0, 1.0))
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(1.0, -0.1))
    with pytest.raises(ValueError):
        cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(1.0,))
    with pytest.raises(ValueError, match="positive and finite"):
        cd.OpticalDataTable(omega=(0.0, 1e15), im_eps=(1.0, 1.0))


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
