"""Matsubara sums, reflection amplitudes, forces, pressures, gap identities."""

import math

import mpmath
import numpy as np
import pytest
import scipy.constants

import casimirdiff as cd
from casimirdiff.lifshitz import SumDiagnostics, Y_WINDOW, _momentum_grid

R_SPHERE = 100e-6
GRID300 = cd.MatsubaraGrid(T=300.0)
GRID340 = cd.MatsubaraGrid(T=340.0)


def _materials():
    return {
        "gold": cd.build_material("gold-drude"),
        "si_a": cd.build_material("si-dielectric"),
        "n1": cd.build_material("si-doped-n1"),
        "n2": cd.build_material("si-doped-n2"),
        "low": cd.build_material("si-doped-low"),
        "vo2i": cd.build_material("vo2-insulator"),
        "vo2m": cd.build_material("vo2-metal"),
        "ideal": cd.build_material("ideal-metal"),
        "vacuum": cd.build_material("vacuum"),
    }


MATS = _materials()


# --- Matsubara frequencies ------------------------------------------------


def test_matsubara_zero():
    assert cd.matsubara_frequency(0, 300.0) == 0.0


def test_matsubara_first_300K_against_scipy_constants():
    expected = 2.0 * math.pi * scipy.constants.k * 300.0 / scipy.constants.hbar
    got = cd.matsubara_frequency(1, 300.0)
    assert abs(got / expected - 1.0) < 1e-12
    assert abs(got / 2.468e14 - 1.0) < 1e-3


def test_matsubara_linearity():
    for l in (1, 3, 10):
        for T in (77.0, 300.0):
            assert cd.matsubara_frequency(2 * l, T) == pytest.approx(
                cd.matsubara_frequency(l, 2 * T), rel=1e-14
            )


def test_matsubara_errors():
    with pytest.raises(ValueError):
        cd.matsubara_frequency(-1, 300.0)
    with pytest.raises(ValueError):
        cd.matsubara_frequency(1, 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        cd.MatsubaraGrid(T=-1.0)
    with pytest.raises(ValueError):
        cd.MatsubaraGrid(T=300.0, rel_tol=1e-2)
    with pytest.raises(ValueError):
        cd.MatsubaraGrid(T=300.0, l_max_cap=10)


# --- reflection amplitudes --------------------------------------------------


def test_reflection_static_dielectric():
    r = cd.reflection_coefficients(11.66, 0.0, 1e6)
    assert abs(r.r_tm - 0.8420) < 1e-4
    assert r.r_tm == (11.66 - 1.0) / (11.66 + 1.0)
    assert r.r_te == 0.0


def test_reflection_static_conductor():
    r = cd.reflection_coefficients(math.inf, 0.0, 1e6)
    assert r.r_tm == 1.0
    assert r.r_te == 0.0
    r_plasma = cd.reflection_coefficients(
        math.inf, 0.0, 1e6, te_zero="plasma", plasma_omega_p=1.37e16
    )
    assert 0.0 < r_plasma.r_te < 1.0
    r_perfect = cd.reflection_coefficients(math.inf, 0.0, 1e6, te_zero="plasma")
    assert r_perfect.r_te == 1.0


def test_reflection_vacuum():
    for xi, kp in ((0.0, 1e6), (1e15, 0.0), (1e15, 1e7)):
        r = cd.reflection_coefficients(1.0, xi, kp)
        assert r.r_tm == 0.0
        assert r.r_te == 0.0


def test_reflection_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        eps = 1.0 + 10 ** rng.uniform(-3, 5)
        xi = 10 ** rng.uniform(11, 18)
        kp = 10 ** rng.uniform(0, 9)
        r = cd.reflection_coefficients(eps, xi, kp)
        assert 0.0 <= r.r_tm <= 1.0
        assert 0.0 <= r.r_te <= 1.0
        assert abs(r.r_tm) >= abs(r.r_te) or math.isclose(r.r_tm, r.r_te, abs_tol=1e-15)


def test_reflection_errors():
    with pytest.raises(ValueError):
        cd.reflection_coefficients(11.66, 0.0, 0.0)
    with pytest.raises(ValueError):
        cd.reflection_coefficients(0.5, 1e15, 1e6)
    with pytest.raises(ValueError):
        cd.reflection_coefficients(11.66, -1.0, 1e6)
    with pytest.raises(ValueError):
        cd.reflection_coefficients(11.66, 1e15, -1.0)


def test_momentum_grid_covers_window():
    z = 100e-9
    y, w, kp2 = _momentum_grid(0.0, z, 120)
    assert y[0] > 0.0 and y[-1] < Y_WINDOW
    assert np.all(np.diff(y) > 0)
    # with xi = 0, k_perp equals q = y/(2z)
    assert np.allclose(kp2, (y / (2 * z)) ** 2, rtol=1e-13)


# --- trilogarithm ----------------------------------------------------------


def _li3_brute(x: float, kmax: int = 20000) -> float:
    k = np.arange(1, kmax + 1, dtype=float)
    return float(np.sum(x**k / k**3))


def test_polylog_endpoints():
    assert cd.polylog3(0.0) == 0.0
    assert abs(cd.polylog3(1.0) - 1.2020569031595942) < 1e-15


@pytest.mark.parametrize("x", [1e-6, 0.1, 0.5, 0.8420221169036335, 0.95, 0.99, 0.995, 0.999])
def test_polylog_against_brute_force(x):
    assert abs(cd.polylog3(x) - _li3_brute(x)) < 1e-10


@pytest.mark.parametrize("x", [0.3, 0.8420, 0.97, 0.9899, 0.9901, 0.99999, 1.0 - 1e-12])
def test_polylog_against_mpmath(x):
    exact = float(mpmath.polylog(3, mpmath.mpf(x)))
    assert abs(cd.polylog3(x) - exact) < 1e-12


def test_polylog_spec_point():
    # brute-force partial sums pin Li3 at the zero-frequency Si reflection
    assert abs(cd.polylog3(0.8420) - 0.9678037839562488) < 1e-10


def test_polylog_domain():
    with pytest.raises(ValueError):
        cd.polylog3(-0.1)
    with pytest.raises(ValueError):
        cd.polylog3(1.1)


# --- zero-frequency gap formulas -------------------------------------------


def test_gap_force_anchors():
    g100 = cd.zero_freq_gap_force(R_SPHERE, 100e-9, 300.0, 11.66)
    g300 = cd.zero_freq_gap_force(R_SPHERE, 300e-9, 300.0, 11.66)
    assert g100 < 0.0
    assert abs(g100 / -1.2126718556290955e-12 - 1.0) < 1e-12
    assert abs(g100 / g300 - 9.0) < 1e-12  # z^-2 law
    assert abs(abs(g100) / 1.2e-12 - 1.0) < 0.02


def test_gap_pressure_anchor():
    p100 = cd.zero_freq_gap_pressure(100e-9, 300.0, 11.66)
    assert abs(p100 / -0.038600544034358364 - 1.0) < 1e-12
    p200 = cd.zero_freq_gap_pressure(200e-9, 300.0, 11.66)
    assert abs(p100 / p200 - 8.0) < 1e-12  # z^-3 law


def test_gap_vo2_anchors():
    g100 = cd.zero_freq_gap_force(R_SPHERE, 100e-9, 340.0, 9.909)
    g300 = cd.zero_freq_gap_force(R_SPHERE, 300e-9, 340.0, 9.909)
    assert abs(g100 / -1.5780953973735471e-12 - 1.0) < 1e-12
    assert abs(abs(g100) / 1.6e-12 - 1.0) < 0.05
    assert abs(abs(g300) / 0.2e-12 - 1.0) < 0.15


def test_gap_perfect_conductor_limit():
    assert cd.zero_freq_gap_force(R_SPHERE, 100e-9, 300.0, math.inf) == 0.0
    assert cd.zero_freq_gap_pressure(100e-9, 300.0, math.inf) == 0.0


def test_gap_errors():
    with pytest.raises(ValueError):
        cd.zero_freq_gap_force(-1.0, 100e-9, 300.0, 11.66)
    with pytest.raises(ValueError):
        cd.zero_freq_gap_force(R_SPHERE, 100e-9, 300.0, 0.9)
    with pytest.raises(ValueError):
        cd.zero_freq_gap_pressure(0.0, 300.0, 11.66)


# --- free energy, force, pressure -------------------------------------------


def test_vacuum_gives_zero():
    pair = cd.HalfspacePair(MATS["vacuum"], MATS["gold"], sphere_radius=R_SPHERE)
    assert cd.free_energy_per_area(pair, 100e-9, GRID300) == 0.0
    assert cd.sphere_plate_force(pair, 100e-9, GRID300) == 0.0
    assert cd.plate_plate_pressure(pair, 100e-9, GRID300) == 0.0


def test_ideal_metal_pressure():
    pair = cd.HalfspacePair(MATS["ideal"], MATS["ideal"])
    p = cd.plate_plate_pressure(pair, 1e-6, cd.MatsubaraGrid(T=1.0))
    exact = -math.pi**2 * cd.CONSTANTS.hbar * cd.CONSTANTS.c / (240.0 * 1e-6**4)
    assert abs(p / exact - 1.0) < 5e-3
    assert abs(abs(p) / 1.30e-3 - 1.0) < 5e-3


def test_ideal_metal_energy():
    pair = cd.HalfspacePair(MATS["ideal"], MATS["ideal"])
    e = cd.free_energy_per_area(pair, 1e-6, cd.MatsubaraGrid(T=1.0))
    exact = -math.pi**2 * cd.CONSTANTS.hbar * cd.CONSTANTS.c / (720.0 * 1e-6**3)
    assert abs(e / exact - 1.0) < 5e-3


def test_free_energy_regression():
    pair = cd.HalfspacePair(MATS["gold"], MATS["si_a"])
    e = cd.free_energy_per_area(pair, 100e-9, GRID300)
    assert e < 0.0
    assert abs(e / -1.5471751859687087e-07 - 1.0) < 1e-9


def test_pressure_is_energy_derivative():
    pair = cd.HalfspacePair(MATS["gold"], MATS["si_a"])
    z = 100e-9
    h = z / 1000.0
    dEdz = (
        cd.free_energy_per_area(pair, z + h, GRID300)
        - cd.free_energy_per_area(pair, z - h, GRID300)
    ) / (2.0 * h)
    p = cd.plate_plate_pressure(pair, z, GRID300)
    assert abs(-dEdz / p - 1.0) < 1e-4


def test_sphere_force_linear_in_radius():
    z = 100e-9
    f1 = cd.sphere_plate_force(
        cd.HalfspacePair(MATS["gold"], MATS["si_a"], sphere_radius=R_SPHERE), z, GRID300
    )
    f2 = cd.sphere_plate_force(
        cd.HalfspacePair(MATS["gold"], MATS["si_a"], sphere_radius=2 * R_SPHERE), z, GRID300
    )
    assert f2 == pytest.approx(2.0 * f1, rel=1e-14)


def test_sphere_force_regression_gold_vo2_metal():
    pair = cd.HalfspacePair(MATS["gold"], MATS["vo2m"], sphere_radius=R_SPHERE)
    f = cd.sphere_plate_force(pair, 100e-9, GRID340)
    assert abs(f / -1.0719989133689821e-10 - 1.0) < 1e-9


def test_pfa_validity_warning():
    pair = cd.HalfspacePair(MATS["gold"], MATS["si_a"], sphere_radius=1e-6)
    with pytest.warns(UserWarning):
        cd.sphere_plate_force(pair, 100e-9, GRID300)
    with pytest.warns(UserWarning):
        cd.difference_force(MATS["gold"], MATS["n1"], MATS["low"], 1e-6, 100e-9, GRID300)


def test_sphere_force_requires_radius():
    pair = cd.HalfspacePair(MATS["gold"], MATS["si_a"])
    with pytest.raises(ValueError):
        cd.sphere_plate_force(pair, 100e-9, GRID300)


def test_separation_validation():
    pair = cd.HalfspacePair(MATS["gold"], MATS["si_a"])
    with pytest.raises(ValueError):
        cd.free_energy_per_area(pair, 0.0, GRID300)
    with pytest.raises(ValueError):
        cd.plate_plate_pressure(pair, -1e-9, GRID300)


# --- difference quantities ---------------------------------------------------


def test_difference_identical_materials_is_zero():
    assert (
        cd.difference_force(MATS["gold"], MATS["n1"], MATS["n1"], R_SPHERE, 100e-9, GRID300)
        == 0.0
    )
    assert cd.difference_pressure(MATS["gold"], MATS["n1"], MATS["n1"], 100e-9, GRID300) == 0.0


def test_difference_one_pass_matches_two_pass():
    z = 100e-9
    one = cd.difference_force(
        MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, z, GRID300, low_freq_model="a"
    )
    low_a = cd.with_dc_conductivity(MATS["low"], False)
    two = cd.sphere_plate_force(
        cd.HalfspacePair(MATS["gold"], MATS["n1"], sphere_radius=R_SPHERE), z, GRID300
    ) - cd.sphere_plate_force(
        cd.HalfspacePair(MATS["gold"], low_a, sphere_radius=R_SPHERE), z, GRID300
    )
    assert abs(one / two - 1.0) < 1e-6


def test_difference_pressure_one_pass_matches_two_pass():
    z = 150e-9
    one = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="b"
    )
    two = cd.plate_plate_pressure(
        cd.HalfspacePair(MATS["gold"], MATS["n1"]), z, GRID300
    ) - cd.plate_plate_pressure(cd.HalfspacePair(MATS["gold"], MATS["low"]), z, GRID300)
    assert abs(one / two - 1.0) < 1e-6


def test_difference_force_regression():
    f = cd.difference_force(
        MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, 100e-9, GRID300, low_freq_model="a"
    )
    assert abs(f / -7.814685255756518e-12 - 1.0) < 1e-9


def test_model_gap_identity_force():
    for z in (100e-9, 180e-9, 300e-9):
        fa = cd.difference_force(
            MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, z, GRID300, low_freq_model="a"
        )
        fb = cd.difference_force(
            MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, z, GRID300, low_freq_model="b"
        )
        analytic = cd.zero_freq_gap_force(R_SPHERE, z, 300.0, 11.66)
        assert abs((fa - fb) / analytic - 1.0) < 1e-6


def test_model_gap_identity_pressure():
    for z in (100e-9, 300e-9):
        pa = cd.difference_pressure(
            MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="a"
        )
        pb = cd.difference_pressure(
            MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="b"
        )
        analytic = cd.zero_freq_gap_pressure(z, 300.0, 11.66)
        assert abs((pa - pb) / analytic - 1.0) < 1e-6


def test_zero_frequency_term_is_polylog_integral():
    # one-pass difference between the b- and a-treatments of the same
    # material: every l >= 1 term cancels identically, so the result is the
    # zero-frequency term alone; its analytic value is the gap formula.
    low_b = cd.with_dc_conductivity(MATS["low"], True)
    for z in (100e-9, 300e-9):
        # F_b - F_a is the difference (model a) - (model b), i.e. the gap
        gap = cd.difference_force(
            MATS["gold"], low_b, MATS["low"], R_SPHERE, z, GRID300,
            low_freq_model="a", analytic_l0=True,
        )
        assert abs(gap / cd.zero_freq_gap_force(R_SPHERE, z, 300.0, 11.66) - 1.0) < 1e-10
        gap_p = cd.difference_pressure(
            MATS["gold"], low_b, MATS["low"], z, GRID300,
            low_freq_model="a", analytic_l0=True,
        )
        assert abs(gap_p / cd.zero_freq_gap_pressure(z, 300.0, 11.66) - 1.0) < 1e-10


def test_numeric_l0_close_to_analytic():
    low_b = cd.with_dc_conductivity(MATS["low"], True)
    gap_numeric = cd.difference_force(
        MATS["gold"], low_b, MATS["low"], R_SPHERE, 100e-9, GRID300, low_freq_model="a"
    )
    exact = cd.zero_freq_gap_force(R_SPHERE, 100e-9, 300.0, 11.66)
    assert abs(gap_numeric / exact - 1.0) < 1e-6


def test_te_convention_has_no_effect_on_differences():
    # bit-level equality: the plate sections have r_TE(0) = 0, so the probe
    # convention never reaches the integrand
    gold_zero = MATS["gold"]
    gold_plasma = cd.with_te_zero(gold_zero, "plasma")
    for z in (100e-9, 300e-9):
        f0 = cd.difference_force(
            gold_zero, MATS["n1"], MATS["low"], R_SPHERE, z, GRID300, low_freq_model="a"
        )
        f1 = cd.difference_force(
            gold_plasma, MATS["n1"], MATS["low"], R_SPHERE, z, GRID300, low_freq_model="a"
        )
        assert f0 == f1
        p0 = cd.difference_pressure(
            gold_zero, MATS["vo2m"], MATS["vo2i"], z, GRID340
        )
        p1 = cd.difference_pressure(
            gold_plasma, MATS["vo2m"], MATS["vo2i"], z, GRID340
        )
        assert p0 == p1


def test_attraction_and_monotonic_decay():
    zs = np.linspace(100e-9, 300e-9, 9)
    for plate in ("si_a", "n1", "low", "vo2i", "vo2m"):
        pair = cd.HalfspacePair(MATS["gold"], MATS[plate], sphere_radius=R_SPHERE)
        forces = [cd.sphere_plate_force(pair, float(z), GRID300) for z in zs]
        assert all(f < 0.0 for f in forces)
        mags = [abs(f) for f in forces]
        assert all(b < a for a, b in zip(mags, mags[1:]))


def test_carrier_density_ordering():
    # more carriers -> stronger attraction, at every separation
    chains = [("n1", "n2", "low", "si_a"), ("vo2m", "vo2i")]
    for z in (100e-9, 300e-9):
        for chain in chains:
            mags = [
                abs(
                    cd.sphere_plate_force(
                        cd.HalfspacePair(MATS["gold"], MATS[name], sphere_radius=R_SPHERE),
                        z,
                        GRID340,
                    )
                )
                for name in chain
            ]
            assert all(b < a for a, b in zip(mags, mags[1:]))


def test_pfa_gradient_consistency():
    for z in (110e-9, 200e-9, 290e-9):
        grad = cd.five_point_gradient(
            lambda zz: cd.difference_force(
                MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, zz, GRID300,
                low_freq_model="a",
            ),
            z,
        )
        p_from_grad = cd.pressure_from_force_gradient(R_SPHERE, grad)
        p_direct = cd.difference_pressure(
            MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="a"
        )
        assert abs(p_from_grad / p_direct - 1.0) < 1e-3


def test_quadrature_doubling_stability():
    z = 100e-9
    base = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="a"
    )
    doubled = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="a", nodes=240
    )
    assert abs(doubled / base - 1.0) < 1e-5
    f_base = cd.difference_force(
        MATS["gold"], MATS["vo2m"], MATS["vo2i"], R_SPHERE, z, GRID340
    )
    f_doubled = cd.difference_force(
        MATS["gold"], MATS["vo2m"], MATS["vo2i"], R_SPHERE, z, GRID340, nodes=240
    )
    assert abs(f_doubled / f_base - 1.0) < 1e-5


def test_truncation_tolerance_stability():
    z = 100e-9
    base = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="a"
    )
    tight = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z,
        cd.MatsubaraGrid(T=300.0, rel_tol=5e-10), low_freq_model="a",
    )
    assert abs(tight / base - 1.0) < 1e-5


def test_truncation_cap_raises_with_diagnostics():
    grid = cd.MatsubaraGrid(T=1.0, l_max_cap=200)
    pair = cd.HalfspacePair(MATS["ideal"], MATS["ideal"])
    with pytest.raises(cd.TruncationError) as err:
        cd.plate_plate_pressure(pair, 100e-9, grid)
    diag = err.value.diagnostics
    assert isinstance(diag, SumDiagnostics)
    assert diag.n_terms == 201
    assert not diag.converged
    assert diag.last_term_rel > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_term_fails_at_once():
    # finite parameters whose permittivity overflows to inf at xi > 0: the
    # first Matsubara term is NaN, and the sum stops there instead of
    # running to the term cap
    huge = cd.OscillatorParams(omega=1e16, Gamma=0.0, strength=1e308)
    plate = cd.PermittivityModel(label="overflow", oscillators=(huge, huge))
    with pytest.raises(ValueError, match="l = 1 is not finite"):
        cd.difference_force(MATS["gold"], plate, MATS["si_a"], R_SPHERE, 100e-9, GRID300)
    with pytest.raises(ValueError, match="l = 1 is not finite"):
        cd.plate_plate_pressure(cd.HalfspacePair(MATS["gold"], plate), 100e-9, GRID300)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: cd.DrudeParams(omega_p=1e15, gamma=math.nan), "gamma"),
        (lambda: cd.DrudeParams(omega_p=math.inf, gamma=1e13), "omega_p"),
        (lambda: cd.OscillatorParams(omega=1e15, Gamma=math.nan, strength=1.0), "Gamma"),
        (lambda: cd.HighFreqTail(eps_inf=math.nan, omega_inf=1e16), "eps_inf"),
        (lambda: cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(math.nan, 1.0)), "im_eps"),
        (lambda: cd.CarrierParams(n=math.inf, m_eff=1e-30), "n"),
        (lambda: cd.MatsubaraGrid(T=math.inf), "T"),
        (lambda: cd.CantileverParams(k=math.inf, f_r=1e3, Q=1e3, B=0.3, T=300.0), "k"),
        (lambda: cd.HalfspacePair(MATS["gold"], MATS["si_a"], sphere_radius=math.inf), "radius"),
        (lambda: cd.difference_force(
            MATS["gold"], MATS["n1"], MATS["low"], math.inf, 100e-9, GRID300), "radius"),
        (lambda: cd.difference_pressure(
            MATS["gold"], MATS["n1"], MATS["low"], math.inf, GRID300), "separation"),
    ],
)
def test_non_finite_input_rejected(build, field):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        build()


def test_low_freq_model_argument_validation():
    with pytest.raises(ValueError):
        cd.difference_force(
            MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, 100e-9, GRID300,
            low_freq_model="c",
        )


# --- curves ------------------------------------------------------------------


def test_force_curve_builder():
    zs = (100e-9, 150e-9, 220e-9, 300e-9)
    curve = cd.difference_force_curve(
        MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, zs, GRID300, low_freq_model="a"
    )
    assert curve.separations == zs
    assert all(v < 0.0 for v in curve.values)
    assert curve.metadata["sphere_radius_m"] == R_SPHERE
    assert len(curve.metadata["l_terms_per_z"]) == len(zs)
    assert curve.metadata["max_tail_rel"] <= GRID300.rel_tol


def test_pressure_curve_matches_pointwise():
    zs = (100e-9, 200e-9)
    curve = cd.difference_pressure_curve(
        MATS["gold"], MATS["n1"], MATS["low"], zs, GRID300, low_freq_model="b"
    )
    for z, v in zip(zs, curve.values):
        direct = cd.difference_pressure(
            MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="b"
        )
        assert v == direct


def test_curve_workers_bit_identical():
    zs = (100e-9, 160e-9, 240e-9, 300e-9)
    serial = cd.difference_force_curve(
        MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, zs, GRID300,
        low_freq_model="a", workers=1,
    )
    parallel = cd.difference_force_curve(
        MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, zs, GRID300,
        low_freq_model="a", workers=2,
    )
    assert serial.values == parallel.values


def test_curve_validation():
    with pytest.raises(ValueError):
        cd.Curve(separations=(2e-7, 1e-7), values=(-1e-12, -2e-12), metadata={})
    with pytest.raises(ValueError):
        cd.Curve(separations=(1e-7, 2e-7), values=(-1e-12,), metadata={})
    with pytest.raises(ValueError):
        cd.Curve(separations=(1e-7, 2e-7), values=(0.1, math.nan), metadata={})


def test_halfspace_pair_validation():
    with pytest.raises(ValueError):
        cd.HalfspacePair(MATS["gold"], MATS["si_a"], sphere_radius=0.0)
