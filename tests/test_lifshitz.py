"""Matsubara sums, reflection amplitudes, forces, pressures, gap identities."""

import itertools
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.constants

import casimirdiff as cd
from casimirdiff import lifshitz
from casimirdiff.constants import C, HBAR
from casimirdiff.lifshitz import (
    SumDiagnostics,
    Y_WINDOW,
    _fresnel,
    _momentum_grid,
)
from test_golden import _lorentz_table

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


def _fresh_materials(names):
    """Freshly built materials, their Matsubara memos empty; ``tabulated``
    gets the 600-row Lorentz table."""
    return tuple(cd.build_material(name, table=_lorentz_table(600)) if name == "tabulated"
                 else cd.build_material(name) for name in names)


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
    # an index must be a non-negative integer and T positive and finite
    for l, T in [(-1, 300.0), (1, 0.0), (1, math.inf), (1, math.nan), (1.5, 300.0),
                 (math.nan, 300.0), (math.inf, 300.0), (np.array([1.0, 2.5]), 300.0),
                 (np.array([1, -2]), 300.0)]:
        with pytest.raises(ValueError):
            cd.matsubara_frequency(l, T)
    assert cd.matsubara_frequency(3.0, 77.0) == cd.matsubara_frequency(3, 77.0)
    assert np.array_equal(cd.matsubara_frequency([1, 2], 300.0),
                          cd.matsubara_frequency(np.array([1, 2]), 300.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        cd.MatsubaraGrid(T=-1.0)
    with pytest.raises(ValueError):
        cd.MatsubaraGrid(T=300.0, rel_tol=1e-2)
    with pytest.raises(ValueError):
        cd.MatsubaraGrid(T=300.0, l_max_cap=10)
    # the cap is a term count: a NaN, fractional, float or bool cap fails here,
    # not at the first sum
    for cap in (math.nan, 150.5, 1e9, True):
        with pytest.raises(ValueError, match="l_max_cap"):
            cd.MatsubaraGrid(T=300.0, l_max_cap=cap)


# --- reflection amplitudes --------------------------------------------------


def _plasma_model(omega_p):
    """A dc conductor of plasma frequency ``omega_p`` with the plasma TE rule."""
    return cd.PermittivityModel("p", drude=cd.DrudeParams(omega_p, 0.0), te_zero="plasma")


def test_reflection_static_dielectric():
    r = cd.reflection_coefficients(11.66, 0.0, 1e6)
    assert abs(r.r_tm - 0.8420) < 1e-4
    assert r.r_tm == (11.66 - 1.0) / (11.66 + 1.0)
    assert r.r_te == 0.0


def test_reflection_static_conductor():
    r = cd.reflection_coefficients(math.inf, 0.0, 1e6)
    assert r.r_tm == 1.0
    assert r.r_te == 0.0
    # the plasma TE rule at xi = 0 is a material's te_zero, which the kernel
    # applies through _reflections
    y = np.array([[1e6]])
    r_plasma = lifshitz._reflections(_plasma_model(1.37e16), None, y, None, 1.0)
    assert r_plasma[0] == 1.0 and 0.0 < r_plasma[1][0, 0] < 1.0
    # the plasma amplitude depends on omega_p alone, not on gamma
    gold_plasma = cd.with_te_zero(MATS["gold"], "plasma")
    r_gold = lifshitz._reflections(gold_plasma, None, y, None, 1.0)
    assert r_gold == lifshitz._reflections(_plasma_model(gold_plasma.drude.omega_p), None, y,
                                           None, 1.0)
    # with the zero rule a dc conductor's TE amplitude vanishes
    assert lifshitz._reflections(MATS["gold"], None, y, None, 1.0) == (1.0, 0.0)
    # a perfect conductor reflects both polarizations fully
    assert lifshitz._reflections(MATS["ideal"], None, y, None, 1.0) == (1.0, 1.0)
    # a diverging permittivity reflects both polarizations fully at xi > 0
    assert cd.reflection_coefficients(math.inf, 1e15, 1e6) == (1.0, 1.0)


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
    # the xi = 0 TE rule and its plasma frequency belong to the material
    for option in ({"te_zero": "plasma"}, {"plasma_omega_p": 1.37e16}):
        with pytest.raises(TypeError):
            cd.reflection_coefficients(math.inf, 0.0, 1e6, **option)
    with pytest.raises(ValueError, match="te_zero"):
        cd.with_te_zero(MATS["gold"], "drude")
    # a plasma frequency is positive and finite, as DrudeParams requires
    for omega_p in (math.nan, math.inf, -1e15, 0.0):
        with pytest.raises(ValueError, match="omega_p"):
            cd.DrudeParams(omega_p=omega_p, gamma=1e13)


def test_reflection_coefficients_are_the_kernel_amplitudes():
    # the scalar function and the kernel's block arithmetic (here on 1 x 1
    # arrays) compute each amplitude the same way, bit for bit
    rng = np.random.default_rng(20261019)
    n = 20000
    eps = (1.0 + 10 ** rng.uniform(-3, 5, n)).tolist()
    xi = (10 ** rng.uniform(11, 18, n)).tolist()
    kp = (10 ** rng.uniform(0, 9, n)).tolist()
    omega_p = (10 ** rng.uniform(13, 17, n)).tolist()
    for e, x, k, w in zip(eps, xi, kp, omega_p):
        r = cd.reflection_coefficients(e, x, k)
        ymin2 = np.square(np.full((1, 1), x / C))
        r_tm, r_te = _fresnel(np.full((1, 1), e), np.sqrt(k * k + ymin2), ymin2)
        assert r == (r_tm[0, 0], r_te[0, 0]), (e, x, k)
        r0 = cd.reflection_coefficients(e, 0.0, k)
        assert r0 == ((e - 1.0) / (e + 1.0), 0.0), (e, k)
        assert cd.reflection_coefficients(math.inf, 0.0, k) == (1.0, 0.0)
        assert all(type(v) is float for v in r + r0)
        # the plasma rule of the kernel: (kappa - y)/(kappa + y) without the
        # cancellation, kappa^2 = y^2 + (omega_p/c)^2
        r0_tm, r0_te = lifshitz._reflections(_plasma_model(w), None, np.full((1, 1), k), None,
                                             1.0)
        kappa = math.hypot(k, w / C)
        assert r0_tm == 1.0
        assert abs(r0_te[0, 0] - (kappa - k) / (kappa + k)) <= 1e-15, (k, w)


def test_momentum_grid_covers_window():
    # the default rules of the l = 0 term and of the rows l >= 1
    z = 100e-9
    for nodes, window in ((3 * lifshitz.DEFAULT_NODES, Y_WINDOW),
                          (lifshitz.DEFAULT_NODES, lifshitz._ROW_WINDOW)):
        _, y, weights = _momentum_grid(0.0, z, nodes, window)
        assert y.shape == weights.shape == (nodes,)
        assert y[0] > 0.0 and y[-1] < window
        assert np.all(np.diff(y) > 0)


def test_block_amplitudes_against_mpmath():
    # the kernel's y-form amplitudes over one block of 32 frequencies at a
    # random z, against the same expressions at 40 digits; tolerances fixed
    # beforehand: r_TM 1e-12, r_TE 1e-14 relative
    rng = np.random.default_rng(20261018)
    z = 10 ** rng.uniform(-8, -6)
    xi = np.sort(10 ** rng.uniform(12, 17, size=32))
    eps = (1.0 + 10 ** rng.uniform(-2, 4, size=32))[:, None]
    y_min, y, _ = _momentum_grid(xi, z, lifshitz.DEFAULT_NODES, lifshitz._ROW_WINDOW)
    ymin2 = y_min * y_min
    r_tm, r_te = _fresnel(eps, y, ymin2)
    with mpmath.workdps(40):
        for i in range(32):
            e, m2 = mpmath.mpf(eps[i, 0]), mpmath.mpf(ymin2[i, 0])
            for j in range(y.shape[1]):
                yy = mpmath.mpf(y[i, j])
                K = mpmath.sqrt(yy * yy + (e - 1) * m2)
                tm = (e * yy - K) / (e * yy + K)
                te = (e - 1) * m2 / (K + yy) ** 2
                assert abs(r_tm[i, j] / tm - 1) <= 1e-12, (i, j)
                assert abs(r_te[i, j] / te - 1) <= 1e-14, (i, j)
    # eps = 1 gives exact zeros over the whole block
    zero_tm, zero_te = _fresnel(np.ones((32, 1)), y, ymin2)
    assert not np.any(zero_tm) and not np.any(zero_te)


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
    with pytest.raises(ValueError, match="eps0"):
        cd.zero_freq_gap_pressure(100e-9, 300.0, 1.0)


# --- free energy, force, pressure -------------------------------------------


def test_vacuum_gives_zero():
    vacuum, gold = MATS["vacuum"], MATS["gold"]
    assert cd.free_energy_per_area(vacuum, gold, 100e-9, GRID300) == 0.0
    assert cd.difference_force(vacuum, gold, vacuum, R_SPHERE, 100e-9, GRID300) == 0.0
    assert cd.difference_pressure(vacuum, gold, vacuum, 100e-9, GRID300) == 0.0


def test_ideal_metal_pressure():
    p = cd.difference_pressure(MATS["ideal"], MATS["ideal"], MATS["vacuum"], 1e-6,
                               cd.MatsubaraGrid(T=1.0))
    exact = -math.pi**2 * HBAR * C / (240.0 * 1e-6**4)
    assert abs(p / exact - 1.0) < 5e-3
    assert abs(abs(p) / 1.30e-3 - 1.0) < 5e-3


def test_ideal_metal_energy():
    e = cd.free_energy_per_area(MATS["ideal"], MATS["ideal"], 1e-6, cd.MatsubaraGrid(T=1.0))
    exact = -math.pi**2 * HBAR * C / (720.0 * 1e-6**3)
    assert abs(e / exact - 1.0) < 5e-3


def test_ideal_metal_rows_equal_their_polylogarithms():
    # between two ideal metals every amplitude is 1, so a row l >= 1 with
    # lower edge a = y_min and x = e^-a has, per polarisation, the closed form
    #   energy:   int_a^inf y ln(1 - e^-y) dy = -[a Li2(x) + Li3(x)],
    #   pressure: int_a^inf y^2/(e^y - 1) dy = a^2 Li1(x) + 2a Li2(x) + 2 Li3(x),
    # with Li1(x) = -log1p(-x), written here in mpmath at 20 digits.  Every
    # third row of 1 <= l < 200 with y_min <= 60.  Over every such row the
    # worst measured was 3.3e-15, from the 40-wide window's one-signed bias
    # of the pressure rows; 80 nodes on every row left 1.7e-13 in the energy
    # rows below y_min = 0.01
    models = (MATS["ideal"], MATS["ideal"], MATS["vacuum"])
    for T, z in itertools.product((300.0, 77.0, 4.0, 1.0), (100e-9, 300e-9, 1e-6, 3e-6)):
        ls = np.arange(1, 200, 3)
        zs = np.full((len(ls), 1), z)
        xi = lifshitz._xi(ls, T)
        # each row's y_min as the kernel computes it
        y_min = (2.0 * zs * xi[:, None] / C)[:, 0]
        rows = y_min <= 60.0
        ls, zs, xi, y_min = ls[rows], zs[rows], xi[rows], y_min[rows]
        block_eps = [lifshitz._matsubara_eps(m, T, int(ls[-1]))[ls - 1][:, None] for m in models]
        energy, pressure = (lifshitz._row_terms(quantity, models, zs, xi, block_eps,
                                                lifshitz.DEFAULT_NODES)
                            for quantity in ("energy", "pressure"))
        with mpmath.workdps(20):
            for a, e, p in zip(y_min.tolist(), energy, pressure):
                a = mpmath.mpf(a)
                x = mpmath.exp(-a)
                li1, li2, li3 = -mpmath.log1p(-x), mpmath.polylog(2, x), mpmath.polylog(3, x)
                for row, exact in ((e, -2 * (a * li2 + li3)),
                                   (p, 2 * (a * a * li1 + 2 * a * li2 + 2 * li3))):
                    assert abs(row / exact - 1) <= 5e-15, (T, z, float(a))


def test_free_energy_regression():
    e = cd.free_energy_per_area(MATS["gold"], MATS["si_a"], 100e-9, GRID300)
    assert e < 0.0
    assert abs(e / -1.5471751859687087e-07 - 1.0) < 1e-9


def test_pressure_is_energy_derivative():
    pair = (MATS["gold"], MATS["si_a"])
    z = 100e-9
    h = z / 1000.0
    dEdz = (
        cd.free_energy_per_area(*pair, z + h, GRID300)
        - cd.free_energy_per_area(*pair, z - h, GRID300)
    ) / (2.0 * h)
    p = cd.difference_pressure(*pair, MATS["vacuum"], z, GRID300)
    assert abs(-dEdz / p - 1.0) < 1e-4


def test_sphere_force_linear_in_radius():
    z = 100e-9
    pair = (MATS["gold"], MATS["si_a"], MATS["vacuum"])
    f1 = cd.difference_force(*pair, R_SPHERE, z, GRID300)
    f2 = cd.difference_force(*pair, 2 * R_SPHERE, z, GRID300)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-14)


@pytest.mark.parametrize("T", [300.0, 77.0])
def test_single_pair_force_is_pfa_of_energy(T):
    # F = 2 pi R E(z): the force against a vacuum section and the energy per
    # area differ only in the rounding of their scales; a pair that does not
    # interact gives exactly 0.0 both ways
    grid = cd.MatsubaraGrid(T=T)
    names = [name for name in cd.catalog_names() if name not in ("si-doped", "tabulated")]
    models = {name: cd.build_material(name) for name in names}
    vacuum = cd.build_material("vacuum")
    for a, b in itertools.product(names, repeat=2):
        for z in (100e-9, 300e-9, 1e-6):
            force = cd.difference_force(models[a], models[b], vacuum, R_SPHERE, z, grid)
            energy = cd.free_energy_per_area(models[a], models[b], z, grid)
            assert force == pytest.approx(2.0 * math.pi * R_SPHERE * energy, rel=1e-14), (a, b, z)


def test_sphere_force_regression_gold_vo2_metal():
    f = cd.difference_force(MATS["gold"], MATS["vo2m"], MATS["vacuum"], R_SPHERE, 100e-9,
                            GRID340)
    assert abs(f / -1.0719989133689821e-10 - 1.0) < 1e-9


def test_pfa_validity_warning():
    with pytest.warns(UserWarning) as record:
        cd.difference_force(MATS["gold"], MATS["si_a"], MATS["vacuum"], 1e-6, 100e-9, GRID300)
    with pytest.warns(UserWarning) as more:
        cd.difference_force(MATS["gold"], MATS["n1"], MATS["low"], 1e-6, 100e-9, GRID300)
    assert {w.filename for w in (*record, *more)} == {__file__}


@pytest.mark.parametrize("workers", [1, 2])
def test_curve_pfa_warning_points_at_caller(workers):
    # one warning per curve, for the largest separation only (z/R = 0.0125),
    # raised before the points are dispatched, so a pool cannot swallow it
    with pytest.warns(UserWarning, match="z/R") as record:
        cd.difference_force_curve(MATS["gold"], MATS["n1"], MATS["low"], 20e-6,
                                  (100e-9, 150e-9, 250e-9), GRID300, workers=workers)
    assert [w.filename for w in record] == [__file__]
    assert "z/R = 0.0125" in str(record[0].message)


@pytest.mark.parametrize("call", [
    lambda: cd.difference_force(MATS["gold"], MATS["n1"], MATS["low"], 100e-6, math.inf,
                                GRID300),
    lambda: cd.difference_force(MATS["gold"], MATS["n1"], MATS["low"], 100e-6, 5e-6, GRID300,
                                low_freq_model="c"),
    lambda: cd.difference_force_curve(MATS["gold"], MATS["n1"], MATS["low"], 100e-6,
                                      (1e-6, 5e-6), GRID300, workers=0),
    # a perfect conductor cannot drop its dc conductivity
    lambda: cd.difference_force(MATS["gold"], MATS["n1"], MATS["ideal"], 100e-6, 5e-6, GRID300,
                                low_freq_model="a"),
    lambda: cd.difference_force_curve(MATS["gold"], MATS["n1"], MATS["ideal"], 100e-6,
                                      (1e-6, 5e-6), GRID300, low_freq_model="a"),
], ids=["infinite-z", "model-c", "workers-0", "ideal-metal-a", "ideal-metal-a-curve"])
def test_failing_call_does_not_warn_first(call):
    # z/R exceeds 0.01 in each call, but the call fails on its arguments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call()


def test_separation_validation():
    with pytest.raises(ValueError):
        cd.free_energy_per_area(MATS["gold"], MATS["si_a"], 0.0, GRID300)
    with pytest.raises(ValueError):
        cd.difference_pressure(MATS["gold"], MATS["si_a"], MATS["vacuum"], -1e-9, GRID300)


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
    two = (cd.difference_force(MATS["gold"], MATS["n1"], MATS["vacuum"], R_SPHERE, z, GRID300)
           - cd.difference_force(MATS["gold"], low_a, MATS["vacuum"], R_SPHERE, z, GRID300))
    assert abs(one / two - 1.0) < 1e-6


def test_difference_pressure_one_pass_matches_two_pass():
    z = 150e-9
    one = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="b"
    )
    two = (cd.difference_pressure(MATS["gold"], MATS["n1"], MATS["vacuum"], z, GRID300)
           - cd.difference_pressure(MATS["gold"], MATS["low"], MATS["vacuum"], z, GRID300))
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
    # numerically integrated zero-frequency term alone, and the closed-form
    # gap formula is its exact value.  F_b - F_a is the difference
    # (model a) - (model b), i.e. the gap.  R = 1 mm keeps 3 um within
    # the PFA warning.
    R = 1e-3
    low_b = cd.with_dc_conductivity(MATS["low"], True)
    eps0 = cd.with_dc_conductivity(MATS["low"], False).static_permittivity()
    for T in (300.0, 77.0):
        grid = cd.MatsubaraGrid(T=T)
        for z in (100e-9, 300e-9, 1e-6, 3e-6):
            gap, diag = cd.difference_force(MATS["gold"], low_b, MATS["low"], R, z, grid,
                                            low_freq_model="a", with_diagnostics=True)
            assert diag.n_terms == 2
            assert abs(gap / cd.zero_freq_gap_force(R, z, T, eps0) - 1.0) < 1e-13, (T, z)
            gap_p, diag = cd.difference_pressure(MATS["gold"], low_b, MATS["low"], z, grid,
                                                 low_freq_model="a", with_diagnostics=True)
            assert diag.n_terms == 2
            assert abs(gap_p / cd.zero_freq_gap_pressure(z, T, eps0) - 1.0) < 1e-13, (T, z)


def test_numeric_l0_close_to_analytic():
    low_b = cd.with_dc_conductivity(MATS["low"], True)
    gap_numeric = cd.difference_force(
        MATS["gold"], low_b, MATS["low"], R_SPHERE, 100e-9, GRID300, low_freq_model="a"
    )
    exact = cd.zero_freq_gap_force(R_SPHERE, 100e-9, 300.0, 11.66)
    assert abs(gap_numeric / exact - 1.0) < 1e-6
    # the numeric row also takes a plate section with a zero-frequency TE
    # reflection, which the closed form has no term for; against the gold
    # probe (r_TE(0) = 0) that term vanishes and the value keeps its bits
    plasma = cd.difference_force(
        MATS["gold"], cd.with_te_zero(MATS["n1"], "plasma"), MATS["low"], R_SPHERE,
        100e-9, GRID300,
    )
    assert math.isfinite(plasma)
    assert plasma == cd.difference_force(
        MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, 100e-9, GRID300
    )


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
        pair = (MATS["gold"], MATS[plate], MATS["vacuum"])
        forces = [cd.difference_force(*pair, R_SPHERE, float(z), GRID300) for z in zs]
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
                    cd.difference_force(
                        MATS["gold"], MATS[name], MATS["vacuum"], R_SPHERE, z, GRID340
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
    # the public functions take DEFAULT_NODES; the private _sums takes any
    # order
    z = 100e-9
    base = cd.difference_pressure(
        MATS["gold"], MATS["n1"], MATS["low"], z, GRID300, low_freq_model="a"
    )
    doubled, _ = lifshitz._sums(
        MATS["gold"], MATS["n1"], (cd.with_dc_conductivity(MATS["low"], False),), None, (z,),
        GRID300, nodes=240,
    )[0][0]
    assert abs(doubled / base - 1.0) < 1e-5
    f_base = cd.difference_force(
        MATS["gold"], MATS["vo2m"], MATS["vo2i"], R_SPHERE, z, GRID340
    )
    f_doubled, _ = lifshitz._sums(
        MATS["gold"], MATS["vo2m"], (MATS["vo2i"],), R_SPHERE, (z,), GRID340, nodes=240
    )[0][0]
    assert abs(f_doubled / f_base - 1.0) < 1e-5


@pytest.mark.parametrize("n", [80, 160, 240])
def test_gauss_legendre_against_mpmath(n):
    # Newton's method from each float node on the 40-digit recurrence gives
    # the exact root and weight; measured: nodes within 1.2e-16, weights
    # within 6.2e-14 relative (numpy's leggauss: 1.1e-11 at n = 120)
    x, w = lifshitz._gauss_legendre(n)
    assert len(x) == len(w) == n and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    with mpmath.workdps(40):
        for xk, wk in zip(x[n // 2:].tolist(), w[n // 2:].tolist()):
            r = mpmath.mpf(xk)
            for _ in range(2):
                p_prev, p = mpmath.mpf(1), r
                for j in range(2, n + 1):
                    p_prev, p = p, ((2 * j - 1) * r * p - (j - 1) * p_prev) / j
                dp = n * (p_prev - r * p) / (1 - r * r)
                r -= p / dp
            assert abs(r - xk) <= 2.5e-16, (n, xk)
            assert abs(wk * (1 - r * r) * dp * dp / 2 - 1) <= 4e-13, (n, xk)


_RULE_SETS = {
    "si-a": (MATS["gold"], MATS["n1"], MATS["low"], "a"),
    "si-b": (MATS["gold"], MATS["n1"], MATS["low"], "b"),
    "vo2": (MATS["gold"], MATS["vo2m"], MATS["vo2i"], None),
    "vo2-plasma-probe": (cd.with_te_zero(MATS["gold"], "plasma"), MATS["vo2m"], MATS["vo2i"],
                         None),
}

# (T, z) beyond the grid of a rule set where a row just above the edge
# y_min = 1 of the 32-node band carries much of a short sum: the model-b si
# pressure moves by 2.2e-14 at 300 K and 309 nm (l = 2 has y_min 1.017) and
# by 2.4e-14 at 340 K and 277 nm, the worst of 61 separations from 100 nm to
# 3 um at 77, 300 and 340 K
_BAND_EDGE_POINTS = {"si-b": ((300.0, 309e-9), (340.0, 277e-9))}


@pytest.mark.parametrize("name", sorted(_RULE_SETS) + [f"{n}-4K" for n in sorted(_RULE_SETS)])
def test_default_rule_within_1e_13_of_480_nodes(name):
    # the error of the default momentum bands against those of the private
    # reference order 480 (960, 480 and 192 nodes), force and pressure at
    # 100 nm, 1 um and 3 um, 300 K and 77 K, or 4 K for the "-4K" ids; the
    # sphere is large enough that 3 um stays within the PFA limit.  Measured
    # worst: 8.4e-15 (vo2, pressure at 100 nm, 77 K) and 8.2e-15 at 4 K.
    # 80 nodes on every row left 1.22e-13 (si pressure at 4 K and 100 nm) and
    # 3.4e-14 (vo2); the 120-node rule of a 62-wide window for every term
    # left 1.1e-12.  The si-b id also checks its _BAND_EDGE_POINTS
    probe, high, low, model = _RULE_SETS[name.removesuffix("-4K")]
    temperatures = (4.0,) if name.endswith("-4K") else (300.0, 77.0)
    for T, z in [*itertools.product(temperatures, (100e-9, 1e-6, 3e-6)),
                 *_BAND_EDGE_POINTS.get(name, ())]:
        grid = cd.MatsubaraGrid(T=T)
        for compute, R in ((partial(cd.difference_force, probe, high, low, 1e-3, z, grid), 1e-3),
                           (partial(cd.difference_pressure, probe, high, low, z, grid), None)):
            value, diag = compute(low_freq_model=model, with_diagnostics=True)
            lows = lifshitz._checked_lows(R, z, low, (model,))
            ref, ref_diag = lifshitz._sums(probe, high, lows, R, (z,), grid, nodes=480)[0][0]
            assert abs(value / ref - 1.0) <= 1e-13, (T, z, compute.func.__name__)
            assert diag.n_terms == ref_diag.n_terms


_UNLOADED = """
import sys
import casimirdiff as cd
mats = [cd.build_material(n) for n in ("gold-drude", "si-doped-n1", "si-doped-low")]
cd.difference_force(*mats, 100e-6, 100e-9, cd.MatsubaraGrid(T=300.0), low_freq_model="a")
cd.difference_force_curve(*mats, 100e-6, (100e-9, 200e-9), cd.MatsubaraGrid(T=300.0),
                          low_freq_model="a")
print([m for m in ("numpy.polynomial", "concurrent.futures", "multiprocessing")
       if m in sys.modules])
"""


def test_node_rule_leaves_numpy_polynomial_unloaded():
    # the rule is elementwise numpy: numpy.polynomial, and the LAPACK
    # eigensolver of its leggauss, stay out of a process that sums.  The
    # pool's modules, about 2 MB, stay out of one that sums serially.
    env = dict(os.environ, PYTHONPATH=str(Path(cd.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _UNLOADED], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


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
    with pytest.raises(cd.TruncationError) as err:
        cd.difference_pressure(MATS["ideal"], MATS["ideal"], MATS["vacuum"], 100e-9, grid)
    diag = err.value.diagnostics
    assert isinstance(diag, SumDiagnostics)
    assert diag.n_terms == 201
    assert not diag.converged
    assert diag.last_term_rel > 0.0
    assert "T = 1 K, z = 100 nm" in str(err.value) and "l_max_cap = 200" in str(err.value)
    # a pool worker pickles it back to the caller
    copy = pickle.loads(pickle.dumps(err.value))
    assert (str(copy), copy.diagnostics) == (str(err.value), diag)


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
        cd.difference_pressure(MATS["gold"], plate, MATS["vacuum"], 100e-9, GRID300)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: cd.DrudeParams(omega_p=1e15, gamma=math.nan), "gamma"),
        (lambda: cd.DrudeParams(omega_p=math.inf, gamma=1e13), "omega_p"),
        (lambda: cd.OscillatorParams(omega=1e15, Gamma=math.nan, strength=1.0), "Gamma"),
        (lambda: cd.HighFreqTail(eps_inf=math.nan, omega_inf=1e16), "eps_inf"),
        (lambda: cd.OpticalDataTable(omega=(1e14, 1e15), im_eps=(math.nan, 1.0)), "im_eps"),
        (lambda: cd.MatsubaraGrid(T=math.inf), "T"),
        (lambda: cd.CantileverParams(k=math.inf, f_r=1e3, Q=1e3, B=0.3, T=300.0), "k"),
        (lambda: cd.difference_force(
            MATS["gold"], MATS["si_a"], MATS["vacuum"], math.nan, 100e-9, GRID300), "radius"),
        (lambda: cd.difference_force(
            MATS["gold"], MATS["n1"], MATS["low"], math.inf, 100e-9, GRID300), "radius"),
        (lambda: cd.difference_pressure(
            MATS["gold"], MATS["n1"], MATS["low"], math.inf, GRID300), "separation"),
        (lambda: cd.reflection_coefficients(math.nan, 1e15, 1e7), "eps"),
        (lambda: cd.reflection_coefficients(11.66, math.nan, 1e7), "xi"),
        (lambda: cd.reflection_coefficients(11.66, math.inf, 1e7), "xi"),
        (lambda: cd.reflection_coefficients(11.66, 1e15, math.nan), "k_perp"),
        (lambda: cd.reflection_coefficients(11.66, 1e15, math.inf), "k_perp"),
        (lambda: MATS["gold"].eval(math.nan), "frequency"),
        (lambda: MATS["si_a"].eval(math.nan), "frequency"),
        # counts: an int of at least 1, never a bool or a float
        (lambda: cd.difference_force_curve(
            MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, (1e-7, 2e-7), GRID300,
            workers=0), "workers"),
        (lambda: cd.difference_pressure_curve(
            MATS["gold"], MATS["n1"], MATS["low"], (1e-7, 2e-7), GRID300, workers=2.5),
         "workers"),
        (lambda: cd.difference_pressure_curve(
            MATS["gold"], MATS["n1"], MATS["low"], (1e-7, 2e-7), GRID300, workers=True),
         "workers"),
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


# a curve reuses its spectrum's permittivities across its separations; a
# tabulated probe makes that reuse a Kramers-Kronig product per chunk
TABULATED = cd.build_material("tabulated", table=_lorentz_table(600))
SI = (MATS["gold"], MATS["n1"], MATS["low"])
ZS_41 = tuple(np.logspace(math.log10(100e-9), math.log10(300e-9), 41))
# case -> (materials, grid, force separations, pressure separations); the
# 41-point cases share most blocks between many points
CURVE_CASES = {
    "si": (SI, GRID300, (100e-9, 160e-9, 240e-9, 300e-9), (100e-9, 200e-9)),
    "vo2-tabulated": ((TABULATED, MATS["vo2m"], MATS["vo2i"]), GRID340,
                      (100e-9, 160e-9, 240e-9, 300e-9), (100e-9, 200e-9)),
    "si-41-300K": (SI, GRID300, ZS_41, ZS_41),
    "si-41-77K": (SI, cd.MatsubaraGrid(T=77.0), ZS_41, ZS_41),
}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_pressure_curve_matches_pointwise(case):
    mats, grid, _, zs = CURVE_CASES[case]
    model = "b" if case.startswith("si") else None
    for workers in (1, 2):
        curve = cd.difference_pressure_curve(
            *mats, zs, grid, low_freq_model=model, workers=workers
        )
        for z, v in zip(zs, curve.values):
            assert v == cd.difference_pressure(*mats, z, grid, low_freq_model=model)


@pytest.fixture
def serial_pool(monkeypatch):
    """A process pool stand-in that maps in this process, on a host of 64
    CPUs; returns the list that receives each pool's ``max_workers``."""
    import concurrent.futures

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, runs):
            return map(fn, runs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("points, workers, processes, cpus", [
    *(pytest.param(*case, 64, id="-".join(map(str, case)))
      for case in [(3, 8, 3), (41, 40, 21), (41, 2, 2), (5, 4, 3), (1, 2, 1)]),
    pytest.param(41, 40, 4, 4, id="41-40-4-cpus4"),
    pytest.param(41, 40, 0, None, id="41-40-serial-cpus-unknown"),
    pytest.param(41, 2, 0, 1, id="41-2-serial-cpus1"),
])
def test_pool_starts_one_process_per_run(points, workers, processes, cpus, serial_pool,
                                         monkeypatch):
    # the pool forks all its processes at the first task, so it gets no
    # more than the runs it is given, and the runs are at most the CPU count
    # (1 if unknown): a cap of 1 runs serially, with no pool
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sizes = serial_pool
    zs = tuple(np.linspace(100e-9, 300e-9, points))
    mats = (MATS["gold"], MATS["n1"], MATS["low"])
    serial = cd.difference_force_curve(*mats, R_SPHERE, zs, GRID300, low_freq_model="a")
    pooled = cd.difference_force_curve(*mats, R_SPHERE, zs, GRID300, low_freq_model="a",
                                       workers=workers)
    assert sizes == ([processes] if processes else [])
    assert pooled.values == serial.values
    assert pooled.metadata == serial.metadata


@pytest.mark.parametrize("case", sorted(CURVE_CASES) + ["vo2-tabulated-warm"])
def test_curve_workers_bit_identical(case):
    mats, grid, zs, _ = CURVE_CASES[case.removesuffix("-warm")]
    model = "a" if case.startswith("si") else None
    serial = cd.difference_force_curve(
        *mats, R_SPHERE, zs, grid, low_freq_model=model, workers=1,
    )
    if case.endswith("-warm"):
        # freshly built materials warmed at this temperature: the pool
        # workers get them pickled with their memos
        mats = _fresh_materials(("tabulated", "vo2-metal", "vo2-insulator"))
        cd.difference_force_curve(*mats, R_SPHERE, zs, grid, low_freq_model=model)
        assert all(m._eps_memo.entry[0] == grid.T for m in mats)
    parallel = cd.difference_force_curve(
        *mats, R_SPHERE, zs, grid, low_freq_model=model, workers=2,
    )
    assert serial.values == parallel.values
    assert serial.metadata["l_terms_per_z"] == parallel.metadata["l_terms_per_z"]
    pointwise = [
        cd.difference_force(*mats, R_SPHERE, z, grid, low_freq_model=model, with_diagnostics=True)
        for z in zs
    ]
    assert serial.values == tuple(value for value, _ in pointwise)
    assert serial.metadata["l_terms_per_z"] == tuple(diag.n_terms for _, diag in pointwise)


def _zero_term_calls(monkeypatch):
    """A list that receives the separation of every l = 0 row evaluated."""
    calls = []
    zero_term = lifshitz._zero_term

    def counting(quantity, models, z, nodes):
        calls.append(z)
        return zero_term(quantity, models, z, nodes)

    monkeypatch.setattr(lifshitz, "_zero_term", counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 40])
def test_curve_computes_the_zero_term_once_per_run(workers, serial_pool, monkeypatch):
    # in the y-form the l = 0 row is the same float at every separation; each
    # of the pool's runs (here mapped in this process) computes it at its
    # first point
    calls = _zero_term_calls(monkeypatch)
    firsts = list(ZS_41[::-(-len(ZS_41) // workers)])
    force = cd.difference_force_curve(*SI, R_SPHERE, ZS_41, GRID300, low_freq_model="a",
                                      workers=workers)
    assert calls == firsts
    pressure = cd.difference_pressure_curve(*SI, ZS_41, GRID300, low_freq_model="b",
                                            workers=workers)
    assert calls == firsts * 2
    assert serial_pool == ([] if workers == 1 else [len(firsts)] * 2)
    assert force.values == tuple(
        cd.difference_force(*SI, R_SPHERE, z, GRID300, low_freq_model="a") for z in ZS_41)
    assert pressure.values == tuple(
        cd.difference_pressure(*SI, z, GRID300, low_freq_model="b") for z in ZS_41)


def test_zero_term_depends_on_z_only_for_a_plasma_pair():
    # the test reads model attributes alone; where it says no, the l = 0 row
    # is the same float from 100 nm to 3 um
    names = ("gold-drude", "si-doped-n1", "si-doped-low", "vo2-metal", "ideal-metal", "vacuum")
    models = [cd.build_material(name) for name in names]
    models += [cd.with_te_zero(m, "plasma") for m in models[:4]]
    # a dc flag without free-carrier parameters: r_TE(0) = 0
    no_carriers = cd.with_dc_conductivity(cd.build_material("si-dielectric"), True)
    models.append(cd.with_te_zero(no_carriers, "plasma"))
    section = MATS["low"]
    for probe, high in itertools.product(models, repeat=2):
        triple = (probe, high, section)
        for quantity in ("energy", "pressure"):
            rows = {lifshitz._zero_term(quantity, triple, z, 80) for z in (100e-9, 3e-6)}
            if not lifshitz._zero_term_depends_on_z(triple):
                assert len(rows) == 1, (probe.label, high.label)
    plasma_pair = (models[6], models[7], section)  # plasma-TE gold over plasma-TE si-doped-n1
    assert lifshitz._zero_term_depends_on_z(plasma_pair)
    assert len({lifshitz._zero_term("energy", plasma_pair, z, 80) for z in (100e-9, 3e-6)}) == 2
    assert not lifshitz._zero_term_depends_on_z((models[4], models[-1], section))


@pytest.mark.parametrize("workers", [1, 2])
def test_plasma_pair_keeps_a_zero_term_per_point(workers, monkeypatch):
    # plasma TE amplitudes on both sides: r_TE(0) scales with s = 2z, so
    # every point computes its own l = 0 row
    zs = ZS_41[::4]
    mats = (cd.with_te_zero(MATS["gold"], "plasma"), cd.with_te_zero(MATS["n1"], "plasma"),
            MATS["low"])
    pointwise = [cd.difference_force(*mats, R_SPHERE, z, GRID300, with_diagnostics=True)
                 for z in zs]
    calls = _zero_term_calls(monkeypatch)
    curve = cd.difference_force_curve(*mats, R_SPHERE, zs, GRID300, workers=workers)
    assert curve.values == tuple(value for value, _ in pointwise)
    assert curve.metadata["l_terms_per_z"] == tuple(diag.n_terms for _, diag in pointwise)
    if workers == 1:
        assert calls == list(zs)


@pytest.mark.parametrize("quantity", ["force", "pressure"])
@pytest.mark.parametrize("T", [300.0, 77.0], ids=["300K", "77K"])
def test_model_curves_run_one_sum_for_two_models(quantity, T, monkeypatch):
    # models a and b differ only in the l = 0 term: one run evaluates the
    # rows l >= 1 once and stops each sum by its own test.  Measured rows:
    # 2508, 2849, 8786 and 9989, each equal to the model-b curve's own,
    # where the two curves took 4985, 5673, 17552 and 19956.
    grid = cd.MatsubaraGrid(T=T)
    R = R_SPHERE if quantity == "force" else None
    rows, _ = _block_rows(monkeypatch)
    separate, separate_rows = [], []
    for model in ("a", "b"):
        rows.clear()
        if R is None:
            separate.append(cd.difference_pressure_curve(*SI, ZS_41, grid, low_freq_model=model))
        else:
            separate.append(cd.difference_force_curve(*SI, R, ZS_41, grid, low_freq_model=model))
        separate_rows.append(sum(rows))
    rows.clear()
    both = lifshitz._model_curves(*SI, R, ZS_41, grid, ("a", "b"), 1)
    for curve, alone in zip(both, separate):
        assert curve.values == alone.values
        assert curve.metadata == alone.metadata
    terms_a, terms_b = (curve.metadata["l_terms_per_z"] for curve in both)
    between = sum(abs(a - b) for a, b in zip(terms_a, terms_b))
    assert between > 0
    assert sum(rows) <= max(separate_rows) + between


def test_model_curves_raise_at_the_term_cap_as_model_a():
    grid = cd.MatsubaraGrid(T=20.0, l_max_cap=100)
    errors = []
    for curves in (lambda: lifshitz._model_curves(*SI, R_SPHERE, (1e-7, 2e-7), grid, ("a", "b"),
                                                  1),
                   lambda: cd.difference_force_curve(*SI, R_SPHERE, (1e-7, 2e-7), grid,
                                                     low_freq_model="a")):
        with pytest.raises(cd.TruncationError) as err:
            curves()
        errors.append((str(err.value), err.value.diagnostics))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("quantity", ["force", "pressure"])
def test_curve_raises_the_error_of_its_first_failing_point(quantity, workers):
    # at 40 K and l_max_cap = 200 the sums from 100 nm to 283 nm (force) or
    # 400 nm (pressure) need more terms, 605 and 691 at 100 nm, and those
    # beyond converge: the curve raises what a loop over its points in order
    # would, the error of the smallest z, however far the shared blocks ran
    # ahead
    grid = cd.MatsubaraGrid(T=40.0, l_max_cap=200)
    zs = tuple(np.logspace(math.log10(100e-9), math.log10(1.6e-6), 9))
    if quantity == "force":
        single = partial(cd.difference_force, *SI, R_SPHERE, grid=grid, low_freq_model="a")
        curve = partial(cd.difference_force_curve, *SI, R_SPHERE, zs, grid, low_freq_model="a",
                        workers=workers)
    else:
        single = partial(cd.difference_pressure, *SI, grid=grid, low_freq_model="a")
        curve = partial(cd.difference_pressure_curve, *SI, zs, grid, low_freq_model="a",
                        workers=workers)
    assert single(z=zs[5]) < 0.0
    with pytest.raises(cd.TruncationError) as expected:
        single(z=zs[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # z/R beyond 0.01
        with pytest.raises(cd.TruncationError) as err:
            curve()
    assert str(err.value) == str(expected.value)
    assert "z = 100 nm" in str(err.value)
    assert err.value.diagnostics == expected.value.diagnostics


def _block_rows(monkeypatch):
    """Two lists, counted as in tools/block_counts.py: the rows of every block
    of rows l >= 1 the row chooser fills (a ``_row_terms`` call), and the
    (rows, order) of every block the row evaluator cuts from them, at most
    one per momentum band unless a band's rows exceed _MAX_CELLS (a
    ``_block_terms`` call for rows l >= 1)."""
    chosen, evaluated = [], []
    row_terms, block_terms = lifshitz._row_terms, lifshitz._block_terms

    def choosing(quantity, models, z, xi, *rest):
        chosen.append(len(xi))
        return row_terms(quantity, models, z, xi, *rest)

    def evaluating(quantity, models, z, xi, block_eps, nodes, window):
        if xi[0] > 0.0:  # not the l = 0 row
            evaluated.append((len(xi), nodes))
        return block_terms(quantity, models, z, xi, block_eps, nodes, window)

    monkeypatch.setattr(lifshitz, "_row_terms", choosing)
    monkeypatch.setattr(lifshitz, "_block_terms", evaluating)
    return chosen, evaluated


ZS_3UM = tuple(np.logspace(math.log10(100e-9), math.log10(3e-6), 41))


@pytest.mark.filterwarnings("ignore:z/R")
@pytest.mark.parametrize("quantity, T, zs, max_blocks, max_evaluated, max_rows", [
    ("force", 300.0, ZS_41, 9, 15, 1.10), ("pressure", 300.0, ZS_41, 10, 16, 1.10),
    ("force", 77.0, ZS_41, 32, 40, 1.10), ("pressure", 77.0, ZS_41, 37, 44, 1.10),
    ("force", 300.0, ZS_3UM, 6, 9, 1.04), ("pressure", 77.0, ZS_3UM, 18, 24, 1.04),
], ids=["force-300K", "pressure-300K", "force-77K", "pressure-77K", "force-300K-3um",
        "pressure-77K-3um"])
def test_curve_evaluates_few_terms_past_the_stop(quantity, T, zs, max_blocks, max_evaluated,
                                                 max_rows, monkeypatch):
    # the points of a run share blocks: every point first asks for the rows
    # its own z predicts, then top-ups sized to the sums they finish.
    # Measured blocks of up to 320 rows: 8, 9, 29 and 33 on 100-300 nm, 5
    # and 16 on 100 nm - 3 um; blocks of up to 128 rows took 20, 23, 70, 79,
    # 11 and 40, blocks of one point each 58, 63, 158, 176, 47 and 100, and
    # fixed blocks of 32 evaluated 3136 terms in 98 where the 300 K force
    # sums need 2451.  The band cuts make 13, 14, 36, 40, 8 and 21 blocks
    # evaluated, none of more than _MAX_CELLS cells.  Rows evaluated: at
    # most 1.023 of those needed on 100-300 nm, 1.033 on 100 nm - 3 um
    # (tools/block_counts.py).
    rows, evaluated = _block_rows(monkeypatch)
    grid = cd.MatsubaraGrid(T=T)
    if quantity == "force":
        curve = cd.difference_force_curve(*SI, R_SPHERE, zs, grid, low_freq_model="a")
    else:
        curve = cd.difference_pressure_curve(*SI, zs, grid, low_freq_model="a")
    needed = sum(n - 1 for n in curve.metadata["l_terms_per_z"])  # l >= 1
    assert sum(rows) <= max_rows * needed
    assert sum(r for r, _ in evaluated) == sum(rows)
    assert len(rows) <= max_blocks
    assert len(evaluated) <= max_evaluated
    assert all(r * order <= lifshitz._MAX_CELLS for r, order in evaluated)


@pytest.mark.parametrize("quantity", ["force", "pressure"])
def test_failing_curve_stops_near_the_cap(quantity, monkeypatch):
    # at 0.5 K the 100 nm sum needs more than l_max_cap terms.  Its top-ups
    # go before those of the farther points, so the curve raises after
    # 21760 rows, 1.09 times the cap: about the cap and 41 first requests.
    # A queue that served the points in turn took 38 and 40 times the cap.
    # Its rows span all three bands, and no block evaluated exceeds
    # _MAX_CELLS cells
    grid = cd.MatsubaraGrid(T=0.5)
    rows, evaluated = _block_rows(monkeypatch)
    with pytest.raises(cd.TruncationError, match="z = 100 nm"):
        if quantity == "force":
            cd.difference_force_curve(*SI, R_SPHERE, ZS_41, grid, low_freq_model="a")
        else:
            cd.difference_pressure_curve(*SI, ZS_41, grid, low_freq_model="a")
    assert sum(rows) <= 2 * grid.l_max_cap
    assert all(r * order <= lifshitz._MAX_CELLS for r, order in evaluated)


def test_next_rows_from_the_decay_rate():
    rel_tol, tau = 1e-9, 1.0
    # no terms yet: the rows e^{-l tau} takes to rel_tol, at most _CHUNK
    assert lifshitz._next_rows([], 1.0, rel_tol, tau) == math.ceil(math.log(1e9) / tau)
    assert lifshitz._next_rows([], 1.0, rel_tol, 0.1) == lifshitz._CHUNK
    # terms falling by 0.9 a row predict 175 rows to the goal 1e-8, e^{-tau}
    # a row 19: the faster rate wins, plus the margin row
    goal = rel_tol * 10.0 / 1.0
    assert lifshitz._next_rows([1.0 / 0.9, 1.0], 10.0, rel_tol, tau) == math.ceil(
        -math.log(goal) / tau + 1.0)
    # with a small tau the ratio of the terms predicts fewer
    assert lifshitz._next_rows([1.0 / 0.1, 1.0], 10.0, rel_tol, 1e-3) == math.ceil(
        math.log(goal) / math.log(0.1) + 1.0)
    # a total of exactly 0 has no goal
    assert lifshitz._next_rows([2.0, 1.0], 0.0, rel_tol, tau) == lifshitz._CHUNK


def test_single_sums_take_few_tail_blocks(monkeypatch):
    # a later block gets one row beyond the decay estimate, so a sum rarely
    # ends in a 1-3-row block: 160 single 77 K stencil sums at 100-400 nm took
    # 594 blocks (6 of 1-3 rows) against 624 (37) without the margin row in
    # blocks of at most 64 rows, 491 (1) in blocks of 128, and take 480 (0)
    # in blocks of 320, which the band cuts make 640 blocks evaluated
    rows, evaluated = _block_rows(monkeypatch)
    grid = cd.MatsubaraGrid(T=77.0)
    for z in np.linspace(100e-9, 400e-9, 40):
        cd.five_point_gradient(
            lambda x: cd.difference_force(*SI, R_SPHERE, x, grid, low_freq_model="a"), float(z))
    assert len(rows) <= 530
    assert len(evaluated) <= 705


def _thread_battery(configs, mats=SI):
    results = []
    for quantity, T, model in configs:
        grid = cd.MatsubaraGrid(T=T)
        if quantity == "force":
            curve = cd.difference_force_curve(*mats, R_SPHERE, ZS_41, grid, low_freq_model=model)
        else:
            curve = cd.difference_pressure_curve(*mats, ZS_41, grid, low_freq_model=model)
        results.append((curve.values, curve.metadata["l_terms_per_z"]))
    return results


def test_threads_bit_identical():
    # the kernel holds no state between threads, and a material's memo is
    # read and replaced whole: four threads sharing freshly built materials,
    # running the curves in different orders, race on the memos across 77 K
    # and 300 K and still get the serial bits
    configs = [(q, T, model) for q in ("force", "pressure") for T in (77.0, 300.0)
               for model in ("a", "b")]
    serial = dict(zip(configs, _thread_battery(configs)))
    orders = [configs[k:] + configs[:k] for k in (0, 2, 4, 6)]
    shared = _fresh_materials(("gold-drude", "si-doped-n1", "si-doped-low"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_thread_battery, order, shared) for order in orders]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for order, results in zip(orders, threaded):
        assert dict(zip(order, results)) == serial


# --- the Matsubara memo of a material ------------------------------------

# case -> (materials, temperature K)
MEMO_CASES = {
    "si-77K": (("gold-drude", "si-doped-n1", "si-doped-low"), 77.0),
    "si-300K": (("gold-drude", "si-doped-n1", "si-doped-low"), 300.0),
    "tabulated-vo2-340K": (("tabulated", "vo2-metal", "vo2-insulator"), 340.0),
}


def _memo_calls(grid):
    """Calls on a (probe, high, low) triple: curves, single sums, a stencil and
    a single-pair sum, each returning values with their term counts."""
    zs = (100e-9, 170e-9, 300e-9)

    def curve(c):
        return c.values, c.metadata["l_terms_per_z"]

    return [
        lambda m: curve(cd.difference_force_curve(*m, R_SPHERE, zs, grid, low_freq_model="a")),
        lambda m: curve(cd.difference_pressure_curve(*m, zs, grid, low_freq_model="b")),
        lambda m: cd.difference_force(*m, R_SPHERE, 150e-9, grid, with_diagnostics=True),
        lambda m: cd.difference_pressure(*m, 120e-9, grid, low_freq_model="a",
                                         with_diagnostics=True),
        lambda m: cd.five_point_gradient(
            lambda z: cd.difference_force(*m, R_SPHERE, z, grid, low_freq_model="a"), 200e-9),
        lambda m: cd.difference_pressure(m[0], m[1], cd.build_material("vacuum"), 130e-9, grid,
                                         with_diagnostics=True),
    ]


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_warm_models_give_fresh_model_bits(case):
    names, T = MEMO_CASES[case]
    warm = _fresh_materials(names)
    calls = _memo_calls(cd.MatsubaraGrid(T=T))
    for _ in range(2):  # the second round runs on warm memos only
        for k, call in enumerate(calls):
            assert call(warm) == call(_fresh_materials(names)), k


def test_memo_grown_under_a_term_cap_extends_to_fresh_bits():
    # a sum stopped at l_max_cap = 101 leaves a memo at 20 K; a sum at the
    # default cap extends it, and values and memo equal a fresh model's
    vo2 = (MATS["vo2m"], MATS["vo2i"])
    probe = _fresh_materials(("tabulated",))[0]
    with pytest.raises(cd.TruncationError):
        cd.difference_force(probe, *vo2, R_SPHERE, 100e-9, cd.MatsubaraGrid(T=20.0, l_max_cap=101))
    capped = len(probe._eps_memo.entry[1])
    grid = cd.MatsubaraGrid(T=20.0)
    fresh = _fresh_materials(("tabulated",))[0]
    assert (cd.difference_force(probe, *vo2, R_SPHERE, 100e-9, grid, with_diagnostics=True)
            == cd.difference_force(fresh, *vo2, R_SPHERE, 100e-9, grid, with_diagnostics=True))
    assert probe._eps_memo.entry[0] == 20.0
    assert 101 <= capped < len(probe._eps_memo.entry[1])
    assert np.array_equal(probe._eps_memo.entry[1], fresh._eps_memo.entry[1])


def test_memo_spares_repeated_evaluations(monkeypatch):
    calls = []
    evaluate = cd.PermittivityModel.eval

    def counting(self, xi):
        calls.append(self.label)
        return evaluate(self, xi)

    monkeypatch.setattr(cd.PermittivityModel, "eval", counting)
    mats = _fresh_materials(("gold-drude", "si-doped-n1", "si-doped-low"))
    grid77 = cd.MatsubaraGrid(T=77.0)
    for expected_calls in (True, False):
        calls.clear()
        cd.difference_force_curve(*mats, R_SPHERE, ZS_41[:8], grid77, low_freq_model="b")
        assert bool(calls) == expected_calls
    # a model-a stencil copies the low section for each sum; the copies
    # share its memo, so only the first, nearest sum evaluates, and only at
    # the new temperature
    per_sum = []

    def force(z):
        before = len(calls)
        value = cd.difference_force(*mats, R_SPHERE, z, GRID300, low_freq_model="a")
        per_sum.append(len(calls) - before)
        return value

    cd.five_point_gradient(force, 150e-9)
    assert per_sum[0] > 0 and per_sum[1:] == [0, 0, 0]
    assert all(m._eps_memo.entry[0] == 300.0 for m in mats)
    low = mats[2]
    assert cd.with_dc_conductivity(low, False)._eps_memo is low._eps_memo
    assert cd.with_te_zero(low, "plasma")._eps_memo is low._eps_memo


# a fresh interpreter: the test process's own heap history hides the effect
_FAULTS_PER_CURVE = """
import math, resource
import numpy as np
import casimirdiff as cd
mats = [cd.build_material(n) for n in ("gold-drude", "si-doped-n1", "si-doped-low")]
zs = np.logspace(math.log10(100e-9), math.log10(300e-9), 41)
grid = cd.MatsubaraGrid(T=300.0)
curve = lambda: cd.difference_force_curve(*mats, 100e-6, zs, grid, low_freq_model="a")
curve()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    curve()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_block_memory_stays_resident():
    # glibc trims the heap top after each block unless the kernel's set-up
    # raised the trim threshold: about 1500 minor faults per warm curve
    # against 0.1.  Malloc settings from outside are dropped.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(cd.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_CURVE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert float(out.stdout) < 20


def _split_battery():
    results = []
    for T in (77.0, 300.0):
        grid = cd.MatsubaraGrid(T=T)
        zs = (100e-9, 170e-9, 300e-9)
        for z in zs:
            results.append(cd.difference_force(
                *SI, R_SPHERE, z, grid, low_freq_model="a", with_diagnostics=True))
            results.append(cd.difference_pressure(
                *SI, z, grid, low_freq_model="a", with_diagnostics=True))
        for curve in (cd.difference_force_curve(*SI, R_SPHERE, zs, grid, low_freq_model="a"),
                      cd.difference_pressure_curve(*SI, zs, grid, low_freq_model="a")):
            results.append((curve.values, curve.metadata["l_terms_per_z"]))
    return results


@pytest.mark.parametrize("max_rows", [5, 7, 13, 30])
def test_values_do_not_depend_on_block_split(max_rows, monkeypatch):
    # capping the rows of a block splits every sum at other indices; each
    # term, hence every value and term count, must stay the same bits
    reference = _split_battery()
    monkeypatch.setattr(lifshitz, "_MAX_CELLS", max_rows * lifshitz.DEFAULT_NODES)
    assert _split_battery() == reference


@pytest.mark.parametrize("separations", [(3e-7, 2e-7, 1e-7), (), (1e-7, math.nan)])
def test_curve_separations_checked_before_any_sum(separations, monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("a Matsubara sum ran")

    monkeypatch.setattr(lifshitz, "_block_terms", no_sum)
    with pytest.raises(ValueError, match="separations"):
        cd.difference_force_curve(
            MATS["gold"], MATS["n1"], MATS["low"], R_SPHERE, separations, GRID300
        )
    with pytest.raises(ValueError, match="separations"):
        cd.difference_pressure_curve(MATS["gold"], MATS["n1"], MATS["low"], separations,
                                     GRID300, workers=2)


@pytest.mark.parametrize("call, z", [
    (lambda z: cd.difference_force(*SI, 1.0, z, GRID300), 1e-170),
    (lambda z: cd.difference_pressure(*SI, z, GRID300), 1e-120),
    (lambda z: cd.free_energy_per_area(MATS["gold"], MATS["n1"], z, GRID300), 1e-170),
    (lambda z: cd.difference_force_curve(*SI, 1.0, (z, 1e-7), GRID300), 1e-170),
    (lambda z: cd.difference_pressure_curve(*SI, (z, 1e-7), GRID300, workers=2), 1e-120),
    (lambda z: cd.difference_pressure(*SI, z, GRID300), 1e200),
], ids=["force", "pressure", "energy", "force-curve", "pressure-curve-pooled", "pressure-huge"])
def test_separation_whose_scale_is_not_a_float_fails_before_any_row(call, z, serial_pool,
                                                                     monkeypatch):
    # z^2 or z^3 underflows to 0 (or overflows), though z is positive and
    # finite: the sum's scale would divide by zero after the whole sum
    def no_row(*args, **kwargs):
        raise AssertionError("a Matsubara row was evaluated")

    monkeypatch.setattr(lifshitz, "_block_terms", no_row)
    with pytest.raises(ValueError, match=re.escape(f"separation z = {z:g} m is out of range")):
        call(z)


def test_curve_validation():
    with pytest.raises(ValueError):
        cd.Curve(separations=(2e-7, 1e-7), values=(-1e-12, -2e-12), metadata={})
    with pytest.raises(ValueError):
        cd.Curve(separations=(1e-7, 2e-7), values=(-1e-12,), metadata={})
    with pytest.raises(ValueError):
        cd.Curve(separations=(1e-7, 2e-7), values=(0.1, math.nan), metadata={})


def test_difference_force_radius_validation():
    with pytest.raises(ValueError, match="radius"):
        cd.difference_force(MATS["gold"], MATS["si_a"], MATS["vacuum"], 0.0, 100e-9, GRID300)
