"""Cantilever sensitivity, resonance shifts, gradient-to-pressure mapping."""

import math

import numpy as np
import pytest

import casimirdiff as cd

REFERENCE_CANTILEVER = cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=77.0)


def test_sensitivity_anchor():
    value = cd.min_detectable_force(REFERENCE_CANTILEVER)
    assert abs(value / 0.96e-15 - 1.0) < 0.01
    assert abs(value / 9.563306311304978e-16 - 1.0) < 1e-12


def test_sensitivity_temperature_scaling():
    hot = cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=4 * 77.0)
    assert abs(
        cd.min_detectable_force(hot) / (2.0 * cd.min_detectable_force(REFERENCE_CANTILEVER)) - 1.0
    ) < 1e-12


def test_sensitivity_vanishing_bandwidth():
    narrow = cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=1e-30, T=77.0)
    assert cd.min_detectable_force(narrow) < 1e-28


def test_sensitivity_scaling_randomized():
    # sqrt(T k B / (Q f_r)) scaling under random rescalings of each parameter
    rng = np.random.default_rng(11)
    base = cd.min_detectable_force(REFERENCE_CANTILEVER)
    for _ in range(50):
        a_t, a_k, a_b, a_q, a_f = 10 ** rng.uniform(-2, 2, size=5)
        scaled = cd.CantileverParams(
            k=0.03 * a_k, f_r=1130.9 * a_f, Q=5889.2 * a_q, B=0.3 * a_b, T=77.0 * a_t
        )
        expected = base * math.sqrt(a_t * a_k * a_b / (a_q * a_f))
        assert abs(cd.min_detectable_force(scaled) / expected - 1.0) < 1e-12


def test_resonance_shift_zero_gradient():
    assert cd.resonance_shift(REFERENCE_CANTILEVER, 0.0) == 0.0


def test_resonance_shift_identity_construction():
    # gradient 2 k eps / f_r produces a shift of exactly -eps Hz
    eps = 1e-3
    gradient = 2.0 * REFERENCE_CANTILEVER.k * eps / REFERENCE_CANTILEVER.f_r
    assert cd.resonance_shift(REFERENCE_CANTILEVER, gradient) == pytest.approx(-eps, rel=1e-14)


def test_resonance_shift_linearity():
    g = 1e-5
    s1 = cd.resonance_shift(REFERENCE_CANTILEVER, g)
    s3 = cd.resonance_shift(REFERENCE_CANTILEVER, 3.0 * g)
    assert s3 == pytest.approx(3.0 * s1, rel=1e-14)


def test_resonance_shift_warns_outside_linear_regime():
    with pytest.warns(UserWarning):
        cd.resonance_shift(REFERENCE_CANTILEVER, 0.5 * REFERENCE_CANTILEVER.k)


def test_resonance_shift_regression_from_force_gradient():
    grid = cd.MatsubaraGrid(T=300.0)
    gold = cd.build_material("gold-drude")
    high = cd.build_material("si-doped-n1")
    low = cd.build_material("si-doped-low")
    grad = cd.five_point_gradient(
        lambda z: cd.difference_force(gold, high, low, 100e-6, z, grid, low_freq_model="a"),
        150e-9,
    )
    assert abs(grad / 4.7239519662515066e-05 - 1.0) < 1e-8
    params = cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=300.0)
    shift = cd.resonance_shift(params, grad)
    assert abs(shift / -0.8903862131056383 - 1.0) < 1e-8


def test_pressure_from_gradient_identities():
    assert cd.pressure_from_force_gradient(100e-6, 0.0) == 0.0
    R = 3.7e-5
    assert cd.pressure_from_force_gradient(R, -2.0 * math.pi * R) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        cd.pressure_from_force_gradient(0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gradient_or_radius_raises(bad):
    with pytest.raises(ValueError, match="force gradient must be finite"):
        cd.resonance_shift(REFERENCE_CANTILEVER, bad)
    with pytest.raises(ValueError, match="force gradient must be finite"):
        cd.pressure_from_force_gradient(100e-6, bad)
    with pytest.raises(ValueError, match="sphere radius"):
        cd.pressure_from_force_gradient(bad, 1e-5)


def test_gradient_pressure_cross_module_consistency():
    grid = cd.MatsubaraGrid(T=300.0)
    gold = cd.build_material("gold-drude")
    high = cd.build_material("si-doped-n1")
    low = cd.build_material("si-doped-low")
    R = 100e-6
    z = 100e-9
    grad = cd.five_point_gradient(
        lambda zz: cd.difference_force(gold, high, low, R, zz, grid, low_freq_model="a"), z
    )
    p_mapped = cd.pressure_from_force_gradient(R, grad)
    p_direct = cd.difference_pressure(gold, high, low, z, grid, low_freq_model="a")
    assert abs(p_mapped / p_direct - 1.0) < 1e-3


@pytest.mark.parametrize("T", [300.0, 77.0])
@pytest.mark.parametrize("z", [100e-9, 300e-9, 1e-6])
@pytest.mark.filterwarnings("ignore:z/R")  # the stencil reaches z/R = 0.0102 at 1 um
def test_stencil_gradient_equals_pressure_identity(T, z):
    # within the PFA F = 2 pi R E(z), so dF/dz = -2 pi R P(z) exactly; the
    # stencil of four force sums and the one pressure sum differ only by
    # their truncation errors, measured at 5.5e-8 at most over these cases
    grid = cd.MatsubaraGrid(T=T)
    gold, high, low = (cd.build_material(n) for n in ("gold-drude", "si-doped-n1", "si-doped-low"))
    R = 100e-6
    for model in ("a", "b"):
        stencil = cd.five_point_gradient(
            lambda zz: cd.difference_force(gold, high, low, R, zz, grid, low_freq_model=model), z
        )
        identity = -2.0 * math.pi * R * cd.difference_pressure(
            gold, high, low, z, grid, low_freq_model=model
        )
        assert abs(stencil / identity - 1.0) < 1e-7, model


def test_five_point_gradient_on_polynomial():
    assert cd.five_point_gradient(lambda x: x**4, 2.0, step=1e-3) == pytest.approx(32.0, rel=1e-9)
    with pytest.raises(ValueError):
        cd.five_point_gradient(lambda x: x, 1.0, step=0.0)


def test_cantilever_validation():
    with pytest.raises(ValueError):
        cd.CantileverParams(k=-0.03, f_r=1130.9, Q=5889.2, B=0.3, T=77.0)
    with pytest.raises(ValueError):
        cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=0.0)
    # explicit mass must reproduce the resonance frequency
    omega_r = 2.0 * math.pi * 1130.9
    good = cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=77.0, M=0.03 / omega_r**2)
    assert good.mass == pytest.approx(good.k / good.omega_r**2, rel=1e-12)
    with pytest.raises(ValueError):
        cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=77.0, M=1e-9)
    with pytest.raises(ValueError, match="parameter M must be positive"):
        cd.CantileverParams(k=0.03, f_r=1130.9, Q=5889.2, B=0.3, T=77.0, M=-1e-9)


def test_derived_mass():
    p = REFERENCE_CANTILEVER
    assert abs(math.sqrt(p.k / p.mass) / p.omega_r - 1.0) < 1e-12
