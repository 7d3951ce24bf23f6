"""Golden values of the thermal-sum kernel and array evaluation of permittivities.

Each pinned value was computed with the one-term-at-a-time Matsubara loop
that preceded the batched kernel, and is written with 17 significant digits.
The kernel must reproduce it to 1e-12 relative with the same term count.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

import casimirdiff as cd
from casimirdiff import lifshitz

R = 100e-6
GRID77 = cd.MatsubaraGrid(T=77.0)
GRID300 = cd.MatsubaraGrid(T=300.0)
GRID340 = cd.MatsubaraGrid(T=340.0)
TIGHT300 = cd.MatsubaraGrid(T=300.0, rel_tol=1e-12)

GOLD = cd.build_material("gold-drude")
GOLD_PLASMA = cd.with_te_zero(GOLD, "plasma")
SI = cd.build_material("si-dielectric")
N1 = cd.build_material("si-doped-n1")
LOW = cd.build_material("si-doped-low")
LOW_B = cd.with_dc_conductivity(LOW, True)
VO2_M = cd.build_material("vo2-metal")
VO2_I = cd.build_material("vo2-insulator")
IDEAL = cd.build_material("ideal-metal")


def _lorentz_table(rows: int) -> cd.OpticalDataTable:
    omega0, Gamma, strength = 2.0e15, 0.3, 2.0
    grid = np.logspace(math.log10(omega0 / 300), math.log10(omega0 * 300), rows)
    r = grid / omega0
    im = strength * Gamma * r / ((1.0 - r * r) ** 2 + (Gamma * r) ** 2)
    return cd.OpticalDataTable(omega=tuple(grid.tolist()), im_eps=tuple(im.tolist()))


TABULATED = cd.build_material("tabulated", table=_lorentz_table(600))

force = partial(cd.difference_force, with_diagnostics=True)
pressure = partial(cd.difference_pressure, with_diagnostics=True)
energy = partial(cd.free_energy_per_area, with_diagnostics=True)
sphere = partial(cd.sphere_plate_force, with_diagnostics=True)
plates = partial(cd.plate_plate_pressure, with_diagnostics=True)

# (name, computation returning (value, diagnostics))
CASES = [
    ("force-si-a-100nm", partial(force, GOLD, N1, LOW, R, 100e-9, GRID300, low_freq_model="a")),
    ("force-si-b-100nm", partial(force, GOLD, N1, LOW, R, 100e-9, GRID300, low_freq_model="b")),
    ("force-si-a-300nm", partial(force, GOLD, N1, LOW, R, 300e-9, GRID300, low_freq_model="a")),
    ("force-si-gap-200nm", partial(
        force, GOLD, LOW_B, LOW, R, 200e-9, GRID300, low_freq_model="a")),
    ("force-si-a-77K", partial(force, GOLD, N1, LOW, R, 150e-9, GRID77, low_freq_model="a")),
    # the order is private: the reference rule of _difference
    ("force-si-a-60-nodes", partial(lifshitz._difference, GOLD, N1, LOW, R, GRID300, "a", 60,
                                    120e-9)),
    ("force-si-a-tight", partial(force, GOLD, N1, LOW, R, 100e-9, TIGHT300, low_freq_model="a")),
    ("force-vo2-100nm", partial(force, GOLD, VO2_M, VO2_I, R, 100e-9, GRID340)),
    ("force-vo2-300nm", partial(force, GOLD, VO2_M, VO2_I, R, 300e-9, GRID340)),
    ("force-vo2-tabulated-probe", partial(force, TABULATED, VO2_M, VO2_I, R, 150e-9, GRID340)),
    ("force-ideal-probe", partial(force, IDEAL, N1, LOW, R, 100e-9, GRID300, low_freq_model="b")),
    ("pressure-si-a-150nm", partial(pressure, GOLD, N1, LOW, 150e-9, GRID300, low_freq_model="a")),
    ("pressure-si-b-150nm", partial(pressure, GOLD, N1, LOW, 150e-9, GRID300, low_freq_model="b")),
    ("pressure-si-a-77K", partial(pressure, GOLD, N1, LOW, 250e-9, GRID77, low_freq_model="a")),
    ("pressure-vo2-plasma-probe", partial(pressure, GOLD_PLASMA, VO2_M, VO2_I, 100e-9, GRID340)),
    ("energy-gold-si", partial(energy, cd.HalfspacePair(GOLD, SI), 100e-9, GRID300)),
    ("energy-plasma-gold-pair", partial(
        energy, cd.HalfspacePair(GOLD_PLASMA, GOLD_PLASMA), 200e-9, GRID300)),
    ("energy-ideal-pair", partial(energy, cd.HalfspacePair(IDEAL, IDEAL), 500e-9, GRID300)),
    ("energy-tabulated-si", partial(energy, cd.HalfspacePair(TABULATED, SI), 120e-9, GRID300)),
    ("sphere-gold-vo2-metal", partial(
        sphere, cd.HalfspacePair(GOLD, VO2_M, sphere_radius=R), 100e-9, GRID340)),
    ("plates-plasma-gold-pair", partial(
        plates, cd.HalfspacePair(GOLD_PLASMA, GOLD_PLASMA), 300e-9, GRID300)),
    ("plates-ideal-pair", partial(plates, cd.HalfspacePair(IDEAL, IDEAL), 500e-9, GRID300)),
    ("plates-gold-low-b-77K", partial(
        plates, cd.HalfspacePair(GOLD, LOW_B), 200e-9, GRID77)),
]

# name -> (value, Matsubara term count)
PINNED = {
    "force-si-a-100nm": (-7.814685255756476e-12, 93),
    "force-si-b-100nm": (-6.602013405978584e-12, 94),
    "force-si-a-300nm": (-7.788086859075304e-13, 37),
    # the l = 0 term alone (every l >= 1 term cancels), pinned from its
    # closed form
    "force-si-gap-200nm": (-3.031679639072739e-13, 2),
    'force-si-a-77K': (-3.6245715587344815e-12, 233),
    # not the pre-kernel loop's value: the l = 0 term takes three times the
    # row nodes, so here 180; the old pin, -5.433671335773856e-12, was
    # 5.1e-11 from the 480-node value, this one 7.5e-15
    "force-si-a-60-nodes": (-5.433671335497408e-12, 80),
    "force-si-a-tight": (-7.814685290469637e-12, 131),
    "force-vo2-100nm": (-1.7468036106603062e-11, 92),
    "force-vo2-300nm": (-1.4663565238638766e-12, 35),
    "force-vo2-tabulated-probe": (-1.8136435041043431e-12, 59),
    "force-ideal-probe": (-7.96624238004405e-12, 108),
    "pressure-si-a-150nm": (-0.07518402968101266, 75),
    "pressure-si-b-150nm": (-0.06374683144861029, 75),
    'pressure-si-a-77K': (-0.017084053105512826, 170),
    "pressure-vo2-plasma-probe": (-0.5688416941943287, 104),
    "energy-gold-si": (-1.5471751859687e-07, 106),
    "energy-plasma-gold-pair": (-3.702206108872641e-08, 58),
    "energy-ideal-pair": (-3.479581503847599e-09, 29),
    "energy-tabulated-si": (-2.815006233925964e-08, 84),
    "sphere-gold-vo2-metal": (-1.0719989133689758e-10, 97),
    "plates-plasma-gold-pair": (-0.11293631035744231, 46),
    "plates-ideal-pair": (-0.020804055106484098, 32),
    'plates-gold-low-b-77K': (-0.3192321202235539, 239),
}


@pytest.mark.parametrize("name, compute", CASES, ids=[name for name, _ in CASES])
def test_golden_value(name, compute):
    expected, n_terms = PINNED[name]
    value, diag = compute()
    assert abs(value / expected - 1.0) <= 1e-12, (value, expected)
    assert diag.n_terms == n_terms
    assert diag.converged


def _model(name):
    if name == "si-doped":
        return cd.build_material(name, drude=cd.DrudeParams(omega_p=1e15, gamma=1e14))
    if name == "tabulated":
        return TABULATED
    return cd.build_material(name)


@pytest.mark.parametrize("name", list(cd.catalog_names()))
def test_eval_array_matches_float(name):
    model = _model(name)
    xi = np.logspace(11.0, 18.5, 41)
    values = model.eval(xi)
    assert isinstance(values, np.ndarray) and values.shape == xi.shape
    for x, v in zip(xi.tolist(), values.tolist()):
        scalar = model.eval(x)
        assert type(scalar) is float
        assert v == scalar, (x, v, scalar)


def test_kk_bits_do_not_depend_on_the_call_shape():
    table = _lorentz_table(600)
    xi = cd.matsubara_frequency(np.arange(1, 257), 340.0)
    whole = cd.kk_to_imaginary_axis(table, xi)
    sliced = np.concatenate([cd.kk_to_imaginary_axis(table, xi[i:i + 7])
                             for i in range(0, len(xi), 7)])
    assert np.array_equal(whole, sliced)
    assert whole.tolist() == [cd.kk_to_imaginary_axis(table, x) for x in xi.tolist()]


def test_kk_memory_is_bounded_per_call():
    # 2000 frequencies against 4000 rows would be a 64 MB (xi x row) array;
    # slices of 8 frequencies peak at 0.27 MB
    table = _lorentz_table(4000)
    xi = np.logspace(13.0, 17.0, 2000)
    table._kk_weights  # cached on first use, not part of the call's peak
    tracemalloc.start()
    try:
        cd.kk_to_imaginary_axis(table, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


@pytest.mark.parametrize("shape", [(0,), (), (3, 5)], ids=["empty", "0-d", "2-d"])
def test_kk_and_eval_keep_the_array_shape(shape):
    xi = np.logspace(13.0, 17.0, math.prod(shape)).reshape(shape)
    for values in (cd.kk_to_imaginary_axis(TABULATED.table, xi), TABULATED.eval(xi)):
        assert np.shape(values) == shape
        assert np.array_equal(values, np.reshape(
            [TABULATED.eval(x) for x in xi.reshape(-1).tolist()], shape))
