"""Exact invariants of the difference kernel over random Drude/oscillator materials.

For ``difference_force`` and ``difference_pressure``, over plate sections
with and without dc conductivity:

* identical plate sections give exactly 0.0;
* swapping the sections gives exactly the negated value;
* a vacuum probe, or vacuum on both sides, gives exactly 0.0.

The kernel groups the integrand per polarization as (high - low) terms, so
these hold bit for bit, not just to a tolerance.

A curve shares its Matsubara blocks across its separations and sizes them
from term counts it predicts; over random increasing separation grids its
values and term counts equal the single sums at its points, bit for bit.

For ``PermittivityModel.eval`` over random Drude, oscillator, tail and
tabulated models, eps(i xi) >= 1 and eps(i xi) is non-increasing in xi.
Every term of the model is a positive, non-increasing function of xi, and
correctly rounded arithmetic keeps both properties exactly.  For models
without dc conductivity, eps(i xi) tends to ``static_permittivity()`` as
xi -> 0+.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import casimirdiff as cd  # noqa: E402

R = 100e-6
VACUUM = cd.build_material("vacuum")


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


drudes = st.builds(
    cd.DrudeParams, omega_p=_log_uniform(14.0, 16.3), gamma=_log_uniform(12.0, 14.5)
)
oscillators = st.builds(
    cd.OscillatorParams,
    omega=_log_uniform(14.5, 16.5),
    Gamma=st.floats(0.0, 2.0),
    strength=_log_uniform(-1.0, 1.3),
)


@st.composite
def sections(draw):
    """A plate section, dc conducting (model b), not (model a) or as its
    carriers make it."""
    oscs = tuple(draw(st.lists(oscillators, min_size=1, max_size=2)))
    drude = draw(st.none() | drudes)
    dc_conductor = draw(st.sampled_from((None, False, True)))
    return cd.PermittivityModel(label="section", oscillators=oscs, drude=drude,
                                dc_conductor=dc_conductor)


@st.composite
def setups(draw):
    probe = cd.PermittivityModel(label="probe", drude=draw(drudes))
    grid = cd.MatsubaraGrid(T=draw(st.floats(200.0, 400.0)))
    z = draw(st.floats(80e-9, 400e-9))
    quantity = draw(st.sampled_from(("force", "pressure")))
    if quantity == "force":
        fn = partial(cd.difference_force, R=R, z=z, grid=grid)
    else:
        fn = partial(cd.difference_pressure, z=z, grid=grid)
    return fn, probe, draw(sections()), draw(sections())


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, database=None)


@PROPERTY_SETTINGS
@given(setups())
def test_identical_sections_give_zero(setup):
    fn, probe, high, _ = setup
    assert fn(probe, high, high) == 0.0


@PROPERTY_SETTINGS
@given(setups())
def test_swapped_sections_negate(setup):
    fn, probe, high, low = setup
    assert fn(probe, low, high) == -fn(probe, high, low)


@PROPERTY_SETTINGS
@given(setups())
def test_vacuum_gives_zero(setup):
    fn, probe, high, low = setup
    assert fn(VACUUM, high, low) == 0.0
    assert fn(probe, VACUUM, VACUUM) == 0.0


SI = tuple(cd.build_material(name) for name in ("gold-drude", "si-doped-n1", "si-doped-low"))
_EXPONENTS = st.floats(math.log10(50e-9), math.log10(5e-6))


@st.composite
def separation_grids(draw):
    """2 to 60 increasing separations from 50 nm to 5 um, log-spaced or irregular."""
    if draw(st.booleans()):
        ends = sorted(draw(st.lists(_EXPONENTS, min_size=2, max_size=2, unique=True)))
        zs = np.logspace(*ends, draw(st.integers(2, 60)))
    else:
        zs = 10.0 ** np.array(sorted(draw(st.lists(_EXPONENTS, min_size=2, max_size=60,
                                                   unique=True))))
    assume(np.all(np.diff(zs) > 0.0))
    return tuple(float(z) for z in zs)


@pytest.mark.filterwarnings("ignore:z/R")
@settings(max_examples=40, deadline=None, database=None)
@given(separation_grids(), st.sampled_from((300.0, 77.0)), st.sampled_from(("force", "pressure")),
       st.sampled_from(("a", "b")))
@example(tuple(np.logspace(math.log10(100e-9), math.log10(3e-6), 41)), 77.0, "pressure", "b")
def test_curve_equals_its_single_sums(zs, T, quantity, model):
    grid = cd.MatsubaraGrid(T=T)
    if quantity == "force":
        curve = cd.difference_force_curve(*SI, R, zs, grid, low_freq_model=model)
        single = partial(cd.difference_force, *SI, R, grid=grid, low_freq_model=model)
    else:
        curve = cd.difference_pressure_curve(*SI, zs, grid, low_freq_model=model)
        single = partial(cd.difference_pressure, *SI, grid=grid, low_freq_model=model)
    sums = [single(z=z, with_diagnostics=True) for z in zs]
    assert curve.values == tuple(value for value, _ in sums)
    assert curve.metadata["l_terms_per_z"] == tuple(diag.n_terms for _, diag in sums)


tails = st.builds(cd.HighFreqTail, eps_inf=st.floats(1.0, 20.0), omega_inf=_log_uniform(15.0, 17.0))


@st.composite
def tables(draw):
    """Im eps >= 0 on a random increasing grid."""
    omega = sorted(set(draw(st.lists(_log_uniform(12.0, 17.5), min_size=2, max_size=40))))
    if len(omega) < 2:
        omega.append(omega[0] * 2.0)
    im_eps = draw(st.lists(st.floats(0.0, 50.0), min_size=len(omega), max_size=len(omega)))
    return cd.OpticalDataTable(omega=tuple(omega), im_eps=tuple(im_eps))


@st.composite
def permittivities(draw):
    return cd.PermittivityModel(
        label="random",
        oscillators=tuple(draw(st.lists(oscillators, max_size=3))),
        tail=draw(st.none() | tails),
        drude=draw(st.none() | drudes),
        table=draw(st.none() | tables()),
    )


@PROPERTY_SETTINGS
@given(permittivities(), st.lists(_log_uniform(10.0, 18.5), min_size=2, max_size=12))
def test_permittivity_at_least_one_and_non_increasing(model, xis):
    xis = sorted(xis)
    eps = model.eval(np.array(xis))
    assert np.all(eps >= 1.0)
    assert np.all(eps[1:] <= eps[:-1])
    assert eps.tolist() == [model.eval(xi) for xi in xis]


@st.composite
def insulators(draw):
    """Oscillators, a tail and a table whose first row has Im eps = 0.

    A table with Im eps > 0 at its first row is left out: eval extends it
    as a constant below that row, whose term grows as log(1/xi), while
    ``static_permittivity`` cuts the integral at the row.  With Im eps =
    0.5 on 400 rows from 0.5 to 1.2 eV, eval reads 3.50, 5.70 and 7.89 at
    xi = 1e12, 1e9 and 1e6 rad/s against a static value of 1.385.
    """
    table = draw(st.none() | tables())
    if table is not None:
        table = dataclasses.replace(table, im_eps=(0.0,) + table.im_eps[1:])
    return cd.PermittivityModel(
        label="insulator",
        oscillators=tuple(draw(st.lists(oscillators, max_size=3))),
        tail=draw(st.none() | tails),
        table=table,
    )


@PROPERTY_SETTINGS
@given(insulators(), _log_uniform(0.0, 9.0))
@example(cd.build_material("vo2-insulator"), 1e6)
@example(cd.build_material("si-dielectric"), 1e6)
def test_permittivity_tends_to_static_value(model, xi):
    # each term moves from its static value by at most its own weight times
    # 2 xi/omega (oscillator damping, Gamma <= 2) or (xi/omega)^2 (the
    # other terms), omega being its lowest frequency; 1e-13 covers the
    # rounding of the 40-row table sums
    frequencies = [osc.omega for osc in model.oscillators]
    if model.tail is not None:
        frequencies.append(model.tail.omega_inf)
    if model.table is not None:
        frequencies.append(model.table.omega[0])
    ratio = xi / min(frequencies, default=math.inf)
    static = model.static_permittivity()
    assert abs(model.eval(xi) / static - 1.0) <= 3.0 * ratio + 1e-13
