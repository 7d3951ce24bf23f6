"""Exact invariants of the difference kernel over random Drude/oscillator materials.

For ``difference_force`` and ``difference_pressure``, with the numerically
integrated and with the closed-form (``analytic_l0``) zero-frequency term:

* identical plate sections give exactly 0.0;
* swapping the sections gives exactly the negated value;
* a vacuum probe, or vacuum on both sides, gives exactly 0.0.

The kernel groups the integrand per polarization as (high - low) terms, so
these hold bit for bit, not just to a tolerance.

For ``PermittivityModel.eval`` over random Drude, oscillator, tail and
tabulated models, eps(i xi) >= 1 and eps(i xi) is non-increasing in xi.
Every term of the model is a positive, non-increasing function of xi, and
correctly rounded arithmetic keeps both properties exactly.
"""

from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
    """A plate section with finite static permittivity (valid for analytic_l0)."""
    oscs = tuple(draw(st.lists(oscillators, min_size=1, max_size=2)))
    drude = draw(st.none() | drudes)
    return cd.PermittivityModel(label="section", oscillators=oscs, drude=drude, dc_conductor=False)


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
    fn = partial(fn, analytic_l0=draw(st.booleans()))
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
    # each xi on its own: a table's array evaluation is one matrix-vector
    # product, whose rows may differ in the last bit with their position
    eps = [model.eval(xi) for xi in sorted(xis)]
    assert all(e >= 1.0 for e in eps)
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert np.all(model.eval(np.array(xis)) >= 1.0)
