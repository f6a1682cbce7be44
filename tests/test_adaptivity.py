"""Flagging criteria, range decomposition, and the adaptive step itself."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nhswe.adaptivity import (Criterion, adaptive_step, criterion_values,
                              enlarge_flags, evaluate_criterion)
from nhswe.bathymetry import FlatBottom
from nhswe.corrector import NonHydroMask
from nhswe.grid import FlowState, GridSpec, NodalField
from nhswe.hydrostatic import WALL, BoundaryPair, PositivityError, heun_step
from nhswe.scenarios import (SOLITARY_A, SOLITARY_D, build_scenario, build_solitary,
                             still_water_state)

WALLS = BoundaryPair(WALL, WALL)


def test_criterion_validation():
    with pytest.raises(ValueError):
        Criterion("vorticity")
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Criterion("u", k_nh=bad)


def ranges_of(bits):
    return NonHydroMask.from_flags(np.array(bits, dtype=bool)).ranges


def test_mask_ranges_hand_cases():
    assert ranges_of([]) == ()
    assert ranges_of([0, 0, 0]) == ()
    assert ranges_of([1, 1, 0, 1]) == ((0, 1), (3, 3))
    assert ranges_of(np.ones(4, dtype=bool)) == ((0, 3),)


@given(st.lists(st.booleans(), min_size=1, max_size=60))
def test_mask_ranges_roundtrip(bits):
    flags = np.array(bits, dtype=bool)
    rebuilt = np.zeros_like(flags)
    for e0, e1 in ranges_of(flags):
        assert e0 <= e1
        rebuilt[e0:e1 + 1] = True
    assert np.array_equal(rebuilt, flags)


@given(st.lists(st.booleans(), min_size=1, max_size=60))
def test_a_mask_plans_as_the_checked_constructor_plans_its_ranges(bits):
    # a mask works out its correction's element set from its flags; raw
    # ranges go through the checked constructor, which must plan them alike,
    # an empty mask included
    flags = np.array(bits, dtype=bool)
    ours = NonHydroMask.from_flags(flags)
    theirs = NonHydroMask.checked(ours.ranges, len(flags))
    assert ours.ranges == theirs.ranges and ours.lengths == theirs.lengths
    assert ours.flags.tobytes() == theirs.flags.tobytes() == flags.tobytes()
    assert ours.empty == theirs.empty == (not flags.any())
    assert type(ours.rows) is type(theirs.rows)
    everything = np.arange(len(flags))
    assert everything[ours.rows].tobytes() == everything[theirs.rows].tobytes()
    assert np.flatnonzero(flags).tobytes() == everything[ours.rows].tobytes()
    for name in ("ends", "kinds", "lasts", "outer"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert ours.outer.tolist() == [e1 + 2 for _, e1 in ours.ranges]


# Python-level calls (cProfile's total_calls) of building a mask from 1000
# flags holding one range, and six.  Counted, as the corrections' calls are
# in tests/test_corrector.py, because a count does not drift as wall time
# does; the bounds are the counts of one edge scan that fills every field
MASK_CALLS = {1: 11, 6: 12}


@pytest.mark.parametrize("count", sorted(MASK_CALLS))
def test_building_a_mask_makes_a_bounded_number_of_calls(count, total_calls):
    flags = np.zeros(1000, dtype=bool)
    for k in range(count):
        flags[100 + 150 * k:120 + 150 * k + k] = True
    assert len(ranges_of(flags)) == count
    assert total_calls(NonHydroMask.from_flags, flags) <= MASK_CALLS[count]


def test_enlarge_flags():
    flags = np.array([0, 0, 1, 0, 0, 1, 1, 0], dtype=bool)
    grown = enlarge_flags(flags)
    assert np.array_equal(grown, np.array([0, 1, 1, 1, 1, 1, 1, 1], dtype=bool))
    edge = np.array([1, 0, 0], dtype=bool)
    assert np.array_equal(enlarge_flags(edge), np.array([1, 1, 0], dtype=bool))


def test_criterion_values_eta_over_d():
    grid = GridSpec(0.0, 10.0, 10, 1)
    d0 = 2.0
    h = np.full((10, 2), d0)
    h[3] = 2.5
    state = FlowState(NodalField(grid, h), NodalField(grid, np.zeros((10, 2))),
                      NodalField(grid, np.zeros((10, 2))), 0.0)
    vals = criterion_values(state, FlatBottom(d0).sample(grid.sample_nodes, 0.0),
                            "eta_over_d")
    assert vals[3, 0] == pytest.approx(0.25)
    assert np.all(vals[np.arange(10) != 3] == 0.0)


def test_flagged_band_matches_analytic_width():
    # for the solitary profile a*sech^2(K xi), |eta/d| > k exactly where
    # |xi| < arccosh(sqrt(a/(k d))) / K; count flagged elements against that
    a, d, k = SOLITARY_A, SOLITARY_D, 0.001
    spec, state = build_solitary()
    bottom = spec.bathymetry.sample(spec.grid.sample_nodes, state.time)
    mask = evaluate_criterion(state, bottom, Criterion("eta_over_d", k))
    K = np.sqrt(3.0 * a / (4.0 * d * d * (d + a)))
    half_width = np.arccosh(np.sqrt(a / (k * d))) / K
    expected = 2.0 * half_width / spec.grid.dx
    flagged = int(mask.flags.sum())
    assert abs(flagged - expected) <= 2.0
    assert len(mask.ranges) == 1


def test_threshold_monotonicity():
    spec, state = build_solitary()
    bottom = spec.bathymetry.sample(spec.grid.sample_nodes, state.time)
    loose = evaluate_criterion(state, bottom, Criterion("eta_over_d", 1e-4))
    tight = evaluate_criterion(state, bottom, Criterion("eta_over_d", 1e-2))
    assert np.all(loose.flags[tight.flags])   # tight set contained in loose set
    assert tight.flags.sum() < loose.flags.sum()


@pytest.mark.parametrize("scenario", ["solitary", "whittaker", "hammack_up"])
def test_full_mask_step_matches_global_mode(scenario):
    # a flat bottom, the sloped moving bump and the moving plate with its
    # bottom jump: a full mask runs the very correction a global step does
    spec, state = build_scenario(scenario)
    # a tiny uniform surface offset makes |eta/d| > 0 everywhere, so the
    # threshold below flags the whole domain
    h = NodalField(spec.grid, state.h.values + 1e-8)
    state = FlowState(h, state.hu, state.hw, 0.0)
    crit = Criterion("eta_over_d", k_nh=1e-12)
    s_adaptive, s_global = state, state
    for _ in range(5):
        ra = adaptive_step(s_adaptive, spec.dt, spec.bathymetry, spec.bcs,
                           mode="adaptive", crit=crit)
        rg = adaptive_step(s_global, spec.dt, spec.bathymetry, spec.bcs,
                           mode="global")
        s_adaptive, s_global = ra.state, rg.state
        assert ra.mask.fraction == 1.0
        for field in ("h", "hu", "hw"):
            assert np.array_equal(getattr(s_adaptive, field).values,
                                  getattr(s_global, field).values), field
        assert np.array_equal(ra.p_nh.values, rg.p_nh.values)


def test_vertical_criterion_falls_back_to_global_on_zero_hw():
    grid = GridSpec(0.0, 10.0, 20, 1)
    bathy = FlatBottom(1.0)
    state = still_water_state(grid, bathy)
    res = adaptive_step(state, 0.01, bathy, WALLS, mode="adaptive",
                        crit=Criterion("w_x"))
    assert res.mask.fraction == 1.0   # hw == 0: indicator cannot fire yet


def test_empty_mask_step_is_purely_hydrostatic():
    grid = GridSpec(0.0, 10.0, 20, 1)
    bathy = FlatBottom(1.0)
    state = still_water_state(grid, bathy)
    res = adaptive_step(state, 0.01, bathy, WALLS, mode="adaptive",
                        crit=Criterion("eta_over_d"))
    ref = heun_step(state, 0.01, bathy, WALLS)
    assert res.mask.empty
    assert res.p_nh is None
    assert np.array_equal(res.state.h.values, ref.h.values)


def test_non_finite_vertical_momentum_stops_a_global_step_in_the_predictor():
    # the predictor passes hw on untouched; its NaN must not reach the
    # elliptic solve as a non-finite right-hand side
    spec, state = build_solitary()
    hw = state.hw.values.copy()
    hw[120, 0] = np.nan
    state = FlowState._wrap(state.h, state.hu, NodalField._wrap(spec.grid, hw), state.time)
    with pytest.raises(PositivityError, match="non-finite hw in element 120 .* stage 1"):
        adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode="global")


def test_hydrostatic_mode_never_flags():
    spec, state = build_solitary()
    res = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs,
                        mode="hydrostatic")
    assert res.mask.empty and res.p_nh is None


def test_adaptive_step_argument_validation():
    spec, state = build_solitary()
    with pytest.raises(ValueError):
        adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode="magic")
    with pytest.raises(ValueError):
        adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode="adaptive")


def test_mask_helpers():
    m = NonHydroMask.from_flags(np.ones(6, dtype=bool))
    assert m.fraction == 1.0 and m.ranges == ((0, 5),)
    empty = NonHydroMask.from_flags(np.zeros(6, dtype=bool))
    assert empty.empty and empty.fraction == 0.0
