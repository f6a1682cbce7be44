"""Acceptance suite: one test per published gate, at the stated tolerances.

Expensive runs are shared through module-scoped fixtures; paired timing runs
always execute back-to-back in this process.  Accuracy gates and wall-time
ratio gates are separate tests so each reports its own pass/fail line.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from nhswe.adaptivity import CRITERION_KINDS, Criterion, adaptive_step
from nhswe.bathymetry import FlatBottom, RHO_WATER
from nhswe.corrector import (EllipticCoefficients, apply_correction,
                             assemble_coefficients, ldg_solve)
from nhswe.driver import simulate
from nhswe.grid import FlowState, GridSpec, NodalField
from nhswe.hydrostatic import WALL, BoundaryPair
from nhswe.metrics import SeriesPair, pearson, rmse
from nhswe.scenarios import (build_hammack, build_scenario, build_solitary, build_whittaker,
                             solitary_exact, still_water_state)

ETA_CRIT = Criterion("eta_over_d", 0.001)
ETA_CRIT_ENLARGED = Criterion("eta_over_d", 0.001, enlarge=True)


def bottom_at(state, bathy):
    """The bottom at the grid's sample nodes at the state's time."""
    return bathy.sample(state.grid.sample_nodes, state.time)


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def solitary():
    spec, init = build_solitary()
    runs = {
        "global": simulate(spec, init, "global"),
        "adaptive": simulate(spec, init, "adaptive", ETA_CRIT),
        "wx_off": simulate(spec, init, "adaptive", Criterion("w_x", 0.001)),
    }
    return spec, init, runs


@pytest.fixture(scope="module")
def solitary_enlarged(solitary):
    spec, init, _ = solitary
    return {kind: simulate(spec, init, "adaptive",
                           Criterion(kind, 0.001, enlarge=True))
            for kind in CRITERION_KINDS}


@pytest.fixture(scope="module")
def hammack():
    spec, init = build_hammack()
    runs = {
        "global": simulate(spec, init, "global"),
        "adaptive": simulate(spec, init, "adaptive", ETA_CRIT),
        "hydrostatic": simulate(spec, init, "hydrostatic"),
    }
    return spec, init, runs


@pytest.fixture(scope="module")
def whittaker():
    spec, init = build_whittaker(froude=0.25)
    runs = {
        "global": simulate(spec, init, "global"),
        "adaptive": simulate(spec, init, "adaptive", ETA_CRIT_ENLARGED),
    }
    return spec, init, runs


def time_ratio_report(runs):
    """t_local/t_global with the loop times and the mask it was measured on."""
    local, glob = runs["adaptive"], runs["global"]
    return (f"t_local/t_global = {local.loop_time / glob.loop_time:.3f}: "
            f"adaptive loop {local.loop_time:.3f} s, global loop "
            f"{glob.loop_time:.3f} s, mean mask fraction "
            f"{local.mask_fraction_mean:.1%}")


def solitary_error(spec, result):
    eta_exact, _ = solitary_exact(spec.grid.nodes, result.final_state.time)
    eta = result.final_state.h.values - 10.0
    pair = SeriesPair(eta_exact.ravel(), eta.ravel())
    return rmse(pair), pearson(pair)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_solitary_global_accuracy(solitary):
    spec, _, runs = solitary
    err, corr = solitary_error(spec, runs["global"])
    assert err <= 0.02
    assert corr >= 0.999


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_solitary_adaptive_accuracy(solitary):
    spec, _, runs = solitary
    err, corr = solitary_error(spec, runs["adaptive"])
    assert err <= 0.02
    assert corr >= 0.999


def test_criterion_02_solitary_adaptive_time_ratio(solitary):
    _, _, runs = solitary
    ratio = runs["adaptive"].loop_time / runs["global"].loop_time
    assert ratio < 0.5, time_ratio_report(runs)


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_enlarged_sweep_accuracy(solitary, solitary_enlarged):
    spec, _, runs = solitary
    err_global, _ = solitary_error(spec, runs["global"])
    for kind, result in solitary_enlarged.items():
        err, corr = solitary_error(spec, result)
        assert abs(err - err_global) <= 0.25 * err_global, kind
        assert corr >= 0.999, kind


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_wx_without_enlargement_degrades(solitary):
    spec, _, runs = solitary
    err_wx, _ = solitary_error(spec, runs["wx_off"])
    err_eta, _ = solitary_error(spec, runs["adaptive"])
    assert err_wx >= 2.0 * err_eta


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_hammack_gauge_correlations(hammack):
    spec, _, runs = hammack
    for k, x in enumerate(spec.gauges):
        pair = SeriesPair(runs["global"].gauge_eta[:, k],
                          runs["adaptive"].gauge_eta[:, k])
        assert pearson(pair) >= 0.99, f"gauge at x={x}"


def test_criterion_05_hammack_time_ratio(hammack):
    _, _, runs = hammack
    ratio = runs["adaptive"].loop_time / runs["global"].loop_time
    assert ratio < 0.5, time_ratio_report(runs)


# ---------------------------------------------------------------- criterion 6

def trailing_oscillations(gauge_eta):
    """Local maxima after the leading crest, at 10% of its amplitude."""
    lead = int(np.argmax(gauge_eta))
    peaks, _ = find_peaks(gauge_eta[lead:], prominence=0.1 * gauge_eta[lead])
    return len(peaks)


def test_criterion_06_dispersive_wave_train_at_far_gauge(hammack):
    _, _, runs = hammack
    far = -1   # gauge at x = 20.61 m
    assert trailing_oscillations(runs["global"].gauge_eta[:, far]) >= 2
    assert trailing_oscillations(runs["hydrostatic"].gauge_eta[:, far]) == 0


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_whittaker_snapshot_accuracy(whittaker):
    spec, _, runs = whittaker
    t_end = runs["global"].final_state.time
    d = spec.bathymetry.depth(spec.grid.sample_nodes, t_end)
    eta_g = runs["global"].final_state.h.values - d
    eta_a = runs["adaptive"].final_state.h.values - d
    l2 = np.sqrt(np.mean((eta_g - eta_a) ** 2))
    assert l2 <= 0.10 * np.abs(eta_g).max()


def test_criterion_07_whittaker_time_ratio(whittaker):
    _, _, runs = whittaker
    ratio = runs["adaptive"].loop_time / runs["global"].loop_time
    assert ratio < 0.65, time_ratio_report(runs)


# ---------------------------------------------------------------- criterion 8

def random_state(grid, rng):
    x = grid.nodes
    k1, k2 = rng.uniform(0.05, 0.4, size=2)
    h = 10.0 + rng.uniform(0.1, 1.0) * np.sin(k1 * x + rng.uniform(0, 7))
    hu = rng.uniform(-2.0, 2.0) * np.cos(k2 * x)
    hw = rng.uniform(-0.5, 0.5) * np.sin(k2 * x) * h
    return FlowState(NodalField(grid, h), NodalField(grid, hu * h),
                     NodalField(grid, hw), 0.0)


def test_criterion_08_structural_invariants():
    grid = GridSpec(0.0, 100.0, 40, 1)
    bathy = FlatBottom(10.0)
    rng = np.random.default_rng(42)
    for _ in range(100):
        state = random_state(grid, rng)
        co = assemble_coefficients(state, bottom_at(state, bathy), 0.1)
        assert np.all(co.s11 + co.s21 == 0.0)
        assert np.all(co.s12 > 0.0)


def test_criterion_08_full_mask_matches_global():
    spec, init = build_solitary()
    # uniform hairline surface offset so the threshold flags every element
    h = NodalField(spec.grid, init.h.values + 1e-8)
    state_a = state_g = FlowState(h, init.hu, init.hw, 0.0)
    crit = Criterion("eta_over_d", 1e-12)
    for _ in range(10):
        ra = adaptive_step(state_a, spec.dt, spec.bathymetry, spec.bcs,
                           mode="adaptive", crit=crit)
        rg = adaptive_step(state_g, spec.dt, spec.bathymetry, spec.bcs,
                           mode="global")
        assert ra.mask.fraction == 1.0
        state_a, state_g = ra.state, rg.state
        for fa, fg in ((state_a.h, state_g.h), (state_a.hu, state_g.hu),
                       (state_a.hw, state_g.hw)):
            assert np.abs(fa.values - fg.values).max() <= 1e-12


@pytest.mark.parametrize("poly_order", [1, 2])
@pytest.mark.parametrize("name", ["solitary", "hammack_up", "whittaker"])
@settings(max_examples=8, deadline=None)
@given(amplitude=st.floats(1e-4, 1e-2), waves=st.floats(0.5, 6.0),
       phase=st.floats(0.0, 2.0 * np.pi))
def test_criterion_08_a_full_mask_is_bitwise_global_over_every_bottom(name, poly_order,
                                                                      amplitude, waves, phase):
    # the flat bottom, the plate and the bump, the last two carrying their
    # moving-bottom channels from the first step; a smooth positive surface
    # offset makes the threshold flag every element
    spec, init = build_scenario(name, poly_order=poly_order)
    grid, h0 = spec.grid, spec.bathymetry.h0
    # Heun's advisory CFL limit is 1 / (2p + 1): degree 2 takes 3/5 of the step
    dt = spec.dt * 3.0 / (2 * poly_order + 1)
    arc = 2.0 * np.pi * waves * (grid.nodes - grid.x_left) / (grid.x_right - grid.x_left)
    offset = amplitude * h0 * (1.5 + np.sin(arc + phase))
    state = FlowState(NodalField(grid, init.h.values + offset), init.hu, init.hw, init.time)
    ra = adaptive_step(state, dt, spec.bathymetry, spec.bcs, mode="adaptive",
                       crit=Criterion("eta_over_d", 1e-12))
    rg = adaptive_step(state, dt, spec.bathymetry, spec.bcs, mode="global")
    assert ra.mask.fraction == 1.0
    for field in ("h", "hu", "hw"):
        a, g = getattr(ra.state, field).values, getattr(rg.state, field).values
        assert a.tobytes() == g.tobytes(), field
    assert ra.p_nh.values.tobytes() == rg.p_nh.values.tobytes()


def test_criterion_08_density_invariance():
    grid = GridSpec(0.0, 100.0, 40, 1)
    bathy = FlatBottom(10.0)
    state = random_state(grid, np.random.default_rng(7))
    walls = BoundaryPair(WALL, WALL)
    a, _ = apply_correction(state, bottom_at(state, bathy), 0.1, [(5, 34)], walls, rho=RHO_WATER)
    b, _ = apply_correction(state, bottom_at(state, bathy), 0.1, [(5, 34)], walls, rho=250.0)
    for fa, fb in ((a.hu, b.hu), (a.hw, b.hw)):
        scale = np.abs(fa.values).max()
        assert np.abs(fa.values - fb.values).max() <= 1e-10 * scale


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_lake_at_rest():
    grid = GridSpec(0.0, 10.0, 50, 1)
    bathy = FlatBottom(1.0)
    state = still_water_state(grid, bathy)
    for _ in range(100):
        state = adaptive_step(state, 0.01, bathy, BoundaryPair(WALL, WALL),
                              mode="global").state
    assert np.abs(state.h.values - 1.0).max() <= 1e-12
    assert np.abs(state.hu.values).max() <= 1e-12


def test_criterion_09_solitary_mass_conservation(solitary):
    spec, init, runs = solitary
    w = spec.grid.mass.sum(axis=0)
    m0 = float(np.sum(init.h.values @ w))
    m1 = float(np.sum(runs["global"].final_state.h.values @ w))
    assert abs(m1 - m0) / m0 <= 1e-10


# --------------------------------------------------------------- criterion 10

def manufactured_coefficients(n):
    """Smooth analytic elliptic system on [0, 1] with a known solution."""
    grid = GridSpec(0.0, 1.0, n, 1)
    x = grid.nodes
    s11 = 0.4 * np.sin(2.0 * np.pi * x)
    s12 = 2.0 + np.cos(x)
    s22 = 1.0 + 0.5 * np.sin(3.0 * x)
    p_ex = np.sin(np.pi * x)
    hu_ex = np.cos(2.0 * x) + 2.0
    f1 = np.pi * np.cos(np.pi * x) + s11 * p_ex + s12 * hu_ex
    f2 = -2.0 * np.sin(2.0 * x) - s11 * hu_ex + s22 * p_ex
    bottom = FlatBottom(1.0).sample(grid.sample_nodes, 0.0)
    co = EllipticCoefficients(grid, s11, s12, -s11, s22, f1, f2,
                              np.zeros_like(x), bottom, 0.1, 1.0)
    return co, p_ex, hu_ex


def test_criterion_10_elliptic_convergence():
    errs_p, errs_q = [], []
    for n in (16, 32, 64, 128):
        co, p_ex, hu_ex = manufactured_coefficients(n)
        p, hu = ldg_solve(co, (0, n - 1),
                          outer_hu=(hu_ex[0, 0], hu_ex[-1, -1]))
        errs_p.append(np.sqrt(np.mean((p - p_ex) ** 2)))
        errs_q.append(np.sqrt(np.mean((hu - hu_ex) ** 2)))
    rates_p = np.log2(np.array(errs_p[:-1]) / np.array(errs_p[1:]))
    rates_q = np.log2(np.array(errs_q[:-1]) / np.array(errs_q[1:]))
    assert rates_p.min() >= 1.5
    assert rates_q.min() >= 1.5
