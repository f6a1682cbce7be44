"""Benchmark construction: exact profiles, snapping rules, initial states."""

import warnings

import numpy as np
import pytest

from nhswe.adaptivity import Criterion
from nhswe.bathymetry import GRAVITY
from nhswe.driver import simulate
from nhswe.grid import derivative_values
from nhswe.scenarios import (build_hammack, build_scenario, build_solitary,
                             build_whittaker, snap_to_node, solitary_exact)


def test_solitary_exact_profile():
    a, d, x0 = 2.0, 10.0, 200.0
    c = np.sqrt(GRAVITY * (d + a))
    # crest rides at x0 + c t with amplitude a
    for t in (0.0, 10.0):
        eta, u = solitary_exact(np.array([x0 + c * t]), t, a, d, x0)
        assert eta[0] == pytest.approx(a, rel=1e-12)
        assert u[0] == pytest.approx(c * a / (d + a), rel=1e-12)
    # decays far from the crest
    eta_far, _ = solitary_exact(np.array([x0 + 500.0]), 0.0, a, d, x0)
    assert eta_far[0] < 1e-6
    with pytest.raises(ValueError):
        solitary_exact(np.array([0.0]), 0.0, a=-1.0)


def test_solitary_initial_state():
    spec, state = build_solitary()
    assert spec.n_steps == 300
    eta, u = solitary_exact(spec.grid.nodes, 0.0)
    assert np.allclose(state.h.values, 10.0 + eta, atol=1e-12)
    assert np.allclose(state.hu.values, (10.0 + eta) * u, atol=1e-12)


def test_divergence_constraint_holds_for_initial_hw():
    # 2 hw + hu (2d - h)_x + 2 h d_t + h hu_x = 0 at every node
    spec, state = build_solitary()
    grid = spec.grid
    bottom = spec.bathymetry.sample(grid.sample_nodes, 0.0)
    h, hu, hw = state.h.values, state.hu.values, state.hw.values
    resid = (2.0 * hw + hu * derivative_values(grid, 2.0 * bottom.d - h)
             + 2.0 * h * bottom.d_t + h * derivative_values(grid, hu))
    assert np.abs(resid).max() < 1e-10


def test_hammack_plate_edge_snapped_to_interface():
    spec, state = build_hammack()
    grid = spec.grid
    b = spec.bathymetry.b
    # the jump sits exactly on an element boundary
    assert b / grid.dx == pytest.approx(round(b / grid.dx), abs=1e-12)
    assert b == pytest.approx(0.6)
    # gauges snapped onto grid nodes
    for x in spec.gauges:
        e, j = grid.nearest_node(x)
        assert grid.nodes[e, j] == pytest.approx(x, abs=1e-12)
    assert spec.n_steps == 4000
    assert np.all(state.hu.values == 0.0)


def test_hammack_down_direction():
    spec, _ = build_hammack("down")
    assert spec.bathymetry.zeta0 == -0.005
    # downward motion uses the faster time constant
    up, _ = build_hammack("up")
    assert spec.bathymetry.t_c < up.bathymetry.t_c


def test_whittaker_defaults():
    spec, state = build_whittaker()
    assert spec.t_end == pytest.approx(8.0 / np.sqrt(GRAVITY / 0.5))
    assert spec.t_end == pytest.approx(1.806, abs=2e-3)
    assert spec.grid.n_elements == 200
    # still water over the initial bump: h follows the bottom
    d0 = spec.bathymetry.depth(spec.grid.sample_nodes, 0.0)
    assert np.allclose(state.h.values, d0)
    with pytest.raises(ValueError, match="Froude"):
        build_whittaker(froude=0.5)


def test_default_dt_scales_with_dx():
    assert build_whittaker()[0].dt == 0.005
    assert build_hammack()[0].dt == 0.01
    assert build_whittaker(dx=0.0075)[0].dt == pytest.approx(0.0005, rel=1e-12)
    assert build_hammack(dx=0.0125)[0].dt == pytest.approx(0.005, rel=1e-12)
    assert build_whittaker(dx=0.0075, dt=0.001)[0].dt == 0.001


@pytest.mark.parametrize("mode", ["hydrostatic", "global", "adaptive"])
def test_refined_whittaker_runs_at_its_default_dt(mode):
    # at dx = 0.0075 the unscaled dt = 0.005 lost positivity at t = 0.02 s;
    # the scaled one runs past it without even a CFL advisory
    spec, init = build_whittaker(dx=0.0075, t_end=0.025)
    crit = Criterion("eta_over_d") if mode == "adaptive" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate(spec, init, mode, crit)
    assert result.final_state.time == pytest.approx(0.025)


def test_scenario_factory():
    for name in ("solitary", "hammack_up", "hammack_down", "whittaker"):
        spec, state = build_scenario(name)
        assert spec.name.startswith(name.split("_")[0])
    with pytest.raises(ValueError):
        build_scenario("tsunami")


def test_snap_to_node():
    spec, _ = build_hammack()
    x = snap_to_node(spec.grid, 9.61)
    assert x == pytest.approx(9.6)


def test_scenario_spec_validation():
    spec, _ = build_solitary()
    import dataclasses
    with pytest.raises(ValueError, match="gauge"):
        dataclasses.replace(spec, gauges=(900.0,))
    with pytest.raises(ValueError):
        dataclasses.replace(spec, dt=-1.0)
