"""Bathymetry models checked against finite-difference oracles."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nhswe.adaptivity import Criterion, adaptive_step
from nhswe.bathymetry import (CHANNELS, FlatBottom, HammackPlate, SlideMotion,
                              WhittakerSlide, hammack_time_constant)
from nhswe.driver import simulate
from nhswe.grid import GridSpec
from nhswe.scenarios import build_scenario

# independent finite-difference oracles for the analytic channels
EPS_T = 1e-6
EPS_X = 1e-6


def fd_t(model, x, t, order=1):
    if order == 1:
        return (model.depth(x, t + EPS_T) - model.depth(x, t - EPS_T)) / (2 * EPS_T)
    return (model.depth(x, t + EPS_T) - 2 * model.depth(x, t)
            + model.depth(x, t - EPS_T)) / EPS_T ** 2


def fd_x(model, x, t, order=1):
    if order == 1:
        return (model.depth(x + EPS_X, t) - model.depth(x - EPS_X, t)) / (2 * EPS_X)
    return (model.depth(x + EPS_X, t) - 2 * model.depth(x, t)
            + model.depth(x - EPS_X, t)) / EPS_X ** 2


def test_flat_bottom_channels():
    model = FlatBottom(2.5)
    x = np.linspace(-3, 3, 11)
    s = model.sample(x, 1.7)
    assert np.all(s.d == 2.5)
    for ch in (s.d_x, s.d_t, s.d_tt, s.d_xt, s.d_xx):
        assert np.all(ch == 0.0)


def test_hammack_time_constant_values():
    t_c = hammack_time_constant(0.05, 0.61, "up")
    assert t_c == pytest.approx(0.148 * 0.61 / np.sqrt(9.81 * 0.05), rel=1e-12)
    assert t_c == pytest.approx(0.1289, abs=2e-4)
    assert hammack_time_constant(0.05, 0.61, "down") < t_c
    with pytest.raises(ValueError):
        hammack_time_constant(0.05, 0.61, "sideways")


def test_hammack_plate_displacement_and_limits():
    model = HammackPlate(0.05, 0.005, 0.61, 0.1289)
    x_in = np.array([0.0, 0.3, 0.6])
    x_out = np.array([0.62, 5.0])
    assert np.allclose(model.depth(x_in, 0.0), 0.05)
    # uplift: depth decreases toward h0 - zeta0
    assert np.allclose(model.depth(x_in, 100.0), 0.045, atol=1e-12)
    assert np.allclose(model.depth(x_out, 100.0), 0.05)
    assert model.alpha == pytest.approx(1.11 / 0.1289)


def test_hammack_plate_time_derivatives_vs_fd():
    model = HammackPlate(0.05, -0.005, 0.61, 0.093 * 0.61 / 0.7)
    x = np.array([0.0, 0.25, 0.55, 1.0, 2.0])
    for t in (0.05, 0.3, 1.0):
        s = model.sample(x, t)
        assert np.allclose(s.d_t, fd_t(model, x, t), atol=1e-6)
        assert np.allclose(s.d_tt, fd_t(model, x, t, order=2), atol=1e-4)
        assert np.all(s.d_x == 0.0) and np.all(s.d_xx == 0.0)


def test_slide_motion_is_continuously_differentiable():
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    eps = 1e-9
    for t_knot in (motion.t1, motion.t2, motion.t3):
        s_m, v_m, _ = motion.position(t_knot - eps)
        s_p, v_p, _ = motion.position(t_knot + eps)
        assert s_p == pytest.approx(s_m, abs=1e-7)
        assert v_p == pytest.approx(v_m, abs=1e-7)
    # plateau velocity and final stop
    assert motion.position(1.0)[1] == pytest.approx(0.327)
    assert motion.position(10.0)[1] == 0.0
    with pytest.raises(ValueError):
        SlideMotion(1.5, 0.3, 0.5, 0.4, 1.0)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.5, 2.3])
def test_whittaker_slide_derivatives_vs_fd(t):
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    model = WhittakerSlide(0.175, 0.026, 0.5, motion, x_start=5.0)
    s_now = motion.position(t)[0]
    # probe strictly inside the bump, away from its endpoints
    x = 5.0 + s_now + np.array([-0.2, -0.1, 0.0, 0.12, 0.21])
    s = model.sample(x, t)
    assert np.allclose(s.d_x, fd_x(model, x, t), atol=1e-6)
    assert np.allclose(s.d_xx, fd_x(model, x, t, order=2), atol=1e-3)
    assert np.allclose(s.d_t, fd_t(model, x, t), atol=1e-6)
    assert np.allclose(s.d_tt, fd_t(model, x, t, order=2), atol=1e-3)
    # mixed derivative: d/dt of the spatial slope
    d_xt_fd = (model.sample(x, t + EPS_T).d_x
               - model.sample(x, t - EPS_T).d_x) / (2 * EPS_T)
    assert np.allclose(s.d_xt, d_xt_fd, atol=1e-4)


def test_whittaker_slide_shape():
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    model = WhittakerSlide(0.175, 0.026, 0.5, motion, x_start=5.0)
    assert model.depth(np.array([5.0]), 0.0)[0] == pytest.approx(0.175 - 0.026)
    # profile reaches the flat bottom continuously at the bump ends
    edge = model.depth(np.array([5.0 - 0.25 + 1e-9, 5.0 + 0.25 - 1e-9]), 0.0)
    assert np.allclose(edge, 0.175, atol=1e-6)
    assert np.all(model.depth(np.array([4.7, 5.3]), 0.0) == 0.175)


def test_parameter_validation():
    with pytest.raises(ValueError):
        FlatBottom(0.0)
    with pytest.raises(ValueError):
        HammackPlate(0.05, 0.06, 0.61, 0.1)   # |zeta0| >= h0
    with pytest.raises(ValueError):
        WhittakerSlide(0.02, 0.026, 0.5, SlideMotion(1, 1, 1, 2, 3))


@given(t=st.floats(0.0, 5.0), x0=st.floats(-0.6, 0.6))
def test_hammack_depth_bounds(t, x0):
    model = HammackPlate(0.05, 0.005, 0.61, 0.13)
    d = model.depth(np.array([x0]), t)[0]
    assert 0.045 - 1e-12 <= d <= 0.05 + 1e-12


# ------------------------------------------------ one sample per step

def counting(model):
    """A copy of `model` that records the points and time of every one of its
    evaluations, with the list it records them in."""
    evaluated = []

    class Counting(type(model)):
        def _sample(self, x, t):
            evaluated.append((x.copy(), t))
            return super()._sample(x, t)

    return Counting(**{f.name: getattr(model, f.name) for f in fields(model)}), evaluated


@pytest.mark.parametrize("mode", ["hydrostatic", "global", "adaptive"])
@pytest.mark.parametrize("name, t_end", [("solitary", 0.5), ("hammack_up", 0.05),
                                         ("whittaker", 0.05)])
def test_a_run_samples_the_grid_once_per_step(name, t_end, mode):
    # one sample at the start, then one at each step's new time, which the
    # predictor, criterion, correction, gauges (hammack) and next step share
    spec, init = build_scenario(name, t_end=t_end)
    model, evaluated = counting(spec.bathymetry)
    spec = replace(spec, bathymetry=model)
    simulate(spec, init, mode, Criterion("eta_over_d") if mode == "adaptive" else None)
    assert len(evaluated) == spec.n_steps + 1
    # each evaluation sees every sample node
    nodes = spec.grid.sample_nodes
    for points, _ in evaluated:
        assert points.shape == nodes.shape and points.tobytes() == nodes.tobytes()
    times = [t for _, t in evaluated]
    assert times == sorted(set(times))


def test_a_step_samples_its_own_model_and_time():
    spec, init = build_scenario("hammack_up")
    dt, grid = spec.dt, spec.grid
    plate = spec.bathymetry
    lowered = replace(plate, zeta0=-plate.zeta0)
    up, seen_up = counting(plate)
    down, seen_down = counting(lowered)
    first = adaptive_step(init, dt, up, spec.bcs, mode="hydrostatic")
    other = adaptive_step(init, dt, down, spec.bcs, mode="hydrostatic")
    assert [t for _, t in seen_up] == [t for _, t in seen_down] == [0.0, dt]
    assert not np.array_equal(first.state.h.values, other.state.h.values)
    assert np.array_equal(first.bottom.d, plate.sample(grid.sample_nodes, dt).d)
    assert np.array_equal(other.bottom.d, lowered.sample(grid.sample_nodes, dt).d)

    # at another time the model is sampled again, both ends of the step
    # unless the caller hands on the sample it holds for the start
    adaptive_step(first.state, dt, up, spec.bcs, mode="hydrostatic")
    assert [t for _, t in seen_up] == [0.0, dt, dt, 2 * dt]
    adaptive_step(first.state, dt, up, spec.bcs, mode="hydrostatic", bottom=first.bottom)
    assert [t for _, t in seen_up] == [0.0, dt, dt, 2 * dt, 2 * dt]


# ------------------------------------------------------- declared jumps

SHIPPED_GRIDS = [("solitary", {}), ("hammack_up", {}), ("hammack_down", {}),
                 ("whittaker", {}), ("whittaker", {"froude": 0.125}),
                 ("whittaker", {"froude": 0.375}), ("whittaker", {"dx": 0.0075})]


@pytest.mark.parametrize("name, overrides", SHIPPED_GRIDS)
def test_the_bottom_is_continuous_across_every_undeclared_interface(name, overrides):
    # the predictor reconstructs only at the declared jumps, so a jump
    # anywhere else would go unseen
    spec, _ = build_scenario(name, **overrides)
    grid, model = spec.grid, spec.bathymetry
    for t in [*np.linspace(0.0, spec.t_end, 9), spec.dt, 3.0 * spec.dt]:
        d = model.sample(grid.sample_nodes, t).d
        # interface k lies between elements k - 1 and k
        step = np.abs(d[:-1, -1] - d[1:, 0])
        step[[k - 1 for k in grid.interfaces_near(model.jumps(t))]] = 0.0
        assert step.max() <= 1e-9 * model.h0, (t, int(step.argmax()) + 1)


def test_hammack_plate_declares_its_edge_once_it_moves():
    spec, _ = build_scenario("hammack_up")
    model, grid = spec.bathymetry, spec.grid
    assert model.jumps(0.0) == ()
    for t in (spec.dt, 1.0, spec.t_end):
        assert model.b in model.jumps(t)
        # -b lies left of the domain, b on an interface
        [k] = grid.interfaces_near(model.jumps(t))
        d = model.sample(grid.sample_nodes, t).d
        assert d[k - 1, -1] < d[k, 0]        # the raised plate ends there


@pytest.mark.parametrize("name", ["solitary", "hammack_up", "whittaker"])
def test_no_channel_of_a_sample_can_be_written(name):
    # channels share arrays (the flat bottom's five zeros, the plate's
    # three), and a sample is handed on from step to step
    spec, _ = build_scenario(name)
    model, nodes = spec.bathymetry, spec.grid.sample_nodes
    for t in (0.0, spec.dt, 0.5 * spec.t_end):
        sample = model.sample(nodes, t)
        for channel in CHANNELS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(sample, channel)[2] = 0.5


# ------------------------------------------------ a model's moving points

def windowed(model, x, t, size=1):
    """The channels of the model evaluated on each window of `size`
    consecutive points of x alone, laid out as x."""
    flat = np.ravel(x)
    windows = [model.sample(flat[k:k + size], t) for k in range(0, flat.size, size)]
    return {ch: np.concatenate([getattr(w, ch) for w in windows]).reshape(np.shape(x))
            for ch in CHANNELS}


def assert_same_sample(sample, channels):
    for name in CHANNELS:
        a, b = getattr(sample, name), channels[name]
        assert np.shape(a) == b.shape and a.tobytes() == b.tobytes(), name
    assert sample.active == {name for name in CHANNELS[1:]
                             if np.count_nonzero(channels[name])}


def bump_center(model, t):
    """A point the model's bottom moves at, at time t; the flat bottom's
    is anywhere."""
    if isinstance(model, WhittakerSlide):
        return model.x_start + model.motion.position(t)[0]
    return 0.0      # the plate is centered at 0


@pytest.mark.parametrize("name, overrides", SHIPPED_GRIDS)
def test_the_windowed_sample_is_the_full_evaluation(name, overrides):
    spec, _ = build_scenario(name, **overrides)
    model, nodes = spec.bathymetry, spec.grid.sample_nodes
    times = [0.0, spec.dt, 3.0 * spec.dt, *np.linspace(spec.t_end / 8, spec.t_end, 8)]
    if name == "whittaker":
        times.append(3.0)      # the slide has stopped
    for t in times:
        # windows of 7 nodes split the bump and the plate unevenly
        assert_same_sample(model.sample(nodes, t), windowed(model, nodes, t, 7))


class Undeclared(WhittakerSlide):
    """The bump that does not narrow its points to where it moves: every
    point is laid in as a moving one."""

    def _sample(self, x, t):
        full = super()._sample(x, t)
        return self._still_bottom_with(
            x.shape, np.arange(x.size), [getattr(full, ch).reshape(-1) for ch in CHANNELS])


@pytest.mark.parametrize("kind", [WhittakerSlide, Undeclared])
def test_a_support_wider_than_the_domain_samples_everything(kind):
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    model = kind(1.0, 0.3, 14.0, motion, x_start=5.0)
    bump = WhittakerSlide(1.0, 0.3, 14.0, motion, x_start=5.0)
    nodes = GridSpec(0.0, 10.0, 50, 1).sample_nodes
    for t in (0.0, 0.3, 3.0):
        sample = model.sample(nodes, t)
        assert np.all(sample.d < model.h0)
        assert_same_sample(sample, windowed(model, nodes, t))
        assert_same_sample(sample, windowed(bump, nodes, t, nodes.size))


@pytest.mark.parametrize("name", ["solitary", "hammack_up", "whittaker"])
def test_any_points_give_the_full_evaluation(name):
    spec, _ = build_scenario(name)
    model, t = spec.bathymetry, 0.5
    center = bump_center(model, t)
    x = center + np.linspace(-1.0, 1.0, 13)
    full = model.sample(x, t)
    assert_same_sample(full, windowed(model, x, t))
    # a point on the bump ahead of sorted points off it, strided views and a
    # shuffle, in one and two dimensions, then each point as a 0-d array
    orders = (np.r_[6, 0:6, 7:13], slice(None, None, -1), slice(None, None, 2),
              np.random.default_rng(0).permutation(13))
    for order in orders:
        for shape in ((-1,), (-1, 1)):
            permuted = {ch: getattr(full, ch)[order].reshape(shape) for ch in CHANNELS}
            assert_same_sample(model.sample(x[order].reshape(shape), t), permuted)
    for k in range(13):
        point = {ch: getattr(full, ch)[k].reshape(()) for ch in CHANNELS}
        assert_same_sample(model.sample(np.array(x[k]), t), point)


@given(t=st.floats(0.0, 4.0), offset=st.integers(1, 40), side=st.sampled_from([-1, 1]))
def test_the_bump_is_still_bottom_just_past_its_ends(t, offset, side):
    # a float just past a rounded end of the bump is off it
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    model = WhittakerSlide(0.175, 0.026, 0.5, motion, x_start=5.0)
    x = model.x_start + motion.position(t)[0] + side * 0.5 * model.Ls
    for _ in range(offset):
        x = np.nextafter(x, side * np.inf)
    sample = model.sample(np.array([x]), t)
    assert sample.d[0] == model.h0 and sample.active == frozenset()
    assert_same_sample(sample, windowed(model, [x], t))
