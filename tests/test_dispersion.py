"""Linear dispersion of a standing wave over a flat bottom.

A small standing wave cos(kx) between two walls oscillates with the phase
speed of the model's dispersion relation.  The hydrostatic model has
c^2 = g d at every wavenumber; the Green-Naghdi equations, which the
non-hydrostatic model is equivalent to, have c^2 = g d / (1 + (kd)^2 / 3).
The bound on the global run is a quarter of the distance to the relation a
linear vertical pressure profile gives, c^2 = g d / (1 + (kd)^2 / 4), so the
test tells the two apart.
"""

import numpy as np
import pytest

from nhswe.bathymetry import GRAVITY, FlatBottom
from nhswe.driver import simulate
from nhswe.grid import FlowState, GridSpec, NodalField
from nhswe.hydrostatic import WALL, BoundaryPair
from nhswe.scenarios import ScenarioSpec

DEPTH = 1.0


def gn_ratio(kd):
    """c^2 / gd of the Green-Naghdi equations."""
    return 1.0 / (1.0 + kd * kd / 3.0)


def measured_ratio(kd, mode):
    """c^2 / gd of a standing wave of wavenumber kd / d, read from the
    period of the surface at the left wall over two Green-Naghdi periods."""
    k = kd / DEPTH
    # 8 half-waves of 16 elements each, at a Courant number of 0.1
    grid = GridSpec(0.0, 8.0 * np.pi / k, 128, 1)
    dt = 0.1 * grid.dx / np.sqrt(GRAVITY * DEPTH)
    period = 2.0 * np.pi / (k * np.sqrt(GRAVITY * DEPTH * gn_ratio(kd)))
    spec = ScenarioSpec("standing_wave", grid, dt, 2.0 * period, FlatBottom(DEPTH),
                        BoundaryPair(WALL, WALL), gauges=(0.0,))
    h = DEPTH + 1e-4 * np.cos(k * grid.nodes)
    zero = np.zeros_like(h)
    initial = FlowState(NodalField(grid, h), NodalField(grid, zero),
                        NodalField(grid, zero), 0.0)
    result = simulate(spec, initial, mode)
    t, eta = result.gauge_times, result.gauge_eta[:, 0]
    # zero crossings, linearly interpolated; two of them per period
    i = np.flatnonzero(np.sign(eta[:-1]) != np.sign(eta[1:]))
    crossings = t[i] - eta[i] * (t[i + 1] - t[i]) / (eta[i + 1] - eta[i])
    assert len(crossings) >= 3
    measured = 2.0 * (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    c = 2.0 * np.pi / (k * measured)
    return c * c / (GRAVITY * DEPTH)


@pytest.mark.parametrize("kd", [0.5, 1.0, 2.0])
def test_hydrostatic_waves_do_not_disperse(kd):
    assert abs(measured_ratio(kd, "hydrostatic") - 1.0) <= 1e-3


@pytest.mark.parametrize("kd", [0.5, 1.0, 2.0])
def test_global_waves_disperse_as_green_naghdi(kd):
    linear_pressure = 1.0 / (1.0 + kd * kd / 4.0)
    bound = 0.25 * abs(gn_ratio(kd) - linear_pressure)
    ratio = measured_ratio(kd, "global")
    assert abs(ratio - gn_ratio(kd)) <= bound, (
        f"kd = {kd}: c^2/gd = {ratio:.5f}, Green-Naghdi {gn_ratio(kd):.5f}, "
        f"linear pressure {linear_pressure:.5f}")
