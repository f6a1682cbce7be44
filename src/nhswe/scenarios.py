"""Benchmark scenario construction: grids, bottoms, boundaries, initial states.

Three setups are provided: a propagating solitary wave over constant depth
(with its closed-form reference solution), an impulsively raised or lowered
plate next to a wall, and a quartic bump sliding along a flat bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bathymetry import (GRAVITY, BathymetryModel, FlatBottom, HammackPlate,
                         SlideMotion, WhittakerSlide, hammack_time_constant)
from .grid import FlowState, GridSpec, NodalField, derivative_values
from .hydrostatic import ABSORBING, WALL, BoundaryPair

# slide kinematics per Froude number: a0 (m/s^2), u_t (m/s), t1, t2, t3 (s)
SLIDE_MOTIONS = {
    0.125: SlideMotion(1.500, 0.163, 0.109, 2.109, 2.218),
    0.25: SlideMotion(1.500, 0.327, 0.218, 2.218, 2.436),
    0.375: SlideMotion(1.500, 0.491, 0.327, 2.327, 2.654),
}

# the solitary wave's amplitude, still-water depth and crest at t = 0 (m)
SOLITARY_A, SOLITARY_D, SOLITARY_X0 = 2.0, 10.0, 200.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to run one benchmark case."""

    name: str
    grid: GridSpec
    dt: float
    t_end: float
    bathymetry: BathymetryModel
    bcs: BoundaryPair
    gauges: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if self.n_steps < 1:
            raise ValueError(f"t_end={self.t_end} holds no step of dt={self.dt}")
        for x in self.gauges:
            if not self.grid.x_left <= x <= self.grid.x_right:
                raise ValueError(f"gauge at x={x} outside the domain")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def solitary_exact(x, t, a: float = SOLITARY_A, d: float = SOLITARY_D,
                   x0: float = SOLITARY_X0):
    """Closed-form solitary wave profile: surface elevation and velocity."""
    if d <= 0 or a <= 0:
        raise ValueError("require a > 0 and d > 0")
    x = np.asarray(x, dtype=float)
    c = np.sqrt(GRAVITY * (d + a))
    K = np.sqrt(3.0 * a / (4.0 * d * d * (d + a)))
    eta = a / np.cosh(K * (x - c * t - x0)) ** 2
    u = c * eta / (d + eta)
    return eta, u


def still_water_state(grid: GridSpec, bathy: BathymetryModel) -> FlowState:
    """Water at rest over the bottom at t = 0."""
    d = bathy.sample(grid.sample_nodes, 0.0).d
    zero = np.zeros_like(d)
    return FlowState(NodalField(grid, d), NodalField(grid, zero),
                     NodalField(grid, zero), 0.0)


def vertical_momentum_from_constraint(grid: GridSpec, h: np.ndarray, hu: np.ndarray,
                                      bathy: BathymetryModel, t: float) -> np.ndarray:
    """hw from the linear-vertical-velocity divergence constraint."""
    bottom = bathy.sample(grid.sample_nodes, t)
    hu_x = derivative_values(grid, hu)
    arg_x = derivative_values(grid, 2.0 * bottom.d - h)
    return 0.5 * (-h * hu_x - hu * arg_x - 2.0 * h * bottom.d_t)


def build_solitary(n_elements: int = 200, dt: float = 0.1, t_end: float = 30.0,
                   poly_order: int = 1) -> tuple[ScenarioSpec, FlowState]:
    grid = GridSpec(0.0, 800.0, n_elements, poly_order)
    bathy = FlatBottom(SOLITARY_D)
    spec = ScenarioSpec("solitary", grid, dt, t_end, bathy,
                        BoundaryPair(WALL, WALL))
    eta, u = solitary_exact(grid.nodes, 0.0)
    h = SOLITARY_D + eta
    hu = h * u
    hw = vertical_momentum_from_constraint(grid, h, hu, bathy, 0.0)
    state = FlowState(NodalField(grid, h), NodalField(grid, hu),
                      NodalField(grid, hw), 0.0)
    return spec, state


def build_hammack(direction: str = "up", dx: float = 0.025, dt: float | None = None,
                  t_end: float = 40.0,
                  poly_order: int = 1) -> tuple[ScenarioSpec, FlowState]:
    """Vertical plate thrust next to a wall; the plate occupies 0 <= x < b.

    `dt` defaults to 0.01 s at the default dx and scales with dx, so that a
    refined grid keeps the default's CFL number.

    The plate edge is snapped to the nearest element boundary so the bottom
    jump sits exactly at an interface, where the reconstructed flux handles
    it; a mid-element jump would be smeared into a spurious in-element ramp.
    """
    if dt is None:
        dt = 0.01 * (dx / 0.025)
    h0 = 0.05
    grid = GridSpec(0.0, 25.0, int(round(25.0 / dx)), poly_order)
    b = max(round(0.61 / grid.dx), 1) * grid.dx
    bathy = HammackPlate(h0=h0, zeta0=0.005 if direction == "up" else -0.005, b=b,
                         t_c=hammack_time_constant(h0, b, direction))
    gauges = tuple(snap_to_node(grid, x) for x in (0.61, 1.61, 9.61, 20.61))
    spec = ScenarioSpec(f"hammack_{direction}", grid, dt, t_end, bathy,
                        BoundaryPair(WALL, ABSORBING), gauges)
    return spec, still_water_state(grid, bathy)


def build_whittaker(froude: float = 0.25, dx: float = 0.075, dt: float | None = None,
                    t_end: float | None = None,
                    poly_order: int = 1) -> tuple[ScenarioSpec, FlowState]:
    """Sliding bump; comparison snapshot defaults to t* = 8 / sqrt(g / Ls).

    `dt` defaults to 0.005 s at the default dx and scales with dx, so that a
    refined grid keeps the default's CFL number.
    """
    motion = SLIDE_MOTIONS.get(froude)
    if motion is None:
        raise ValueError(f"unknown Froude number {froude}; "
                         f"choose from {sorted(SLIDE_MOTIONS)}")
    if dt is None:
        dt = 0.005 * (dx / 0.075)
    bathy = WhittakerSlide(h0=0.175, Hs=0.026, Ls=0.5, motion=motion, x_start=5.0)
    if t_end is None:
        t_end = 8.0 / np.sqrt(GRAVITY / bathy.Ls)
    grid = GridSpec(0.0, 15.0, int(round(15.0 / dx)), poly_order)
    spec = ScenarioSpec(f"whittaker_fr{froude}", grid, dt, t_end, bathy,
                        BoundaryPair(ABSORBING, ABSORBING))
    return spec, still_water_state(grid, bathy)


def snap_to_node(grid: GridSpec, x: float) -> float:
    """Nearest grid node; gauge series are nodal reads, never interpolated."""
    e, j = grid.nearest_node(x)
    return float(grid.nodes[e, j])


# the scenarios by their CLI names; a builder's parameters are the settings
# a run of its scenario can take
SCENARIOS = {"solitary": build_solitary,
             "hammack_up": partial(build_hammack, "up"),
             "hammack_down": partial(build_hammack, "down"),
             "whittaker": build_whittaker}


def _solitary_surface(x, t):
    return solitary_exact(x, t)[0]


# the scenarios of SCENARIOS whose surface elevation is known in closed
# form, as a function of the nodes and the time, by their CLI names
EXACT_SURFACES = {"solitary": _solitary_surface}


def build_scenario(name: str, **overrides) -> tuple[ScenarioSpec, FlowState]:
    """Scenario factory keyed by the CLI scenario names."""
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ValueError(f"unknown scenario {name!r}")
    return builder(**overrides)
