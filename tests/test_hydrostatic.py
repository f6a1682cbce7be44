"""Predictor tests: flux values, well-balancedness, conservation, convergence."""

import warnings

import numpy as np
import pytest

from nhswe.bathymetry import (BathymetryModel, BottomSample, FlatBottom, GRAVITY,
                              HammackPlate)
from nhswe.grid import FlowState, GridSpec, NodalField
from nhswe.hydrostatic import (ABSORBING, WALL, BoundaryCondition, BoundaryPair,
                               PositivityError, _flux, _rusanov, _speed, heun_step)

WALLS = BoundaryPair(WALL, WALL)


def still_state(grid, bathy, t=0.0):
    d = bathy.sample(grid.sample_nodes, t).d
    zero = np.zeros_like(d)
    return FlowState(NodalField(grid, d), NodalField(grid, zero),
                     NodalField(grid, zero), t)


def total_mass(state):
    # integral of h: row sums of the mass matrix weight the nodal values
    w = state.grid.mass.sum(axis=0)
    return float(np.sum(state.h.values @ w))


def interface_flux(qL, qR):
    """The Rusanov flux rhs_operator computes between the traces qL and qR."""
    uL, uR = qL[1] / qL[0], qR[1] / qR[0]
    speed = max(_speed(uL, qL[0]), _speed(uR, qR[0]))
    return _rusanov(qL, qR, _flux(qL, uL), _flux(qR, uR), speed)


def test_physical_flux_hand_values():
    q = np.array([2.0, 3.0, 4.0])
    f1, f2, f3 = _flux(q, q[1] / q[0])
    assert f1 == pytest.approx(3.0)
    assert f2 == pytest.approx(3.0 ** 2 / 2.0 + 0.5 * GRAVITY * 4.0)
    assert f3 == pytest.approx(3.0 * 4.0 / 2.0)
    assert _speed(1.5, 2.0) == pytest.approx(1.5 + np.sqrt(GRAVITY * 2.0))


def test_rusanov_consistency():
    q = np.array([1.5, 0.3, -0.2])
    assert np.allclose(interface_flux(q, q), _flux(q, q[1] / q[0]), atol=1e-14)


def test_rusanov_dissipation_sign():
    # pure depth jump at rest: mass flux must point from high to low depth
    qL = np.array([2.0, 0.0, 0.0])
    qR = np.array([1.0, 0.0, 0.0])
    assert interface_flux(qL, qR)[0] > 0.0


def test_boundary_condition_ghosts():
    # the ghost state's factors on (h, hu, hw): a wall reflects the momentum
    assert BoundaryCondition("wall").signs.ravel().tolist() == [1.0, -1.0, 1.0]
    assert BoundaryCondition("absorbing").signs.ravel().tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        BoundaryCondition("periodic")


def test_lake_at_rest_flat_bottom():
    grid = GridSpec(0.0, 10.0, 50, 1)
    bathy = FlatBottom(1.0)
    state = still_state(grid, bathy)
    for _ in range(100):
        state = heun_step(state, 0.01, bathy, WALLS)
    assert np.abs(state.hu.values).max() < 1e-12
    assert np.abs(state.h.values - 1.0).max() < 1e-12


def test_lake_at_rest_over_bottom_jump():
    # static plate: the bottom jumps between elements; the reconstructed
    # interface flux must keep still water exactly still
    grid = GridSpec(0.0, 5.0, 200, 1)
    bathy = HammackPlate(0.05, 0.005, 0.6, 0.13)
    state = still_state(grid, bathy, t=1000.0)   # plate motion long finished
    for _ in range(50):
        state = heun_step(state, 0.005, bathy, BoundaryPair(WALL, ABSORBING))
    assert np.abs(state.hu.values).max() < 1e-12


class Staircase(BathymetryModel):
    """Still depth stepping up and down at x = 2, 4, 6, 8."""

    def _sample(self, x, t):
        d = np.select([x < 2.0, x < 4.0, x < 6.0, x < 8.0], [1.0, 0.6, 0.9, 0.5], 0.8)
        zero = np.zeros_like(x)
        return BottomSample(d, zero, zero, zero, zero, zero, frozenset())

    def jumps(self, t):
        return (2.0, 4.0, 6.0, 8.0)


def test_several_bottom_jumps_keep_still_water_and_mass():
    # four jumps, up and down, in one reconstructed-flux pass
    grid = GridSpec(0.0, 10.0, 50, 1)
    bathy = Staircase()
    # the sampled bottom jumps at four interfaces, the declared ones
    d = bathy.sample(grid.sample_nodes, 0.0).d
    jumped = (np.flatnonzero(d[:-1, -1] != d[1:, 0]) + 1).tolist()
    assert jumped == grid.interfaces_near(bathy.jumps(0.0)) == [10, 20, 30, 40]
    state = still_state(grid, bathy)
    for _ in range(50):
        state = heun_step(state, 0.005, bathy, WALLS)
    assert np.abs(state.hu.values).max() < 1e-12

    # a surface hump released over the steps: the mass flux leaving one side
    # of a jump enters the other
    d = bathy.sample(grid.sample_nodes, 0.0).d
    h = d + 0.05 * np.exp(-((grid.nodes - 5.0) / 1.0) ** 2)
    zero = np.zeros_like(h)
    state = FlowState(NodalField(grid, h), NodalField(grid, zero), NodalField(grid, zero), 0.0)
    m0 = total_mass(state)
    for _ in range(100):
        state = heun_step(state, 0.005, bathy, WALLS)
    assert np.abs(state.hu.values).max() > 1e-4
    assert abs(total_mass(state) - m0) / m0 < 1e-12


def test_mass_conservation_with_walls():
    grid = GridSpec(0.0, 20.0, 80, 1)
    bathy = FlatBottom(1.0)
    h = NodalField(grid, 1.0 + 0.1 * np.exp(-((grid.nodes - 10.0) / 2.0) ** 2))
    zero = NodalField(grid, np.zeros_like(grid.nodes))
    state = FlowState(h, zero, zero, 0.0)
    m0 = total_mass(state)
    for _ in range(200):
        state = heun_step(state, 0.005, bathy, WALLS)
    assert abs(total_mass(state) - m0) / m0 < 1e-10


# the step is far above the CFL limit on purpose
@pytest.mark.filterwarnings("ignore:advisory CFL:RuntimeWarning")
def test_positivity_error_reports_location():
    grid = GridSpec(0.0, 10.0, 10, 1)
    h = np.ones((10, 2))
    h[4] = 1e-9
    zero = np.zeros((10, 2))
    hu = np.zeros((10, 2))
    hu[4] = 5.0  # huge velocity in a nearly dry element
    state = FlowState(NodalField(grid, h), NodalField(grid, hu),
                      NodalField(grid, zero), 0.0)
    with pytest.raises(PositivityError), np.errstate(all="ignore"):
        s = state
        for _ in range(50):
            s = heun_step(s, 0.5, FlatBottom(1.0), WALLS)


# the step is far above the CFL limit on purpose
@pytest.mark.filterwarnings("ignore:advisory CFL:RuntimeWarning")
@pytest.mark.parametrize("k", [2, 7])
def test_positivity_error_names_the_dried_element(k):
    # still depth with the momentum flowing away from element k on both
    # sides: every other element passes as much water as it receives, and
    # element k empties within the first Heun stage
    grid = GridSpec(0.0, 10.0, 10, 1)
    h = np.ones((10, 2))
    hu = np.full((10, 2), 5.0)
    hu[:k] = -5.0
    hu[k, 0] = -5.0
    state = FlowState(NodalField(grid, h), NodalField(grid, hu),
                      NodalField(grid, np.zeros((10, 2))), 0.0)
    with pytest.raises(PositivityError) as err:
        heun_step(state, 0.2, FlatBottom(1.0), BoundaryPair(ABSORBING, ABSORBING))
    assert (err.value.element, err.value.stage) == (k, 1)
    assert err.value.time == pytest.approx(0.2)
    assert f"element {k} " in str(err.value) and "stage 1" in str(err.value)


def nan_state(field, element):
    """Still water on a flat bottom with a NaN in one node of `field`, as a
    trusted constructor on a hot path would let it through."""
    grid = GridSpec(0.0, 10.0, 10, 1)
    values = {"h": np.ones((10, 2)), "hu": np.zeros((10, 2)), "hw": np.zeros((10, 2))}
    values[field][element, 1] = np.nan
    return FlowState._wrap(*(NodalField._wrap(grid, values[f]) for f in ("h", "hu", "hw")),
                           0.0)


@pytest.mark.parametrize("field", ["hu", "hw"])
def test_non_finite_momentum_stops_the_step_and_is_named(field):
    # a NaN in hu reaches h within the stage, and one in hw reaches neither
    # h nor hu, yet the failure names the momentum it started in
    with pytest.raises(PositivityError) as err, np.errstate(all="ignore"):
        heun_step(nan_state(field, 6), 0.01, FlatBottom(1.0), WALLS)
    assert (err.value.field, err.value.element, err.value.stage) == (field, 6, 1)
    assert err.value.time == pytest.approx(0.01)
    assert str(err.value) == f"non-finite {field} in element 6 at t=0.01 in Heun stage 1"


def test_cfl_warning():
    grid = GridSpec(0.0, 10.0, 10, 1)
    bathy = FlatBottom(1.0)
    state = still_state(grid, bathy)
    with pytest.warns(RuntimeWarning, match="CFL"):
        heun_step(state, 10.0, bathy, WALLS)


@pytest.mark.parametrize("courant, warns", [(0.34, True), (0.32, False)])
def test_cfl_warning_at_the_stability_limit(courant, warns):
    # linear elements with Heun's scheme are stable to a Courant number of
    # 1/3: a standing wave lost positivity at 0.34, where a limit of 1 let
    # the first step pass in silence
    grid = GridSpec(0.0, 10.0, 10, 1)
    bathy = FlatBottom(1.0)
    state = still_state(grid, bathy)
    dt = courant * grid.dx / np.sqrt(GRAVITY)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        heun_step(state, dt, bathy, WALLS)
    messages = [str(w.message) for w in caught]
    assert messages == ([f"advisory CFL number {courant:.3f} exceeds the stability limit "
                         f"0.333 of degree-1 RKDG at t=0"] if warns else [])


def test_predictor_converges_at_second_order():
    # smooth standing hump released from rest; reference from a much finer run
    bathy = FlatBottom(1.0)
    t_end, dt = 0.4, 1e-3   # time error negligible next to the spatial error

    def run(n):
        grid = GridSpec(0.0, 10.0, n, 1)
        h = NodalField(grid, 1.0 + 0.05 * np.exp(-((grid.nodes - 5.0) / 1.0) ** 2))
        zero = NodalField(grid, np.zeros_like(grid.nodes))
        state = FlowState(h, zero, zero, 0.0)
        for _ in range(int(round(t_end / dt))):
            state = heun_step(state, dt, bathy, WALLS)
        return state

    ref = run(320)
    errs = []
    for n in (20, 40, 80):
        coarse = run(n)
        # every coarse node is a reference node: an element's first and last
        # nodes are those of its first and last reference sub-elements
        ref_at = ref.h.values.reshape(n, 320 // n, 2)[:, [0, -1], [0, 1]]
        errs.append(np.abs(coarse.h.values - ref_at).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 1.5
