"""Predictor tests: flux values, well-balancedness, conservation, convergence."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nhswe import hydrostatic
from nhswe.bathymetry import (BathymetryModel, FlatBottom, GRAVITY,
                              HammackPlate, SlideMotion, WhittakerSlide)
from nhswe.grid import FlowState, GridSpec, NodalField
from nhswe.hydrostatic import (ABSORBING, WALL, BoundaryCondition, BoundaryPair,
                               PositivityError, StageBuffers, _flux, _rusanov, _speed,
                               heun_step, rhs_operator)

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
    """The Rusanov flux between the traces qL and qR, the half of what
    rhs_operator's `_rusanov` writes into its operand."""
    uL, uR = qL[1] / qL[0], qR[1] / qR[0]
    speed = max(_speed(uL, qL[0]), _speed(uR, qR[0]))
    return 0.5 * _rusanov(qL, qR, _flux(qL, uL), _flux(qR, uR), speed)


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

    h0 = 0.8    # the depth past the last step

    def _sample(self, x, t):
        d = np.select([x < 2.0, x < 4.0, x < 6.0, x < 8.0], [1.0, 0.6, 0.9, 0.5], self.h0)
        zero = np.zeros(x.size)
        return self._still_bottom_with(x.shape, np.arange(x.size),
                                       (d.reshape(-1), zero, zero, zero, zero, zero))

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


def smooth_state(grid, bathy, t, eta, u, w):
    """h = d + eta, hu = h u and hw = h w at the grid's nodes, from the
    bottom at time t and the three functions of x."""
    x = grid.nodes
    h = bathy.sample(grid.sample_nodes, t).d + eta(x)
    return FlowState(NodalField(grid, h), NodalField(grid, h * u(x)),
                     NodalField(grid, h * w(x)), t)


def unfused_tendency(state, bottom, jumps, bcs):
    """The semi-discrete tendency, term by term: the volume term W f, the
    lift of the Rusanov flux through each face, one interface at a time,
    with hydrostatic reconstruction where the sampled bottom jumps at an
    interface nearest a declared jump, and the bottom source g h d_x."""
    grid = state.grid
    n = grid.n_elements
    # the grid's elements, with a ghost at each end whose every node holds
    # the boundary trace reflected by the end's rule
    inner = state.packed[:, :, 1:-1]
    q = np.empty(state.packed.shape)
    q[:, :, 1:-1] = inner
    q[:, :, 0] = inner[:, 0, :1] * bcs.left.signs
    q[:, :, -1] = inner[:, -1, -1:] * bcs.right.signs
    f = _flux(q, q[1] / q[0])
    # faces[:, i] is the flux through interface i, between padded elements
    # i and i + 1; left[:, e] and right[:, e] those through element e's faces
    faces = np.stack([interface_flux(q[:, -1, i], q[:, 0, i + 1]) for i in range(n + 1)],
                     axis=1)
    left, right = faces[:, :-1].copy(), faces[:, 1:].copy()
    for k in grid.interfaces_near(jumps):
        dL, dR = bottom.d[k - 1, -1], bottom.d[k, 0]
        if dL == dR:
            continue
        qL, qR = q[:, -1, k], q[:, 0, k + 1]
        hsL, hsR = qL[0] - (dL - min(dL, dR)), qR[0] - (dR - min(dL, dR))
        flux = interface_flux(qL * hsL / qL[0], qR * hsR / qR[0])
        right[:, k - 1] = flux + [0.0, 0.5 * GRAVITY * (qL[0] ** 2 - hsL ** 2), 0.0]
        left[:, k] = flux + [0.0, 0.5 * GRAVITY * (qR[0] ** 2 - hsR ** 2), 0.0]
    tend = (np.einsum("ij,cje->cie", grid.weak_div, f[:, :, 1:-1])
            + grid.mass_inv[:, :1] * left[:, None, :]
            - grid.mass_inv[:, -1:] * right[:, None, :])
    tend[1] += GRAVITY * state.packed[0, :, 1:-1] * bottom.d_x.T
    return tend


SLIDE = WhittakerSlide(0.175, 0.026, 0.5, SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436),
                       x_start=5.0)
# (model, grid, time, boundary conditions, surface amplitude, whether the
# sampled bottom jumps at a declared interface)
TENDENCY_CASES = {
    "flat": (FlatBottom(1.0), (0.0, 10.0, 40), 0.0, WALLS, 0.05, False),
    "slide": (SLIDE, (3.0, 9.0, 60), 1.0, BoundaryPair(ABSORBING, WALL), 0.01, False),
    "staircase": (Staircase(), (0.0, 10.0, 50), 0.0, WALLS, 0.05, True),
    "plate": (HammackPlate(0.05, 0.005, 0.6, 0.13), (0.0, 5.0, 200), 0.05,
              BoundaryPair(WALL, ABSORBING), 0.002, True),
}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(TENDENCY_CASES))
def test_the_fused_tendency_is_the_unfused_one(case, order):
    # one matmul of [W | lift / 2] over the operand of nodal and unhalved
    # face fluxes equals W f plus the lifted Rusanov and reconstructed face
    # fluxes, summed apart, to round-off
    bathy, (x0, x1, n), t, bcs, amp, jumps_apart = TENDENCY_CASES[case]
    grid = GridSpec(x0, x1, n, order)
    mid, width = 0.5 * (x0 + x1), 0.25 * (x1 - x0)
    state = smooth_state(grid, bathy, t, lambda x: amp * np.exp(-((x - mid) / width) ** 2),
                         lambda x: 0.2 * np.sin(x), lambda x: 0.05 * np.cos(2.0 * x))
    bottom = bathy.sample(grid.sample_nodes, t)
    d = bottom.d
    apart = [k for k in grid.interfaces_near(bathy.jumps(t)) if d[k - 1, -1] != d[k, 0]]
    assert bool(apart) == jumps_apart
    assert ("d_x" in bottom.active) == (case == "slide")
    expected = unfused_tendency(state, bottom, bathy.jumps(t), bcs)
    out = np.empty_like(expected)
    tend = rhs_operator(state.packed, t, grid, bottom, bathy.jumps(t), bcs,
                        StageBuffers(grid), out)
    assert tend is out
    assert np.abs(tend - expected).max() <= 1e-13 * np.abs(expected).max()


def smooth_modes(draw_coeffs):
    """x -> sum of a_k cos(k pi x / 10 + b_k) over the drawn pairs (a_k, b_k)."""
    return lambda x: sum(a * np.cos(k * np.pi * x / 10.0 + b)
                         for k, (a, b) in enumerate(draw_coeffs, start=1))


coeffs = st.lists(st.tuples(st.floats(-0.03, 0.03), st.floats(0.0, 6.3)),
                  min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(order=st.sampled_from([1, 2, 3]), eta=coeffs, u=coeffs, w=coeffs,
       stairs=st.booleans())
def test_a_step_between_walls_conserves_mass(order, eta, u, w, stairs):
    # each interface's flux enters both its neighbours, the left face row
    # of one and the right face row of the other, and a wall passes no
    # mass: a step keeps the total mass to round-off, over bottom jumps too
    grid = GridSpec(0.0, 10.0, 30, order)
    bathy = Staircase() if stairs else FlatBottom(1.0)
    state = smooth_state(grid, bathy, 0.0, smooth_modes(eta), smooth_modes(u),
                         smooth_modes(w))
    m0 = total_mass(state)
    after = heun_step(state, 0.005, bathy, WALLS)
    assert abs(total_mass(after) - m0) <= 1e-13 * m0


# Python-level calls (cProfile's total_calls) of one predictor step of a
# run, on the run's stage buffers and with the step's two bottom samples
# handed in, counted as the corrector's CORRECTION_CALLS are.  The bounds
# are the counts measured when the step's one depth check moved from each
# stage into the step, and the plate's jumps came to be mapped to their
# interfaces in one comprehension; the hammack plate adds that mapping and
# its one reconstructed interface per stage
PREDICTOR_CALLS = {"solitary": 53, "whittaker": 53, "hammack_up": 79}


@pytest.mark.parametrize("name", sorted(PREDICTOR_CALLS))
def test_a_predictor_step_makes_a_bounded_number_of_calls(name):
    import cProfile
    import gc
    import pstats
    from nhswe.adaptivity import Stepper, adaptive_step
    from nhswe.scenarios import build_scenario
    spec, state = build_scenario(name)
    stepper = Stepper(spec.grid, "hydrostatic")
    # a few steps in, the plate has moved and its edge is a bottom jump
    for _ in range(10):
        state = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs,
                              mode="hydrostatic", stepper=stepper).state
    bottoms = tuple(spec.bathymetry.sample(spec.grid.sample_nodes, t)
                    for t in (state.time, state.time + spec.dt))
    args = (state, spec.dt, spec.bathymetry, spec.bcs, bottoms, stepper.stages)
    # a warm-up step first; no collection runs during the counted one,
    # whose finalizers of other tests' objects would count
    heun_step(*args)
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profile.runcall(heun_step, *args)
    finally:
        gc.enable()
    assert pstats.Stats(profile).total_calls <= PREDICTOR_CALLS[name]


def recording_advance(record):
    """`_advance`, calling `record(q, tend, out, stage)` on what each stage
    update received, once it has returned."""
    advance = hydrostatic._advance

    def recorded(q, tend, dt, new_time, stage, out):
        advance(q, tend, dt, new_time, stage, out=out)
        record(q, tend, out, stage)
        return out
    return recorded


@pytest.mark.parametrize("name", ["whittaker", "hammack_up"])
def test_stage_updates_run_over_whole_contiguous_padded_arrays(name, monkeypatch):
    # a stage update and its checks over the grid columns of padded arrays
    # are strided passes, twice as slow at 1,000 elements: every array an
    # update reads or writes is a whole padded one, so the step zeroes the
    # tendencies' ghost columns itself, and the new state's are finite
    from nhswe.adaptivity import Stepper, adaptive_step
    from nhswe.scenarios import build_scenario
    spec, state = build_scenario(name)
    stepper = Stepper(spec.grid, "global")
    # a few global steps in, the bottom has moved and the correction has
    # written the workspace
    for _ in range(5):
        state = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode="global",
                              stepper=stepper).state
    received = []
    monkeypatch.setattr(hydrostatic, "_advance",
                        recording_advance(lambda *args: received.append(args[:3])))
    stepper.block.fill(np.nan)
    new = heun_step(state, spec.dt, spec.bathymetry, spec.bcs, buffers=stepper.stages)
    shape = (3, spec.grid.poly_order + 1, spec.grid.n_elements + 2)
    assert len(received) == 2 and received[1][2] is new.packed
    for array in (a for arrays in received for a in arrays):
        assert array.flags.c_contiguous and array.shape == shape
    for k in (stepper.stages.k1, stepper.stages.k2):
        assert (k[:, :, [0, -1]] == 0.0).all()
    assert np.isfinite(new.packed[:, :, [0, -1]]).all()


ENDS = st.sampled_from([WALL, ABSORBING])


@settings(max_examples=40, deadline=None)
@given(order=st.sampled_from([1, 2, 3]), left=ENDS, right=ENDS,
       depth=hnp.arrays(np.float64, (7, 4), elements=st.floats(0.5, 4.0)),
       momenta=hnp.arrays(np.float64, (2, 7, 4), elements=st.floats(-2.0, 2.0)))
def test_ghost_columns_leave_the_cfl_and_the_stage_updates_as_they_were(
        order, left, right, depth, momenta):
    # a ghost node's speed is that of the boundary node it mirrors, so the
    # CFL may take the max over the whole padded speed; a stage update's
    # ghost columns are its input's, which the first stage filled from the
    # boundary conditions
    grid = GridSpec(0.0, 7.0, 7, order)
    m = order + 1
    state = FlowState(*(NodalField(grid, v[:, :m]) for v in (depth, *momenta)), 0.0)
    buffers = StageBuffers(grid)
    bcs = BoundaryPair(left, right)
    seen = []

    def record(q, tend, out, stage):
        speed = buffers.speed
        assert speed.max() == speed[:, 1:-1].max()
        filled = (q[:, 0, 1:2] * left.signs, q[:, -1, -2:-1] * right.signs)
        for column, ghost in zip((0, -1), filled):
            assert q[:, :, column].tobytes() == np.broadcast_to(ghost, (3, m)).tobytes()
            # equal, not bitwise: a wall's ghost -0.0 comes out as 0.0
            assert (out[:, :, column] == q[:, :, column]).all()
        seen.append(stage)

    with mock.patch.object(hydrostatic, "_advance", recording_advance(record)):
        heun_step(state, 1e-3, FlatBottom(1.0), bcs, buffers=buffers)
    assert seen == [1, 2]


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


@pytest.mark.parametrize("k, depth", [(0, 0.0), (6, -0.5), (9, 0.0)])
def test_a_step_refuses_an_input_with_a_non_positive_depth(k, depth):
    # a trusted constructor checks nothing, so a step's input may hold a
    # non-positive depth: the step names its element, before any stage,
    # and so before anything divides by it
    grid = GridSpec(0.0, 10.0, 10, 1)
    h = np.ones((10, 2))
    h[k, 1] = depth
    zero = NodalField._wrap(grid, np.zeros((10, 2)))
    state = FlowState._wrap(NodalField._wrap(grid, h), zero, zero, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PositivityError) as err:
            heun_step(state, 0.01, FlatBottom(1.0), WALLS)
    assert (err.value.field, err.value.element, err.value.stage) == ("h", k, None)
    assert err.value.time == 0.5
    assert str(err.value) == f"non-positive or non-finite water depth in element {k} at t=0.5"


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
