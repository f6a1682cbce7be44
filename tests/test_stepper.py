"""The per-run Stepper: one code path with and without it, returned values
that stay as they were returned, and no memory faulted in again per step."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nhswe.adaptivity import MODES, Criterion, Stepper, adaptive_step
from nhswe.bathymetry import CHANNELS
from nhswe.corrector import apply_correction
from nhswe.driver import simulate, step_times
from nhswe.grid import GridSpec
from nhswe.hydrostatic import StageBuffers, heun_step
from nhswe.scenarios import SCENARIOS as SCENARIO_BUILDERS, build_scenario

# the plate moves and the bump slides from the first step, so a few steps
# flag elements and run the correction on one or more ranges
SCENARIOS = {
    "solitary": Criterion("eta_over_d", 1e-3),
    "hammack_up": Criterion("eta_over_d", 1e-3),
    "whittaker": Criterion("eta_over_d", 1e-3, enlarge=True),
}


def short_run(name, steps):
    spec, init = build_scenario(name)
    return replace(spec, t_end=steps * spec.dt), init


def fields(state):
    return [f.values.copy() for f in (state.h, state.hu, state.hw)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_run_and_one_shot_steps_take_one_path(name, mode):
    spec, init = short_run(name, 12)
    crit = SCENARIOS[name] if mode == "adaptive" else None
    run = simulate(spec, init, mode, crit)
    state, bottom, masks = init, None, []
    for _ in range(spec.n_steps):
        step = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode=mode,
                             crit=crit, bottom=bottom)
        state, bottom = step.state, step.bottom
        masks.append(step.mask.ranges)
    for ours, theirs in zip(fields(state), fields(run.final_state)):
        assert ours.tobytes() == theirs.tobytes()
    assert (step.p_nh is None) == (run.final_p is None)
    if step.p_nh is not None:
        assert step.p_nh.values.tobytes() == run.final_p.values.tobytes()
    assert step.mask.flags.tobytes() == run.final_mask.flags.tobytes()
    if mode == "adaptive":
        assert masks == [ranges for _, _, ranges in run.mask_history]
        assert any(masks)


@pytest.mark.parametrize("mode", MODES)
def test_returned_values_are_never_written_again(mode):
    spec, state = short_run("hammack_up", 10)
    stepper = Stepper(spec.grid, mode, SCENARIOS["hammack_up"] if mode == "adaptive" else None)
    bottom, kept = None, []
    for _ in range(spec.n_steps):
        step = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode=mode,
                             crit=stepper.crit, bottom=bottom, stepper=stepper)
        state, bottom = step.state, step.bottom
        p = None if step.p_nh is None else step.p_nh.values
        copies = fields(state) + [step.mask.flags.copy(), bottom.d.copy()]
        copies += [] if p is None else [p.copy()]
        kept.append((step, copies))
    for step, copies in kept:
        now = fields(step.state) + [step.mask.flags, step.bottom.d]
        now += [] if step.p_nh is None else [step.p_nh.values]
        assert [a.tobytes() for a in now] == [a.tobytes() for a in copies]


@pytest.mark.parametrize("ranges", [((0, 999),), ((10, 40), (480, 520))])
def test_initial_predicted_and_corrected_states_view_their_own_arrays(ranges):
    spec, init = build_scenario("hammack_up")
    predictor = heun_step(init, spec.dt, spec.bathymetry, spec.bcs)
    bottom = spec.bathymetry.sample(spec.grid.sample_nodes, predictor.time)
    before = fields(predictor)
    corrected, _ = apply_correction(predictor, bottom, spec.dt, ranges, spec.bcs)
    states = (init, predictor, corrected)
    for state in states:
        for k, f in enumerate((state.h, state.hu, state.hw)):
            assert np.shares_memory(f.values, state.packed)
            assert f.values.tobytes() == state.packed[k, :, 1:-1].T.tobytes()
    for i, state in enumerate(states):
        assert not any(np.shares_memory(state.packed, other.packed) for other in states[i + 1:])
    # correcting the momenta left the predictor as it was
    assert [a.tobytes() for a in fields(predictor)] == [a.tobytes() for a in before]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_nothing_a_step_returns_views_the_workspace(name, mode):
    # the predictor and the correction of every step both write the
    # stepper's one block, so an array that viewed it would change under
    # whoever kept it
    spec, state = short_run(name, 12)
    stepper = Stepper(spec.grid, mode, SCENARIOS[name] if mode == "adaptive" else None)
    bottom, corrected = None, 0
    for _ in range(spec.n_steps):
        step = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode=mode,
                             crit=stepper.crit, bottom=bottom, stepper=stepper)
        state, bottom = step.state, step.bottom
        returned = [state.packed, state.h.values, state.hu.values, state.hw.values,
                    step.mask.flags]
        returned += [getattr(bottom, channel) for channel in CHANNELS]
        if step.solution is not None:
            sol = step.solution
            returned += [sol.p, sol.hu, sol.p_nh.values]
            corrected += 1
        assert not any(np.shares_memory(a, stepper.block) for a in returned)
    assert corrected if mode != "hydrostatic" else not corrected


@pytest.mark.parametrize("mode", ["global", "adaptive"])
@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_a_step_reads_nothing_the_workspace_held_before_it(name, mode):
    # every stage of a step writes the block before it reads it, the
    # correction reusing the storage of the coefficient stack and of the
    # band: so a run whose block is filled with NaN before every step
    # reaches the outputs of an untouched run bit for bit
    spec, init = short_run(name, 12)
    crit = SCENARIOS.get(name, Criterion("eta_over_d", 1e-3)) if mode == "adaptive" else None
    run = simulate(spec, init, mode, crit)
    stepper = Stepper(spec.grid, mode, crit)
    # the gauges' (element, node) pairs, as the driver reads them
    at = tuple(np.array([spec.grid.nearest_node(x) for x in spec.gauges], dtype=int)
               .reshape(-1, 2).T)
    state, bottom, masks, gauges = init, None, [], []
    for _ in range(spec.n_steps):
        stepper.block.fill(np.nan)
        step = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode=mode, crit=crit,
                             bottom=bottom, stepper=stepper)
        state, bottom = step.state, step.bottom
        masks.append(step.mask.ranges)
        gauges.append(state.h.values[at] - bottom.d[at])
    for ours, theirs in zip(fields(state), fields(run.final_state)):
        assert ours.tobytes() == theirs.tobytes()
    assert step.p_nh.values.tobytes() == run.final_p.values.tobytes()
    assert np.array(gauges).tobytes() == run.gauge_eta[1:].tobytes()
    if mode == "adaptive":
        assert masks == [ranges for _, _, ranges in run.mask_history]
        assert any(masks)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("mode", MODES)
def test_every_workspace_view_starts_64_byte_aligned_in_the_block(mode, order):
    # 37 elements, so that no buffer's size is a multiple of 64 bytes
    grid = GridSpec(0.0, 10.0, 37, order)
    stepper = Stepper(grid, mode, Criterion("eta_over_d") if mode == "adaptive" else None)
    # every carved stage buffer; the slices a stage takes of them start
    # mid-buffer by design
    stages = stepper.stages.carved
    assert [view.shape for view in stages] == StageBuffers.shapes(grid)
    views = list(stages) + list(stepper.criterion_buffers)
    if mode != "hydrostatic":
        banded = stepper.banded
        views += [a for a in vars(banded).values() if isinstance(a, np.ndarray)]
        for n in (1, 5, 37):
            views += [banded.stack(n), banded.nodal(n), *banded.temporaries(n)]
            views += [a for a in banded.arrays(n) if a.size]
    for view in views:
        assert view.ctypes.data % 64 == 0
        assert np.shares_memory(view, stepper.block)


def test_a_stepper_serves_only_its_own_run():
    spec, init = short_run("solitary", 1)
    stepper = Stepper(spec.grid, "global")
    for mode, crit in (("hydrostatic", None), ("adaptive", SCENARIOS["solitary"])):
        with pytest.raises(ValueError, match="another grid, mode or criterion"):
            adaptive_step(init, spec.dt, spec.bathymetry, spec.bcs, mode=mode, crit=crit,
                          stepper=stepper)
    with pytest.raises(ValueError, match="requires a criterion"):
        Stepper(spec.grid, "adaptive")


def test_step_times_are_the_times_a_run_records():
    # dt = 0.1 does not add up exactly, so the sum must run as the steps do
    spec, init = short_run("solitary", 37)
    run = simulate(spec, init, "hydrostatic")
    assert step_times(spec, init).tobytes() == run.gauge_times.tobytes()


HYDROSTATIC_RUN_FAULTS = """
import resource
from nhswe.driver import simulate
from nhswe.scenarios import build_solitary


def run():
    spec, init = build_solitary(n_elements=20000, dt=0.001, t_end=0.05)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate(spec, init, "hydrostatic")
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / spec.n_steps


run()
print(run())
"""


def test_hydrostatic_steps_at_20000_elements_fault_in_no_memory_again():
    # a run writes its stage temporaries into the stepper's buffers, so
    # after the first step only the new state's array is allocated, and the
    # heap keeps the memory it hands out; with fresh temporaries per stage
    # it trimmed and faulted back ~800 pages per step, against ~30 here,
    # nearly all the first touch of the run's buffers
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", HYDROSTATIC_RUN_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 100.0


GLOBAL_STEP_MEMORY = """
import resource
import tracemalloc
from nhswe.adaptivity import Stepper, adaptive_step
from nhswe.driver import simulate
from nhswe.scenarios import build_solitary

spec, init = build_solitary(n_elements=20000, dt=0.001, t_end=0.05)
simulate(spec, init, "global")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulate(spec, init, "global")
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / spec.n_steps

stepper = Stepper(spec.grid, "global")
step = adaptive_step(init, spec.dt, spec.bathymetry, spec.bcs, mode="global",
                     stepper=stepper)
state, bottom = step.state, step.bottom
del step
tracemalloc.start()
held = tracemalloc.get_traced_memory()[0]
step = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode="global",
                     bottom=bottom, stepper=stepper)
peak = tracemalloc.get_traced_memory()[1] - held
print(faults, peak / 2 ** 20)
"""


def test_global_steps_at_20000_elements_allocate_only_what_they_return():
    # the correction works in the stepper's block, so a global step
    # allocates the predictor's state and bottom sample (~1.5 MiB, all a
    # hydrostatic step allocates), the corrected state, p and hu: ~3.05 MiB
    # in all.  With the coefficient stack, the residual and the update's
    # temporaries fresh every step it peaked at 5.9 MiB and took 56-82
    # minor page faults per step of a second run
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", GLOBAL_STEP_MEMORY], env=env,
                         capture_output=True, text=True, check=True)
    faults, peak_mib = map(float, out.stdout.split())
    assert faults <= 50.0
    assert peak_mib <= 3.5
