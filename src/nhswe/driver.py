"""Time-stepping driver: runs a scenario to completion and collects outputs."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .adaptivity import Criterion, Stepper, adaptive_step
from .bathymetry import BottomSample
from .corrector import NonHydroMask
from .grid import FlowState, NodalField
from .scenarios import ScenarioSpec


@dataclass
class RunResult:
    spec: ScenarioSpec
    final_state: FlowState
    final_p: NodalField | None
    final_mask: NonHydroMask
    gauge_times: np.ndarray          # (n_steps + 1,)
    gauge_eta: np.ndarray            # (n_steps + 1, n_gauges)
    mask_history: list               # (step, t, ranges) per step
    mask_fraction_mean: float
    loop_time: float


def step_times(spec: ScenarioSpec, initial: FlowState) -> np.ndarray:
    """The times of a run's states, the initial one first, as its steps
    reach them: each step adds dt to the time of the state it starts from."""
    return np.cumsum([initial.time] + [spec.dt] * spec.n_steps)


def simulate(spec: ScenarioSpec, initial: FlowState, mode: str,
             criterion: Criterion | None = None) -> RunResult:
    """Run the full time loop; wall time covers the stepping loop only."""
    grid = spec.grid
    n_steps = spec.n_steps
    gauge_idx = [grid.nearest_node(x) for x in spec.gauges]
    gauge_rows = np.array([e for e, _ in gauge_idx], dtype=int)
    gauge_cols = np.array([j for _, j in gauge_idx], dtype=int)

    gauge_eta = np.empty((n_steps + 1, len(gauge_idx)))
    gauge_times = np.empty(n_steps + 1)
    mask_history: list = []
    fractions = np.empty(n_steps)

    def record_gauges(row: int, state: FlowState, bottom: BottomSample) -> None:
        gauge_times[row] = state.time
        if len(gauge_idx):
            gauge_eta[row] = (state.h.values[gauge_rows, gauge_cols]
                              - bottom.d[gauge_rows, gauge_cols])

    # one bottom sample per step: each step samples its new time and hands
    # the sample on to the gauges and the next step
    state = initial
    stepper = Stepper(grid, mode, criterion)
    bottom = spec.bathymetry.sample(grid.sample_nodes, state.time)
    record_gauges(0, state, bottom)

    # wall time covers the numerical step calls only; gauge reads and mask
    # bookkeeping are output collection and stay outside the timed section
    loop_time = 0.0
    for step in range(n_steps):
        t0 = _time.perf_counter()
        result = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs,
                               mode=mode, crit=criterion, bottom=bottom,
                               stepper=stepper)
        loop_time += _time.perf_counter() - t0
        state, bottom = result.state, result.bottom
        fractions[step] = result.mask.fraction
        if mode == "adaptive":
            mask_history.append((step, state.time, result.mask.ranges))
        record_gauges(step + 1, state, bottom)

    return RunResult(
        spec=spec,
        final_state=state,
        final_p=result.p_nh,
        final_mask=result.mask,
        gauge_times=gauge_times, gauge_eta=gauge_eta,
        mask_history=mask_history,
        mask_fraction_mean=float(fractions.mean()),
        loop_time=loop_time,
    )
