"""Time-stepping driver: runs a scenario to completion and collects outputs."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .adaptivity import Criterion, NonHydroMask, adaptive_step
from .bathymetry import BottomSample
from .grid import FlowState, NodalField
from .scenarios import ScenarioSpec


@dataclass
class RunResult:
    spec: ScenarioSpec
    mode: str
    criterion: Criterion | None
    final_state: FlowState
    final_p: NodalField | None
    final_mask: NonHydroMask | None
    gauge_times: np.ndarray          # (n_steps + 1,)
    gauge_eta: np.ndarray            # (n_steps + 1, n_gauges)
    mask_history: list               # (step, t, ranges) per step
    mask_fraction_mean: float
    loop_time: float

    def config_echo(self) -> dict:
        grid = self.spec.grid
        crit = self.criterion
        return {
            "scenario": self.spec.name,
            "mode": self.mode,
            "criterion": crit.kind if crit else None,
            "k_nh": crit.k_nh if crit else None,
            "enlarge": crit.enlarge if crit else None,
            "dt": self.spec.dt,
            "t_end": self.spec.t_end,
            "n_elements": grid.n_elements,
            "poly_order": grid.poly_order,
            "x_left": grid.x_left,
            "x_right": grid.x_right,
            "gauges": list(self.spec.gauges),
        }


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
    bottom = spec.bathymetry.sample(grid.sample_nodes, state.time)
    record_gauges(0, state, bottom)
    result = None

    # wall time covers the numerical step calls only; gauge reads and mask
    # bookkeeping are output collection and stay outside the timed section
    loop_time = 0.0
    for step in range(n_steps):
        t0 = _time.perf_counter()
        result = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs,
                               mode=mode, crit=criterion, bottom=bottom)
        loop_time += _time.perf_counter() - t0
        state, bottom = result.state, result.bottom
        fractions[step] = result.mask.fraction
        if mode == "adaptive":
            mask_history.append((step, state.time, result.mask.ranges))
        record_gauges(step + 1, state, bottom)

    return RunResult(
        spec=spec, mode=mode, criterion=criterion,
        final_state=state,
        final_p=None if result is None else result.p_nh,
        final_mask=None if result is None else result.mask,
        gauge_times=gauge_times, gauge_eta=gauge_eta,
        mask_history=mask_history,
        mask_fraction_mean=float(fractions.mean()) if n_steps else 0.0,
        loop_time=loop_time,
    )
