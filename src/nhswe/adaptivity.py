"""Adaptive selection of the elements receiving the pressure correction.

Six predictor-based indicators are supported; an element is flagged when the
maximum nodal value of the indicator exceeds the threshold k_nh.  The flags
make a corrector.NonHydroMask, whose maximal contiguous ranges are each
solved as an independent elliptic problem; the step hands the mask itself
to the correction.  An optional enlargement grows the flagged set by one
element on each side, which removes isolated single-element ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bathymetry import BathymetryModel, BottomSample
from .corrector import BandedWorkspace, NonHydroMask, PressureSolution, apply_correction
from .grid import FlowState, GridSpec, NodalField, carve, carved_size, derivative_values
from .hydrostatic import BoundaryPair, StageBuffers, heun_step

MODES = ("hydrostatic", "global", "adaptive")

CRITERION_KINDS = ("eta_over_d", "eta_x", "u", "u_x", "w", "w_x")

DEFAULT_THRESHOLD = 0.001


@dataclass(frozen=True)
class Criterion:
    """Indicator kind, threshold and the one-element enlargement switch.

    All six indicators are compared against the same numeric threshold even
    though their physical units differ (ratios and slopes are dimensionless,
    velocities are m/s).
    """

    kind: str
    k_nh: float = DEFAULT_THRESHOLD
    enlarge: bool = False

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if not 0 < self.k_nh < np.inf:
            raise ValueError("threshold k_nh must be positive and finite")


def criterion_values(predictor: FlowState, bottom: BottomSample, kind: str,
                     buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Nodal values of one indicator, from the predictor state and the
    bottom sampled at the grid's sample nodes at its time.  They are
    written into `buffers`, two contiguous arrays of the grid's
    (elements, nodes) size, where they are given."""
    if kind not in CRITERION_KINDS:
        raise ValueError(f"unknown criterion kind {kind!r}")
    grid = predictor.grid
    h = predictor.h.values
    values, derivative = (np.empty(h.shape), np.empty(h.shape)) if buffers is None else buffers
    if kind == "eta_over_d":
        # node by node, so that the reduction over an element's nodes in
        # evaluate_criterion runs along contiguous rows
        d = bottom.d.T
        values = np.subtract(h.T, d, out=values.reshape(d.shape))
        values /= d
        return np.abs(values, out=values).T
    if kind == "eta_x":
        np.subtract(h, bottom.d, out=values)
    else:
        momentum = predictor.hu if kind in ("u", "u_x") else predictor.hw
        np.divide(momentum.values, h, out=values)
    if kind.endswith("_x"):
        values = derivative_values(grid, values, out=derivative)
    return np.abs(values, out=values)


def enlarge_flags(flags: np.ndarray) -> np.ndarray:
    """Dilate the flagged set by one element on each side, clipped to the domain."""
    grown = flags.copy()
    grown[:-1] |= flags[1:]
    grown[1:] |= flags[:-1]
    return grown


def evaluate_criterion(predictor: FlowState, bottom: BottomSample, crit: Criterion,
                       buffers: tuple[np.ndarray, np.ndarray] | None = None) -> NonHydroMask:
    """The mask of the elements whose largest nodal indicator value exceeds
    the threshold; the values are written into `buffers` where they are
    given (see criterion_values)."""
    values = criterion_values(predictor, bottom, crit.kind, buffers)
    # the largest nodal value of each element, reduced node column by node
    # column: numpy reduces over a short inner axis one element at a time
    flags = reduce(np.maximum, values.T) > crit.k_nh
    if crit.enlarge:
        flags = enlarge_flags(flags)
    return NonHydroMask.from_flags(flags)


class Stepper:
    """Everything the steps of one run write and no caller keeps.

    Built once per run from the grid, the mode and the criterion.  It owns
    one workspace, `block`, a float64 block sized for whichever of its users
    needs more.  The predictor's stage buffers (`stages`) are carved from
    it, and so are the criterion's nodal values (`criterion_buffers`) and
    the corrector's scratch (`banded`, none in hydrostatic mode).  They take
    turns: `heun_step` returns before the criterion runs, and the criterion
    before the correction starts.  The stepper also holds the masks that
    flag no element and every element, which every step of a mode that uses
    them returns, so a global run builds its mask once.  Everything
    else a step returns is its own and views no part of the block, so no
    later step writes it: the new state, the bottom sample, a criterion's
    mask and the solution.  The one exception holds no
    value of a state: every step fills the ghost elements of its input
    state's padded array (`FlowState.packed`), a run's initial state too.
    """

    def __init__(self, grid: GridSpec, mode: str, crit: Criterion | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "adaptive" and crit is None:
            raise ValueError("adaptive mode requires a criterion")
        m, n = grid.poly_order + 1, grid.n_elements
        self.grid, self.mode, self.crit = grid, mode, crit
        criterion = [grid.nodes.shape] * 2
        users = [StageBuffers.shapes(grid), criterion]
        if mode != "hydrostatic":
            users.append(BandedWorkspace.shapes(m, n))
        (self.block,) = carve([(max(map(carved_size, users)),)])
        self.stages = StageBuffers(grid, self.block)
        self.criterion_buffers = carve(criterion, self.block)
        self.banded = None if mode == "hydrostatic" else BandedWorkspace(m, n, self.block)
        self.flag_none = NonHydroMask.from_flags(np.zeros(n, dtype=bool))
        self.flag_all = NonHydroMask.from_flags(np.ones(n, dtype=bool))


@dataclass(frozen=True)
class StepResult:
    """A step's new state, its mask and pressure, and the bottom sampled at
    the grid's sample nodes at the new time, for the next step to reuse."""

    state: FlowState
    mask: NonHydroMask
    solution: PressureSolution | None
    bottom: BottomSample

    @property
    def p_nh(self) -> NodalField | None:
        """The step's pressure on the whole grid; None when nothing was corrected."""
        return None if self.solution is None else self.solution.p_nh

    @classmethod
    def _of(cls, state: FlowState, mask: NonHydroMask, solution: PressureSolution | None,
            bottom: BottomSample) -> StepResult:
        """The result of a step; one is made every step, so it skips the
        frozen __init__, as `corrector.NonHydroMask._of` does."""
        result = object.__new__(cls)
        result.__dict__.update(state=state, mask=mask, solution=solution, bottom=bottom)
        return result


def adaptive_step(state: FlowState, dt: float, bathy: BathymetryModel,
                  bcs: BoundaryPair, mode: str = "adaptive",
                  crit: Criterion | None = None,
                  bottom: BottomSample | None = None,
                  stepper: Stepper | None = None) -> StepResult:
    """One full time step: hydrostatic predictor, then optional correction.

    Modes: "hydrostatic" (predictor only), "global" (correct everywhere) and
    "adaptive" (correct on the criterion-flagged ranges).  A vertical-velocity
    criterion applied to a state with identically zero vertical momentum falls
    back to a global correction for that step, so the indicator can activate.

    `bottom` is the bottom at the grid's sample nodes at the state's time,
    as the previous step's result carries it; without it the step samples
    it.  The step samples the bottom once at its new time; the predictor's
    second stage, the criterion and the correction all read that sample,
    and the result carries it on.  `stepper` is the run's, built for the
    state's grid, `mode` and `crit`; without it the step builds its own.
    """
    if stepper is None:
        stepper = Stepper(state.grid, mode, crit)
    elif (stepper.grid, stepper.mode, stepper.crit) != (state.grid, mode, crit):
        raise ValueError("the stepper was built for another grid, mode or criterion")
    grid = state.grid
    if bottom is None:
        bottom = bathy.sample(grid.sample_nodes, state.time)
    new_bottom = bathy.sample(grid.sample_nodes, state.time + dt)
    predictor = heun_step(state, dt, bathy, bcs, bottoms=(bottom, new_bottom),
                          buffers=stepper.stages)

    if mode == "hydrostatic":
        return StepResult._of(predictor, stepper.flag_none, None, new_bottom)

    if mode == "global" or (crit.kind in ("w", "w_x") and not np.any(state.hw.values)):
        mask = stepper.flag_all
    else:
        mask = evaluate_criterion(predictor, new_bottom, crit, stepper.criterion_buffers)

    if mask.empty:
        return StepResult._of(predictor, mask, None, new_bottom)

    corrected, sol = apply_correction(predictor, new_bottom, dt, mask, bcs,
                                      workspace=stepper.banded)
    return StepResult._of(corrected, mask, sol, new_bottom)
