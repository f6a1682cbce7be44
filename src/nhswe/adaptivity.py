"""Adaptive selection of the elements receiving the pressure correction.

Six predictor-based indicators are supported; an element is flagged when the
maximum nodal value of the indicator exceeds the threshold k_nh.  Flagged
elements are decomposed into maximal contiguous ranges, each solved as an
independent elliptic problem.  An optional enlargement grows the flagged set
by one element on each side, which removes isolated single-element ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bathymetry import BathymetryModel, BottomSample
from .corrector import PressureSolution, apply_correction
from .grid import FlowState, NodalField, derivative_values
from .hydrostatic import BoundaryPair, heun_step

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
        if self.k_nh <= 0:
            raise ValueError("threshold k_nh must be positive")


@dataclass(frozen=True)
class NonHydroMask:
    """Per-element flags plus their decomposition into contiguous ranges."""

    flags: np.ndarray
    ranges: tuple[tuple[int, int], ...]

    @classmethod
    def from_flags(cls, flags: np.ndarray) -> "NonHydroMask":
        flags = np.asarray(flags, dtype=bool)
        return cls(flags, contiguous_ranges(flags))

    @property
    def empty(self) -> bool:
        return not self.ranges

    @property
    def fraction(self) -> float:
        return np.count_nonzero(self.flags) / self.flags.size


def contiguous_ranges(flags: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximal runs of True as (first, last) inclusive index pairs."""
    if not len(flags):
        return ()
    # a run starts after each rise and ends at each fall of the flags
    edges = (np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist()
    if flags[0]:
        edges.insert(0, 0)
    if flags[-1]:
        edges.append(len(flags))
    return tuple(zip(edges[::2], [b - 1 for b in edges[1::2]]))


def criterion_values(predictor: FlowState, bottom: BottomSample,
                     kind: str) -> np.ndarray:
    """Nodal values of one indicator, from the predictor state and the
    bottom sampled at the grid's sample nodes at its time."""
    grid = predictor.grid
    h = predictor.h.values
    if kind == "eta_over_d":
        # node by node, so that the reduction over an element's nodes in
        # evaluate_criterion runs along contiguous rows
        d = bottom.d.T
        values = h.T - d
        values /= d
        return np.abs(values, out=values).T
    if kind == "eta_x":
        return np.abs(derivative_values(grid, h - bottom.d))
    u = predictor.hu.values / h
    if kind == "u":
        return np.abs(u)
    if kind == "u_x":
        return np.abs(derivative_values(grid, u))
    w = predictor.hw.values / h
    if kind == "w":
        return np.abs(w)
    if kind == "w_x":
        return np.abs(derivative_values(grid, w))
    raise ValueError(f"unknown criterion kind {kind!r}")


def enlarge_flags(flags: np.ndarray) -> np.ndarray:
    """Dilate the flagged set by one element on each side, clipped to the domain."""
    grown = flags.copy()
    grown[:-1] |= flags[1:]
    grown[1:] |= flags[:-1]
    return grown


def evaluate_criterion(predictor: FlowState, bottom: BottomSample,
                       crit: Criterion) -> NonHydroMask:
    values = criterion_values(predictor, bottom, crit.kind)
    # the largest nodal value of each element, reduced node column by node
    # column: numpy reduces over a short inner axis one element at a time
    flags = reduce(np.maximum, values.T) > crit.k_nh
    if crit.enlarge:
        flags = enlarge_flags(flags)
    return NonHydroMask.from_flags(flags)


def full_mask(n_elements: int) -> NonHydroMask:
    return NonHydroMask(np.ones(n_elements, dtype=bool), ((0, n_elements - 1),))


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


def adaptive_step(state: FlowState, dt: float, bathy: BathymetryModel,
                  bcs: BoundaryPair, mode: str = "adaptive",
                  crit: Criterion | None = None,
                  bottom: BottomSample | None = None) -> StepResult:
    """One full time step: hydrostatic predictor, then optional correction.

    Modes: "hydrostatic" (predictor only), "global" (correct everywhere) and
    "adaptive" (correct on the criterion-flagged ranges).  A vertical-velocity
    criterion applied to a state with identically zero vertical momentum falls
    back to a global correction for that step, so the indicator can activate.

    `bottom` is the bottom at the grid's sample nodes at the state's time,
    as the previous step's result carries it; without it the step samples
    it.  The step samples the bottom once at its new time; the predictor's
    second stage, the criterion and the correction all read that sample,
    and the result carries it on.
    """
    if mode not in ("hydrostatic", "global", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    grid = state.grid
    n = grid.n_elements
    if bottom is None:
        bottom = bathy.sample(grid.sample_nodes, state.time)
    new_bottom = bathy.sample(grid.sample_nodes, state.time + dt)
    predictor = heun_step(state, dt, bathy, bcs, bottoms=(bottom, new_bottom))

    if mode == "hydrostatic":
        return StepResult(predictor, NonHydroMask(np.zeros(n, dtype=bool), ()), None,
                          new_bottom)

    if mode == "global":
        mask = full_mask(n)
    else:
        if crit is None:
            raise ValueError("adaptive mode requires a criterion")
        if crit.kind in ("w", "w_x") and not np.any(state.hw.values):
            mask = full_mask(n)
        else:
            mask = evaluate_criterion(predictor, new_bottom, crit)

    if mask.empty:
        return StepResult(predictor, mask, None, new_bottom)

    corrected, sol = apply_correction(predictor, new_bottom, dt, mask.ranges, bcs)
    return StepResult(corrected, mask, sol, new_bottom)
