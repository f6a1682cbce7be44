"""Second-order RKDG predictor for the hydrostatic shallow water system.

The conserved triple (h, hu, hw) is advanced with Heun's two-stage scheme;
element coupling goes through Rusanov interface fluxes and the bottom slope
enters as the nodal source g*h*d_x.  The vertical momentum hw is advected
passively (no vertical source in the hydrostatic step).  A step packs the
triple into one node-by-node array, so each stage computes traces, wave
speeds and the three flux components in one pass rather than once per field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .bathymetry import GRAVITY, BathymetryModel, BottomSample
from .grid import FlowState, GridSpec, NodalField


class PositivityError(RuntimeError):
    """A field of the flow became unusable somewhere: the water column
    non-positive or non-finite (`field` "h"), or a momentum non-finite
    ("hu" or "hw").  `stage` is the Heun stage (1 or 2) whose update failed,
    None when a stage's input state was already at fault."""

    def __init__(self, element: int, time: float, stage: int | None = None,
                 field: str = "h"):
        what = ("non-positive or non-finite water depth" if field == "h"
                else f"non-finite {field}")
        where = "" if stage is None else f" in Heun stage {stage}"
        super().__init__(f"{what} in element {element} at t={time:.6g}{where}")
        self.element = element
        self.time = time
        self.stage = stage
        self.field = field


@dataclass(frozen=True)
class BoundaryCondition:
    """Ghost-state rule at a domain end: reflecting wall or zero-gradient outflow."""

    kind: str  # "wall" | "absorbing"

    def __post_init__(self):
        if self.kind not in ("wall", "absorbing"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        # the ghost rule as factors on (h, hu, hw), one row each
        signs = (1.0, -1.0, 1.0) if self.kind == "wall" else (1.0, 1.0, 1.0)
        object.__setattr__(self, "signs", np.array(signs).reshape(3, 1))


@dataclass(frozen=True)
class BoundaryPair:
    left: BoundaryCondition
    right: BoundaryCondition


WALL = BoundaryCondition("wall")
ABSORBING = BoundaryCondition("absorbing")


def _flux(q, u, g: float):
    """Physical flux (hu, hu u + g h^2 / 2, u hw) of states q = (h, hu, hw),
    stacked along the first axis, with velocity u."""
    f = q * u
    f[0] = q[1]
    f[1] += (0.5 * g) * q[0] * q[0]
    return f


def _rusanov(qL, qR, fL, fR, speed):
    """Rusanov interface flux from the states and physical fluxes on either
    side and the largest wave speed at the interface."""
    return 0.5 * ((fL + fR) - speed * (qR - qL))


def _speed(u, h, g: float):
    """Largest characteristic speed |u| + sqrt(g h)."""
    return np.abs(u) + np.sqrt(g * h)


def physical_flux(h: np.ndarray, hu: np.ndarray, hw: np.ndarray,
                  g: float = GRAVITY) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hu, hu^2/h + g h^2/2, hu*hw/h) for h > 0: the flux rhs_operator uses."""
    return tuple(_flux(np.stack((h, hu, hw)), hu / h, g))


def rusanov_flux(qL: np.ndarray, qR: np.ndarray,
                 g: float = GRAVITY) -> np.ndarray:
    """Central flux plus maximal-wavespeed dissipation, as in rhs_operator.

    qL, qR have shape (..., 3); returns the flux triple with matching shape.
    """
    qL, qR = np.moveaxis(qL, -1, 0), np.moveaxis(qR, -1, 0)
    uL, uR = qL[1] / qL[0], qR[1] / qR[0]
    speed = np.maximum(_speed(uL, qL[0], g), _speed(uR, qR[0], g))
    flux = _rusanov(qL, qR, _flux(qL, uL, g), _flux(qR, uR, g), speed)
    return np.moveaxis(flux, 0, -1)


def _step_faces(q: np.ndarray, faces: np.ndarray, d: np.ndarray, interfaces,
                g: float) -> None:
    """Write into `faces` the hydrostatic-reconstruction fluxes received on
    either side of each of the element `interfaces` where the bottom depth
    `d`, sampled at the element nodes, jumps.

    Interface k lies between elements k - 1 and k, which are the padded
    elements k and k + 1 of the state `q`.  Where its two bottom edges
    agree, the plain flux already in `faces` stands.  Both traces are remeasured from the higher bottom edge: depths
    and vertical momenta shrink, velocities stay.  The two sides receive the
    Rusanov flux (`_flux`, `_speed`, `_rusanov`) of the remeasured traces,
    each shifted by the pressure on its own exposed bottom step.  A model
    declares few jumps, so they are taken one by one in plain floats: ~3.5 us
    a jump, where one numpy pass over all of them costs ~50 us in its
    thirty-odd calls.
    """
    half_g = 0.5 * g
    for k in interfaces:
        dL, dR = float(d[k - 1, -1]), float(d[k, 0])
        if dL == dR:
            continue
        low = min(dL, dR)
        dL, dR = dL - low, dR - low
        hL, huL, hwL = q[:, -1, k].tolist()
        hR, huR, hwR = q[:, 0, k + 1].tolist()
        uL, uR = huL / hL, huR / hR
        hsL, hsR = hL - dL, hR - dR
        hsL = 0.0 if hsL < 0.0 else hsL
        hsR = 0.0 if hsR < 0.0 else hsR
        mL, mR = hsL * uL, hsR * uR
        wL, wR = (hsL / hL) * hwL, (hsR / hR) * hwR
        speed = max(abs(uL) + sqrt(g * hsL), abs(uR) + sqrt(g * hsR))
        f0 = 0.5 * ((mL + mR) - speed * (hsR - hsL))
        f1 = 0.5 * (((mL * uL + (half_g * hsL) * hsL) + (mR * uR + (half_g * hsR) * hsR))
                    - speed * (mR - mL))
        f2 = 0.5 * ((wL * uL + wR * uR) - speed * (wR - wL))
        faces[:, 1, k - 1] = f0, f1 + half_g * (hL * hL - hsL * hsL), f2
        faces[:, 0, k] = f0, f1 + half_g * (hR * hR - hsR * hsR), f2


def rhs_operator(q: np.ndarray, t: float, grid: GridSpec, bottom: BottomSample,
                 jumps, bcs: BoundaryPair,
                 g: float = GRAVITY) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete tendency of the packed state at time t, over the bottom
    `bottom` sampled at the grid's sample nodes at that time.

    `q` holds (h, hu, hw) node by node, shape (3, nodes, n_elements + 2):
    the grid's elements plus one ghost element at each end, which is filled
    here from the boundary conditions.  Laid out this way, the traces on
    either side of all interfaces are contiguous rows.  Returns the tendency
    of the grid's elements, shape (3, nodes, n_elements), and the largest
    characteristic speed |u| + sqrt(g h) at every node of q.

    Interface fluxes are plain Rusanov fluxes, except at the interfaces
    nearest the positions `jumps` where the model declares that its bottom
    may jump (`BathymetryModel.jumps`).  Where the sampled bottom does jump
    there, the fluxes use hydrostatic reconstruction (`_step_faces`): both
    trace depths are remeasured from the higher bottom edge before the
    Riemann solve, and the momentum flux each side receives is shifted by
    the pressure acting on the exposed bottom step.  This keeps still water
    exactly still while letting a surface offset across the step radiate.
    """
    h = q[0, :, 1:-1]
    if h.min() <= 0.0:
        el = int(np.argwhere(np.any(h <= 0.0, axis=0))[0][0])
        raise PositivityError(el, t)
    np.multiply(q[:, 0, 1:2], bcs.left.signs, out=q[:, :, 0])
    np.multiply(q[:, -1, -2:-1], bcs.right.signs, out=q[:, :, -1])

    u = q[1] / q[0]
    f = _flux(q, u, g)
    speed = _speed(u, q[0], g)
    # interface i lies between padded elements i and i + 1; the bottom is
    # continuous across the two domain ends
    face = _rusanov(q[:, -1, :-1], q[:, 0, 1:], f[:, -1, :-1], f[:, 0, 1:],
                    np.maximum(speed[-1, :-1], speed[0, 1:]))

    n = h.shape[1]
    # the flux through the left and the right face of each element
    faces = np.empty((3, 2, n))
    faces[:, 0] = face[:, :-1]
    faces[:, 1] = face[:, 1:]
    _step_faces(q, faces, bottom.d, grid.interfaces_near(jumps), g)

    tend = grid.weak_div @ f[:, :, 1:-1]
    tend += grid.lift @ faces
    if "d_x" in bottom.active:
        tend[1] += (g * h) * bottom.d_x.T
    return tend, speed


def heun_step(state: FlowState, dt: float, bathy: BathymetryModel,
              bcs: BoundaryPair, g: float = GRAVITY, cfl_warn: bool = True,
              bottoms: tuple[BottomSample, BottomSample] | None = None) -> FlowState:
    """One predictor step: forward Euler stage then trapezoidal average.

    `bottoms` are the bottom samples at the grid's sample nodes at the
    step's start and end, when the caller holds them; otherwise both are
    taken here.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    new_time = state.time + dt
    if bottoms is None:
        bottoms = (bathy.sample(grid.sample_nodes, state.time),
                   bathy.sample(grid.sample_nodes, new_time))
    q = np.empty((3, grid.poly_order + 1, grid.n_elements + 2))
    q[0, :, 1:-1] = state.h.values.T
    q[1, :, 1:-1] = state.hu.values.T
    q[2, :, 1:-1] = state.hw.values.T
    k1, speed = rhs_operator(q, state.time, grid, bottoms[0], bathy.jumps(state.time),
                             bcs, g)
    if cfl_warn:
        cfl = float(speed[:, 1:-1].max()) * dt / grid.dx
        if cfl > 1.0:
            warnings.warn(f"advisory CFL number {cfl:.3f} exceeds 1 at t={state.time:.6g}",
                          RuntimeWarning, stacklevel=2)
    star = np.empty_like(q)
    _advance(q, k1, dt, new_time, 1, out=star[:, :, 1:-1])
    k2, _ = rhs_operator(star, new_time, grid, bottoms[1], bathy.jumps(new_time), bcs, g)
    k1 += k2
    _advance(q, k1, 0.5 * dt, new_time, 2, out=k1)
    # the fields are (element, node) views of the node-by-node result
    return FlowState._wrap(NodalField._wrap(grid, k1[0].T), NodalField._wrap(grid, k1[1].T),
                           NodalField._wrap(grid, k1[2].T), new_time, nodes=k1)


def _advance(q: np.ndarray, tend: np.ndarray, dt: float, new_time: float,
             stage: int, out: np.ndarray) -> np.ndarray:
    """out = grid elements of q + dt * tend, checked for positive depth and
    finite fields; `out` may be `tend` itself."""
    np.multiply(tend, dt, out=out)
    out += q[:, :, 1:-1]
    # `not >` also trips on NaN, and a finite sum certifies every field finite
    if not (out[0].min() > 0.0 and isfinite(out.sum())):
        raise _stage_error(q[:, :, 1:-1], out, new_time, stage)
    return out


def _stage_error(state: np.ndarray, out: np.ndarray, new_time: float,
                 stage: int) -> PositivityError:
    """The failure of the stage update `out` of the packed grid `state`: the
    first field, and its first element, that is non-finite in the state,
    else in the update, where h must also be positive.  The state is looked
    at first because a NaN in hu reaches h within one stage.  In the update,
    magnitudes that could overflow the finite sum count as non-finite."""
    limit = np.finfo(float).max / out.size
    for values, bound in ((state, np.inf), (out, limit)):
        for field, v in zip(("h", "hu", "hw"), values):
            bad = ~(np.abs(v) < bound)
            if field == "h" and values is out:
                bad |= ~(v > 0.0)
            if bad.any():
                return PositivityError(int(np.flatnonzero(bad.any(axis=0))[0]),
                                       new_time, stage, field)
    raise AssertionError("stage check failed on a valid update")
