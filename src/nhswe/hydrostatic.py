"""Second-order RKDG predictor for the hydrostatic shallow water system.

The conserved triple (h, hu, hw) is advanced with Heun's two-stage scheme;
element coupling goes through Rusanov interface fluxes and the bottom slope
enters as the nodal source g*h*d_x.  The vertical momentum hw is advected
passively (no vertical source in the hydrostatic step).  A step works on the
triple packed into one node-by-node array, so each stage computes traces,
wave speeds and the three flux components in one pass rather than once per
field.  Every state owns such an array (`FlowState.packed`), which the step
reads in place, and the state it returns owns a fresh one; every stage
temporary is one of the run's StageBuffers, written with `out=`, and every
fixed slice of them is made once per run, when they are carved.  So a step
allocates nothing else of the grid's size, and slices only its states.  A
stage writes the nodal fluxes and the unhalved flux through each element's
two faces into one operand, and its tendency is one matmul of the element
operator [W | lift / 2] (`GridSpec.element_operator`) over it, plus the
bottom source.  The tendencies are padded like the states, with zero ghost
columns, so a stage update, its checks and the CFL number are passes over
whole contiguous arrays, not over strided grid columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .bathymetry import GRAVITY, BathymetryModel, BottomSample
from .grid import FlowState, GridSpec, carve


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


def _flux(q, u, out=None, scratch=None):
    """Physical flux (hu, hu u + g h^2 / 2, u hw) of states q = (h, hu, hw),
    stacked along the first axis, with velocity u; written into `out`, with
    `scratch` shaped as u for g h^2 / 2, where they are given."""
    f = np.empty(np.shape(q)) if out is None else out
    f[0] = q[1]
    np.multiply(q[1:], u, out=f[1:])
    pressure = np.multiply(q[0], 0.5 * GRAVITY, out=scratch)
    pressure *= q[0]
    f[1] += pressure
    return f


def _rusanov(qL, qR, fL, fR, speed, out=None, scratch=None):
    """Twice the Rusanov interface flux, fL + fR - speed (qR - qL), from the
    states and physical fluxes on either side and the largest wave speed at
    the interface; written into `out`, with `scratch` shaped as qL for the
    state jump, where they are given.  The halving is left to the element
    operator (`GridSpec.element_operator`), where it is exact."""
    face = np.add(fL, fR, out=out)
    jump = np.subtract(qR, qL, out=scratch)
    jump *= speed
    face -= jump
    return face


def _speed(u, h, out=None, scratch=None):
    """Largest characteristic speed |u| + sqrt(g h); written into `out`,
    with `scratch` for |u|, where they are given.  `scratch` may be u
    itself, which then holds |u|."""
    speed = np.sqrt(np.multiply(h, GRAVITY, out=out), out=out)
    speed += np.abs(u, out=scratch)
    return speed


class StageBuffers:
    """The arrays a predictor step writes and no caller keeps, for one grid:
    rhs_operator's stage temporaries, among them the `operand` of its
    element operator, the two stage tendencies `k1` and `k2`, and the first
    stage's padded state `star`.  The tendencies are padded like `star`,
    shape (3, m, n_elements + 2): a stage writes its tendency into the grid
    columns (`k1_grid`, `k2_grid`), and `heun_step` zeroes the two ghost
    columns (`k1_ghosts`, `k2_ghosts`, one strided view each) every step,
    so that a stage update runs over whole padded arrays.

    `operand`, shape (3, m + 2, n_elements + 2), holds per padded element
    the physical flux at its m nodes (rows 0 to m - 1), then twice the flux
    through its left face (row m) and through its right face (row m + 1).
    One matmul of `GridSpec.element_operator` over its grid columns is the
    whole tendency but the bottom source.

    The fixed slices a stage takes of them are made here, once per run, and
    held beside them: the operand's flux rows (`flux`), their two traces
    (`flux_out`, `flux_in`), the face rows an interface flux is written
    into (`face_in`) and copied from (`face_next`, into `face_out`), its
    grid columns (`columns`), the two trace rows of the speed (`speed_out`,
    `speed_in`), the scratch columns of the bottom source (`source`) and
    the tendencies' grid and ghost columns.  `carved` lists the carved
    buffers alone.  Only the views of a stage's state are taken per call,
    since the first stage reads the step's own.

    They are carved from `block` (see `carve`), the run's workspace, which
    the correction reuses once the step has returned: nothing the step
    returns views them, and nothing in them outlives the step.  Without a
    block the set carves a fresh one of its own, as `heun_step` does when
    it is given no buffers.
    """

    def __init__(self, grid: GridSpec, block: np.ndarray | None = None):
        self.carved = carve(self.shapes(grid), block)
        (self.u, self.speed, self.scratch, self.operand, self.face_speed, self.jump,
         self.k1, self.k2, self.star) = self.carved
        operand, speed = self.operand, self.speed
        self.flux = flux = operand[:, :-2]
        self.flux_out, self.flux_in = flux[:, -1, :-1], flux[:, 0, 1:]
        self.face_in = operand[:, -2, 1:]
        self.face_out, self.face_next = operand[:, -1, 1:-1], operand[:, -2, 2:]
        self.columns = operand[:, :, 1:-1]
        self.speed_out, self.speed_in = speed[-1, :-1], speed[0, 1:]
        self.source = self.scratch[:, 1:-1]
        # a padded row's two ghost columns, its first and last entries, are
        # one stride of n + 1 apart in the rows laid end to end
        stride = grid.n_elements + 1
        self.k1_grid, self.k2_grid = self.k1[:, :, 1:-1], self.k2[:, :, 1:-1]
        self.k1_ghosts = self.k1.reshape(-1, stride + 1)[:, ::stride]
        self.k2_ghosts = self.k2.reshape(-1, stride + 1)[:, ::stride]

    @staticmethod
    def shapes(grid: GridSpec) -> list[tuple[int, ...]]:
        """The shapes of the buffers, in the order they are carved; the
        scratch holds g h^2 / 2 of the flux, then g h d_x of the bottom
        source."""
        m, n = grid.poly_order + 1, grid.n_elements
        padded = (m, n + 2)
        state = (3,) + padded
        return [padded, padded, padded, (3, m + 2, n + 2), (n + 1,), (3, n + 1),
                state, state, state]


def _step_faces(q: np.ndarray, operand: np.ndarray, d: np.ndarray, interfaces) -> None:
    """Write into the face rows of the element operand (`StageBuffers`) the
    hydrostatic-reconstruction fluxes received on either side of each of the
    element `interfaces` where the bottom depth `d`, sampled at the element
    nodes, jumps; unhalved, as the operand holds every face flux.

    Interface k lies between elements k - 1 and k, which are the padded
    elements k and k + 1 of the state `q`; the flux it passes is the right
    face row (the last) of padded element k and the left face row (the one
    before) of padded element k + 1.  Where its two bottom edges agree, the
    plain flux already in the operand stands.  Both traces are remeasured
    from the higher bottom edge: depths and vertical momenta shrink,
    velocities stay.  The two sides receive the Rusanov flux of the
    remeasured traces, each shifted by the pressure on its own exposed
    bottom step.  A model declares few jumps, so they are taken one by one
    in plain floats: ~3.5 us a jump, where one numpy pass over all of them
    costs ~50 us in its thirty-odd calls.
    """
    g, half_g = GRAVITY, 0.5 * GRAVITY
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
        f0 = (mL + mR) - speed * (hsR - hsL)
        f1 = (((mL * uL + (half_g * hsL) * hsL) + (mR * uR + (half_g * hsR) * hsR))
              - speed * (mR - mL))
        f2 = (wL * uL + wR * uR) - speed * (wR - wL)
        operand[:, -1, k] = f0, f1 + g * (hL * hL - hsL * hsL), f2
        operand[:, -2, k + 1] = f0, f1 + g * (hR * hR - hsR * hsR), f2


def rhs_operator(q: np.ndarray, t: float, grid: GridSpec, bottom: BottomSample,
                 jumps, bcs: BoundaryPair, buffers: StageBuffers,
                 out: np.ndarray) -> np.ndarray:
    """Semi-discrete tendency of the packed state at time t, over the bottom
    `bottom` sampled at the grid's sample nodes at that time.

    `q` holds (h, hu, hw) node by node, shape (3, nodes, n_elements + 2):
    the grid's elements plus one ghost element at each end, which is filled
    here from the boundary conditions.  Laid out this way, the traces on
    either side of all interfaces are contiguous rows.  Its depth must be
    positive on the grid's elements, which `heun_step` checks of a step's
    input and `_advance` of each stage's update.  The tendency of the
    grid's elements, shape (3, nodes, n_elements), is written into `out`;
    every temporary is one of `buffers`.  Returns the tendency; the largest
    characteristic speed |u| + sqrt(g h) at every node of q is left in
    `buffers.speed`, which the next call overwrites.

    The physical flux and, unhalved, the flux through each element's two
    faces are written into one operand (`StageBuffers.operand`), and one
    matmul of the element operator [W | lift / 2] (`GridSpec.element_operator`)
    writes the tendency from it; only the bottom source is added after.

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
    np.multiply(q[:, 0, 1:2], bcs.left.signs, out=q[:, :, 0])
    np.multiply(q[:, -1, -2:-1], bcs.right.signs, out=q[:, :, -1])

    b = buffers
    u = np.divide(q[1], q[0], out=b.u)
    _flux(q, u, b.flux, b.scratch)
    _speed(u, q[0], b.speed, scratch=u)
    # interface i lies between padded elements i and i + 1, and its flux is
    # the left face row of element i + 1 and the right face row of element
    # i; the bottom is continuous across the two domain ends
    _rusanov(q[:, -1, :-1], q[:, 0, 1:], b.flux_out, b.flux_in,
             np.maximum(b.speed_out, b.speed_in, out=b.face_speed), b.face_in, b.jump)
    b.face_out[...] = b.face_next
    if jumps:
        _step_faces(q, b.operand, bottom.d, grid.interfaces_near(jumps))

    tend = np.matmul(grid.element_operator, b.columns, out=out)
    if "d_x" in bottom.active:
        source = np.multiply(h, GRAVITY, out=b.source)
        source *= bottom.d_x.T
        tend[1] += source
    return tend


def heun_step(state: FlowState, dt: float, bathy: BathymetryModel,
              bcs: BoundaryPair,
              bottoms: tuple[BottomSample, BottomSample] | None = None,
              buffers: StageBuffers | None = None) -> FlowState:
    """One predictor step: forward Euler stage then trapezoidal average.

    `bottoms` are the bottom samples at the grid's sample nodes at the
    step's start and end, when the caller holds them; otherwise both are
    taken here.  `buffers` are the run's stage buffers; without them the
    step builds its own.  The new state owns a fresh padded array, which
    the next step reads in place.  Warns when the advisory CFL number of
    the step's first stage, max(|u| + sqrt(g h)) dt / dx, exceeds
    1 / (2p + 1).  That is the linear stability limit of degree-p RKDG
    with an RK scheme of order p + 1 (Cockburn & Shu 2001), so it is
    Heun's own limit only for linear elements, 1/3.  For p >= 2 Heun's
    scheme has no stable Courant number, and the limit is a guide only.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    if buffers is None:
        buffers = StageBuffers(grid)
    new_time = state.time + dt
    if bottoms is None:
        bottoms = (bathy.sample(grid.sample_nodes, state.time),
                   bathy.sample(grid.sample_nodes, new_time))
    q = state.packed
    # the one depth check a step needs: each stage's update is checked as
    # it is made, so only the step's input, which a trusted constructor
    # may have let through, is left
    h = q[0, :, 1:-1]
    if h.min() <= 0.0:
        raise PositivityError(int(np.argwhere(np.any(h <= 0.0, axis=0))[0][0]), state.time)
    # the run's workspace is reused between steps, so each tendency's ghost
    # columns are zeroed before its stage; an update's ghost columns then
    # keep those of q, which the first stage filled from the boundaries
    k1, k2 = buffers.k1, buffers.k2
    buffers.k1_ghosts[...] = 0.0
    rhs_operator(q, state.time, grid, bottoms[0], bathy.jumps(state.time), bcs,
                 buffers, buffers.k1_grid)
    # over the speeds the first stage left in its buffer; a ghost node's
    # speed is that of the boundary node it mirrors
    cfl = float(buffers.speed.max()) * dt / grid.dx
    limit = 1.0 / (2 * grid.poly_order + 1)
    if cfl > limit:
        warnings.warn(f"advisory CFL number {cfl:.3f} exceeds the stability limit "
                      f"{limit:.3f} of degree-{grid.poly_order} RKDG at t={state.time:.6g}",
                      RuntimeWarning, stacklevel=2)
    _advance(q, k1, dt, new_time, 1, out=buffers.star)
    buffers.k2_ghosts[...] = 0.0
    rhs_operator(buffers.star, new_time, grid, bottoms[1], bathy.jumps(new_time), bcs,
                 buffers, buffers.k2_grid)
    k1 += k2
    new = np.empty(q.shape)
    _advance(q, k1, 0.5 * dt, new_time, 2, out=new)
    return FlowState._from_packed(grid, new, new_time)


def _advance(q: np.ndarray, tend: np.ndarray, dt: float, new_time: float,
             stage: int, out: np.ndarray) -> np.ndarray:
    """out = q + dt * tend over whole padded arrays, checked for positive
    depth and finite fields.  `tend` is zero on the ghost columns, so those
    of `out` are q's, mirrors of q's boundary nodes that the first stage
    filled: they pass the checks exactly when those nodes do."""
    np.multiply(tend, dt, out=out)
    out += q
    # `not >` also trips on NaN, and a finite sum certifies every field finite
    if not (out[0].min() > 0.0 and isfinite(out.sum())):
        raise _stage_error(q, out, new_time, stage)
    return out


def _stage_error(state: np.ndarray, out: np.ndarray, new_time: float,
                 stage: int) -> PositivityError:
    """The failure of the stage update `out` of the padded state `state`:
    the first field, and its first element, that is non-finite in the
    state's grid columns, else in the update's, where h must also be
    positive.  The state is looked at first because a NaN in hu reaches h
    within one stage.  In the update, magnitudes that could overflow the
    finite sum, taken over the whole of `out`, count as non-finite."""
    limit = np.finfo(float).max / out.size
    state, out = state[:, :, 1:-1], out[:, :, 1:-1]
    for values, bound in ((state, np.inf), (out, limit)):
        for field, v in zip(("h", "hu", "hw"), values):
            bad = ~(np.abs(v) < bound)
            if field == "h" and values is out:
                bad |= ~(v > 0.0)
            if bad.any():
                return PositivityError(int(np.flatnonzero(bad.any(axis=0))[0]),
                                       new_time, stage, field)
    raise AssertionError("stage check failed on a valid update")
