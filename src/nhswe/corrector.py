"""Non-hydrostatic pressure correction via a local DG elliptic solve.

Starting from the hydrostatic predictor, the depth-averaged pressure and the
corrected horizontal momentum satisfy a first-order elliptic system

    p_x  + s11 p  + s12 hu = f1
    hu_x + s21 hu + s22 p  = f2

with s11 + s21 = 0 and s12 > 0 by construction.  The system is discretized
with the local DG fluxes in one fixed flip-flop pattern: at every face
p* = p(left trace) and hu* = hu(right trace) + [p]/2, the pressure-jump
penalty being 1/2 (Cockburn & Shu, SINUM 1998).  It is solved directly
as a banded linear system on contiguous element ranges, with zero Dirichlet
pressure at the range endpoints.  As the momentum flux takes the trace right
of each face, the outer momentum enters only at each range's right end; at
the left end the range's own trace stands in.  The vertical momentum is then
updated from the solved pressure.

Coefficients are assembled, and the banded system is filled and solved, on
the flagged elements only, and a correction solves on exactly the ranges its
coefficients were assembled on; the pressure stays on those elements until a
caller asks for it on the whole grid.  The banded work storage is allocated
once per grid and reused by every solve, so a step allocates nothing of the
size of the banded system.  A correction's cost is therefore the work on the
flagged elements, plus two parts that do not shrink with them: copying the
two corrected momentum fields, which the corrected state must own, and a
fixed count of some sixty array operations, which dominates on small masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isfinite, sqrt

import numpy as np
from scipy.linalg import get_lapack_funcs

from .bathymetry import GRAVITY, RHO_WATER, BathymetryModel, BottomSample
from .grid import FlowState, GridSpec, NodalField, derivative_values
from .hydrostatic import BoundaryPair


class EllipticSolveError(RuntimeError):
    """The assembled elliptic system could not be solved reliably."""


# double-precision general-banded direct solver (LAPACK dgbsv), bound once
(_GBSV,) = get_lapack_funcs(("gbsv",), (np.array([0.0]),))


# relative residual of an elliptic solve above which it is refused
_MAX_RESIDUAL = 1e-10


def _range_rows(ranges: tuple[tuple[int, int], ...], n_elements: int) -> slice | np.ndarray:
    """Index of the elements of sorted, disjoint (first, last) ranges, in order."""
    selected = None if len(ranges) == 1 else np.zeros(n_elements, dtype=bool)
    last = -1
    for e0, e1 in ranges:
        if e0 > e1 or e0 <= last or e1 >= n_elements:
            raise ValueError(f"invalid element range {(e0, e1)}")
        if selected is not None:
            selected[e0:e1 + 1] = True
        last = e1
    if selected is None:
        e0, e1 = ranges[0]
        return slice(e0, e1 + 1)
    return np.flatnonzero(selected)


@dataclass(frozen=True)
class EllipticCoefficients:
    """Nodal coefficient and forcing fields of the elliptic system.

    The arrays hold one row per element of `ranges`, in range order; `ranges`
    None stands for the whole grid, ((0, n_elements - 1),).  `phi` is None
    where the moving-bottom forcing vanishes.  `bottom` is the bottom sample
    on the whole grid at the predictor time.
    """

    grid: GridSpec
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    phi: np.ndarray | None
    bottom: BottomSample
    dt: float
    rho: float
    ranges: tuple[tuple[int, int], ...] | None = None
    # grid rows of the arrays
    rows: slice | np.ndarray = field(init=False, repr=False, compare=False)
    # (s11, rho s22, s12 / rho, s21, f1 / rho, f2) node by node, shape
    # (6, nodes, elements): the fields of the density-scaled system the
    # banded solve assembles; assemble_coefficients computes them on the way
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.s11 + self.s21).any():
            raise AssertionError("structural condition s11 + s21 = 0 violated")
        if self.s12.min() <= 0.0:
            raise AssertionError("structural condition s12 > 0 violated")
        n = self.grid.n_elements
        ranges = ((0, n - 1),) if self.ranges is None else tuple(map(tuple, self.ranges))
        rho = self.rho
        stack = np.stack([a.T for a in (self.s11, rho * self.s22, self.s12 / rho,
                                        self.s21, self.f1 / rho, self.f2)])
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "rows", _range_rows(ranges, n))
        object.__setattr__(self, "stack", stack)


@dataclass(frozen=True)
class PressureSolution:
    """Solved pressure and corrected momentum.

    `p` holds the pressure on the elements of `ranges` only, in range order,
    `rows` being their grid rows; `p_nh` is the same pressure on the whole
    grid, zero off the ranges, built on first use.
    """

    grid: GridSpec
    ranges: tuple[tuple[int, int], ...]
    rows: slice | np.ndarray
    p: np.ndarray
    hu_corrected: NodalField

    @cached_property
    def p_nh(self) -> NodalField:
        p_full = np.zeros((self.grid.n_elements, self.grid.poly_order + 1))
        p_full[self.rows] = self.p
        return NodalField._wrap(self.grid, p_full)


def _active_rows(bottom: BottomSample, channel: str, rows) -> np.ndarray | None:
    """The rows of one bottom channel node by node, (nodes, len(rows)), or
    None where the channel vanishes there."""
    if channel not in bottom.active:
        return None
    values = getattr(bottom, channel)
    part = (values[rows] if isinstance(rows, slice) else values.take(rows, axis=0)).T
    return part if np.count_nonzero(part) else None


def _phi_values(grid: GridSpec, h: np.ndarray, hu: np.ndarray,
                bottom: BottomSample, rows, g: float, rho: float,
                d_x: np.ndarray | None) -> np.ndarray | None:
    """Moving-bottom forcing on the given rows, or None where it vanishes.

    Arrays are node by node, (nodes, len(rows)); `d_x` is the slope on the
    rows (None on a flat stretch).  Only the bottom channels that are active
    on the rows enter the sum.
    """
    d_tt = _active_rows(bottom, "d_tt", rows)
    inner = -d_tt if d_tt is not None else None
    d_xt = _active_rows(bottom, "d_xt", rows)
    d_xx = _active_rows(bottom, "d_xx", rows)
    if d_xt is not None or d_xx is not None:
        zero = np.zeros_like(h)
        d_xt = zero if d_xt is None else d_xt
        d_xx = zero if d_xx is None else d_xx
        u = hu / h
        drag = -2.0 * u * d_xt - u * u * d_xx
        inner = drag if inner is None else inner + drag
    if d_x is not None:
        eta_x = derivative_values(grid, (h - bottom.d.T[:, rows]).T).T
        slope = (g * d_x) * eta_x
        inner = slope if inner is None else inner + slope
        return (rho * h / (4.0 + d_x * d_x)) * inner
    if inner is None:
        return None
    return (0.25 * rho) * h * inner


def assemble_coefficients(predictor: FlowState, bathy: BathymetryModel, dt: float,
                          g: float = GRAVITY, rho: float = RHO_WATER,
                          ranges=None) -> EllipticCoefficients:
    """Nodal s- and f-fields of the elliptic system from the predictor state.

    With `ranges` (sorted, disjoint (first, last) pairs) the fields are
    computed on the elements of those ranges only; otherwise on the whole
    grid.  The work runs node by node, (nodes, elements), and the fields are
    (element, node) views of it.
    """
    grid = predictor.grid
    ranges = ((0, grid.n_elements - 1),) if ranges is None else tuple(ranges)
    rows = _range_rows(ranges, grid.n_elements)
    bottom = bathy.sample(grid.sample_nodes, predictor.time)
    h, hu, hw = predictor.node_rows(rows)
    h_x = derivative_values(grid, h.T).T
    d_x = _active_rows(bottom, "d_x", rows)
    phi = _phi_values(grid, h, hu, bottom, rows, g, rho, d_x)
    inv_h = 1.0 / h
    # (s11, rho s22, s12 / rho, s21, f1 / rho, f2): see EllipticCoefficients.stack
    stack = np.empty((6,) + h.shape)
    s11, f2 = stack[0], stack[5]
    s22 = (3.0 * dt / rho) * inv_h
    if d_x is not None:
        quad = 4.0 + d_x * d_x
        np.multiply(h_x - 1.5 * d_x, inv_h, out=s11)
        s12 = (0.25 * rho / dt) * quad * inv_h
        f1 = (0.25 * quad * inv_h) * (phi * d_x + (rho / dt) * hu)
        np.multiply(-2.0 * hw - (0.5 * d_x) * hu, inv_h, out=f2)
        f2 -= (0.5 * dt / rho) * quad * phi * inv_h
    else:
        np.multiply(h_x, inv_h, out=s11)
        s12 = (rho / dt) * inv_h
        f1 = (rho / dt) * hu * inv_h
        np.multiply(-2.0 * hw, inv_h, out=f2)
        if phi is not None:
            f2 -= (2.0 * dt / rho) * phi * inv_h
    d_t = _active_rows(bottom, "d_t", rows)
    if d_t is not None:
        f2 -= 2.0 * d_t
    if s12.min() <= 0.0:
        raise AssertionError("structural condition s12 > 0 violated")
    np.multiply(s22, rho, out=stack[1])
    np.divide(s12, rho, out=stack[2])
    np.negative(s11, out=stack[3])
    np.divide(f1, rho, out=stack[4])
    # s21 = -s11 holds by construction, so the checked constructor is skipped
    coeffs = object.__new__(EllipticCoefficients)
    vars(coeffs).update(grid=grid, s11=s11.T, s12=s12.T, s21=stack[3].T, s22=s22.T,
                        f1=f1.T, f2=f2.T, phi=None if phi is None else phi.T,
                        bottom=bottom, dt=dt, rho=rho, ranges=ranges, rows=rows,
                        stack=stack)
    return coeffs


# ------------------------------------------------------------ banded layout
#
# Unknowns are ordered element by element, node by node, pressure before
# momentum: (p, hu) of node j of the k-th solved element sit at 2(k m + j)
# and 2(k m + j) + 1.  The system is stored in the LAPACK general-banded
# layout that dgbsv factorizes in place: entry (r, c) at row 2*band + r - c
# of column c of a (3*band + 1, size) Fortran-ordered array, the leading
# band rows being pivoting fill-in that dgbsv sets itself.  The matrix
# rows alone are assembled in a (size, 2*band + 1) array, row c holding
# column c; seen so, each element owns a (2m, 2*band + 1) slab holding its
# own block, sheared one entry per row, and the interface couplings to the
# neighbouring elements.

def _triplets(n: int, m: int):
    """(row, column, value) of the constant flux entries of one range of n
    elements: the flip-flop interface fluxes and the range endpoints.

    Each flux enters with + at the face on an element's right and with - at
    the neighbour's face on its left.  At an interface p* = p(left trace)
    and hu* = hu(right trace) + [p]/2; at the range ends p* = 0, and hu*
    takes the range's own trace at the left end and, at the right end, the
    outer one, which enters the right-hand side.
    """
    node = 2 * (np.arange(n)[:, None] * m + np.arange(m)[None, :])
    # pressure rows of the traces left and right of each interface
    pL, pR = node[:-1, -1], node[1:, 0]
    qL, qR = pL + 1, pR + 1
    first, last = node[0, 0], node[-1, -1]
    entries = ((pL, pL, 1.0), (pR, pL, -1.0),
               (qL, qR, 1.0), (qR, qR, -1.0),
               (qL, pL, 0.5), (qR, pL, -0.5),
               (qL, pR, -0.5), (qR, pR, 0.5),
               (first + 1, first + 1, -1.0), (first + 1, first, 0.5),
               (last + 1, last, 0.5))
    parts = [np.broadcast_arrays(np.atleast_1d(r), c, v) for r, c, v in entries]
    return tuple(np.concatenate(column) for column in zip(*parts))


@lru_cache(maxsize=None)
def _element_slabs(m: int) -> dict[str, np.ndarray]:
    """Constant flux entries of one element's columns, (2m, 2*band + 1), by
    the element's place in its range: first, inner, last, or alone."""
    band = 2 * m - 1

    def block(n):
        rows, cols, vals = _triplets(n, m)
        out = np.zeros((2 * n * m, 2 * band + 1))
        np.add.at(out, (cols, band + rows - cols), vals)
        return out

    three, alone = block(3), block(1)
    three.flags.writeable = alone.flags.writeable = False
    return {"first": three[:2 * m], "inner": three[2 * m:4 * m],
            "last": three[4 * m:], "alone": alone}


@lru_cache(maxsize=256)
def _block_template(n: int, m: int) -> np.ndarray:
    """Matrix rows of the banded storage of one contiguous range of n
    elements, holding its constant flux entries: shape (2 n m, 2*band + 1),
    row c being column c of the matrix rows.

    The entries depend on the range length only, so a batch of ranges
    stacks the blocks of its lengths in range order.  Every inner element
    carries the same entries; the two ends differ.
    """
    slabs = _element_slabs(m)
    if n == 1:
        out = slabs["alone"].copy()
    else:
        out = np.tile(slabs["inner"], (n, 1))
        out[:2 * m] = slabs["first"]
        out[-2 * m:] = slabs["last"]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=512)
def _ldg_template(lengths: tuple[int, ...], m: int):
    """Per-range blocks and range-end rows of a batch of independent ranges.

    The ranges are stacked into one block-diagonal system whose bandwidth
    equals that of a single range, so the whole batch is factorized in one
    banded solve.  Its constant entries are the _block_template blocks of
    its lengths in range order, which are built once per length and shared
    by every combination they appear in; an entry here holds references to
    them, not a copy, so it is as small as the number of ranges.
    """
    blocks = tuple(_block_template(nb, m) for nb in lengths)
    # momentum row of the last node of each range, where its outer momentum
    # trace enters
    row_ends = 2 * m * np.cumsum(lengths) - 1
    row_ends.flags.writeable = False
    return blocks, row_ends


class _BandedWorkspace:
    """Banded storage reused by every solve on one grid, grown to the
    largest system seen there, and the grid's element block patterns.

    `ab` is the dgbsv work array, factorized in place; once the solve is
    done its storage serves as `scratch`, the work space of the residual
    check's banded product.  `mat` holds the assembled matrix rows, which
    the residual check reads after the factorization.

    `coupling` maps an element's coefficients, (s11, rho s22, s12 / rho,
    s21) node by node, to its slab: entry (row node i, kind r; column node
    j, kind c), kind 0 being the pressure and 1 the momentum, is M[i, j]
    times coefficient 2c + r at node j.  `stiffness` is the slab of the
    -K[i, j] the two diagonal kinds carry besides.
    """

    def __init__(self, grid: GridSpec):
        self.m = m = grid.poly_order + 1
        self.band = band = 2 * m - 1
        width = 2 * band + 1
        coupling = np.zeros((2, 2, m, 2 * m, width))
        stiffness = np.zeros((2 * m, width))
        for (c, r, i, j), mass in np.ndenumerate(np.broadcast_to(grid.mass, (2, 2, m, m))):
            col, row = 2 * j + c, 2 * i + r
            coupling[c, r, j, col, band + row - col] = mass
            if r == c:
                stiffness[col, band + row - col] = grid.stiffness[i, j]
        self.coupling = coupling.reshape(4 * m, 2 * m * width)
        self.stiffness = stiffness.ravel()
        self.elements = 0

    @classmethod
    def of(cls, grid: GridSpec) -> "_BandedWorkspace":
        """The workspace of a grid, kept on the grid object."""
        workspace = grid.__dict__.get("_banded_workspace")
        if workspace is None:
            workspace = cls(grid)
            object.__setattr__(grid, "_banded_workspace", workspace)
        return workspace

    def arrays(self, n: int):
        """(ab, mat, scratch) for a system of n elements."""
        if n > self.elements:
            self._grow(n)
        size = 2 * self.m * n
        return self._ab[:, :size], self._mat[:size], self._scratch

    def _grow(self, n: int) -> None:
        band = self.band
        height = 3 * band + 1
        size = 2 * self.m * n
        storage = np.empty(max(height * size, (2 * band + 1) * (size + 2 * band + 1)))
        self._ab = storage[:height * size].reshape(size, height).T
        self._mat = np.empty((size, 2 * band + 1))
        self._scratch = storage
        self.elements = n


def _banded_matvec(ab: np.ndarray, band: int, x: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """y = A x for A in banded storage: A[r, c] = ab[band + r - c, c].

    Each stored diagonal's products are written one column further right
    than the diagonal above, which lines up all products of row r in column
    r + band of a (2*band + 1, size + 2*band) array; y is its column sum.
    `scratch` holds at least (2*band + 1) * (size + 2*band + 1) entries, or
    is None.
    """
    rows, size = ab.shape
    width = size + 2 * band
    if scratch is None:
        scratch = np.empty(rows * (width + 1))
    scratch = scratch[:rows * (width + 1)]
    scratch.fill(0.0)
    np.multiply(ab, x, out=scratch.reshape(rows, width + 1)[:, :size])
    return scratch[:rows * width].reshape(rows, width).sum(axis=0)[band:band + size]


def _solve_batched(coeffs: EllipticCoefficients, ranges,
                   outer_hu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the elliptic system on several disjoint ranges in one banded solve.

    `ranges` is the sorted sequence of (first, last) inclusive element pairs
    the coefficients were assembled on, and `outer_hu` the outer momentum
    trace just right of each range.  Returns nodal (p, hu) arrays of shape
    (total flagged elements, nodes).

    Internally the system is solved for the density-scaled pressure p/rho,
    which makes every coefficient, the forcing, and the interface penalty
    independent of rho: the corrected momenta are then exactly invariant
    under a change of density and the two unknowns are comparably scaled.
    The physical pressure is recovered by one multiplication at the end.
    """
    ranges = tuple(ranges)
    if ranges != coeffs.ranges:
        raise ValueError(f"coefficients assembled on {coeffs.ranges}, "
                         f"not on {ranges}")
    grid = coeffs.grid
    m = grid.poly_order + 1
    lengths = tuple(e1 - e0 + 1 for e0, e1 in ranges)
    const_blocks, row_ends = _ldg_template(lengths, m)
    n = sum(lengths)
    band = 2 * m - 1
    rho = coeffs.rho
    M = grid.mass

    workspace = _BandedWorkspace.of(grid)
    ab, mat, scratch = workspace.arrays(n)
    stack = coeffs.stack
    slabs = mat.reshape(n, -1)
    np.matmul(stack[:4].reshape(4 * m, n).T, workspace.coupling, out=slabs)
    slabs -= workspace.stiffness
    start = 0
    for block in const_blocks:
        mat[start:start + len(block)] += block
        start += len(block)
    ab[band:] = mat.T

    b = np.empty(2 * m * n)
    b.reshape(n, m, 2)[...] = (M @ stack[4:]).transpose(2, 1, 0)
    b[row_ends] -= outer_hu
    rhs_norm = sqrt(b @ b)

    _, _, x, info = _GBSV(band, band, ab, b, overwrite_ab=True, overwrite_b=False)
    if info != 0:
        raise EllipticSolveError(f"singular elliptic system on {ranges} "
                                 f"(lapack info {info})")

    # residual of the system as assembled, not as factorized
    resid = _banded_matvec(mat.T, band, x, scratch)
    resid -= b
    resid_norm = sqrt(resid @ resid)
    # the residual is measured against max(|b|, max|A| |x|); within the
    # tolerance of |b| alone it passes without computing the other term
    if not resid_norm <= _MAX_RESIDUAL * rhs_norm:
        x_norm = sqrt(x @ x)
        if not isfinite(x_norm):
            raise EllipticSolveError(f"non-finite elliptic solution on {ranges}")
        rel = resid_norm / max(rhs_norm, np.abs(mat).max() * x_norm, 1e-300)
        if rel > _MAX_RESIDUAL:
            raise EllipticSolveError(
                f"elliptic solve residual {rel:.3e} exceeds {_MAX_RESIDUAL:.1e} "
                f"on {ranges} (likely ill-conditioned)")

    return (rho * x[0::2]).reshape(n, m), x[1::2].reshape(n, m)


def ldg_solve(coeffs: EllipticCoefficients, elements: tuple[int, int],
              outer_hu: tuple[float, float] = (0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Solve the elliptic system on the one contiguous element range the
    coefficients were assembled on.

    Returns nodal (p, hu) arrays of shape (range length, poly_order + 1).
    Zero Dirichlet pressure is imposed at both range endpoints.  `outer_hu`
    holds the outer momentum traces (left, right) just outside the range;
    the left one does not enter, as the flux takes the momentum right of
    each face, which at the left end is the range's own trace.
    """
    return _solve_batched(coeffs, (tuple(elements),), np.array([outer_hu[1]], dtype=float))


def _right_outer_hu(predictor: FlowState, bcs: BoundaryPair, e1: int) -> float:
    """Outer (uncorrected) momentum trace just right of a range ending at e1:
    the next element's first one, or the right boundary's ghost value."""
    hu = predictor.hu.values
    if e1 < predictor.grid.n_elements - 1:
        return hu[e1 + 1, 0]
    return bcs.right.signs[1, 0] * hu[-1, -1]


def solve_on_ranges(predictor: FlowState, coeffs: EllipticCoefficients,
                    ranges, bcs: BoundaryPair) -> PressureSolution:
    """Independent per-range elliptic solves, batched into one banded system,
    on the ranges the coefficients were assembled on."""
    grid = predictor.grid
    ranges = tuple(sorted(map(tuple, ranges)))
    outer = np.array([_right_outer_hu(predictor, bcs, e1) for _, e1 in ranges])
    p, hu = _solve_batched(coeffs, ranges, outer)
    hu_full = predictor.hu.values.copy(order="K")
    hu_full[coeffs.rows] = hu
    return PressureSolution(grid, ranges, coeffs.rows, p, NodalField._wrap(grid, hu_full))


def central_derivative_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Element-local derivative plus central-average interface lifting.

    One-sided at the ends of the supplied element window.
    """
    d = derivative_values(grid, values)
    left_tr = values[:, 0]
    right_tr = values[:, -1]
    avg = 0.5 * (right_tr[:-1] + left_tr[1:])
    d[:-1] += np.outer(avg - right_tr[:-1], grid.lift_right)
    d[1:] -= np.outer(avg - left_tr[1:], grid.lift_left)
    return d


def _central_derivative_on_ranges(grid: GridSpec, values: np.ndarray,
                                  ranges) -> np.ndarray:
    """central_derivative_values over the grid, of a field that is zero on
    every element outside the ranges, evaluated on the ranges' elements.

    `values` holds the elements of the ranges in order.  One-sided at the
    domain ends.
    """
    n = len(values)
    # batch positions of the range ends that face an element outside the
    # ranges; two ranges may also meet without a gap
    last, first = [], []
    k = 0
    for i, (e0, e1) in enumerate(ranges):
        k += e1 - e0 + 1
        if i + 1 == len(ranges) or ranges[i + 1][0] != e1 + 1:
            last.append(k - 1)
            if i + 1 < len(ranges):
                first.append(k)
    d = derivative_values(grid, values)
    left_tr = values[:, 0]
    right_tr = values[:, -1]
    # the trace across each element face: the neighbor's inside the ranges,
    # zero outside them
    across_right = np.empty(n)
    across_right[:-1] = left_tr[1:]
    across_right[last] = 0.0
    across_left = np.empty(n)
    across_left[1:] = right_tr[:-1]
    across_left[[0] + first] = 0.0
    right = slice(None, n - 1 if ranges[-1][1] == grid.n_elements - 1 else n)
    left = slice(1 if ranges[0][0] == 0 else 0, None)
    avg = 0.5 * (right_tr[right] + across_right[right])
    d[right] += (avg - right_tr[right])[:, None] * grid.lift_right
    avg = 0.5 * (across_left[left] + left_tr[left])
    d[left] -= (avg - left_tr[left])[:, None] * grid.lift_left
    return d


def correct_momentum(predictor: FlowState, sol: PressureSolution,
                     coeffs: EllipticCoefficients) -> FlowState:
    """Apply the pressure correction to the momenta; mass is untouched.

    Only elements inside the solved ranges receive new momenta; everywhere
    else the predictor values pass through unchanged.
    """
    grid = predictor.grid
    if sol.ranges != coeffs.ranges:
        raise ValueError(f"coefficients assembled on {coeffs.ranges}, "
                         f"solution on {sol.ranges}")
    rows = sol.rows
    p = sol.p
    d_x = _active_rows(coeffs.bottom, "d_x", rows)
    if d_x is not None:
        d_x = d_x.T
        quad = 4.0 + d_x * d_x
        hp_x = _central_derivative_on_ranges(grid, predictor.h.values[rows] * p,
                                             sol.ranges)
        bottom_pressure = 6.0 / quad * p + d_x / quad * hp_x
    else:
        # flat stretch: the slope-weighted (h p)_x term drops out exactly
        bottom_pressure = 1.5 * p
    if coeffs.phi is not None:
        bottom_pressure += coeffs.phi

    hw = predictor.hw.values.copy(order="K")
    hw[rows] += (coeffs.dt / coeffs.rho) * bottom_pressure

    return FlowState._wrap(
        predictor.h,
        sol.hu_corrected,
        NodalField._wrap(grid, hw),
        predictor.time,
    )


def apply_correction(predictor: FlowState, bathy: BathymetryModel, dt: float,
                     ranges, bcs: BoundaryPair,
                     g: float = GRAVITY, rho: float = RHO_WATER,
                     ) -> tuple[FlowState, PressureSolution]:
    """Full correction pipeline on the elements of the flagged ranges."""
    ranges = tuple(sorted(map(tuple, ranges)))
    coeffs = assemble_coefficients(predictor, bathy, dt, g, rho, ranges=ranges)
    sol = solve_on_ranges(predictor, coeffs, ranges, bcs)
    return correct_momentum(predictor, sol, coeffs), sol
