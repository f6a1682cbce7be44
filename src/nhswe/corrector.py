"""Non-hydrostatic pressure correction via a local DG elliptic solve.

Starting from the hydrostatic predictor, the depth-averaged pressure and the
corrected horizontal momentum satisfy a first-order elliptic system

    p_x  + s11 p  + s12 hu = f1
    hu_x + s21 hu + s22 p  = f2

with s11 + s21 = 0 and s12 > 0 by construction.  The system is discretized
with the local DG fluxes in one fixed flip-flop pattern: at every face
p* = p(left trace) and hu* = hu(right trace) + [p]/2, the pressure-jump
penalty being 1/2 (Cockburn & Shu, SINUM 1998).  It is solved directly on
contiguous element ranges, with zero Dirichlet pressure at the range
endpoints.  As the momentum flux takes the trace right of each face, the
outer momentum enters only at each range's right end; at the left end the
range's own trace stands in.  The vertical momentum is then updated from the
solved pressure.

Since p* is the left trace, the first equation of an element holds its own
momentum only, weighted by M diag(s12), which is invertible.  So hu is
eliminated element by element, the standard elimination of the LDG auxiliary
variable: the second equation becomes a banded system in the pressure alone,
one unknown per node, and hu is recovered from the first equation by an
element-local back-substitution.  Every entry of that pressure system is
linear in a few nodal features of the coefficients, which the assembly
computes directly, so it is filled by one product of the features with a
constant coupling tensor of the reference element, plus one product for the
coupling to the right neighbour and fix-ups at the range ends.

Coefficients are assembled, and the banded system is filled and solved, on
the flagged elements only.  assemble_coefficients fixes that element set
once, in EllipticCoefficients.ranges and .rows, and the solve and the
momentum update read it from there; p and hu stay on those elements until
the momentum update or a caller needs them on the whole grid.  Everything a
correction writes and does not return, from the coefficient stack to the
banded system and the residual, lives in a BandedWorkspace carved from the
run's one workspace block, whose predictor stage buffers are dead while a
correction runs.  So a correction allocates only what it returns: the
pressure, the momenta and the corrected state.  Its cost is therefore the
work on the flagged elements, plus two parts that do not shrink with them:
the copy of the predictor's padded array that the corrected state owns, and
a fixed count of array operations, which dominates on small masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isfinite, sqrt

import numpy as np
from scipy.linalg import get_lapack_funcs

from .bathymetry import GRAVITY, RHO_WATER, BottomSample
from .grid import (FlowState, GridSpec, NodalField, carve, carved_size,
                   derivative_values)
from .hydrostatic import BoundaryPair


class EllipticSolveError(RuntimeError):
    """The assembled elliptic system could not be solved reliably."""


# double-precision general-banded direct solver (LAPACK dgbsv), bound once
(_GBSV,) = get_lapack_funcs(("gbsv",), (np.array([0.0]),))


# relative residual of an elliptic solve above which it is refused
_MAX_RESIDUAL = 1e-10

# rows of EllipticCoefficients.stack: with s12' = s12 / rho, f1' = f1 / rho
# and the element half-width c = dx / 2, the nodal features 1 / (c s12'),
# s11 / s12', c s11^2 / s12', c rho s22, one, f1' / s12' and
# c (f2 + s11 f1' / s12').  The powers of c make the features carry the
# element size, so that the couplings act on reference-element matrices.
_T, _A, _C, _S, _ONE, _G, _R = range(7)

# the coefficient fields, derived from the stack where only it was built;
# t = 1 / s12' = c stack[_T]
_DERIVED = {
    "s11": lambda st, rho, c: (st[_A] / (c * st[_T])).T,
    "s12": lambda st, rho, c: (rho / (c * st[_T])).T,
    "s21": lambda st, rho, c: (-st[_A] / (c * st[_T])).T,
    "s22": lambda st, rho, c: (st[_S] / (c * rho)).T,
    "f1": lambda st, rho, c: (rho * st[_G] / (c * st[_T])).T,
    "f2": lambda st, rho, c: (st[_R] / c - st[_A] / (c * st[_T]) * st[_G]).T,
}


def _range_rows(ranges, n_elements: int) -> tuple[tuple, slice | np.ndarray]:
    """Sorted, disjoint (first, last) ranges as a tuple of pairs, None standing
    for the whole grid, with the index of their elements, in order."""
    ranges = ((0, n_elements - 1),) if ranges is None else tuple(map(tuple, ranges))
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
        return ranges, slice(e0, e1 + 1)
    return ranges, np.flatnonzero(selected)


@dataclass(frozen=True)
class EllipticCoefficients:
    """Nodal coefficient and forcing fields of the elliptic system.

    The arrays hold one row per element of `ranges`, in range order; `ranges`
    None stands for the whole grid, ((0, n_elements - 1),).  `phi` is None
    where the moving-bottom forcing vanishes.  `bottom` is the bottom sample
    on the whole grid at the predictor time; `d_x` is its slope on the rows
    and `quad` = 4 + d_x^2, both None on a flat stretch.
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
    # the nodal features of the condensed pressure system, rows _T ... _R,
    # node by node: shape (7, nodes, elements); assemble_coefficients
    # computes them directly and stores only them, the s- and f-fields
    # being derived from them on first access.  Assembled in a workspace,
    # it views that workspace and holds only until its next use
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    d_x: np.ndarray | None = field(init=False, repr=False, compare=False)
    quad: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ranges, rows = _range_rows(self.ranges, self.grid.n_elements)
        count = sum(e1 - e0 + 1 for e0, e1 in ranges)
        for name in ("s11", "s12", "s21", "s22", "f1", "f2", "phi"):
            value = getattr(self, name)
            if value is not None and len(value) != count:
                raise ValueError(f"{name} has {len(value)} rows, but the ranges "
                                 f"{ranges} hold {count} elements")
        if (self.s11 + self.s21).any():
            raise AssertionError("structural condition s11 + s21 = 0 violated")
        if self.s12.min() <= 0.0:
            raise AssertionError("structural condition s12 > 0 violated")
        c = 0.5 * self.grid.dx
        t = self.rho / self.s12
        g = self.f1 / self.s12
        stack = np.stack([a.T for a in (t / c, self.s11 * t, c * self.s11 * self.s11 * t,
                                        c * self.rho * self.s22, np.ones_like(t), g,
                                        c * (self.f2 + self.s11 * g))])
        d_x = _active_rows(self.bottom, "d_x", rows)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "d_x", None if d_x is None else d_x.T)
        object.__setattr__(self, "quad", None if d_x is None else (4.0 + d_x * d_x).T)

    def __getattr__(self, name):
        derive = _DERIVED.get(name)
        if derive is None or "stack" not in vars(self):
            raise AttributeError(name)
        value = derive(self.stack, self.rho, 0.5 * self.grid.dx)
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True)
class PressureSolution:
    """Solved pressure and corrected momentum on the assembled elements.

    `p` and `hu` hold one row per solved element, in range order, `rows`
    being their grid rows; `p_nh` is the pressure on the whole grid, zero
    off the rows, built on first use.  No array of a solution views a
    workspace, so it keeps its values while the run steps on.
    """

    grid: GridSpec
    rows: slice | np.ndarray
    p: np.ndarray
    hu: np.ndarray

    @cached_property
    def p_nh(self) -> NodalField:
        grid = self.grid
        p_full = np.zeros((grid.n_elements, grid.poly_order + 1))
        p_full[self.rows] = self.p
        return NodalField._wrap(grid, p_full)


def _active_rows(bottom: BottomSample, channel: str, rows) -> np.ndarray | None:
    """The rows of one bottom channel node by node, (nodes, len(rows)), or
    None where the channel vanishes there."""
    if channel not in bottom.active:
        return None
    values = getattr(bottom, channel)
    part = (values[rows] if isinstance(rows, slice) else values.take(rows, axis=0)).T
    return part if np.count_nonzero(part) else None


def _phi_values(grid: GridSpec, h: np.ndarray, hu: np.ndarray,
                bottom: BottomSample, rows, rho: float,
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
        slope = (GRAVITY * d_x) * eta_x
        inner = slope if inner is None else inner + slope
        return (rho * h / (4.0 + d_x * d_x)) * inner
    if inner is None:
        return None
    return (0.25 * rho) * h * inner


def assemble_coefficients(predictor: FlowState, bottom: BottomSample, dt: float,
                          rho: float = RHO_WATER, ranges=None,
                          workspace: BandedWorkspace | None = None) -> EllipticCoefficients:
    """Nodal s- and f-fields of the elliptic system from the predictor state
    and the bottom sampled at the grid's sample nodes at its time.

    With `ranges` (sorted, disjoint (first, last) pairs) the fields are
    computed on the elements of those ranges only; otherwise on the whole
    grid.  The coefficients keep the ranges and their grid rows, the element
    set every later stage of the correction reads.  The work runs node by
    node, (nodes, elements), and yields the features of
    EllipticCoefficients.stack; the fields are derived from them when asked
    for.  The stack and the temporaries are `workspace`'s, the run's; without
    it the assembly carves a workspace of its own size.

    With q = 4 + d_x^2 (4 on a flat stretch), s12 = rho q / (4 dt h),
    s11 = (h_x - 1.5 d_x) / h, s22 = 3 dt / (rho h), f1 = q (phi d_x +
    rho hu / dt) / (4 h) and f2 = -(2 hw + d_x hu / 2 + dt q phi / (2 rho)) / h
    - 2 d_t, so 1 / s12' = 4 dt h / q and f1' / s12' = hu + dt phi d_x / rho.
    The work runs on c / h, c = dx / 2, which carries the element size into
    the features at no extra cost.
    """
    grid = predictor.grid
    ranges, rows = _range_rows(ranges, grid.n_elements)
    h, hu, hw = predictor.node_rows(rows)
    if workspace is None:
        workspace = BandedWorkspace(grid.poly_order + 1, h.shape[1])
    stack = workspace.stack(h.shape[1])
    c_h, c_s11, term, h_x = workspace.temporaries(h.shape[1])
    h_x = derivative_values(grid, h.T, out=h_x.reshape(h.T.shape)).T
    d_x = _active_rows(bottom, "d_x", rows)
    phi = _phi_values(grid, h, hu, bottom, rows, rho, d_x)
    c = 0.5 * grid.dx
    np.divide(c, h, out=c_h)
    t, a, g, r = stack[_T], stack[_A], stack[_G], stack[_R]
    quad = None
    if d_x is not None:
        quad = 4.0 + d_x * d_x
        np.divide((4.0 * dt / c) * h, quad, out=t)
        np.subtract(h_x, np.multiply(d_x, 1.5, out=term), out=c_s11)
        c_s11 *= c_h
        np.multiply(c_s11, t, out=a)
        np.multiply((dt / rho) * phi, d_x, out=g)
        g += hu
        np.multiply(-2.0 * hw - (0.5 * d_x) * hu, c_h, out=r)
        r -= (0.5 * dt / rho) * quad * phi * c_h
    else:
        np.multiply(h, dt / c, out=t)
        np.multiply(h_x, dt, out=a)
        np.multiply(h_x, c_h, out=c_s11)
        g[...] = hu
        np.multiply(np.multiply(hw, -2.0, out=term), c_h, out=r)
        if phi is not None:
            np.multiply(phi, 2.0 * dt / rho, out=term)
            term *= c_h
            r -= term
    d_t = _active_rows(bottom, "d_t", rows)
    if d_t is not None:
        r -= np.multiply(d_t, 2.0 * c, out=term)
    if t.min() <= 0.0:
        raise AssertionError("structural condition s12 > 0 violated")
    r += np.multiply(c_s11, g, out=term)
    np.multiply(c_s11, a, out=stack[_C])
    np.multiply(c_h, 3.0 * dt, out=stack[_S])
    stack[_ONE] = 1.0
    # s21 = -s11 holds by construction, so the checked constructor is skipped
    coeffs = object.__new__(EllipticCoefficients)
    vars(coeffs).update(grid=grid, phi=None if phi is None else phi.T,
                        bottom=bottom, dt=dt, rho=rho, ranges=ranges, rows=rows,
                        stack=stack, d_x=None if d_x is None else d_x.T,
                        quad=None if quad is None else quad.T)
    return coeffs


# ------------------------------------------------------------ banded layout
#
# The solve runs on the density-scaled unknowns P = p / rho and Q = hu, with
# s12' = s12 / rho, S22' = rho s22 and f1' = f1 / rho.  Per element k of a
# range, with W = M^-1 K, L_l, L_r the lifting vectors M^-1 e_1, M^-1 e_m,
# t = 1 / s12' and a = s11 t node by node, the first equation gives
#
#   Q_k = f1' t - a P_k + t (W P_k - [k not last] L_r P_k,m
#                                  + [k not first] L_l P_k-1,m)
#
# and the second, D_k Q_k + [k not last] E_m1 Q_k+1 + (M S22' + E_mm / 2
# + E_11 / 2) P_k - [k not first] E_1m P_k-1 / 2 - [k not last] E_m1 P_k+1 / 2
# = M f2 - [k last] e_m hu_outer with D_k = M S21 - K - E_11, becomes a
# system in P alone.  Its unknowns are ordered element by element, node by
# node: P of node j of the k-th solved element sits at k m + j.  An element
# couples to its own nodes and to the last node of its left neighbour, and
# its last node to the nodes of its right neighbour, so the bandwidth is m
# on both sides.  The system is stored in the LAPACK general-banded layout
# that dgbsv factorizes in place: entry (r, c) at row 2m + r - c of column c
# of a (3m + 1, size) Fortran-ordered array, the leading m rows being
# pivoting fill-in that dgbsv sets itself.  The matrix rows are assembled
# in a (size, 3m + 3) array: row c holds column c at positions m + r - c,
# the right-hand side of row c at 2m + 1, and from 2m + 2 on the
# back-substitution row of node c, the coefficients of (P_k-1,m, P_k) in
# Q_c - f1' t.  Seen so, each element owns an (m, 3m + 3) slab, which
# holds its own block, the row its left neighbour's last node has in it,
# its right-hand side and its back-substitution.  The only other entries
# an element's features make are in its left neighbour's last column: the
# rows of its own nodes there, and the diagonal term and the right-hand
# side its momentum adds through E_m1 Q_k+1.  The features (see
# EllipticCoefficients.stack) carry the powers of dx / 2 that M, W and the
# lifts do, so all these entries come from reference-element matrices.

# element kinds by place in the range, 2 [not first] + [not last]
_ALONE, _FIRST, _LAST, _INNER = range(4)


@lru_cache(maxsize=None)
def _couplings(m: int):
    """Constant tensors of the condensed system for elements of m nodes.

    The features of EllipticCoefficients.stack carry the element size, so
    the tensors are built on the reference element, whose half-width is 1.
    `own[kind]` maps an element's features, (7 m,) feature by feature, to
    its (m, 3m + 3) slab; `next_column` maps them to the band entries and
    right-hand side of its left neighbour's last column, (2m + 2,).
    """
    ref = GridSpec(0.0, 4.0, 2, m - 1)
    M, W = ref.mass, ref.weak_div
    L_l, L_r = ref.lift_left, ref.lift_right
    K1 = ref.stiffness.copy()
    K1[0, 0] += 1.0                                 # -D_k = M diag(s11) + K1
    eye = np.eye(m)
    e0, em = eye[0], eye[-1]
    mass_diag = np.einsum("ij,lj->lij", M, eye)     # (node l, row i, column j)
    nodes = np.arange(m)
    own = np.zeros((4, 7, m, m, 3 * m + 3))         # kind, feature, node, row, position
    for kind in range(4):
        not_first, not_last = kind >> 1, kind & 1
        # own block, d/d(feature at node l) of entry (i, j)
        block = np.zeros((7, m, m, m))
        block[_T] = (-np.einsum("il,lj->lij", K1, W)
                     + not_last * np.einsum("il,l,j->lij", K1, L_r, em))
        block[_A] = (np.einsum("ij,lj->lij", K1, eye) - np.einsum("il,lj->lij", M, W)
                     + not_last * np.einsum("il,l,j->lij", M, L_r, em))
        block[_C] = block[_S] = mass_diag
        block[_ONE, 0] = 0.5 * (np.outer(em, em) + np.outer(e0, e0))
        # the left neighbour's last row: -E_m1 (A_k + I / 2), A_k the
        # matrix of P_k in Q_k
        upper = np.zeros((7, m, m))
        upper[_A, 0, 0] = -1.0
        upper[_T, 0] = W[0] - not_last * L_r[0] * em
        upper[_ONE, 0, 0] = -0.5
        slab = own[kind]
        for j in range(m):
            for i in range(m):
                slab[:, :, j, m + i - j] = block[:, :, i, j]
            slab[:, :, j, m - 1 - j] = not_first * upper[:, :, j]
        slab[_R, :, :, 2 * m + 1] = M.T
        slab[_G, :, :, 2 * m + 1] = K1.T
        # back-substitution row of node i: Q_k,i - g_i, as t_i and a_i
        # times (P_k-1,m, P_k)
        lift = np.zeros((m + 1, m))
        lift[0] = not_first * L_l
        lift[1:] = W.T - not_last * np.outer(em, L_r)
        slab[_T, nodes, nodes, 2 * m + 2:] = lift.T
        slab[_A, nodes, nodes, 2 * m + 3 + nodes] = -1.0
    next_column = np.zeros((7, m, 2 * m + 2))
    next_column[_T, 0, m] = L_l[0]
    next_column[_A, :, m + 1:m + 1 + m] = -(M * L_l).T
    next_column[_T, :, m + 1:m + 1 + m] = -(K1 * L_l).T
    next_column[_ONE, 0, m + 1] = -0.5
    next_column[_G, 0, -1] = -1.0
    own = own.reshape(4, 7 * m, m * (3 * m + 3))
    next_column = next_column.reshape(7 * m, 2 * m + 2)
    own.flags.writeable = next_column.flags.writeable = False
    return own, next_column


@lru_cache(maxsize=256)
def _block_template(n: int, m: int):
    """The elements of one range of n elements whose slabs differ from an
    inner element's, its ends: their positions in the range and kinds; and
    the unknown of the range's last node, where the outer momentum enters."""
    if n == 1:
        return (0,), (_ALONE,), m - 1
    return (0, n - 1), (_FIRST, _LAST), n * m - 1


@lru_cache(maxsize=512)
def _ldg_template(lengths: tuple[int, ...], m: int):
    """Range-end structure of a batch of independent ranges.

    The ranges are stacked into one block-diagonal system whose bandwidth
    equals that of a single range, so the whole batch is factorized in one
    banded solve.  Returns the batch positions of the range-end elements
    and their kinds, the positions of the last elements of all ranges but
    the final one, across whose right face nothing couples, and the
    unknowns of the ranges' last nodes.  The per-length parts come from
    _block_template, and the end elements' tensors are indexed from
    _couplings by their kinds, so an entry here is as small as the number
    of ranges.
    """
    ends, kinds, row_ends = [], [], []
    start = 0
    for nb in lengths:
        positions, kind, last_row = _block_template(nb, m)
        ends.extend(start + k for k in positions)
        kinds.extend(kind)
        row_ends.append(m * start + last_row)
        start += nb
    ends, kinds, row_ends = np.array(ends), np.array(kinds), np.array(row_ends)
    boundaries = row_ends[:-1] // m
    for a in (ends, kinds, boundaries, row_ends):
        a.flags.writeable = False
    return ends, kinds, boundaries, row_ends


class BandedWorkspace:
    """Everything a correction of up to `n_elements` elements of `m` nodes
    writes and does not return.

    It is carved from `block` (see `carve`), the run's workspace, whose
    predictor stage buffers are dead while a correction runs; without a
    block it carves a fresh one.  A correction on fewer elements uses a
    prefix of each array, so the pages no correction has reached are never
    touched.  In the order a correction uses them:

    - the assembly writes the coefficient stack (`stack`), which the solve
      reads up to the back-substitution; its temporaries (`temporaries`)
      live in the slabs' storage, which the solve has not filled yet;
    - `slabs` holds the assembled matrix rows, the right-hand side and the
      back-substitution rows, which the residual check and the
      back-substitution read after the factorization;
    - the band's storage first holds the products of each element's
      features with its left neighbour's column (`left`), then the dgbsv
      work array `ab`, factorized in place, and once the solve is done the
      residual check's sheared products (`scratch`);
    - `padded` is the solution with one leading zero, so that `windows` row
      k views (P_k-1,m, P_k), what the back-substitution of element k reads;
    - the nodal storage holds the residual (`residual`), then the momentum
      update's pressure term (`nodal`).
    """

    def __init__(self, m: int, n_elements: int, block: np.ndarray | None = None):
        self.m = m
        n = n_elements
        height, size = 3 * m + 1, m * n
        (self._stack, self._slab_storage, storage, self._padded,
         self._nodal) = carve(self.shapes(m, n), block)
        self._slabs = self._slab_storage[:n * m * (3 * m + 3)].reshape(n, -1)
        # four rows of the grid's nodal size, each 64-byte aligned
        self._temporaries = self._slab_storage[:carved_size([(size,)] * 4)].reshape(4, -1)
        self._ab = storage[:height * size].reshape(size, height).T
        self._windows = np.lib.stride_tricks.as_strided(
            self._padded, (n, m + 1), (m * self._padded.itemsize, self._padded.itemsize))
        self._scratch = storage

    @staticmethod
    def shapes(m: int, n_elements: int) -> list[tuple[int]]:
        """The shapes of the flat regions, in the order they are carved."""
        n, size = n_elements, m * n_elements
        return [(7 * size,), (max(n * m * (3 * m + 3), carved_size([(size,)] * 4)),),
                (max((3 * m + 1) * size, (2 * m + 1) * (size + 2 * m + 1)),),
                (size + 1,), (size + 2 * m,)]

    def stack(self, n: int) -> np.ndarray:
        """The coefficient stack of n elements, (7, m, n)."""
        return self._stack[:7 * self.m * n].reshape(7, self.m, n)

    def temporaries(self, n: int) -> np.ndarray:
        """Four (m, n) arrays for the assembly's temporaries, (4, m, n)."""
        return self._temporaries[:, :self.m * n].reshape(4, self.m, n)

    def arrays(self, n: int):
        """(ab, slabs, padded, windows, scratch, left, residual) for a system
        of n elements; the solution's leading zero is set here, as other
        users of the block write it."""
        m, size = self.m, self.m * n
        padded = self._padded[:size + 1]
        padded[0] = 0.0
        left = self._scratch[:(n - 1) * (2 * m + 2)].reshape(n - 1, 2 * m + 2)
        return (self._ab[:, :size], self._slabs[:n], padded, self._windows[:n],
                self._scratch, left, self._nodal[:size + 2 * m])

    def nodal(self, n: int) -> np.ndarray:
        """The momentum update's pressure term of n elements, (n, m)."""
        return self._nodal[:self.m * n].reshape(n, self.m)


def _banded_matvec(ab: np.ndarray, band: int, x: np.ndarray, scratch: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """y = A x for A in banded storage: A[r, c] = ab[band + r - c, c].

    Each stored diagonal's products are written one column further right
    than the diagonal above, which lines up all products of row r in column
    r + band of a (2*band + 1, size + 2*band) array; y is its column sum.
    The entries between the products are zeroed, the rest is not read.
    `scratch` holds at least (2*band + 1) * (size + 2*band + 1) entries;
    `out`, where it is given, takes the column sums, size + 2*band of them.
    """
    rows, size = ab.shape
    width = size + 2 * band
    sheared = scratch[:rows * (width + 1)].reshape(rows, width + 1)
    sheared[:, size:] = 0.0
    np.multiply(ab, x, out=sheared[:, :size])
    return scratch[:rows * width].reshape(rows, width).sum(axis=0, out=out)[band:band + size]


def _solve_batched(coeffs: EllipticCoefficients, outer_hu: np.ndarray,
                   workspace: BandedWorkspace | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the elliptic system on the disjoint ranges the coefficients were
    assembled on, in one banded solve.

    `outer_hu` holds the outer momentum trace just right of each range.
    The system is built in `workspace`, the run's; without it the solve
    carves a workspace of its own size.  Returns nodal (p, hu)
    arrays of shape (total flagged elements, nodes), one row per element of
    coeffs.ranges, in range order.

    Internally the system is solved for the density-scaled pressure p/rho,
    which makes every coefficient, the forcing, and the interface penalty
    independent of rho: the corrected momenta are then exactly invariant
    under a change of density.  The physical pressure is recovered by one
    multiplication at the end.
    """
    ranges = coeffs.ranges
    grid = coeffs.grid
    m = grid.poly_order + 1
    lengths = tuple(e1 - e0 + 1 for e0, e1 in ranges)
    n = sum(lengths)
    stack = coeffs.stack
    features = stack.reshape(7 * m, n)
    own, next_column = _couplings(m)
    ends, kinds, boundaries, row_ends = _ldg_template(lengths, m)

    if workspace is None:
        workspace = BandedWorkspace(m, n)
    ab, slabs, padded, windows, scratch, left, residual = workspace.arrays(n)
    # every slab as an inner element's, then the range ends as what they are
    np.matmul(features.T, own[_INNER], out=slabs)
    slabs[ends] = np.matmul(features.take(ends, axis=1).T[:, None, :],
                            own.take(kinds, axis=0))[:, 0]
    nodes = slabs.reshape(n, m, -1)
    # the entries of each element in its left neighbour's last column, but
    # for the first element of a range
    np.matmul(features[:, 1:].T, next_column, out=left)
    left[boundaries] = 0.0
    nodes[:-1, -1, :2 * m + 2] += left
    rows = nodes.reshape(m * n, -1)
    mat, b = rows[:, :2 * m + 1], rows[:, 2 * m + 1]
    b[row_ends] -= outer_hu
    ab[m:] = mat.T
    x = padded[1:]
    x[...] = b
    rhs_norm = sqrt(x @ x)

    _, _, x, info = _GBSV(m, m, ab, x, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise EllipticSolveError(
            f"singular elliptic system on {ranges}: zero pivot at element "
            f"{np.arange(grid.n_elements)[coeffs.rows][(info - 1) // m]}, "
            f"node {(info - 1) % m} (lapack info {info})")
    if info != 0:
        raise EllipticSolveError(f"elliptic solve on {ranges} failed (lapack info {info})")

    # residual of the system as assembled, not as factorized
    resid = _banded_matvec(mat.T, m, x, scratch, residual)
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

    # back-substitution for the momentum, element by element
    hu = np.einsum("kic,kc->ki", nodes[:, :, 2 * m + 2:], windows)
    hu += stack[_G].T
    return coeffs.rho * x.reshape(n, m), hu


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
    if (tuple(elements),) != coeffs.ranges:
        raise ValueError(f"coefficients assembled on {coeffs.ranges}, "
                         f"not on {(tuple(elements),)}")
    return _solve_batched(coeffs, np.array([outer_hu[1]], dtype=float))


def _right_outer_hu(predictor: FlowState, bcs: BoundaryPair, e1: int) -> float:
    """Outer (uncorrected) momentum trace just right of a range ending at e1:
    the next element's first one, or the right boundary's ghost value."""
    hu = predictor.hu.values
    if e1 < predictor.grid.n_elements - 1:
        return hu[e1 + 1, 0]
    return bcs.right.signs[1, 0] * hu[-1, -1]


def solve_on_ranges(predictor: FlowState, coeffs: EllipticCoefficients,
                    bcs: BoundaryPair,
                    workspace: BandedWorkspace | None = None) -> PressureSolution:
    """Independent per-range elliptic solves, batched into one banded system
    in `workspace` (see _solve_batched), on the ranges the coefficients were
    assembled on; p and hu stay on those elements."""
    outer = np.array([_right_outer_hu(predictor, bcs, e1) for _, e1 in coeffs.ranges])
    return PressureSolution(coeffs.grid, coeffs.rows,
                            *_solve_batched(coeffs, outer, workspace))


def central_derivative_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Element-local derivative plus central-average interface lifting.

    One-sided at the ends of the supplied element window.
    """
    d = derivative_values(grid, values)
    left_tr = values[:, 0]
    right_tr = values[:, -1]
    avg = 0.5 * (right_tr[:-1] + left_tr[1:])
    d[:-1] += (avg - right_tr[:-1])[:, None] * grid.lift_right
    d[1:] -= (avg - left_tr[1:])[:, None] * grid.lift_left
    return d


def _central_derivative_on_ranges(grid: GridSpec, values: np.ndarray,
                                  rows) -> np.ndarray:
    """central_derivative_values over the grid, of a field that is zero on
    every element off `rows`, evaluated on `rows`.

    `rows` are sorted grid rows, as EllipticCoefficients.rows, and `values`
    holds the field on them in order.  The field is laid into a zeroed
    window one element wider than the rows on each side, clipped at the
    domain ends, where the derivative is one-sided.
    """
    # one range comes as a slice, windowed by slicing
    one_range = isinstance(rows, slice)
    first, stop = (rows.start, rows.stop) if one_range else (rows[0], rows[-1] + 1)
    lo = max(first - 1, 0)
    at = slice(first - lo, stop - lo) if one_range else rows - lo
    window = np.zeros((min(stop + 1, grid.n_elements) - lo, values.shape[1]))
    window[at] = values
    return central_derivative_values(grid, window)[at]


def correct_momentum(predictor: FlowState, coeffs: EllipticCoefficients,
                     sol: PressureSolution,
                     workspace: BandedWorkspace | None = None) -> FlowState:
    """Apply the pressure correction to the momenta; mass is untouched.

    The solution names the solved elements: only they receive new momenta,
    copies of the predictor's everywhere else.  The corrected state owns a
    copy of the predictor's padded array (`FlowState.packed`).  The vertical
    update reads dt, rho, the forcing and the slope from `coeffs` and builds
    its pressure term in `workspace`, the run's, where it is given.
    """
    grid = predictor.grid
    rows, p = sol.rows, sol.p
    term = np.empty(p.shape) if workspace is None else workspace.nodal(len(p))
    if coeffs.d_x is not None:
        hp_x = _central_derivative_on_ranges(grid, predictor.h.values[rows] * p, rows)
        np.divide(6.0, coeffs.quad, out=term)
        term *= p
        term += coeffs.d_x / coeffs.quad * hp_x
    else:
        # flat stretch: the slope-weighted (h p)_x term drops out exactly
        np.multiply(p, 1.5, out=term)
    if coeffs.phi is not None:
        term += coeffs.phi
    term *= coeffs.dt / coeffs.rho

    corrected = FlowState._from_packed(grid, predictor.packed.copy(), predictor.time)
    corrected.hu.values[rows] = sol.hu
    corrected.hw.values[rows] += term
    return corrected


def apply_correction(predictor: FlowState, bottom: BottomSample, dt: float,
                     ranges, bcs: BoundaryPair, rho: float = RHO_WATER,
                     workspace: BandedWorkspace | None = None,
                     ) -> tuple[FlowState, PressureSolution]:
    """Full correction pipeline on the elements of the flagged ranges, over
    the bottom sampled at the grid's sample nodes at the predictor's time,
    every stage working in `workspace`, the run's (see BandedWorkspace).
    The ranges must be sorted and disjoint, as assemble_coefficients takes
    them."""
    coeffs = assemble_coefficients(predictor, bottom, dt, rho, ranges=ranges,
                                   workspace=workspace)
    sol = solve_on_ranges(predictor, coeffs, bcs, workspace)
    return correct_momentum(predictor, coeffs, sol, workspace), sol
