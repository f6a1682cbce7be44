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

Since p* is the left trace, hu is eliminated element by element, the
standard elimination of the LDG auxiliary variable, and then every pressure
node but each element's last, the static condensation of hybridised DG
methods (Cockburn, Gopalakrishnan & Lazarov, SINUM 2009): one tridiagonal
system in the elements' last pressures is left, solved by one banded
factorization, from whose solution the other pressures and the momenta
follow element by element (see the banded layout notes below).

Coefficients are assembled, and the local systems are filled, condensed and
solved, on the flagged elements only.  That element set is worked out once,
where the mask is made: the NonHydroMask, which every stage reads; p and hu
stay on those elements until the momentum update or a caller needs them on
the whole grid.  Everything a correction writes and does not return, from
the coefficient stack to the local systems, the banded system and the
residual, lives in a BandedWorkspace carved from the run's one workspace
block, whose predictor stage buffers are dead while a correction runs.  So a
correction allocates only what it returns: the pressure, the momenta and the
corrected state.  From the assembly to the corrected state the work runs
node by node, (nodes, elements), the layout of the padded array
(FlowState.packed): the solution is recovered, and the momenta corrected,
in whole rows along the elements, with no pass that transposes.  Its cost
is therefore the work on the flagged elements, plus two parts that do not
shrink with them: the copy of the predictor's padded array that the
corrected state owns, and a fixed count of array operations, which
dominates on small masks.

A moving bottom enters through one bracket, the moving-bottom terms of the
quadratic-pressure closure (Jeschke et al., IJNMF 2017):
B = g d_x eta_x - d_tt - 2 u d_xt - u^2 d_xx, formed once on the flagged
elements (_forcing_bracket).  With q = 4 + d_x^2 its forcing is
phi = rho h B / q, and its part of f2 is -dt B / 2.  A sloped stretch forms
q and h / q once, and the momentum update's (h p)_x is one matmul of the
central operator [D 2/dx | lift / 2] (`GridSpec.central_operator`) over the
nodal values of h p and the jumps of h p across each element's two faces.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from math import isfinite, sqrt
from operator import sub

import numpy as np
from scipy.linalg import get_lapack_funcs

from .bathymetry import CHANNELS, GRAVITY, RHO_WATER, BottomSample
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


@dataclass(frozen=True)
class EllipticCoefficients:
    """Nodal coefficient and forcing fields of the elliptic system.

    The arrays hold one row per element of `ranges`, in range order; `ranges`
    None stands for the whole grid.  `mask`, their NonHydroMask, is the
    element set every later stage of the correction reads.  `phi` is None
    where the moving-bottom forcing vanishes.  `bottom`, the bottom sample on
    the whole grid at the predictor time, is not kept: `d_x` is its slope on
    the rows and `quad` = 4 + d_x^2, both None on a flat stretch.
    """

    grid: GridSpec
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    phi: np.ndarray | None
    bottom: InitVar[BottomSample]
    dt: float
    rho: float
    ranges: tuple[tuple[int, int], ...] | None = None
    mask: NonHydroMask = field(init=False, repr=False, compare=False)
    # the nodal features of the pressure system, rows _T ... _R, node by
    # node: shape (7, nodes, elements); assemble_coefficients computes them
    # directly and stores only them, the s- and f-fields being derived from
    # them on first access.  Assembled in a workspace, it views that
    # workspace and holds only until its next use: a solve in the same
    # workspace overwrites it once it has filled the local systems
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    d_x: np.ndarray | None = field(init=False, repr=False, compare=False)
    quad: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, bottom: BottomSample):
        mask = NonHydroMask.checked(self.ranges, self.grid.n_elements)
        ranges, count = mask.ranges, sum(mask.lengths)
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
        d_x = _active_rows(bottom, mask)[1]
        vars(self).update(ranges=ranges, mask=mask, stack=stack,
                          d_x=None if d_x is None else d_x.T,
                          quad=None if d_x is None else (4.0 + d_x * d_x).T)

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
    being their grid rows: (elements, nodes) views of the node-by-node
    halves of one array, as the solve recovers them.  `p_nh` is the
    pressure on the whole grid, zero off the rows, built on first use.  No
    array of a solution views a workspace, so it keeps its values while the
    run steps on.
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


_STILL_ROWS = (None,) * len(CHANNELS)


def _active_rows(bottom: BottomSample, mask: NonHydroMask) -> tuple[np.ndarray | None, ...]:
    """The mask's rows of the bottom channels node by node, (nodes, rows), in
    CHANNELS order, from one gather of the sample's block.  A derivative
    channel is None where it vanishes on the rows.  A sample with no active
    channel is not gathered: every row is None then, the depth's too."""
    if not bottom.active:
        return _STILL_ROWS
    rows = mask.gather(bottom.channels, axis=1).transpose(0, 2, 1)
    nonzero = rows[1:].any(axis=(1, 2)).tolist()
    return (rows[0], *[rows[k] if on else None for k, on in enumerate(nonzero, 1)])


def _forcing_bracket(grid: GridSpec, h: np.ndarray, hu: np.ndarray,
                     rows: tuple[np.ndarray | None, ...]) -> np.ndarray | None:
    """The moving-bottom bracket B = g d_x eta_x - d_tt - 2 u d_xt - u^2 d_xx
    on the mask's rows, or None where it vanishes; the forcing is
    phi = rho h B / (4 + d_x^2).

    Arrays are node by node, (nodes, rows); `rows` are the bottom's rows as
    _active_rows gives them.  Only the bottom channels that are active on
    the rows enter the sum.  u is formed once, and 2 u d_xt + u^2 d_xx as
    ((u d_xx + d_xt) + d_xt) u.
    """
    d, d_x, _, d_tt, d_xt, d_xx = rows
    bracket = None
    if d_x is not None:
        # eta_x on the reference element, its scale 2 / dx folded into g
        bracket = np.matmul(grid.deriv_ref, h - d)
        bracket *= (2.0 * GRAVITY / grid.dx) * d_x
    if d_tt is not None:
        if bracket is None:
            bracket = np.negative(d_tt)
        else:
            bracket -= d_tt
    if d_xt is not None or d_xx is not None:
        u = hu / h
        if d_xx is None:
            drag = d_xt + d_xt
        else:
            drag = u * d_xx
            if d_xt is not None:
                drag += d_xt
                drag += d_xt
        drag *= u
        if bracket is None:
            bracket = np.negative(drag, out=drag)
        else:
            bracket -= drag
    return bracket


def assemble_coefficients(predictor: FlowState, bottom: BottomSample, dt: float,
                          rho: float = RHO_WATER, ranges=None,
                          workspace: BandedWorkspace | None = None) -> EllipticCoefficients:
    """Nodal s- and f-fields of the elliptic system from the predictor state
    and the bottom sampled at the grid's sample nodes at its time.

    With `ranges`, a NonHydroMask or sorted, disjoint (first, last) pairs,
    the fields are computed on the elements of those ranges only; otherwise
    on the whole grid.  The coefficients keep the mask, the element set
    every later stage of the correction reads.  The work runs node by
    node, (nodes, elements), and yields the features of
    EllipticCoefficients.stack; the fields are derived from them when asked
    for.  The stack and the temporaries are `workspace`'s, the run's; without
    it the assembly carves a workspace of its own size.

    With q = 4 + d_x^2 (4 on a flat stretch) and the moving-bottom bracket
    B = g d_x eta_x - d_tt - 2 u d_xt - u^2 d_xx (_forcing_bracket), whose
    forcing is phi = rho h B / q: s12 = rho q / (4 dt h), s11 = (h_x - 1.5
    d_x) / h, s22 = 3 dt / (rho h), f1 = q (phi d_x + rho hu / dt) / (4 h)
    and f2 = -(2 hw + d_x hu / 2 + dt q phi / (2 rho)) / h - 2 d_t, so
    1 / s12' = 4 dt h / q, f1' / s12' = hu + dt phi d_x / rho and the
    forcing's part of f2 is -dt B / 2.  The work runs on c / h, c = dx / 2,
    which carries the element size into the features at no extra cost; a
    sloped stretch forms q and h / q once.
    """
    grid = predictor.grid
    mask = (ranges if isinstance(ranges, NonHydroMask)
            else NonHydroMask.checked(ranges, grid.n_elements))
    if not mask.ranges:
        raise ValueError("no element to correct: the mask flags none")
    h, hu, hw = mask.gather(predictor.packed, axis=2, shift=1)
    if workspace is None:
        workspace = BandedWorkspace(grid.poly_order + 1, h.shape[1])
    stack = workspace.stack(h.shape[1])
    c_h, c_s11, term, h_x = workspace.temporaries(h.shape[1])
    h_x = derivative_values(grid, h.T, out=h_x.reshape(h.T.shape)).T
    rows = _active_rows(bottom, mask)
    d_x, d_t = rows[1], rows[2]
    bracket = _forcing_bracket(grid, h, hu, rows)
    c = 0.5 * grid.dx
    np.divide(c, h, out=c_h)
    t, a, g, r = stack[_T], stack[_A], stack[_G], stack[_R]
    phi = quad = None
    if d_x is not None:
        np.subtract(h_x, np.multiply(d_x, 1.5, out=term), out=c_s11)
        c_s11 *= c_h
        quad = 4.0 + d_x * d_x
        # h / q, in the storage of h_x, which is read no more
        h_q = np.divide(h, quad, out=h_x)
        np.multiply(h_q, 4.0 * dt / c, out=t)
        np.multiply(c_s11, t, out=a)
        phi = np.multiply(h_q, rho)
        phi *= bracket
        np.multiply((dt / rho) * phi, d_x, out=g)
        g += hu
        np.multiply(-2.0 * hw - (0.5 * d_x) * hu, c_h, out=r)
        # -(0.5 dt / rho) q phi c / h, as 0.5 dt c B
        bracket *= 0.5 * dt * c
        r -= bracket
    else:
        np.multiply(h, dt / c, out=t)
        np.multiply(h_x, dt, out=a)
        np.multiply(h_x, c_h, out=c_s11)
        g[...] = hu
        np.multiply(np.multiply(hw, -2.0, out=term), c_h, out=r)
        if bracket is not None:
            phi = (0.25 * rho) * h * bracket
            np.multiply(phi, 2.0 * dt / rho, out=term)
            term *= c_h
            r -= term
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
                        dt=dt, rho=rho, ranges=mask.ranges, mask=mask,
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
# system in P alone.  Its equations couple an element's nodes to each other
# and to the last node of its left neighbour; only the equation of an
# element's last node reaches into its right neighbour, through E_m1 Q_k+1.
# So the nodes 0 ... m-2 of an element, its interior, appear in the
# equations of that element and of its left neighbour's last node alone.
#
# Each element therefore owns a local system of 2m + 2 rows over m + 2
# columns, every entry linear in the element's own features.  Its rows are
# the equations of its interior nodes, its last pressure, the
# back-substitutions of its m momenta, the part of its left neighbour's
# last equation that its features make, and the equation of its own last
# node; its columns the interior pressures, a constant, the left
# neighbour's last pressure and its own.  The equations are stored as
# (A | -b); the other rows as (-B | -g) for a value B P + g: the last
# pressure as (-e_m | 0), the momenta as (a - t lift | -f1' t).  So each
# row that is not an equation reads "minus the value is the row applied to
# (P, 1)".  The interior columns are eliminated by Gauss-Jordan passes,
# vectorised across all elements and without pivoting, one pass per
# interior node: the interior blocks are well conditioned.  After them an
# interior equation reads the same way, its unit pivot standing for its
# value.  What is left of the last two equations is the condensed system,
# tridiagonal in the elements' last pressures: the last pressure of element
# k couples to those of k - 1 and k + 1 only.  Its row k sums the own-last
# row of element k and the left-neighbour row of element k + 1, which the
# first element of every range leaves empty, so ranges stay independent
# and a batch of them is one block-diagonal system.  Handed the constant
# column as its right-hand side, the banded solve finds -P at the last
# nodes, and every other row yields its value by one product with
# (-P_k-1,m, -P_k,m): the m pressures and the m momenta of every element at
# once.
#
# The local systems are held entry by entry: entry (r, c) of every element
# is one contiguous row of length n, so that each pass and the recovery are
# a few whole-array operations.  The condensed system is stored in the
# LAPACK general-banded layout that dgbsv factorizes in place: entry (r, c)
# at row 2 + r - c of column c of a (4, n) Fortran-ordered array, the
# leading row being pivoting fill-in that dgbsv sets itself.  The features
# (see EllipticCoefficients.stack) carry the powers of dx / 2 that M, W and
# the lifts do, so all entries come from reference-element matrices.

# element kinds by place in the range, 2 [not first] + [not last]
_ALONE, _FIRST, _LAST, _INNER = range(4)


@lru_cache(maxsize=None)
def _couplings(m: int) -> np.ndarray:
    """Constant tensors of the local systems of elements of m nodes.

    The features of EllipticCoefficients.stack carry the element size, so
    the tensors are built on the reference element, whose half-width is 1.
    `local[kind]` maps an element's features, (7 m,) feature by feature, to
    its local system, (2m + 2) (m + 2) entries row by row.  Rows: the
    interior equations 0 ... m-2, the last pressure, the back-substitutions
    of the m nodes, the left neighbour's last equation and the element's own
    last equation.  Columns: the interior pressures, the constant, the left
    neighbour's last pressure and the element's last pressure.
    """
    ref = GridSpec(0.0, 4.0, 2, m - 1)
    M, W = ref.mass, ref.weak_div
    L_l, L_r = ref.lift_left, ref.lift_right
    K1 = ref.stiffness.copy()
    K1[0, 0] += 1.0                                 # -D_k = M diag(s11) + K1
    eye = np.eye(m)
    e0, em = eye[0], eye[-1]
    nodes = np.arange(m)
    # the row of node i's equation, the column of node j's pressure
    row = np.r_[nodes[:-1], 2 * m + 1]
    col = np.r_[nodes[:-1], m + 1]
    last, hu, left, const, prev = m - 1, m + nodes, 2 * m, m - 1, m
    local = np.zeros((4, 2 * m + 2, m + 2, 7, m))   # kind, row, column, feature, node
    for kind in range(4):
        not_first, not_last = kind >> 1, kind & 1
        sys = local[kind]
        # own equations, d/d(feature at node l) of entry (i, j): (i, j, feature, l)
        block = np.zeros((m, m, 7, m))
        block[:, :, _T] = (-np.einsum("il,lj->ijl", K1, W)
                           + not_last * np.einsum("il,l,j->ijl", K1, L_r, em))
        block[:, :, _A] = (np.einsum("ij,lj->ijl", K1, eye)
                           - np.einsum("il,lj->ijl", M, W)
                           + not_last * np.einsum("il,l,j->ijl", M, L_r, em))
        block[:, :, _C] = block[:, :, _S] = np.einsum("ij,lj->ijl", M, eye)
        block[:, :, _ONE, 0] = 0.5 * (np.outer(em, em) + np.outer(e0, e0))
        sys[row[:, None], col] = block
        sys[row, const, _R] = -M
        sys[row, const, _G] = -K1
        # the last pressure, negated: a row of its own, so that the
        # recovery yields all m pressures of an element
        sys[last, col[-1], _ONE, 0] = -1.0
        if not_first:
            # the left neighbour's last equation: -E_m1 (A_k + I / 2), A_k
            # the matrix of P_k in Q_k, and the diagonal term and the
            # right-hand side its momentum adds through E_m1 Q_k
            sys[left, col, _A, 0] = -e0
            sys[left, col, _T, 0] = W[0] - not_last * L_r[0] * em
            sys[left, col[0], _ONE, 0] -= 0.5
            sys[left, prev, _T, 0] = L_l[0]
            sys[left, const, _G, 0] = 1.0
            # the element's equations in the left neighbour's last pressure
            sys[row, prev, _A] = -M * L_l
            sys[row, prev, _T] = -K1 * L_l
            sys[row[0], prev, _ONE, 0] = -0.5
        # back-substitution of node i, negated: Q_k,i = g_i - a_i P_k,i +
        # t_i (lift^T (P_k-1,m, P_k))_i
        lift = np.zeros((m, m + 1))
        lift[:, 0] = not_first * L_l
        lift[:, 1:] = W - not_last * np.outer(L_r, em)
        sys[hu, prev, _T, nodes] = -lift[:, 0]
        sys[hu[:, None], col, _T, nodes[:, None]] = -lift[:, 1:]
        sys[hu, col, _A, nodes] = 1.0
        sys[hu, const, _G, nodes] = -1.0
    local = local.reshape(4, -1, 7 * m)
    local.flags.writeable = False
    return local


@lru_cache(maxsize=256)
def _block_template(n: int):
    """The elements of one range of n elements whose local systems differ
    from an inner element's, its ends: their positions in the range and
    kinds."""
    if n == 1:
        return (0,), (_ALONE,)
    return (0, n - 1), (_FIRST, _LAST)


@lru_cache(maxsize=512)
def _ldg_template(lengths: tuple[int, ...]):
    """The batch positions of the range-end elements of ranges of the given
    lengths, batched into one block-diagonal system, and their kinds, and
    the positions of the ranges' last elements, where the outer momentum
    enters; each as small as the number of ranges."""
    ends, kinds, lasts = [], [], []
    start = 0
    for nb in lengths:
        positions, kind = _block_template(nb)
        ends.extend(start + k for k in positions)
        kinds.extend(kind)
        start += nb
        lasts.append(start - 1)
    ends, kinds, lasts = np.array(ends), np.array(kinds), np.array(lasts)
    for a in (ends, kinds, lasts):
        a.flags.writeable = False
    return ends, kinds, lasts


@dataclass(frozen=True, eq=False)
class NonHydroMask:
    """The elements that receive the pressure correction, worked out once,
    where the mask is made: the per-element `flags`; their sorted, disjoint
    (first, last) `ranges` and `lengths`; their grid `rows` in order, a
    slice for one range and an index array for several, which `gather`
    reads; the range ends as _ldg_template gives them; and `outer`, the
    columns of a padded array (FlowState.packed) just right of each range,
    the right ghost's at the grid's end.  An empty mask has empty fields."""

    flags: np.ndarray
    ranges: tuple[tuple[int, int], ...]
    rows: slice | np.ndarray
    lengths: tuple[int, ...]
    ends: np.ndarray
    kinds: np.ndarray
    lasts: np.ndarray
    outer: np.ndarray

    @classmethod
    def from_flags(cls, flags: np.ndarray) -> NonHydroMask:
        """The mask of per-element flags, whose maximal runs are its ranges."""
        flags = np.asarray(flags, dtype=bool)
        # one scan of the flags between two unflagged ones: each run starts
        # at a rise and stops at the fall that follows
        bounded = np.zeros(flags.size + 2, dtype=bool)
        bounded[1:-1] = flags
        return cls._of(flags, (bounded[1:] != bounded[:-1]).nonzero()[0])

    @classmethod
    def checked(cls, ranges, n_elements: int) -> NonHydroMask:
        """The mask of raw, sorted and disjoint (first, last) ranges, None
        standing for the whole grid.  Ranges that meet stay apart."""
        ranges = ((0, n_elements - 1),) if ranges is None else tuple(map(tuple, ranges))
        flags, last = np.zeros(n_elements, dtype=bool), -1
        for e0, e1 in ranges:
            if e0 > e1 or e0 <= last or e1 >= n_elements:
                raise ValueError(f"invalid element range {(e0, e1)}")
            flags[e0:e1 + 1], last = True, e1
        edges = np.array([(e0, e1 + 1) for e0, e1 in ranges], dtype=np.intp)
        return cls._of(flags, edges.ravel())

    @classmethod
    def _of(cls, flags: np.ndarray, edges: np.ndarray) -> NonHydroMask:
        """The mask of `flags`, whose ranges start and stop at alternate
        `edges`, every field filled from them at once."""
        bounds = edges.tolist()
        starts, stops = bounds[::2], bounds[1::2]
        ranges = tuple(zip(starts, [stop - 1 for stop in stops]))
        lengths = tuple(map(sub, stops, starts))
        rows = slice(starts[0], stops[0]) if len(ranges) == 1 else flags.nonzero()[0]
        # an empty mask has no edges, nor range ends, kinds or last positions
        ends, kinds, lasts = _ldg_template(lengths) if ranges else (edges,) * 3
        # a mask is made every step: skip the frozen __init__, as slow as all the rest
        mask = object.__new__(cls)
        mask.__dict__.update(flags=flags, ranges=ranges, rows=rows, lengths=lengths, ends=ends,
                             kinds=kinds, lasts=lasts, outer=edges[1::2] + 1)
        return mask

    @property
    def empty(self) -> bool:
        return not self.ranges

    @property
    def fraction(self) -> float:
        return np.count_nonzero(self.flags) / self.flags.size

    def index(self, shift: int = 0) -> slice | np.ndarray:
        """The rows in an array that holds grid element e at e + shift."""
        rows = self.rows
        if isinstance(rows, slice):
            return slice(rows.start + shift, rows.stop + shift)
        return rows + shift if shift else rows

    def gather(self, values: np.ndarray, axis: int = 0, shift: int = 0) -> np.ndarray:
        """The rows of `values` along `axis`, in an array that holds grid
        element e at e + shift: a view for one range, a copy for several."""
        rows = self.rows
        if isinstance(rows, slice):
            return values[(slice(None),) * axis + (slice(rows.start + shift, rows.stop + shift),)]
        # np.take is several times faster than indexing, and reads a padded array whole
        return values.take(rows + shift if shift else rows, axis=axis)


class BandedWorkspace:
    """Everything a correction of up to `n_elements` elements of `m` nodes
    writes and does not return.

    It is carved from `block` (see `carve`), the run's workspace, whose
    predictor stage buffers are dead while a correction runs; without a
    block it carves a fresh one.  A correction on fewer elements uses a
    prefix of each array, so the pages no correction has reached are never
    touched.  In the order a correction uses them:

    - the coefficient stack (`stack`), which the solve reads once and then
      overwrites with the products of its elimination and its recovery;
      the assembly's `temporaries` live in the local systems' storage, not
      yet filled;
    - `local`, the local systems entry by entry, reduced in place;
    - the condensed system in the layout of `ab` with its right-hand side
      in the row dgbsv fills in (`band`), the dgbsv work array `ab` and the
      residual check's products (`scratch`); the residual lands in `ab`'s
      storage, the momentum update's term (`nodal`, node by node) in
      `band`'s, and the operand of its central derivative (`operand`) in
      `local`'s;
    - `padded`, the condensed solution after one zero, whose `windows` row
      0 views each element's left neighbour's value and row 1 its own.
    """

    def __init__(self, m: int, n_elements: int, block: np.ndarray | None = None):
        self.m = m
        n = n_elements
        (self._stack, self._local, self._band, self._ab, self._scratch,
         self._padded) = carve(self.shapes(m, n), block)
        # four rows of the grid's nodal size, each 64-byte aligned
        self._temporaries = self._local[:carved_size([(m * n,)] * 4)].reshape(4, -1)
        self._windows = np.lib.stride_tricks.as_strided(
            self._padded, (2, n), (self._padded.itemsize,) * 2)

    @staticmethod
    def shapes(m: int, n_elements: int) -> list[tuple[int]]:
        """The shapes of the flat regions, in the order they are carved."""
        n = n_elements
        return [(max(7 * m * n, 2 * m * (m + 1) * n),),
                (max((2 * m + 2) * (m + 2) * n, carved_size([(m * n,)] * 4)),),
                (max(4, m) * n,), (4 * n,), (3 * n + 9,), (n + 1,)]

    def stack(self, n: int) -> np.ndarray:
        """The coefficient stack of n elements, (7, m, n)."""
        return self._stack[:7 * self.m * n].reshape(7, self.m, n)

    def temporaries(self, n: int) -> np.ndarray:
        """Four (m, n) arrays for the assembly's temporaries, (4, m, n)."""
        return self._temporaries[:, :self.m * n].reshape(4, self.m, n)

    def arrays(self, n: int):
        """(products, local, band, ab, scratch, padded, windows) for a system
        of n elements: `products` is the stack's storage, flat, where the
        elimination and the recovery form their products; `local` is
        entry by entry, (2m + 2, m + 2, n); `band`, Fortran-ordered as
        `ab`, holds the condensed system's right-hand side and then its
        three diagonals as _banded_matvec reads them, (4, n).  The
        solution's leading zero is set here, as other users of the block
        write it."""
        m = self.m
        padded = self._padded[:n + 1]
        padded[0] = 0.0
        return (self._stack, self._local[:(2 * m + 2) * (m + 2) * n].reshape(2 * m + 2, m + 2, n),
                self._band[:4 * n].reshape(n, 4).T, self._ab[:4 * n].reshape(n, 4).T,
                self._scratch, padded, self._windows[:, :n])

    def nodal(self, n: int) -> np.ndarray:
        """The momentum update's pressure term of n elements, node by node,
        (m, n)."""
        return self._band[:self.m * n].reshape(self.m, n)

    def operand(self, n: int) -> np.ndarray:
        """The operand of the momentum update's central derivative of n
        elements, (m + 2, n), in the local systems' storage, which the
        update no longer reads."""
        return self._local[:(self.m + 2) * n].reshape(self.m + 2, n)


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


def _singular(coeffs: EllipticCoefficients, what: str, k: int, node: int,
              info: str = "") -> EllipticSolveError:
    """The error of a zero pivot at node `node` of the k-th solved element."""
    i = int(np.searchsorted(coeffs.mask.lasts, k))  # the range holding k
    element = coeffs.ranges[i][1] - int(coeffs.mask.lasts[i] - k)
    return EllipticSolveError(f"singular elliptic system on {coeffs.ranges}: {what} "
                              f"at element {element}, node {node}{info}")


def _solve_batched(coeffs: EllipticCoefficients, outer_hu: np.ndarray,
                   workspace: BandedWorkspace | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the elliptic system on the disjoint ranges the coefficients were
    assembled on, in one banded solve of the condensed system, built in
    `workspace`, the run's, or in a workspace of its own size.

    `outer_hu` holds the outer momentum trace just right of each range.
    Returns nodal (p, hu) arrays, (flagged elements, nodes) in range order:
    transposed views of the two halves of one fresh (2, nodes, elements)
    array, which the recovery fills node by node.  The solve runs on
    p / rho, so the corrected momenta are exactly invariant under a change
    of density; the pressure rows are scaled back before their values are
    taken.
    """
    ranges, mask = coeffs.ranges, coeffs.mask
    _, m, n = coeffs.stack.shape
    features = coeffs.stack.reshape(7 * m, n)
    local_of = _couplings(m)

    if workspace is None:
        workspace = BandedWorkspace(m, n)
    stack, local, band, ab, scratch, padded, windows = workspace.arrays(n)
    # every element's local system as an inner element's, then the range
    # ends as what they are
    entries = local.reshape(-1, n)
    np.matmul(local_of[_INNER], features, out=entries)
    entries[:, mask.ends] = np.matmul(local_of.take(mask.kinds, axis=0),
                                      features.take(mask.ends, axis=1).T[:, :, None])[:, :, 0].T

    # Gauss-Jordan passes over the interior pressures: the pivot row is
    # scaled to a unit pivot and subtracted from every other row but the
    # last pressure's, which holds no interior pressure.  The products are
    # formed where the coefficient stack was, which nothing reads again
    for j in range(m - 1):
        pivot = local[j, j]
        # a zero pivot, or a non-finite one, whose square is not finite
        if not (np.count_nonzero(pivot) == n and isfinite(pivot @ pivot)):
            bad = ~np.isfinite(pivot) | (pivot == 0.0)
            if bad.any():
                raise _singular(coeffs, "zero or non-finite interior pivot",
                                int(np.argmax(bad)), j)
        rest = local[j, j + 1:]
        rest /= pivot
        for first, stop in ((0, j), (j + 1, m - 1), (m, 2 * m + 2)):
            if first < stop:
                others = local[first:stop, j + 1:]
                products = stack[:others.size].reshape(others.shape)
                np.multiply(local[first:stop, j, None], rest, out=products)
                others -= products

    # the condensed system: row k sums element k's own last row and element
    # k + 1's left-neighbour row.  Columns m - 1 ... m + 1 are the constant
    # and the two last pressures, so in the flat storage the left row's
    # constant and left-pressure entries of elements 1 ... n - 1 run on into
    # those of element 0, the first of its range, whose left row is zero
    flat = local.reshape(-1)
    left, own = (2 * m * (m + 2) + m - 1) * n, ((2 * m + 1) * (m + 2) + m) * n
    np.add(local[2 * m + 1, m + 1:m - 2:-2], flat[left + 1:left + 1 + 2 * n].reshape(2, n)[::-1],
           out=band[2::-2])
    band[1] = local[2 * m, m + 1]
    # below the diagonal, element k + 1's own row; the entry past the last
    # column lies outside the matrix and is not read
    band[3] = flat[own + 1:own + 1 + n]
    mat, rhs = band[1:], band[0]
    rhs[mask.lasts] += outer_hu
    ab[...] = band
    x = padded[1:]
    x[...] = rhs
    rhs_norm = sqrt(x @ x)

    _, _, x, info = _GBSV(1, 1, ab, x, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise _singular(coeffs, "zero pivot", info - 1, m - 1, f" (lapack info {info})")
    if info != 0:
        raise EllipticSolveError(f"elliptic solve on {ranges} failed (lapack info {info})")

    # residual of the condensed system as assembled, not as factorized
    resid = _banded_matvec(mat, 1, x, scratch, ab.T.reshape(-1)[:n + 2])
    resid -= rhs
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

    # the value of every other row from x = -P at the last nodes, node by
    # node into one fresh array: the m pressures, scaled to p by their rows,
    # then the m momenta.  A row's value is its product with -P_k-1,m plus
    # its product with -P_k,m, formed in the products' storage, less its
    # constant
    local[:m, m - 1:] *= coeffs.rho
    values = np.empty((2, m, n))
    rows = values.reshape(2 * m, n)
    np.multiply(local[:2 * m, m], windows[0], out=rows)
    products = stack[:2 * m * n].reshape(2 * m, n)
    rows += np.multiply(local[:2 * m, m + 1], windows[1], out=products)
    rows -= local[:2 * m, m - 1]
    return values[0].T, values[1].T


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


def solve_on_ranges(predictor: FlowState, coeffs: EllipticCoefficients,
                    bcs: BoundaryPair,
                    workspace: BandedWorkspace | None = None) -> PressureSolution:
    """Independent per-range elliptic solves, batched into one banded system
    in `workspace` (see _solve_batched), on the ranges the coefficients were
    assembled on; p and hu stay on those elements.  The outer momentum right
    of a range is read from the predictor's padded array, whose right ghost,
    which holds no part of the state, takes the boundary's ghost value
    first.  An EllipticSolveError names the predictor's time."""
    packed = predictor.packed
    packed[1, 0, -1] = bcs.right.signs[1, 0] * packed[1, -1, -2]
    try:
        p, hu = _solve_batched(coeffs, packed[1, 0].take(coeffs.mask.outer), workspace)
    except EllipticSolveError as exc:
        raise EllipticSolveError(f"{exc} at t={predictor.time:.6g}") from None
    return PressureSolution(coeffs.grid, coeffs.mask.rows, p, hu)


def _central_derivative_on_ranges(grid: GridSpec, operand: np.ndarray,
                                  mask: NonHydroMask, out: np.ndarray | None = None
                                  ) -> np.ndarray:
    """The central derivative over the grid of a field that is zero off the
    mask's rows, on those rows, node by node: the element-local derivative
    lifted by half of the field's jump across each face, one-sided at the
    domain ends.  Written into `out` where it is given.

    `operand`, (m + 2, rows), holds the field's m nodal rows on the mask's
    rows in order; its last two rows are overwritten with the jump, right
    value less left, across each element's left face and across its right
    face.  Across a face to an element off the mask the field is zero on
    the other side; across a domain end the jump is zero.  One matmul of
    `GridSpec.central_operator` over it is the derivative.
    """
    m = operand.shape[0] - 2
    first, last, left, right = operand[0], operand[m - 1], operand[m], operand[m + 1]
    # a face between two neighbours on the mask is the right face of the
    # one and the left face of the other, so both rows take its jump
    np.subtract(first[1:], last[:-1], out=left[1:])
    right[:-1] = left[1:]
    ranges = mask.ranges
    left[0] = 0.0 if ranges[0][0] == 0 else first[0]
    right[-1] = 0.0 if ranges[-1][1] == grid.n_elements - 1 else -last[-1]
    # where a range does not start next to the one before, each of the two
    # faces has an element off the mask on its other side
    apart = [k + 1 for k, (_, e1), (e0, _) in zip(mask.lasts.tolist(), ranges, ranges[1:])
             if e0 > e1 + 1]
    if apart:
        before = [k - 1 for k in apart]
        left[apart] = first[apart]
        right[before] = -last[before]
    return np.matmul(grid.central_operator, operand, out=out)


def correct_momentum(predictor: FlowState, coeffs: EllipticCoefficients,
                     sol: PressureSolution,
                     workspace: BandedWorkspace | None = None) -> FlowState:
    """Apply the pressure correction to the momenta; mass is untouched.

    The solution names the solved elements: only they receive new momenta,
    copies of the predictor's everywhere else.  The corrected state owns a
    copy of the predictor's padded array (`FlowState.packed`), whose
    momentum rows, contiguous along the elements, take the solution node by
    node.  The vertical update, dt / rho ((6 p + d_x (h p)_x) / q + phi),
    reads dt, rho, the forcing and the slope from `coeffs` and builds its
    pressure term, (nodes, elements), and the operand of (h p)_x in
    `workspace`, the run's, where it is given.
    """
    grid, mask = predictor.grid, coeffs.mask
    # node by node, (nodes, elements), as the solution and the padded array
    p = sol.p.T
    m, n = p.shape
    term = np.empty(p.shape) if workspace is None else workspace.nodal(n)
    if coeffs.d_x is not None:
        operand = np.empty((m + 2, n)) if workspace is None else workspace.operand(n)
        hp = np.multiply(mask.gather(predictor.packed[0], axis=1, shift=1), p,
                         out=operand[:m])
        _central_derivative_on_ranges(grid, operand, mask, out=term)
        term *= coeffs.d_x.T
        # 6 p in the rows of h p, which the derivative has read
        term += np.multiply(p, 6.0, out=hp)
        term /= coeffs.quad.T
    else:
        # flat stretch: the slope-weighted (h p)_x term drops out exactly
        np.multiply(p, 1.5, out=term)
    if coeffs.phi is not None:
        term += coeffs.phi.T
    term *= coeffs.dt / coeffs.rho

    packed = predictor.packed.copy()
    at = mask.index(1)
    packed[1][:, at] = sol.hu.T
    packed[2][:, at] += term
    return FlowState._from_packed(grid, packed, predictor.time)


def apply_correction(predictor: FlowState, bottom: BottomSample, dt: float,
                     ranges, bcs: BoundaryPair, rho: float = RHO_WATER,
                     workspace: BandedWorkspace | None = None,
                     ) -> tuple[FlowState, PressureSolution]:
    """Full correction pipeline on the elements of the flagged ranges, over
    the bottom sampled at the grid's sample nodes at the predictor's time,
    every stage working in `workspace`, the run's (see BandedWorkspace).
    `ranges` is a NonHydroMask, or sorted, disjoint (first, last) pairs,
    which assemble_coefficients checks."""
    coeffs = assemble_coefficients(predictor, bottom, dt, rho, ranges=ranges,
                                   workspace=workspace)
    sol = solve_on_ranges(predictor, coeffs, bcs, workspace)
    return correct_momentum(predictor, coeffs, sol, workspace), sol
