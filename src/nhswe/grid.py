"""Uniform 1D discontinuous Galerkin grid and nodal fields.

Elements carry a nodal Lagrange basis on Gauss-Lobatto points, so element
endpoints are nodes and interface traces are direct nodal reads.  All element
integrals (mass and stiffness matrices) are evaluated with Gauss-Legendre
quadrature that is exact for the chosen polynomial degree; products of fields
are interpolated nodally before integration.

Every flow state has one layout: its fields view the interior of a padded
array it owns (`FlowState.packed`), which a step reads in place.  The arrays
a step writes and no caller keeps are carved from one float64 block per run
(`carve`), each starting at a 64-byte-aligned address.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
from numpy.polynomial import legendre


def gauss_lobatto_nodes(degree: int) -> np.ndarray:
    """Gauss-Lobatto-Legendre nodes on [-1, 1] for a given polynomial degree."""
    if degree < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {degree}")
    if degree == 1:
        return np.array([-1.0, 1.0])
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    interior = legendre.legroots(legendre.legder(coeffs))
    return np.concatenate(([-1.0], np.sort(np.real(interior)), [1.0]))


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def lagrange_eval_matrix(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Matrix L with L[i, j] = phi_j(points[i]) for the Lagrange basis on nodes."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    w = barycentric_weights(nodes)
    diff = points[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-14)
    diff_safe = np.where(exact, 1.0, diff)
    terms = w[None, :] / diff_safe
    mat = terms / np.sum(terms, axis=1)[:, None]
    hit = exact.any(axis=1)
    mat[hit] = exact[hit].astype(float)
    return mat


def differentiation_matrix(nodes: np.ndarray) -> np.ndarray:
    """D[i, j] = phi_j'(nodes[i]) from the barycentric weights."""
    w = barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    mat = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -np.sum(mat, axis=1))
    return mat


@dataclass(frozen=True)
class GridSpec:
    """Uniform DG grid on [x_left, x_right] with n_elements of degree poly_order."""

    x_left: float
    x_right: float
    n_elements: int
    poly_order: int = 1

    def __post_init__(self):
        if not self.x_right > self.x_left:
            raise ValueError("x_right must exceed x_left")
        if self.n_elements < 2:
            raise ValueError("n_elements must be >= 2")
        if self.poly_order < 1:
            raise ValueError("poly_order must be >= 1")

        p = self.poly_order
        dx = (self.x_right - self.x_left) / self.n_elements
        ref = gauss_lobatto_nodes(p)
        edges = self.x_left + dx * np.arange(self.n_elements)
        nodes = edges[:, None] + 0.5 * dx * (ref[None, :] + 1.0)
        # Sampling coordinates nudged strictly into each element, so that a
        # bottom profile with a jump at an element interface is read one-sided
        # per element and the discontinuity stays at the interface.
        inset = nodes.copy()
        eps = 1e-9 * dx
        inset[:, 0] += eps
        inset[:, -1] -= eps

        gl_x, gl_w = np.polynomial.legendre.leggauss(p + 1)
        basis = lagrange_eval_matrix(ref, gl_x)          # (q, p+1)
        dref = differentiation_matrix(ref)
        dbasis = basis @ dref                            # phi_j' at quad points
        mass_ref = basis.T @ (gl_w[:, None] * basis)
        stiff_ref = dbasis.T @ (gl_w[:, None] * basis)   # K[i,j] = ∫ phi_i' phi_j
        mass = 0.5 * dx * mass_ref
        mass_inv = np.linalg.inv(mass)

        set_ = object.__setattr__
        set_(self, "dx", dx)
        set_(self, "nodes", nodes)
        set_(self, "sample_nodes", inset)
        set_(self, "mass", mass)
        set_(self, "mass_inv", mass_inv)
        set_(self, "stiffness", stiff_ref)
        set_(self, "deriv_ref", dref)
        # M^{-1} K, the volume part of the weak divergence operator
        set_(self, "weak_div", mass_inv @ stiff_ref)
        # M^{-1} e_first / e_last, flux lifting vectors
        set_(self, "lift_left", mass_inv[:, 0].copy())
        set_(self, "lift_right", mass_inv[:, -1].copy())
        # [W | lift / 2]: the volume operator and both lifts, with the sign
        # of an outward flux, as one operator on an element's m nodal fluxes
        # and its (left, right) face fluxes, which the predictor writes
        # unhalved; the halving is exact, so it costs no round-off here
        set_(self, "element_operator",
             np.column_stack((self.weak_div, 0.5 * self.lift_left, -0.5 * self.lift_right)))
        # [D 2/dx | lift / 2]: the central derivative, the element-local one
        # lifted by half of the field's jump, right value less left, across
        # each face, as one operator on an element's m nodal values and
        # those two (left, right) jumps
        set_(self, "central_operator",
             np.column_stack(((2.0 / dx) * dref, 0.5 * self.lift_left, 0.5 * self.lift_right)))

    @property
    def n_nodes(self) -> int:
        return self.n_elements * (self.poly_order + 1)

    def interfaces_near(self, points) -> list[int]:
        """The interior element interfaces nearest the points x, interface k
        lying at x_left + k dx, between elements k - 1 and k; a point nearest
        a domain end has none."""
        return [k for x in points
                if 0 < (k := round((x - self.x_left) / self.dx)) < self.n_elements]

    def nearest_node(self, x: float) -> tuple[int, int]:
        """Element and local node index of the grid node closest to x."""
        flat = np.argmin(np.abs(self.nodes - x))
        return np.unravel_index(flat, self.nodes.shape)


@dataclass(frozen=True)
class NodalField:
    """Per-element nodal coefficients of a scalar quantity on a DG grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_elements, self.grid.poly_order + 1)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        # a finite sum certifies all entries finite (NaN/inf propagate); a
        # sum of finite values may overflow, so the entries decide
        with np.errstate(over="ignore"):
            finite = np.isfinite(values.sum())
        if not (finite or np.isfinite(values).all()):
            e, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite nodal value at x={self.grid.nodes[e, j]} "
                             f"(element {e})")
        object.__setattr__(self, "values", values)

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray) -> "NodalField":
        """Trusted constructor for hot paths; skips shape/finiteness checks.

        Callers must pass a float array of the correct shape whose values
        they have already vouched for (e.g. checked once per time step).
        """
        field = object.__new__(cls)
        vars(field).update(grid=grid, values=values)
        return field


@dataclass(frozen=True)
class FlowState:
    """Conserved variables (h, hu, hw) on a common grid at a given time.

    A state owns one padded array, `packed`: (h, hu, hw) node by node with
    one ghost element at each end, shape (3, nodes, n_elements + 2).  Its
    fields view the interior as (element, node) arrays.  The ghost elements
    hold no part of the state: a step fills them from its boundary
    conditions.  Both constructors copy the fields they are given into a
    fresh padded array; `_from_packed` adopts the one it is handed.
    """

    h: NodalField
    hu: NodalField
    hw: NodalField
    time: float

    def __post_init__(self):
        if not (self.h.grid is self.hu.grid is self.hw.grid):
            raise ValueError("flow components must share one grid")
        if self.h.values.min() <= 0.0:
            el = int(np.argwhere(np.any(self.h.values <= 0.0, axis=1))[0][0])
            raise ValueError(f"non-positive water column in element {el} at t={self.time}")
        # checked, the state is the one the trusted constructor builds
        vars(self).update(vars(self._wrap(self.h, self.hu, self.hw, self.time)))

    @property
    def grid(self) -> GridSpec:
        return self.h.grid

    @classmethod
    def _wrap(cls, h: NodalField, hu: NodalField, hw: NodalField,
              time: float) -> "FlowState":
        """Trusted constructor for hot paths; skips the consistency checks."""
        grid = h.grid
        packed = np.empty((3, grid.poly_order + 1, grid.n_elements + 2))
        for k, field in enumerate((h, hu, hw)):
            packed[k, :, 1:-1] = field.values.T
        return cls._from_packed(grid, packed, time)

    @classmethod
    def _from_packed(cls, grid: GridSpec, packed: np.ndarray, time: float) -> "FlowState":
        """The state that owns the padded array the caller hands over."""
        fields = packed[:, :, 1:-1].transpose(0, 2, 1)
        state = object.__new__(cls)
        vars(state).update(h=NodalField._wrap(grid, fields[0]),
                           hu=NodalField._wrap(grid, fields[1]),
                           hw=NodalField._wrap(grid, fields[2]), time=time, packed=packed)
        return state


def derivative_values(grid: GridSpec, values: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Element-local polynomial derivative of nodal values, (elements, nodes);
    no inter-element coupling.  Written into `out` where it is given."""
    out = np.matmul(values, grid.deriv_ref.T, out=out)
    out *= 2.0 / grid.dx
    return out


# float64 entries in 64 bytes, the alignment of every carved view
_ALIGN = 8


def _aligned(count: int) -> int:
    return -(-count // _ALIGN) * _ALIGN


def carved_size(shapes) -> int:
    """Entries of a block that `carve` cuts into arrays of the given shapes."""
    return sum(_aligned(prod(shape)) for shape in shapes)


def carve(shapes, block: np.ndarray | None = None) -> list[np.ndarray]:
    """Uninitialised float64 arrays of the given shapes, cut one after the
    other from the 1-D `block`, or from a fresh block when none is given.

    Each array starts a multiple of 64 bytes past the block's start.  A
    fresh block starts at a 64-byte-aligned address, and so does every block
    carved from one, so every array does too.
    """
    sizes = [prod(shape) for shape in shapes]
    total = sum(_aligned(size) for size in sizes)
    if block is None:
        raw = np.empty(total + _ALIGN)
        skip = (-raw.ctypes.data % 64) // raw.itemsize
        block = raw[skip:skip + total]
    elif block.size < total:
        raise ValueError(f"a block of {block.size} entries cannot hold {total}")
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(block[start:start + size].reshape(shape))
        start += _aligned(size)
    return views

