"""Elliptic corrector tests: forcing values, structure, manufactured solutions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhswe.bathymetry import (FlatBottom, GRAVITY, HammackPlate, RHO_WATER,
                              SlideMotion, WhittakerSlide)
from nhswe.corrector import (_S, EllipticCoefficients, EllipticSolveError, NonHydroMask,
                             _banded_matvec, apply_correction,
                             assemble_coefficients, ldg_solve, solve_on_ranges)
from nhswe.grid import FlowState, GridSpec, NodalField, derivative_values
from nhswe.hydrostatic import ABSORBING, WALL, BoundaryPair

WALLS = BoundaryPair(WALL, WALL)


def central_derivative_values(grid, values):
    """The whole-grid reference of the momentum update's (h p)_x: the
    element-local derivative of (elements, nodes) values plus the
    central-average interface lifting, one-sided at the domain ends."""
    d = derivative_values(grid, values)
    left_tr = values[:, 0]
    right_tr = values[:, -1]
    avg = 0.5 * (right_tr[:-1] + left_tr[1:])
    d[:-1] += (avg - right_tr[:-1])[:, None] * grid.lift_right
    d[1:] -= (avg - left_tr[1:])[:, None] * grid.lift_left
    return d


def still_state(grid, bathy, t=0.0):
    d = bathy.sample(grid.sample_nodes, t).d
    zero = np.zeros_like(d)
    return FlowState(NodalField(grid, d), NodalField(grid, zero),
                     NodalField(grid, zero), t)


def bottom_at(state, bathy):
    """The bottom at the grid's sample nodes at the state's time."""
    return bathy.sample(state.grid.sample_nodes, state.time)


def right_outer_hu(state, e1):
    """The uncorrected momentum trace just right of a range ending at e1,
    between walls: the next element's first, or the wall ghost's."""
    hu = state.hu.values
    return hu[e1 + 1, 0] if e1 < state.grid.n_elements - 1 else -hu[-1, -1]


def smooth_state(grid, d0=10.0, amp=0.5, u0=0.2):
    x = grid.nodes
    h = d0 + amp * np.exp(-((x - x.mean()) / 5.0) ** 2)
    hu = u0 * h * np.sin(0.3 * x)
    hw = 0.05 * h * np.cos(0.2 * x)
    return FlowState(NodalField(grid, h), NodalField(grid, hu),
                     NodalField(grid, hw), 0.0)


# ---------------------------------------------------------------- forcing phi

def test_phi_vanishes_on_flat_static_bottom():
    grid = GridSpec(0.0, 100.0, 20, 1)
    state = smooth_state(grid)
    assert assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), 0.1).phi is None


def test_phi_hand_value_inside_plate():
    # flat moving plate: only the vertical acceleration term survives and
    # phi = -rho h d_tt / 4 there
    grid = GridSpec(0.0, 5.0, 100, 1)
    bathy = HammackPlate(0.05, 0.005, 0.6, 0.13)
    t = 0.2
    state = still_state(grid, bathy, t)
    phi = assemble_coefficients(state, bottom_at(state, bathy), 0.01).phi
    s = bathy.sample(grid.sample_nodes, t)
    expected = -RHO_WATER * state.h.values * s.d_tt / 4.0
    assert np.allclose(phi, expected, atol=1e-12)


def test_phi_matches_bruteforce_formula_on_moving_slope():
    # independent recomputation of the full closure on a sloped moving
    # bottom, at P1 to P3
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    bathy = WhittakerSlide(0.175, 0.026, 0.5, motion, x_start=5.0)
    t = 0.7
    for order in (1, 2, 3):
        grid = GridSpec(0.0, 15.0, 200, order)
        state = smooth_state(grid, d0=0.175, amp=0.01, u0=0.1)
        state = FlowState(state.h, state.hu, state.hw, t)
        s = bathy.sample(grid.sample_nodes, t)
        assert np.count_nonzero(s.d_x) > order
        h = state.h.values
        u = state.hu.values / h
        eta_x = derivative_values(grid, h - s.d)
        brute = (RHO_WATER * h / (4.0 + s.d_x ** 2)) * (
            GRAVITY * s.d_x * eta_x - s.d_tt - 2.0 * u * s.d_xt - u * u * s.d_xx)
        phi = assemble_coefficients(state, bottom_at(state, bathy), 0.01).phi
        assert np.allclose(phi, brute, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------- assembly

def test_structural_conditions_and_hand_coefficient():
    grid = GridSpec(0.0, 100.0, 40, 1)
    state = smooth_state(grid)
    dt = 0.1
    co = assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), dt)
    assert np.all(co.s11 + co.s21 == 0.0)
    assert np.all(co.s12 > 0.0)
    # flat bottom: s12 = rho / (dt h), s22 = 3 dt / (rho h)
    assert np.allclose(co.s12, RHO_WATER / (dt * state.h.values), rtol=1e-13)
    assert np.allclose(co.s22, 3.0 * dt / (RHO_WATER * state.h.values), rtol=1e-13)


def test_first_step_forcing_sign_for_uplift():
    # right after an upward plate start, d_t < 0 inside the plate, so the
    # divergence forcing f2 = -2 d_t - ... is positive there
    grid = GridSpec(0.0, 25.0, 1000, 1)
    bathy = HammackPlate(0.05, 0.005, 0.6, 0.1289)
    t = 0.005
    state = still_state(grid, bathy, t)
    co = assemble_coefficients(state, bottom_at(state, bathy), 0.01)
    inside = grid.sample_nodes < 0.6
    assert np.all(co.f2[inside] > 0.0)


def test_coefficient_structure_is_enforced():
    grid = GridSpec(0.0, 1.0, 4, 1)
    ones = np.ones((4, 2))
    bottom = FlatBottom(1.0).sample(grid.sample_nodes, 0.0)
    with pytest.raises(AssertionError, match="s11"):
        EllipticCoefficients(grid, ones, ones, ones, ones, ones, ones,
                             np.zeros((4, 2)), bottom, 0.1, 1000.0)
    with pytest.raises(AssertionError, match="s12"):
        EllipticCoefficients(grid, ones, -ones, -ones, ones, ones, ones,
                             np.zeros((4, 2)), bottom, 0.1, 1000.0)


# ------------------------------------------------------------------- solves

def manufactured_coefficients(n, with_forcing=True):
    """Smooth analytic system on [0, 1] with a known (p, hu) solution."""
    grid = GridSpec(0.0, 1.0, n, 1)
    x = grid.nodes
    s11 = 0.4 * np.sin(2.0 * np.pi * x)
    s12 = 2.0 + np.cos(x)
    s22 = 1.0 + 0.5 * np.sin(3.0 * x)
    p_ex = np.sin(np.pi * x)                # zero at both range endpoints
    hu_ex = np.cos(2.0 * x) + 2.0
    if with_forcing:
        f1 = np.pi * np.cos(np.pi * x) + s11 * p_ex + s12 * hu_ex
        f2 = -2.0 * np.sin(2.0 * x) - s11 * hu_ex + s22 * p_ex
    else:
        f1 = np.zeros_like(x)
        f2 = np.zeros_like(x)
    bottom = FlatBottom(1.0).sample(grid.sample_nodes, 0.0)
    # rho = 1: the manufactured system carries no density of its own
    co = EllipticCoefficients(grid, s11, s12, -s11, s22, f1, f2,
                              np.zeros_like(x), bottom, 0.1, 1.0)
    return grid, co, p_ex, hu_ex


def test_zero_forcing_zero_outer_gives_zero_solution():
    grid, co, _, _ = manufactured_coefficients(24, with_forcing=False)
    p, hu = ldg_solve(co, (0, 23), outer_hu=(0.0, 0.0))
    assert np.abs(p).max() < 1e-12
    assert np.abs(hu).max() < 1e-12


def test_manufactured_solution_convergence():
    errs_p, errs_q = [], []
    for n in (16, 32, 64, 128):
        grid, co, p_ex, hu_ex = manufactured_coefficients(n)
        p, hu = ldg_solve(co, (0, n - 1),
                          outer_hu=(hu_ex[0, 0], hu_ex[-1, -1]))
        errs_p.append(np.sqrt(np.mean((p - p_ex) ** 2)))
        errs_q.append(np.sqrt(np.mean((hu - hu_ex) ** 2)))
    rates_p = np.log2(np.array(errs_p[:-1]) / np.array(errs_p[1:]))
    rates_q = np.log2(np.array(errs_q[:-1]) / np.array(errs_q[1:]))
    assert rates_p.min() > 1.5
    assert rates_q.min() > 1.5


def assert_batch_matches_separate_solves(state, bathy, ranges):
    bottom = bottom_at(state, bathy)
    sol = solve_on_ranges(state, assemble_coefficients(state, bottom, 0.1, ranges=ranges),
                          WALLS)
    k = 0
    for e0, e1 in ranges:
        co = assemble_coefficients(state, bottom, 0.1, ranges=[(e0, e1)])
        p_one, hu_one = ldg_solve(co, (e0, e1),
                                  outer_hu=(0.0, right_outer_hu(state, e1)))
        assert np.allclose(sol.p_nh.values[e0:e1 + 1], p_one, atol=1e-9)
        # sol.hu holds the ranges' elements in range order
        assert np.allclose(sol.hu[k:k + e1 - e0 + 1], hu_one, atol=1e-12)
        k += e1 - e0 + 1


def test_batched_ranges_match_separate_solves():
    grid = GridSpec(0.0, 100.0, 60, 1)
    state = smooth_state(grid)
    bathy = FlatBottom(10.0)
    assert_batch_matches_separate_solves(state, bathy, ((3, 12), (20, 21), (30, 55)))

    # a batch whose combination of range lengths no solve has met before,
    # touching both domain ends: its template is composed on the spot from
    # the per-length blocks
    from nhswe.corrector import _ldg_template
    ranges = ((0, 6), (9, 9), (14, 26), (40, 43), (51, 59))
    misses = _ldg_template.cache_info().misses
    co = assemble_coefficients(state, bottom_at(state, bathy), 0.1, ranges=ranges)
    solve_on_ranges(state, co, WALLS)
    assert _ldg_template.cache_info().misses == misses + 1
    assert_batch_matches_separate_solves(state, bathy, ranges)


@st.composite
def wall_range_sets(draw, n):
    """Sorted, disjoint ranges on a grid of n elements, some of them meeting,
    the first starting at the left wall or the last ending at the right one."""
    wall = draw(st.sampled_from(["left", "right", "both"]))
    e0 = 0 if wall != "right" else draw(st.integers(0, 5))
    ranges = []
    while e0 < n:
        e1 = min(e0 + draw(st.integers(0, 7)), n - 1)
        ranges.append((e0, e1))
        e0 = e1 + 1 + draw(st.integers(0, 4))
    if wall != "left":
        ranges[-1] = (ranges[-1][0], n - 1)
    return tuple(ranges)


@settings(max_examples=30, deadline=None)
@given(ranges=wall_range_sets(30), order=st.sampled_from([1, 2]))
def test_batched_ranges_match_per_range_solves_at_the_walls(ranges, order):
    # however the ranges are batched, each solves as it does alone, with the
    # wall ghost's momentum right of a range that ends at the right wall
    state = smooth_state(GridSpec(0.0, 100.0, 30, order))
    assert_batch_matches_separate_solves(state, FlatBottom(10.0), ranges)


def dense_ldg_system(co, ranges, outer_hu):
    """The uncondensed flip-flop LDG system of the coefficients, built
    densely from its weak form, in the unknowns (p / rho, hu) of each node,
    element by element: (A, b).

    Per element, -K p + M (s11 p + s12' hu) + [p*] = M f1' and
    -K hu + M (s21 hu + s22' p) + [hu*] = M f2, with s12' = s12 / rho,
    s22' = rho s22, f1' = f1 / rho and [F] the face terms of a flux F: F
    on the row of the element's last node at its right face, -F on the row
    of its first node at its left face.  Inside a range p* = p(left
    trace) and hu* = hu(right trace) + (p(left) - p(right)) / 2; at a range
    end p* = 0, the pressure outside is 0, and hu* takes the range's own
    trace at the left end and the outer momentum at the right end.
    """
    grid = co.grid
    m = grid.poly_order + 1
    M, K = grid.mass, grid.stiffness
    rho = co.rho
    s11, s12, s21 = co.s11, co.s12 / rho, co.s21
    s22, f1, f2 = co.s22 * rho, co.f1 / rho, co.f2
    size = 2 * m * len(s11)
    A = np.zeros((size, size))
    b = np.zeros(size)

    def P(k, j):
        return 2 * (k * m + j)

    def Q(k, j):
        return 2 * (k * m + j) + 1

    first = 0
    for (e0, e1), hu_out in zip(ranges, outer_hu):
        last = first + e1 - e0
        for k in range(first, last + 1):
            for i in range(m):
                for j in range(m):
                    A[P(k, i), P(k, j)] += M[i, j] * s11[k, j] - K[i, j]
                    A[P(k, i), Q(k, j)] += M[i, j] * s12[k, j]
                    A[Q(k, i), Q(k, j)] += M[i, j] * s21[k, j] - K[i, j]
                    A[Q(k, i), P(k, j)] += M[i, j] * s22[k, j]
                b[P(k, i)] += M[i] @ f1[k]
                b[Q(k, i)] += M[i] @ f2[k]
        # the faces of the range, left to right: (element left, element
        # right, p* and hu* as {unknown: weight}, constant part of hu*)
        faces = [(None, first, {}, {Q(first, 0): 1.0, P(first, 0): -0.5}, 0.0)]
        for k in range(first, last):
            faces.append((k, k + 1, {P(k, m - 1): 1.0},
                          {Q(k + 1, 0): 1.0, P(k, m - 1): 0.5, P(k + 1, 0): -0.5}, 0.0))
        faces.append((last, None, {}, {P(last, m - 1): 0.5}, hu_out))
        for left, right, p_star, hu_star, hu_const in faces:
            for element, node, sign in ((left, m - 1, 1.0), (right, 0, -1.0)):
                if element is None:
                    continue
                for col, w in p_star.items():
                    A[P(element, node), col] += sign * w
                for col, w in hu_star.items():
                    A[Q(element, node), col] += sign * w
                b[Q(element, node)] -= sign * hu_const
        first = last + 1
    return A, b


def sloped_state(grid, t=0.3):
    # a bump wider than the grid slopes under every element, and moves
    motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
    bathy = WhittakerSlide(1.0, 0.3, 14.0, motion, x_start=5.0)
    x = grid.nodes
    h = bathy.sample(grid.sample_nodes, t).d + 0.02 * np.sin(0.7 * x)
    state = FlowState(NodalField(grid, h), NodalField(grid, 0.1 * h * np.cos(0.4 * x)),
                      NodalField(grid, 0.01 * h * np.sin(0.9 * x)), t)
    return state, bathy


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bottom", ["flat", "sloped"])
@pytest.mark.parametrize("ranges", [((0, 0), (1, 2), (5, 11), (20, 39)),
                                    ((0, 5), (6, 6), (10, 11), (39, 39)),
                                    ((3, 17),)])
def test_pressure_only_solve_satisfies_the_full_ldg_system(order, bottom, ranges):
    # the solve eliminates hu element by element and solves for the
    # pressure alone; the recovered (p, hu) must satisfy the uncondensed
    # system, built here independently of the solver.  The ranges cover
    # 1- and 2-element ranges, ranges that meet, and both domain ends
    if bottom == "flat":
        grid = GridSpec(0.0, 100.0, 40, order)
        state, bathy, dt = smooth_state(grid), FlatBottom(10.0), 0.1
    else:
        grid = GridSpec(0.0, 10.0, 40, order)
        (state, bathy), dt = sloped_state(grid), 0.01
    sample = bottom_at(state, bathy)
    co = assemble_coefficients(state, sample, dt, ranges=ranges)
    if bottom == "sloped":
        assert co.phi is not None and np.all(sample.d_x != 0.0)
    outer = [right_outer_hu(state, e1) for _, e1 in ranges]
    assert all(hu != 0.0 for hu in outer)
    sol = solve_on_ranges(state, co, WALLS)
    z = np.empty(2 * sol.p.size)
    z[0::2] = sol.p.ravel() / co.rho
    z[1::2] = sol.hu.ravel()
    A, b = dense_ldg_system(co, ranges, outer)
    resid = np.abs(A @ z - b).max()
    assert resid <= 1e-12 * max(np.abs(b).max(), (np.abs(A) @ np.abs(z)).max())
    # and the system has one solution, which the solve found
    exact = np.linalg.solve(A, b)
    assert np.abs(z - exact).max() <= 1e-9 * np.abs(exact).max()


def test_global_solve_factors_the_pressure_system_only(monkeypatch):
    # the interior nodes are eliminated element by element, so the banded
    # solve holds one unknown per element, its last node's pressure: n
    # columns and bandwidth 1 on both sides, a dgbsv work array of 4 rows
    from nhswe import corrector
    seen = []
    solve = corrector._GBSV

    def recording(kl, ku, ab, b, **kwargs):
        seen.append((kl, ku, ab.shape, b.shape))
        return solve(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(corrector, "_GBSV", recording)
    for order in (1, 2):
        m, n = order + 1, 30
        grid = GridSpec(0.0, 100.0, n, order)
        state = smooth_state(grid)
        apply_correction(state, bottom_at(state, FlatBottom(10.0)), 0.1, [(0, n - 1)], WALLS)
        assert seen[-1] == (1, 1, (4, n), (n,))


def test_coefficients_must_hold_one_row_per_element_of_their_ranges():
    grid = GridSpec(0.0, 100.0, 60, 1)
    state = smooth_state(grid)
    sample = bottom_at(state, FlatBottom(10.0))
    whole = assemble_coefficients(state, sample, 0.1)
    fields = [whole.s11, whole.s12, whole.s21, whole.s22, whole.f1, whole.f2, whole.phi]
    with pytest.raises(ValueError, match=r"s11 has 60 rows, but the ranges "
                                         r"\(\(3, 12\),\) hold 10 elements"):
        EllipticCoefficients(grid, *fields, sample, 0.1, RHO_WATER, ranges=[(3, 12)])
    # the rows of those elements are accepted, and solve as assembled
    part = assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), 0.1, ranges=[(3, 12)])
    rows = [f[3:13] for f in fields[:-1]]
    checked = EllipticCoefficients(grid, *rows, None, sample, 0.1, RHO_WATER,
                                   ranges=[(3, 12)])
    for a, b in zip(ldg_solve(part, (3, 12), (0.0, 1.0)),
                    ldg_solve(checked, (3, 12), (0.0, 1.0))):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_zero_pivot_names_the_grid_element(monkeypatch):
    # lapack reports the column of a zero pivot in the condensed system,
    # one column per solved element, its last node; the error maps it back
    # through the ranges to a grid element, and names the predictor's time
    from nhswe import corrector
    grid = GridSpec(0.0, 100.0, 60, 1)
    state = smooth_state(grid)
    state = FlowState(state.h, state.hu, state.hw, 1.25)
    ranges = ((3, 4), (10, 12))
    co = assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), 0.1, ranges=ranges)
    solve = corrector._GBSV

    def singular(*args, **kwargs):
        lub, piv, x, _ = solve(*args, **kwargs)
        return lub, piv, x, 4    # U(4, 4) = 0: column 3, the 4th element's last node

    monkeypatch.setattr(corrector, "_GBSV", singular)
    with pytest.raises(EllipticSolveError, match=r"zero pivot at element 11, node 1 "
                                                 r"\(lapack info 4\) at t=1.25$"):
        solve_on_ranges(state, co, WALLS)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("value", [0.0, np.nan])
def test_zero_interior_pivot_names_the_grid_element(order, value):
    # the interior nodes are eliminated without pivoting; a zero or
    # non-finite pivot is refused before it divides anything, naming the
    # element and node, and no numpy warning is raised on the way.  With
    # every feature of an element zero (or one of them NaN), the pivot of
    # its first interior node is zero (NaN).  The error names the
    # predictor's time
    grid = GridSpec(0.0, 100.0, 60, order)
    state = smooth_state(grid)
    state = FlowState(state.h, state.hu, state.hw, 1.25)
    ranges = ((3, 4), (10, 12))
    co = assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), 0.1, ranges=ranges)
    co.stack[:, :, 3] = 0.0
    co.stack[_S, 0, 3] = value
    with pytest.raises(EllipticSolveError, match=r"zero or non-finite interior pivot "
                                                 r"at element 11, node 0 at t=1.25$"):
        solve_on_ranges(state, co, WALLS)


def test_solves_refuse_coefficients_of_other_ranges():
    grid = GridSpec(0.0, 100.0, 60, 1)
    state = smooth_state(grid)
    whole = assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), 0.1)
    part = assemble_coefficients(state, bottom_at(state, FlatBottom(10.0)), 0.1, ranges=[(3, 12)])
    with pytest.raises(ValueError, match="assembled on"):
        ldg_solve(part, (3, 13))
    with pytest.raises(ValueError, match="assembled on"):
        ldg_solve(whole, (3, 12))


def test_left_outer_momentum_does_not_enter():
    # with p* = p(left trace) and hu* = hu(right trace) + [p]/2, a range's
    # left end reads only its own traces: a correction on a range starting
    # at element 0 is the same under either left boundary, and ldg_solve
    # ignores the left outer momentum
    grid = GridSpec(0.0, 100.0, 40, 1)
    state = smooth_state(grid)
    bathy = FlatBottom(10.0)
    ranges = [(0, 17), (25, 39)]
    runs = [apply_correction(state, bottom_at(state, bathy), 0.1, ranges, BoundaryPair(left, WALL))
            for left in (WALL, ABSORBING)]
    (a, sol_a), (b, sol_b) = runs
    assert sol_a.p.tobytes() == sol_b.p.tobytes()
    for fa, fb in ((a.hu, b.hu), (a.hw, b.hw)):
        assert fa.values.tobytes() == fb.values.tobytes()

    co = assemble_coefficients(state, bottom_at(state, bathy), 0.1, ranges=[(5, 30)])
    base = ldg_solve(co, (5, 30), outer_hu=(0.0, 1.5))
    for left in (-7.0, 3.25, 1e6):
        other = ldg_solve(co, (5, 30), outer_hu=(left, 1.5))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(base, other))


def test_subrange_covering_forcing_support_matches_global():
    # forcing decays to ~0 outside the wave, so a range containing its
    # support reproduces the global pressure there
    from nhswe.scenarios import build_solitary
    from nhswe.hydrostatic import heun_step
    spec, init = build_solitary()
    pred = heun_step(init, spec.dt, spec.bathymetry, spec.bcs)
    bottom = bottom_at(pred, spec.bathymetry)
    full = solve_on_ranges(pred, assemble_coefficients(pred, bottom, spec.dt), spec.bcs)
    co = assemble_coefficients(pred, bottom, spec.dt, ranges=((10, 90),))
    sub = solve_on_ranges(pred, co, spec.bcs)
    # the zero-Dirichlet endpoints perturb the solution with an influence
    # decaying like exp(-sqrt(s12 s22) * distance), so compare well inside
    w = slice(40, 61)
    scale = np.abs(full.p_nh.values).max()
    assert np.abs(full.p_nh.values[w] - sub.p_nh.values[w]).max() < 1e-8 * scale


@pytest.mark.parametrize("ranges", [((5, 44),), ((0, 4), (10, 12), (30, 49))])
def test_momentum_update_round_trip(ranges):
    # at P2 an element's recovery has three rows per half
    for order in (1, 2):
        grid = GridSpec(0.0, 100.0, 50, order)
        state = smooth_state(grid)
        before = [f.values.copy() for f in (state.h, state.hu, state.hw)]
        bathy = FlatBottom(10.0)
        dt = 0.1
        corrected, sol = apply_correction(state, bottom_at(state, bathy), dt, ranges, WALLS)
        rows = np.concatenate([np.arange(e0, e1 + 1) for e0, e1 in ranges])
        off = np.setdiff1d(np.arange(50), rows)
        # recompute the vertical update independently from its definition, on
        # the whole grid with the pressure zero off the ranges
        p = sol.p_nh.values
        hp_x = central_derivative_values(grid, state.h.values * p)
        d_x = np.zeros_like(hp_x)
        quad = 4.0 + d_x ** 2
        bp = 6.0 / quad * p + d_x / quad * hp_x
        expected = state.hw.values[rows] + dt / RHO_WATER * bp[rows]
        assert np.allclose(corrected.hw.values[rows], expected, atol=1e-8)
        assert corrected.hu.values[rows].tobytes() == sol.hu.tobytes()
        # mass and time are untouched; momenta off the ranges pass through
        assert corrected.h.values.tobytes() == state.h.values.tobytes()
        assert corrected.time == state.time
        for new, old in ((corrected.hu, state.hu), (corrected.hw, state.hw)):
            assert new.values[off].tobytes() == old.values[off].tobytes()
        # the corrected momenta are copies: the predictor is left as it was
        for f, copy in zip((state.h, state.hu, state.hw), before):
            assert f.values.tobytes() == copy.tobytes()


@pytest.mark.parametrize("ranges", [((0, 4), (5, 9), (20, 30), (40, 49)),
                                    ((3, 4), (5, 9), (20, 30)),
                                    ((0, 0),), ((49, 49),), ((0, 10), (40, 49))])
def test_momentum_update_on_a_sloped_bottom(ranges):
    # a bump wider than the grid slopes under every element, so the update
    # carries the (h p)_x term: across a face between two ranges that meet
    # it sees the neighbour's trace, across any other face zero pressure,
    # and at a domain end it is one-sided, the window of the ranges being
    # clipped there
    from nhswe.corrector import _central_derivative_on_ranges
    # at P2 and P3 an element's recovery has three and four rows per half
    for order in (1, 2, 3):
        grid = GridSpec(0.0, 10.0, 50, order)
        rows = np.concatenate([np.arange(e0, e1 + 1) for e0, e1 in ranges])
        values = np.random.default_rng(5).normal(size=(len(rows), order + 1))
        padded = np.zeros((50, order + 1))
        padded[rows] = values
        mask = NonHydroMask.checked(ranges, 50)
        # node by node: the m nodal rows, then the two jump rows it fills
        operand = np.full((order + 3, len(rows)), np.nan)
        operand[:-2] = values.T
        assert np.allclose(_central_derivative_on_ranges(grid, operand, mask).T,
                           central_derivative_values(grid, padded)[rows],
                           rtol=0.0, atol=1e-12)

        motion = SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436)
        bathy = WhittakerSlide(1.0, 0.3, 14.0, motion, x_start=5.0)
        t, dt = 0.3, 0.01
        x = grid.nodes
        h = bathy.sample(grid.sample_nodes, t).d + 0.02 * np.sin(0.7 * x)
        state = FlowState(NodalField(grid, h), NodalField(grid, 0.1 * h * np.cos(0.4 * x)),
                          NodalField(grid, 0.01 * h * np.sin(0.9 * x)), t)
        corrected, sol = apply_correction(state, bottom_at(state, bathy), dt, ranges, WALLS)
        # the vertical update from its definition, on the whole grid with the
        # pressure zero off the ranges
        sample = bottom_at(state, bathy)
        co = assemble_coefficients(state, sample, dt)
        d_x = sample.d_x
        assert np.all(d_x != 0.0)
        p = sol.p_nh.values
        quad = 4.0 + d_x ** 2
        hp_x = central_derivative_values(grid, state.h.values * p)
        bp = 6.0 / quad * p + d_x / quad * hp_x + co.phi
        expected = state.hw.values.copy()
        expected[rows] += dt / RHO_WATER * bp[rows]
        assert np.allclose(corrected.hw.values, expected, rtol=0.0,
                           atol=1e-12 * np.abs(expected).max())


def flagged(n, *elements):
    flags = [False] * n
    for e in elements:
        flags[e] = True
    return flags


@settings(max_examples=40, deadline=None)
@given(flags=st.lists(st.booleans(), min_size=40, max_size=40).filter(any),
       order=st.sampled_from([1, 2]), sloped=st.booleans())
@example(flags=flagged(40, 0), order=1, sloped=True)
@example(flags=flagged(40, 39), order=2, sloped=True)
@example(flags=flagged(40, 0, 1, 17, 38, 39), order=2, sloped=False)
@example(flags=[True] * 40, order=1, sloped=True)
def test_a_correction_writes_only_its_masks_rows(flags, order, sloped):
    # whatever runs the flags hold, single elements and runs at a wall
    # among them, a correction leaves the depth and every unflagged
    # element's momenta as the predictor has them, and puts no pressure there
    grid = GridSpec(0.0, 10.0, 40, order)
    if sloped:
        bathy = WhittakerSlide(1.0, 0.3, 14.0, SlideMotion(1.5, 0.327, 0.218, 2.218, 2.436),
                               x_start=5.0)
    else:
        bathy = FlatBottom(1.0)
    t, x = 0.3, grid.nodes
    h = bathy.sample(grid.sample_nodes, t).d + 0.02 * np.sin(0.7 * x)
    state = FlowState(NodalField(grid, h), NodalField(grid, 0.1 * h * np.cos(0.4 * x)),
                      NodalField(grid, 0.01 * h * np.sin(0.9 * x)), t)
    mask = NonHydroMask.from_flags(np.array(flags))
    corrected, sol = apply_correction(state, bottom_at(state, bathy), 0.01, mask, WALLS)
    off = ~mask.flags
    assert corrected.h.values.tobytes() == state.h.values.tobytes()
    for new, old in ((corrected.hu, state.hu), (corrected.hw, state.hw)):
        assert new.values[off].tobytes() == old.values[off].tobytes()
    assert not sol.p_nh.values[off].any()


def test_density_invariance_of_corrected_flow():
    grid = GridSpec(0.0, 100.0, 50, 1)
    state = smooth_state(grid)
    bathy = FlatBottom(10.0)
    a, _ = apply_correction(state, bottom_at(state, bathy), 0.1, [(5, 44)], WALLS, rho=1000.0)
    b, sol_b = apply_correction(state, bottom_at(state, bathy), 0.1, [(5, 44)], WALLS, rho=500.0)
    for fa, fb in ((a.hu, b.hu), (a.hw, b.hw)):
        scale = np.abs(fa.values).max()
        assert np.abs(fa.values - fb.values).max() < 1e-10 * scale


def test_still_water_receives_no_correction():
    grid = GridSpec(0.0, 10.0, 40, 1)
    bathy = FlatBottom(1.0)
    state = still_state(grid, bathy)
    corrected, sol = apply_correction(state, bottom_at(state, bathy), 0.01, [(0, 39)], WALLS)
    assert np.abs(sol.p_nh.values).max() < 1e-12
    assert np.abs(corrected.hu.values).max() < 1e-12


@pytest.mark.parametrize("band", [1, 2, 3])
def test_banded_matvec_against_dense(band):
    rng = np.random.default_rng(3)
    n = 12
    dense = np.zeros((n, n))
    for r in range(n):
        for c in range(max(0, r - band), min(n, r + band + 1)):
            dense[r, c] = rng.normal()
    ab = np.zeros((2 * band + 1, n))
    for r in range(n):
        for c in range(max(0, r - band), min(n, r + band + 1)):
            ab[band + r - c, c] = dense[r, c]
    x = rng.normal(size=n)
    scratch = np.empty((2 * band + 1) * (n + 2 * band + 1))
    assert np.allclose(_banded_matvec(ab, band, x, scratch), dense @ x, atol=1e-12)


def test_invalid_range_rejected():
    grid = GridSpec(0.0, 10.0, 10, 1)
    state = smooth_state(grid, d0=1.0, amp=0.01, u0=0.01)
    co = assemble_coefficients(state, bottom_at(state, FlatBottom(1.0)), 0.01)
    with pytest.raises(ValueError):
        ldg_solve(co, (5, 3))
    with pytest.raises(ValueError):
        ldg_solve(co, (0, 10))
    for bad in ([(5, 3)], [(0, 10)], [(-1, 4)], [(4, 6), (1, 2)], [(1, 4), (4, 6)]):
        with pytest.raises(ValueError, match="invalid element range"):
            assemble_coefficients(state, bottom_at(state, FlatBottom(1.0)), 0.01, ranges=bad)


def test_correction_rejects_unsorted_ranges():
    # the assembly is the one place that checks the ranges' order
    grid = GridSpec(0.0, 10.0, 10, 1)
    state = smooth_state(grid, d0=1.0, amp=0.01, u0=0.01)
    with pytest.raises(ValueError, match="invalid element range"):
        apply_correction(state, bottom_at(state, FlatBottom(1.0)), 0.01, [(4, 6), (1, 2)], WALLS)


def test_a_correction_refuses_an_empty_mask():
    # an empty mask, or no ranges, leaves nothing to solve: the assembly
    # says so rather than failing later on an empty array
    grid = GridSpec(0.0, 10.0, 10, 1)
    state = smooth_state(grid, d0=1.0, amp=0.01, u0=0.01)
    for empty in (NonHydroMask.from_flags(np.zeros(10, dtype=bool)), ()):
        with pytest.raises(ValueError, match="no element to correct"):
            apply_correction(state, bottom_at(state, FlatBottom(1.0)), 0.01, empty, WALLS)


# Python-level calls (cProfile's total_calls) of a correction on one
# element, and on three ranges, of a mid-run state, with the ranges planned
# by a mask as a step plans them.  A count is deterministic where wall-time
# ratios drift by several percent between runs, so it guards the fixed cost
# of a correction, which dominates on small masks.  The bounds are the
# counts measured when a correction first took the bottom's rows in one
# gather of the sample's block
CORRECTION_CALLS = {"solitary": (76, 77), "whittaker": (84, 86), "hammack_up": (84, 86)}


@pytest.fixture(scope="module")
def mid_run():
    from nhswe.adaptivity import Stepper, adaptive_step
    from nhswe.hydrostatic import heun_step
    from nhswe.scenarios import build_scenario
    states = {}
    for name in CORRECTION_CALLS:
        spec, state = build_scenario(name)
        stepper = Stepper(spec.grid, "global")
        for _ in range(spec.n_steps // 2):
            state = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs, mode="global",
                                  stepper=stepper).state
        bottom = spec.bathymetry.sample(spec.grid.sample_nodes, state.time + spec.dt)
        predictor = heun_step(state, spec.dt, spec.bathymetry, spec.bcs,
                              buffers=stepper.stages)
        states[name] = spec, stepper, predictor, bottom
    return states


@pytest.mark.parametrize("name", sorted(CORRECTION_CALLS))
def test_a_small_correction_makes_a_bounded_number_of_calls(mid_run, name, total_calls):
    spec, stepper, predictor, bottom = mid_run[name]
    n = spec.grid.n_elements
    for ranges, bound in zip(([(n // 2, n // 2)], [(10, 20), (50, 60), (100, 120)]),
                             CORRECTION_CALLS[name]):
        flags = np.zeros(n, dtype=bool)
        for e0, e1 in ranges:
            flags[e0:e1 + 1] = True
        args = (predictor, bottom, spec.dt, NonHydroMask.from_flags(flags), spec.bcs)
        # the first call fills the caches of the reference-element tensors
        apply_correction(*args, workspace=stepper.banded)
        assert total_calls(apply_correction, *args, workspace=stepper.banded) <= bound, ranges


# the bound of a correction on the bump's elements, where both the assembly
# and the momentum update take their sloped branches: the count measured
# when the moving-bottom terms came to be one bracket and (h p)_x one matmul
SLOPED_CORRECTION_CALLS = 91


def test_a_sloped_correction_makes_a_bounded_number_of_calls(mid_run, total_calls):
    # at mid-run the bump sits under a few elements, away from the ranges
    # above: the mask is the elements where the sample slopes
    spec, stepper, predictor, bottom = mid_run["whittaker"]
    mask = NonHydroMask.from_flags(bottom.d_x.any(axis=1))
    assert 0 < mask.fraction < 0.25
    args = (predictor, bottom, spec.dt, mask, spec.bcs)
    assert assemble_coefficients(*args[:3], ranges=mask).d_x is not None
    apply_correction(*args, workspace=stepper.banded)
    assert total_calls(apply_correction, *args, workspace=stepper.banded) <= \
        SLOPED_CORRECTION_CALLS


GLOBAL_STEP_FAULTS = """
import resource
from nhswe.adaptivity import adaptive_step
from nhswe.scenarios import build_hammack

spec, state = build_hammack()


def run(state, steps):
    for _ in range(steps):
        state = adaptive_step(state, spec.dt, spec.bathymetry, spec.bcs,
                              mode="global").state
    return state


state = run(state, 50)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(state, 500)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 500)
"""


def test_global_steps_take_no_page_faults():
    # the banded work storage is reused, so after warm-up a global step on
    # the 1000-element plate grid allocates nothing the allocator would hand
    # back to the system and fetch again; in a process that imports nothing
    # but nhswe that used to cost ~250 minor page faults per step
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", GLOBAL_STEP_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 2.0


def test_residual_check_rejects_a_wrong_solution(monkeypatch):
    # the residual is formed from the assembled system, independently of
    # the factorization: a solution that misses by 1e-3 somewhere is refused
    from nhswe import corrector
    grid, co, _, _ = manufactured_coefficients(24)
    solve = corrector._GBSV

    def off_by_a_little(*args, **kwargs):
        lub, piv, x, info = solve(*args, **kwargs)
        x = x.copy()
        x[7] += 1e-3
        return lub, piv, x, info

    monkeypatch.setattr(corrector, "_GBSV", off_by_a_little)
    with pytest.raises(EllipticSolveError, match="residual"):
        ldg_solve(co, (0, 23), outer_hu=(1.0, 2.0))
