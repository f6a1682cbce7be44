"""Grid, basis and nodal-field tests against hand-computed oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nhswe.grid import (FlowState, GridSpec, NodalField, derivative_values,
                        gauss_lobatto_nodes, project)


def test_gauss_lobatto_low_degrees():
    assert np.allclose(gauss_lobatto_nodes(1), [-1.0, 1.0])
    assert np.allclose(gauss_lobatto_nodes(2), [-1.0, 0.0, 1.0])
    # degree 3 interior nodes are +-1/sqrt(5)
    s = 1.0 / np.sqrt(5.0)
    assert np.allclose(gauss_lobatto_nodes(3), [-1.0, -s, s, 1.0])


def test_linear_mass_matrix_hand_value():
    # int over one element of phi_i phi_j for linear hats: dx/6 * [[2,1],[1,2]]
    grid = GridSpec(0.0, 3.0, 3, 1)
    expected = grid.dx / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(grid.mass, expected, atol=1e-14)


def test_linear_stiffness_hand_value():
    # K[i,j] = int phi_i' phi_j on [-1,1]: phi0' = -1/2, phi1' = +1/2
    grid = GridSpec(0.0, 1.0, 2, 1)
    expected = np.array([[-0.5, -0.5], [0.5, 0.5]])
    assert np.allclose(grid.stiffness, expected, atol=1e-14)


def test_weak_div_differentiates_constants_to_zero():
    for p in (1, 2, 3):
        grid = GridSpec(0.0, 2.0, 4, p)
        const = np.ones((4, p + 1))
        assert np.allclose(derivative_values(grid, const), 0.0, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_derivative_exact_for_polynomials(p):
    grid = GridSpec(-1.0, 2.0, 5, p)
    field = project(lambda x: x ** p, grid)
    assert np.allclose(derivative_values(grid, field.values), p * grid.nodes ** (p - 1),
                       atol=1e-10)


def test_derivative_converges_on_smooth_function():
    errs = []
    for n in (20, 40, 80):
        grid = GridSpec(0.0, 1.0, n, 1)
        field = project(np.sin, grid)
        err = np.abs(derivative_values(grid, field.values) - np.cos(grid.nodes)).max()
        errs.append(err)
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 0.9  # element-local derivative of P1 is first order


def test_nodal_field_validation():
    grid = GridSpec(0.0, 1.0, 4, 1)
    with pytest.raises(ValueError, match="shape"):
        NodalField(grid, np.zeros((3, 2)))
    bad = np.zeros((4, 2))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        NodalField(grid, bad)


def test_large_finite_values_are_accepted():
    # their sum overflows; the entries, not the sum, decide, with no warning
    grid = GridSpec(0.0, 1.0, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(NodalField(grid, np.full((2, 2), 1e308)).values == 1e308)
        assert np.all(project(lambda x: np.full_like(x, 1e308), grid).values == 1e308)
        for value in (np.nan, np.inf):
            bad = np.full((2, 2), 1e308)
            bad[1, 1] = value
            with pytest.raises(ValueError, match=r"non-finite nodal value at x=1\.0 "):
                NodalField(grid, bad)


def test_flow_state_requires_positive_depth():
    grid = GridSpec(0.0, 1.0, 4, 1)
    h = np.ones((4, 2))
    h[1, 0] = 0.0
    zero = NodalField(grid, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-positive"):
        FlowState(NodalField(grid, h), zero, zero, 0.0)


@pytest.mark.parametrize("build", [FlowState, FlowState._wrap])
def test_a_state_copies_the_arrays_it_is_built_from(build):
    # both constructors copy the fields into the padded array the state
    # owns, which its fields then view
    grid = GridSpec(0.0, 1.0, 4, 1)
    arrays = [np.full((4, 2), 2.0), np.full((4, 2), 0.5), np.zeros((4, 2))]
    state = build(*(NodalField(grid, a) for a in arrays), 0.0)
    for a in arrays:
        a += 7.0
    fields = (state.h, state.hu, state.hw)
    assert [f.values.tolist() for f in fields] == [[[v, v]] * 4 for v in (2.0, 0.5, 0.0)]
    assert state.packed.shape == (3, 2, 6)
    for k, f in enumerate(fields):
        assert np.shares_memory(f.values, state.packed)
        assert f.values.tobytes() == state.packed[k, :, 1:-1].T.tobytes()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 4, 1)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1, 1)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 4, 0)


def test_nearest_node():
    grid = GridSpec(0.0, 10.0, 10, 1)
    e, j = grid.nearest_node(3.2)
    assert grid.nodes[e, j] == pytest.approx(3.0)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5),
       n=st.integers(min_value=2, max_value=12))
def test_projection_reproduces_affine_functions(a, b, n):
    grid = GridSpec(0.0, 1.0, n, 1)
    field = project(lambda x: a * x + b, grid)
    assert np.allclose(field.values, a * grid.nodes + b, atol=1e-9)
