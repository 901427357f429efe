import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covwave.numerics import DataError, Grid, GridFunction, integrate, resample


def grid_fn(lower, upper, count, fn):
    g = Grid(lower, upper, count)
    return GridFunction(g, fn(g.nodes))


# --- integrate -------------------------------------------------------------


def test_integrate_constant_is_exact():
    f = grid_fn(0.0, 2.0, 101, lambda x: np.ones_like(x))
    assert integrate(f).real == pytest.approx(2.0, abs=1e-14)


def test_integrate_square():
    f = grid_fn(0.0, 1.0, 2001, lambda x: x**2)
    assert integrate(f).real == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_integrate_sine_over_full_period():
    f = grid_fn(0.0, 2.0 * np.pi, 4001, np.sin)
    assert abs(integrate(f)) < 1e-9


def test_integrate_is_complex_aware():
    f = grid_fn(0.0, 1.0, 101, lambda x: 1.0 + 2.0j * np.ones_like(x))
    assert integrate(f) == pytest.approx(1.0 + 2.0j, abs=1e-14)


def test_samples_keep_real_or_complex_dtype():
    grid = Grid(0.0, 1.0, 5)
    assert GridFunction(grid, np.arange(5.0)).values.dtype == np.float64
    assert GridFunction(grid, np.arange(5)).values.dtype == np.float64
    assert GridFunction(grid, np.arange(5.0) + 0j).values.dtype == np.complex128
    assert GridFunction(grid, np.ones(5, dtype=np.complex64)).values.dtype == np.complex128


@pytest.mark.parametrize("count", [257, 2**16 + 3, 2**20])
def test_real_integral_matches_complex_cast(count):
    rng = np.random.default_rng(count)
    grid = Grid(-1.0, 3.0, count)
    values = rng.uniform(0.0, 5.0, count)
    real = integrate(GridFunction(grid, values))
    cast = integrate(GridFunction(grid, values.astype(np.complex128)))
    assert isinstance(real, complex) and real.imag == 0.0
    assert abs(real - cast) <= 1e-15 * abs(cast)


@given(
    a=st.floats(-2.0, 2.0, allow_nan=False),
    b=st.floats(-2.0, 2.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_integrate_is_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(-1.0, 3.0, 257)
    f = GridFunction(grid, rng.standard_normal(257) + 1j * rng.standard_normal(257))
    g = GridFunction(grid, rng.standard_normal(257) + 1j * rng.standard_normal(257))
    combined = GridFunction(grid, a * f.values + b * g.values)
    lhs = integrate(combined)
    rhs = a * integrate(f) + b * integrate(g)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_integrate_nonnegative_integrand_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(0.0, 1.0, 101)
    f = GridFunction(grid, rng.uniform(0.0, 5.0, 101))
    assert integrate(f).real >= 0.0


def test_refinement_halves_error_quadratically():
    exact = np.sqrt(np.pi) * 0.9953222650189527  # erf(2) closed form on [-2, 2]
    errors = []
    for count in (65, 129, 257):
        f = grid_fn(-2.0, 2.0, count, lambda x: np.exp(-(x**2)))
        errors.append(abs(integrate(f).real - exact))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


# --- construction and validation ------------------------------------------


def test_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid(np.inf, 1.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)


def test_grid_spacing_and_weights():
    grid = Grid(0.0, 1.0, 11)
    assert grid.spacing == pytest.approx(0.1)
    assert grid.weights[0] == pytest.approx(0.05)
    assert grid.weights[5] == pytest.approx(0.1)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_grid_scaled():
    grid = Grid(1.0, 3.0, 5)
    doubled = grid.scaled(2.0)
    assert doubled == Grid(2.0, 6.0, 5)
    with pytest.raises(ValueError):
        grid.scaled(-1.0)
    with pytest.raises(ValueError):
        grid.scaled(0.0)


def test_gridfunction_rejects_wrong_length():
    with pytest.raises(ValueError, match="samples"):
        GridFunction(Grid(0.0, 1.0, 5), np.zeros(4))


def test_gridfunction_names_nonfinite_index():
    values = np.ones(5)
    values[3] = np.nan
    with pytest.raises(ValueError, match="index 3"):
        GridFunction(Grid(0.0, 1.0, 5), values)


@given(st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_weights_sum_to_span(count):
    grid = Grid(-1.5, 2.5, count)
    assert grid.weights.sum() == pytest.approx(4.0, rel=1e-12)


# --- resample ---------------------------------------------------------------


def test_resample_linear_midpoint():
    f = GridFunction(Grid(0.0, 1.0, 2), np.array([0.0, 1.0]))
    out = resample(f, Grid(0.5, 1.0, 2))
    assert out.values[0] == pytest.approx(0.5)


def test_resample_identity_on_same_grid():
    grid = Grid(0.0, 1.0, 9)
    f = GridFunction(grid, np.arange(9, dtype=float))
    out = resample(f, grid)
    np.testing.assert_array_equal(out.values, f.values)


def test_resample_outside_support_is_zero():
    f = GridFunction(Grid(0.0, 1.0, 2), np.array([1.0, 1.0]))
    out = resample(f, Grid(-2.0, 0.5, 6))
    assert out.values[0] == 0.0
    assert abs(out.values[-1] - 1.0) < 1e-15


def test_resample_rejects_empty_overlap():
    f = GridFunction(Grid(0.0, 1.0, 5), np.ones(5))
    with pytest.raises(DataError):
        resample(f, Grid(2.0, 3.0, 5))


def test_resample_roundtrip_preserves_piecewise_linear():
    coarse = Grid(0.0, 4.0, 9)
    f = GridFunction(coarse, np.abs(coarse.nodes - 2.0) + 1j * coarse.nodes)
    fine = Grid(0.0, 4.0, 17)  # contains every coarse node
    back = resample(resample(f, fine), coarse)
    np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-12)
