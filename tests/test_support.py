"""The support contract: a GridFunction is exactly 0 outside its node range
[lo, hi), and every windowed pass reads only that range."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covwave.covariance import AffineMap, Boost, affine_image, boost_spectral
from covwave.entropy import (
    ProbabilityDensity,
    boost_density,
    density_from_spectral,
    entropy,
    spectrum_entropy,
)
from covwave.numerics import DataError, Grid, GridFunction, integrate
from covwave.photon import boost_photon, to_photon
from covwave.spectral import (
    gaussian_spectrum,
    mean_momentum,
    norm_squared,
    spectrum_from_samples,
)
from covwave.windowing import Window, apply_window, boost_window


def kept_range(nodes, win):
    """Support expected of a window: the node range of the closed-interval mask."""
    kept = np.flatnonzero((nodes >= win.lower) & (nodes <= win.upper))
    return (int(kept[0]), int(kept[-1]) + 1) if kept.size else None


def assert_zero_outside(f):
    lo, hi = f.support
    assert not f.values[:lo].any() and not f.values[hi:].any()


@st.composite
def windowed_case(draw):
    """A positive spectrum on a random grid, boosted, and a boosted window.

    The window edges are either nodes of the boosted grid (exact hits) or
    free floats that may reach past either end of the grid.
    """
    lower = draw(st.floats(0.1, 5.0))
    count = draw(st.integers(2, 3000))
    grid = Grid(lower, lower + draw(st.floats(0.5, 20.0)), count)
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.5, 2.0, count)
    boost = Boost(draw(st.floats(-3.0, 3.0)))
    g = boost_spectral(spectrum_from_samples(grid, values), boost)
    nodes = g.grid.nodes
    if draw(st.booleans()):
        i = draw(st.integers(0, count - 1))
        j = draw(st.integers(i, count - 1))
        # a window built in the rest frame and boosted lands on the nodes
        # only approximately, so build the exact-hit window in this frame
        a, b = nodes[i], nodes[j]
        win = Window(a, b - a) if b > a else Window(a, abs(a) * 1e-12)
    else:
        span = g.grid.upper - g.grid.lower
        a = draw(st.floats(g.grid.lower - 0.5 * span, g.grid.upper))
        width = draw(st.floats(1e-3, 2.0)) * span
        win = boost_window(Window(a / boost.scale, width / boost.scale), boost)
    return g, win


@given(windowed_case())
@settings(max_examples=200, deadline=None)
def test_window_support_is_the_closed_interval_mask(case):
    g, win = case
    try:
        cut = apply_window(g, win)
    except DataError:
        assert win.upper < g.grid.lower or win.lower > g.grid.upper
        return
    expected = kept_range(g.grid.nodes, win)
    lo, hi = cut.data.support
    if expected is None:
        assert lo == hi
    else:
        assert (lo, hi) == expected
    assert_zero_outside(cut.data)
    np.testing.assert_array_equal(cut.data.values[lo:hi], g.data.values[lo:hi])


@given(windowed_case(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_second_window_intersects_the_first(case, t0, t1):
    g, win = case
    assume(not (win.upper < g.grid.lower or win.lower > g.grid.upper))
    a, b = sorted(g.grid.lower + t * (g.grid.upper - g.grid.lower) for t in (t0, t1))
    assume(b > a)
    second = Window(a, b - a)
    twice = apply_window(apply_window(g, win), second)
    nodes = g.grid.nodes
    mask = (nodes >= win.lower) & (nodes <= win.upper) & (nodes >= a) & (nodes <= b)
    lo, hi = twice.data.support
    if mask.any():
        kept = np.flatnonzero(mask)
        assert (lo, hi) == (kept[0], kept[-1] + 1)
    else:
        assert lo == hi
    np.testing.assert_array_equal(twice.data.values, np.where(mask, g.data.values, 0.0))


@given(windowed_case())
@settings(max_examples=200, deadline=None)
def test_windowed_quadratures_match_full_arrays(case):
    g, win = case
    assume(not (win.upper < g.grid.lower or win.lower > g.grid.upper))
    assume(kept_range(g.grid.nodes, win) is not None)
    cut = apply_window(g, win)

    # the same quadratures over every node, zeros included, in plain numpy
    k, w = g.grid.nodes, g.grid.weights
    v = np.where((k >= win.lower) & (k <= win.upper), g.data.values, 0.0)
    norm = w @ v**2
    p = (w @ (k * v**2)) / norm
    rho = v**2 / norm
    v_log_v = rho * np.log(np.where(rho > 0.0, rho, 1.0))

    assert norm_squared(cut) == pytest.approx(norm, rel=1e-13, abs=0.0)
    assert mean_momentum(cut) == pytest.approx(p, rel=1e-13, abs=0.0)
    dens = density_from_spectral(cut)
    assert dens.data.support == cut.data.support
    assert_zero_outside(dens.data)
    assert integrate(dens.data).real == pytest.approx(w @ rho, rel=1e-13, abs=0.0)
    # relative to the integral of |rho ln rho|, as S itself may cancel to near 0
    assert abs(entropy(dens) + w @ v_log_v) <= 1e-13 * (w @ np.abs(v_log_v))


@given(windowed_case(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_entropy_from_the_intensity_matches_the_density_path(case, complex_values, seed):
    g, win = case
    assume(not (win.upper < g.grid.lower or win.lower > g.grid.upper))
    assume(kept_range(g.grid.nodes, win) is not None)
    if complex_values:
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, g.grid.count)
        g = spectrum_from_samples(g.grid, g.data.values * np.exp(1j * phases))
    k, w = g.grid.nodes, g.grid.weights
    for spectrum, kept in [
        (g, np.ones(k.size, dtype=bool)),
        (apply_window(g, win), (k >= win.lower) & (k <= win.upper)),
    ]:
        # the density quadrature over every node, zeros included, in plain numpy
        intensity = np.where(kept, np.abs(g.data.values) ** 2, 0.0)
        rho = intensity / (w @ intensity)
        v_log_v = rho * np.log(np.where(rho > 0.0, rho, 1.0))
        bound = 1e-13 * (w @ np.abs(v_log_v))
        s = spectrum_entropy(spectrum)
        assert abs(s + w @ v_log_v) <= bound
        assert abs(s - entropy(density_from_spectral(spectrum))) <= bound


@given(windowed_case())
@settings(max_examples=100, deadline=None)
def test_boosts_keep_the_support(case):
    g, win = case
    assume(not (win.upper < g.grid.lower or win.lower > g.grid.upper))
    cut = apply_window(g, win)
    assume(cut.data.support[0] < cut.data.support[1])
    boost = Boost(0.8)
    boosted = boost_spectral(cut, boost)
    assert boosted.data.support == cut.data.support
    assert boosted.grid == cut.grid.scaled(boost.scale)
    np.testing.assert_array_equal(boosted.data.values, cut.data.values)
    rho = density_from_spectral(cut)
    moved = boost_density(rho, boost)
    assert moved.data.support == rho.data.support
    assert_zero_outside(moved.data)


@given(
    count=st.integers(2, 5000),
    seed=st.integers(0, 2**32 - 1),
    complex_values=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_full_support_integral_is_the_plain_dot(count, seed, complex_values):
    rng = np.random.default_rng(seed)
    grid = Grid(-1.0, rng.uniform(0.0, 10.0), count)
    v = rng.standard_normal(count)
    if complex_values:
        v = v + 1j * rng.standard_normal(count)
    f = GridFunction(grid, v)
    assert f.support == (0, count)
    w = grid.weights
    if complex_values:
        expected = complex(w @ v.real.copy(), w @ v.imag.copy())
    else:
        expected = complex(w @ v)
    assert integrate(f) == expected  # bit for bit
    whole = GridFunction(grid, f.inner, (0, count))
    assert whole.values is f.values  # no zero fill, no copy
    assert integrate(whole) == expected


def test_support_pads_zeros_and_checks_only_the_inner_samples():
    grid = Grid(0.0, 1.0, 6)
    f = GridFunction(grid, [3.0, 4.0], (2, 4))
    assert f.support == (2, 4)
    np.testing.assert_array_equal(f.inner, [3.0, 4.0])
    np.testing.assert_array_equal(f.values, [0.0, 0.0, 3.0, 4.0, 0.0, 0.0])
    assert f.values.dtype == np.float64
    assert GridFunction(grid, [1j], (1, 2)).values.dtype == np.complex128
    assert GridFunction(grid, [], (3, 3)).values.tolist() == [0.0] * 6
    with pytest.raises(ValueError, match="non-finite sample at index 3"):
        GridFunction(grid, [3.0, np.nan], (2, 4))
    with pytest.raises(ValueError, match="expected 2 samples"):
        GridFunction(grid, [1.0, 2.0, 3.0], (2, 4))
    for lo, hi in [(-1, 2), (4, 3), (0, 7)]:
        with pytest.raises(ValueError, match="not a node range"):
            GridFunction(grid, np.ones(max(hi - lo, 0)), (lo, hi))


def test_negative_density_is_reported_at_its_grid_index():
    grid = Grid(0.0, 1.0, 11)
    data = GridFunction(grid, [2.0, -1.0, 1.0], (4, 7))
    with pytest.raises(ValueError, match="negative density value at index 5"):
        ProbabilityDensity(data)


def test_samples_are_read_only_and_shared_by_the_transforms():
    grid = Grid(1.0, 3.0, 9)
    source = np.linspace(1.0, 2.0, 9)
    g = spectrum_from_samples(grid, source)
    cut = apply_window(g, Window(1.5, 1.0))
    assert cut.data.support == (2, 7)
    # the array handed in is taken, not copied, so it is frozen as well
    for samples in (source, g.data.inner, cut.data.inner, cut.data.values):
        with pytest.raises(ValueError, match="read-only"):
            samples[0] = 0.0

    boost = Boost(0.5)
    a = to_photon(g, mean_momentum(g))
    assert np.shares_memory(cut.data.inner, g.data.inner)
    for result, origin in [
        (boost_spectral(cut, boost).data, cut.data),
        (boost_photon(a, boost).data, a.data),
        (affine_image(cut.data, AffineMap(0.5, 1.0, "second")), cut.data),
    ]:
        assert np.shares_memory(result.inner, origin.inner)
        assert result.support == origin.support


def test_frames_share_the_intensity_and_entropy_integrand_of_their_source():
    grid = Grid(1.0, 3.0, 9)
    g = spectrum_from_samples(grid, np.linspace(1.0, 2.0, 9) * (1.0 + 1.0j))
    frame = boost_spectral(g, Boost(0.5))
    cut = apply_window(frame, Window(1.5 * frame.grid.lower, frame.grid.lower))
    twice = boost_spectral(cut, Boost(-0.2))
    for view in (frame, cut, twice):
        assert view.intensity.grid == view.grid
        assert view.intensity.support == view.data.support
        assert np.shares_memory(view.intensity.inner, g.intensity.inner)
        terms, scale = view._entropy_integrand
        assert terms.grid == view.grid and terms.support == view.data.support
        assert np.shares_memory(terms.inner, g._entropy_integrand[0].inner)
        assert scale == g._entropy_integrand[1]
        np.testing.assert_array_equal(view.intensity.values, np.abs(view.data.values) ** 2)


def test_a_windowed_frame_builds_no_full_length_nodes():
    g = gaussian_spectrum(Grid(0.1, 20.0, 4001), 5.0, 0.5)
    assert "nodes" not in vars(g.grid)  # the factory builds them uncached
    boost = Boost(0.3)
    cut = apply_window(boost_spectral(g, boost), boost_window(Window(4.5, 1.0), boost))
    mean_momentum(cut)
    norm_squared(cut)
    spectrum_entropy(cut)
    assert "nodes" not in vars(cut.grid)
