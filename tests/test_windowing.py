import numpy as np
import pytest

from covwave.covariance import Boost, boost_spectral
from covwave.numerics import DataError, Grid
from covwave.spectral import (
    gaussian_spectrum,
    norm_squared,
    spectrum_from_samples,
)
from covwave.windowing import (
    Window,
    apply_window,
    boost_window,
    invariant_ratio,
)

LN2 = np.log(2.0)


def flat_on_0_4():
    # spacing 2/499 puts the window edges 1 and 3 midway between nodes, so
    # the trapezoid rule integrates the cut indicator exactly
    grid = Grid(0.0, 4.0, 999)
    return spectrum_from_samples(grid, np.ones(grid.count))


def test_window_halves_flat_support():
    g = flat_on_0_4()
    assert norm_squared(g) == pytest.approx(4.0, abs=1e-12)
    cut = apply_window(g, Window(1.0, 2.0))
    assert norm_squared(cut) == pytest.approx(2.0, abs=1e-9)


def test_window_covering_support_is_identity():
    g = flat_on_0_4()
    cut = apply_window(g, Window(-1.0, 10.0))
    np.testing.assert_array_equal(cut.data.values, g.data.values)


def test_window_on_gaussian_keeps_peak_zeroes_outside():
    g = gaussian_spectrum(Grid(0.5, 20.5, 2001), 5.0, 0.5)
    cut = apply_window(g, Window(4.5, 1.0))
    k = cut.grid.nodes
    assert cut.data.values[np.argmin(np.abs(k - 5.0))] == 1.0
    assert cut.data.values[np.argmin(np.abs(k - 6.0))] == 0.0


def test_boundary_nodes_are_kept():
    g = spectrum_from_samples(Grid(0.0, 4.0, 5), np.ones(5))
    cut = apply_window(g, Window(1.0, 2.0))
    np.testing.assert_array_equal(cut.data.values.real, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_empty_overlap_rejected():
    g = flat_on_0_4()
    with pytest.raises(DataError, match="misses"):
        apply_window(g, Window(10.0, 1.0))


def test_window_idempotent():
    g = gaussian_spectrum(Grid(0.5, 20.5, 512), 5.0, 0.5)
    win = Window(4.5, 1.0)
    once = apply_window(g, win)
    twice = apply_window(once, win)
    np.testing.assert_array_equal(once.data.values, twice.data.values)


def test_windowed_norm_never_exceeds_unwindowed():
    rng = np.random.default_rng(31)
    for _ in range(30):
        grid = Grid(0.5, 10.0, 257)
        g = spectrum_from_samples(grid, rng.standard_normal(257) + 1j * rng.standard_normal(257))
        win = Window(rng.uniform(0.0, 8.0), rng.uniform(0.2, 5.0))
        assert norm_squared(apply_window(g, win)) <= norm_squared(g) + 1e-12


def test_boost_window_second_kind():
    win = Window(1.0, 2.0, "second")
    out = boost_window(win, Boost(LN2))
    assert out.lower == pytest.approx(2.0, abs=1e-12)
    assert out.width == pytest.approx(4.0, abs=1e-12)
    assert out.upper == pytest.approx(6.0, abs=1e-12)


def test_boost_window_first_kind_is_inert():
    win = Window(1.0, 2.0, "first")
    assert boost_window(win, Boost(LN2)) == win


def test_boost_window_zero_rapidity():
    win = Window(1.0, 2.0, "second")
    assert boost_window(win, Boost(0.0)) == win


def test_invariant_ratio_values():
    assert invariant_ratio(Window(0.0, 2.0), 2.0) == 1.0
    assert invariant_ratio(Window(0.0, 1.0), 4.0) == 0.25
    with pytest.raises(ValueError):
        invariant_ratio(Window(0.0, 1.0), 0.0)


def test_invariant_ratio_survives_boost():
    win = Window(1.0, 2.0, "second")
    p = 2.0
    boosted = boost_window(win, Boost(LN2))
    assert invariant_ratio(boosted, np.exp(LN2) * p) == pytest.approx(
        invariant_ratio(win, p), rel=1e-15
    )


def test_window_boost_commutes_with_application_node_for_node():
    g = gaussian_spectrum(Grid(0.1, 20.0, 512), 5.0, 0.5)
    win = Window(4.5, 1.0, "second")
    boost = Boost(0.35)
    windowed_then_boosted = boost_spectral(apply_window(g, win), boost)
    boosted_then_windowed = apply_window(
        boost_spectral(g, boost), boost_window(win, boost)
    )
    assert windowed_then_boosted.grid == boosted_then_windowed.grid
    np.testing.assert_array_equal(
        windowed_then_boosted.data.values, boosted_then_windowed.data.values
    )


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0.0, 0.0)
    with pytest.raises(ValueError):
        Window(0.0, -1.0)
    with pytest.raises(ValueError):
        Window(np.inf, 1.0)
    with pytest.raises(ValueError):
        Window(0.0, 1.0, "third")
