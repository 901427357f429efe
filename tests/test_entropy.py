import numpy as np
import pytest

from covwave.covariance import Boost
from covwave.entropy import (
    EntropyReport,
    ProbabilityDensity,
    boost_density,
    density_from_photon,
    density_from_spectral,
    entropy,
    entropy_difference,
)
from covwave.numerics import DataError, Grid, GridFunction, integrate
from covwave.photon import to_photon
from covwave.spectral import (
    flat_spectrum,
    gaussian_spectrum,
    mean_momentum,
    spectrum_from_samples,
)
from covwave.windowing import Window

# Reference value for the entropy gap of the canonical pair: gaussian
# spectrum (center 5, width 0.5) against its second-kind window
# [4.5, 5.5].  Computed with a 200001-node quadrature split at the window
# edges; it agrees with the closed form
#     S_full - S_cut = [ln(s*sqrt(pi)) + 1/2] - [ln(s*sqrt(pi)*erf(1)) + m]
# (m the truncated-Gaussian log-moment) to 6e-12.
DELTA_S_REFERENCE = 0.417439213437

# Momentum grid whose nodes straddle the window edges 4.5 and 5.5 exactly
# midway (spacing 0.005), so the hard cut costs O(h^2) rather than O(h).
ALIGNED_K_GRID = Grid(0.1025, 20.1025, 4001)


def uniform_density(lower, width, count=1001):
    grid = Grid(lower, lower + width, count)
    raw = np.ones(count)
    total = integrate(GridFunction(grid, raw)).real
    return ProbabilityDensity(GridFunction(grid, raw / total))


# --- densities ---------------------------------------------------------------


def test_density_rejects_imaginary_part():
    grid = Grid(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="real valued"):
        ProbabilityDensity(GridFunction(grid, np.ones(11) + 1e-3j))
    rho = ProbabilityDensity(GridFunction(grid, np.ones(11) + 0j))
    assert rho.values.dtype == np.float64


def test_flat_spectrum_gives_uniform_density():
    g = flat_spectrum(Grid(1.0, 3.0, 1001), 1.0, 3.0)
    rho = density_from_spectral(g)
    np.testing.assert_allclose(rho.values, 0.5, rtol=1e-12)


def test_windowed_flat_density_renormalizes():
    grid = Grid(0.0, 4.0, 999)  # window edges 1 and 3 sit midway between nodes
    g = spectrum_from_samples(grid, np.ones(999))
    from covwave.windowing import apply_window

    cut = apply_window(g, Window(1.0, 2.0))
    rho = density_from_spectral(cut)
    inside = (grid.nodes >= 1.0) & (grid.nodes <= 3.0)
    np.testing.assert_allclose(rho.values[inside], 0.5, rtol=1e-9)
    np.testing.assert_array_equal(rho.values[~inside], 0.0)


def test_gaussian_density_standard_deviation():
    # |g|^2 squares the Gaussian, narrowing its standard deviation to s/sqrt(2)
    g = gaussian_spectrum(Grid(0.1, 20.0, 4096), 5.0, 0.5)
    rho = density_from_spectral(g)
    k = rho.grid.nodes
    mean = integrate(GridFunction(rho.grid, k * rho.values)).real
    var = integrate(GridFunction(rho.grid, (k - mean) ** 2 * rho.values)).real
    assert np.sqrt(var) == pytest.approx(0.5 / np.sqrt(2.0), abs=1e-4)


def test_density_integrates_to_one_for_random_spectra():
    rng = np.random.default_rng(404)
    for _ in range(20):
        grid = Grid(rng.uniform(0.1, 1.0), rng.uniform(2.0, 9.0), 257)
        g = spectrum_from_samples(grid, rng.uniform(0.0, 2.0, 257) + 0.01)
        rho = density_from_spectral(g)
        assert integrate(rho.data).real == pytest.approx(1.0, abs=1e-10)
        assert np.all(rho.values >= 0.0)


def test_density_from_photon_matches_bridge_density():
    g = gaussian_spectrum(Grid(0.1, 20.0, 1024), 5.0, 0.5)
    p = mean_momentum(g)
    via_photon = density_from_photon(to_photon(g, p))
    via_spectrum = density_from_spectral(g)
    # atol forgives the far-tail nodes where |g|^2 underflows to subnormals
    np.testing.assert_allclose(
        via_photon.values, via_spectrum.values, rtol=1e-12, atol=1e-300
    )


def test_density_rejects_zero_spectrum():
    g = spectrum_from_samples(Grid(1.0, 2.0, 16), np.zeros(16))
    with pytest.raises(DataError):
        density_from_spectral(g)


def test_density_type_validation():
    grid = Grid(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="real"):
        ProbabilityDensity(GridFunction(grid, np.full(11, 1.0 + 0.1j)))
    bad = np.full(11, 1.0)
    bad[4] = -0.5
    with pytest.raises(ValueError, match="negative"):
        ProbabilityDensity(GridFunction(grid, bad))
    with pytest.raises(ValueError, match="integrates"):
        ProbabilityDensity(GridFunction(grid, np.full(11, 3.0)))


# --- entropy -----------------------------------------------------------------


def test_uniform_entropy_is_log_width():
    assert entropy(uniform_density(1.0, 2.0)) == pytest.approx(np.log(2.0), abs=1e-6)
    assert entropy(uniform_density(3.0, 1.0)) == pytest.approx(0.0, abs=1e-9)


def test_gaussian_entropy_matches_closed_form():
    # differential entropy of a normal density: (1/2) ln(2 pi e sigma^2)
    g = gaussian_spectrum(Grid(0.1, 20.0, 4096), 5.0, 0.5)
    rho = density_from_spectral(g)
    k = rho.grid.nodes
    mean = integrate(GridFunction(rho.grid, k * rho.values)).real
    var = integrate(GridFunction(rho.grid, (k - mean) ** 2 * rho.values)).real
    expected = 0.5 * np.log(2.0 * np.pi * np.e * var)
    assert entropy(rho) == pytest.approx(expected, abs=1e-4)


def test_zero_log_zero_convention():
    # a windowed density has exact zeros; entropy must stay finite
    grid = Grid(0.0, 4.0, 999)
    g = spectrum_from_samples(grid, np.ones(999))
    from covwave.windowing import apply_window

    rho = density_from_spectral(apply_window(g, Window(1.0, 2.0)))
    assert np.isfinite(entropy(rho))
    assert entropy(rho) == pytest.approx(np.log(2.0), abs=1e-9)


def test_entropy_with_exact_zeros_matches_masked_formula():
    grid = Grid(0.0, 4.0, 401)
    x = grid.nodes
    raw = np.where(np.abs(x - 2.0) < 0.7, np.exp(-((x - 2.0) ** 2)), 0.0)
    raw[[10, 20, 30]] = [1e-300, 5e-324, 1e-310]  # tiny and subnormal, but positive
    total = integrate(GridFunction(grid, raw)).real
    rho = ProbabilityDensity(GridFunction(grid, raw / total))
    v = rho.values
    masked = np.zeros_like(v)
    pos = v > 0.0
    masked[pos] = v[pos] * np.log(v[pos])
    assert entropy(rho) == -integrate(GridFunction(grid, masked)).real


# --- boosted densities ---------------------------------------------------------


def test_boost_density_uniform_example():
    rho = uniform_density(1.0, 2.0)
    boosted = boost_density(rho, Boost(np.log(2.0)))
    assert boosted.grid.lower == pytest.approx(2.0, abs=1e-12)
    assert boosted.grid.upper == pytest.approx(6.0, abs=1e-12)
    np.testing.assert_allclose(boosted.values, 0.25, rtol=1e-12)
    assert integrate(boosted.data).real == pytest.approx(1.0, abs=1e-10)


def test_boost_density_identity_at_zero_rapidity():
    rho = uniform_density(1.0, 2.0)
    same = boost_density(rho, Boost(0.0))
    assert same.grid == rho.grid
    np.testing.assert_array_equal(same.values, rho.values)


def test_uniform_entropy_shift():
    rho = uniform_density(1.0, 2.0)
    boosted = boost_density(rho, Boost(np.log(2.0)))
    assert entropy(boosted) - entropy(rho) == pytest.approx(np.log(2.0), abs=1e-6)


def test_entropy_shift_law_over_random_densities():
    rng = np.random.default_rng(2718)
    for _ in range(50):
        grid = Grid(rng.uniform(0.1, 2.0), rng.uniform(3.0, 10.0), 301)
        raw = rng.uniform(0.05, 1.0, 301)
        total = integrate(GridFunction(grid, raw)).real
        rho = ProbabilityDensity(GridFunction(grid, raw / total))
        s = entropy(rho)
        for eta in (-1.0, -0.3, 0.3, 1.0):
            shifted = entropy(boost_density(rho, Boost(eta)))
            assert abs(shifted - s - eta) < 1e-5


def test_entropy_translation_invariance():
    g = gaussian_spectrum(Grid(0.1, 20.0, 2048), 5.0, 0.5)
    rho = density_from_spectral(g)
    moved = ProbabilityDensity(
        GridFunction(Grid(rho.grid.lower + 3.0, rho.grid.upper + 3.0, rho.grid.count), rho.values)
    )
    assert entropy(moved) == pytest.approx(entropy(rho), abs=1e-8)


# --- the entropy gap -----------------------------------------------------------


def test_entropy_gap_matches_reference_at_rest():
    g = gaussian_spectrum(ALIGNED_K_GRID, 5.0, 0.5)
    report = entropy_difference(g, Window(4.5, 1.0, "second"))
    assert report.rapidity == 0.0
    assert report.delta_s == pytest.approx(DELTA_S_REFERENCE, abs=1e-4)


def test_entropy_gap_is_frame_independent():
    g = gaussian_spectrum(ALIGNED_K_GRID, 5.0, 0.5)
    win = Window(4.5, 1.0, "second")
    moving = entropy_difference(g, win, Boost(1.0))
    assert moving.delta_s == pytest.approx(DELTA_S_REFERENCE, abs=1e-4)
    base = entropy_difference(g, win)
    for eta in (-1.5, -0.5, 0.5, 1.5):
        report = entropy_difference(g, win, Boost(eta))
        assert abs(report.delta_s - base.delta_s) < 1e-12
        assert report.s_analytic - base.s_analytic == pytest.approx(eta, abs=1e-10)


def test_entropy_gap_invariance_for_flat_spectrum():
    # window edges sit strictly between grid nodes (spacing 0.0025), so the
    # node masks are stable against the rounding of boosted coordinates
    g = flat_spectrum(Grid(1.0, 3.0, 801), 1.0, 3.0)
    win = Window(1.4512, 0.8003, "second")
    base = entropy_difference(g, win).delta_s
    for eta in (-1.5, -0.4, 0.9, 1.5):
        assert abs(entropy_difference(g, win, Boost(eta)).delta_s - base) < 1e-12


def test_full_window_gap_is_zero():
    g = gaussian_spectrum(Grid(0.1, 20.0, 1024), 5.0, 0.5)
    report = entropy_difference(g, Window(0.05, 25.0, "second"))
    assert report.delta_s == pytest.approx(0.0, abs=1e-9)


def test_gap_rejects_annihilating_window():
    g = flat_spectrum(Grid(0.5, 20.0, 512), 1.0, 3.0)
    with pytest.raises(DataError):
        entropy_difference(g, Window(10.0, 1.0, "second"))


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        EntropyReport(0.0, 1.0, 0.5, 0.2)
    ok = EntropyReport(0.3, 1.0, 0.5, 0.5)
    assert ok.delta_s == 0.5
