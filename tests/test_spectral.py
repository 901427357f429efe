import numpy as np
import pytest

from covwave.covariance import Boost, boost_spectral
from covwave.numerics import DataError, Grid, GridFunction, integrate
from covwave.spectral import (
    SpectralFunction,
    WaveletSignal,
    _oscillatory_sum,
    edge_leakage,
    flat_spectrum,
    gaussian_spectrum,
    mean_momentum,
    norm_squared,
    spectrum_from_samples,
    synthesize,
)

K_GRID = Grid(0.1, 20.0, 4096)


@pytest.fixture(scope="module")
def gauss():
    return gaussian_spectrum(K_GRID, 5.0, 0.5)


# --- construction -----------------------------------------------------------


def test_flat_values_are_indicator_of_support():
    g = flat_spectrum(Grid(0.5, 3.5, 601), 1.0, 3.0)
    nodes = g.grid.nodes
    inside = (nodes >= 1.0) & (nodes <= 3.0)
    np.testing.assert_array_equal(g.data.values[inside], 1.0)
    np.testing.assert_array_equal(g.data.values[~inside], 0.0)


def test_gaussian_peak_value_is_one():
    g = gaussian_spectrum(Grid(1.0, 9.0, 801), 5.0, 0.5)
    assert g.data.values[400] == 1.0  # node exactly at the center


def test_samples_with_nonfinite_entry_rejected():
    values = np.ones(5)
    values[2] = np.inf
    with pytest.raises(ValueError, match="index 2"):
        spectrum_from_samples(Grid(1.0, 2.0, 5), values)


def test_gaussian_parameter_validation():
    with pytest.raises(ValueError):
        gaussian_spectrum(K_GRID, -5.0, 0.5)
    with pytest.raises(ValueError):
        gaussian_spectrum(K_GRID, 5.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_spectrum(Grid(-1.0, 20.0, 64), 5.0, 0.5)


def test_flat_parameter_validation():
    with pytest.raises(ValueError):
        flat_spectrum(K_GRID, 3.0, 1.0)
    with pytest.raises(ValueError):
        flat_spectrum(K_GRID, -1.0, 3.0)


def test_reference_scale_defaults_to_mean_momentum(gauss):
    assert gauss.reference_scale == pytest.approx(5.0, abs=1e-9)
    assert gauss.reference_scale == mean_momentum(gauss)
    explicit = gaussian_spectrum(K_GRID, 5.0, 0.5, reference_scale=2.5)
    assert explicit.reference_scale == 2.5
    zero = spectrum_from_samples(Grid(1.0, 2.0, 8), np.zeros(8))
    assert zero.reference_scale == 1.0
    with pytest.raises(ValueError):
        SpectralFunction(gauss.data, -1.0)


# --- moments ----------------------------------------------------------------


def test_flat_norm_squared_is_support_width():
    g = flat_spectrum(Grid(1.0, 3.0, 1001), 1.0, 3.0)
    assert norm_squared(g) == pytest.approx(2.0, abs=1e-9)


def test_gaussian_norm_squared_matches_closed_form(gauss):
    assert norm_squared(gauss) == pytest.approx(0.5 * np.sqrt(np.pi), abs=1e-6)


def test_zero_function_has_zero_norm():
    g = spectrum_from_samples(Grid(1.0, 2.0, 64), np.zeros(64))
    assert norm_squared(g) == 0.0


def test_flat_mean_momentum_is_support_midpoint():
    g = flat_spectrum(Grid(1.0, 3.0, 1001), 1.0, 3.0)
    assert mean_momentum(g) == pytest.approx(2.0, abs=1e-9)


def test_gaussian_mean_momentum_is_center():
    g = gaussian_spectrum(Grid(1.0, 9.0, 801), 5.0, 0.5)  # grid spans +-8 widths
    assert mean_momentum(g) == pytest.approx(5.0, abs=1e-6)


def test_boosted_flat_mean_momentum_scales():
    g = flat_spectrum(Grid(1.0, 3.0, 1001), 1.0, 3.0)
    boosted = boost_spectral(g, Boost(np.log(2.0)))
    assert mean_momentum(boosted) == pytest.approx(4.0, abs=1e-8)


def test_mean_momentum_rejects_zero_norm():
    g = spectrum_from_samples(Grid(1.0, 2.0, 64), np.zeros(64))
    with pytest.raises(DataError, match="zero-norm"):
        mean_momentum(g)


def test_boosted_frame_computes_its_own_intensity():
    g = gaussian_spectrum(K_GRID, 5.0, 0.5, reference_scale=5.0)
    boosted = boost_spectral(g, Boost(0.7))
    dens = boosted.intensity
    assert "intensity" not in vars(g)  # the frame did not read g's intensity
    assert dens is not g.intensity
    assert not np.shares_memory(dens.values, g.intensity.values)
    assert dens.grid == boosted.grid
    assert dens.values.dtype == np.float64
    np.testing.assert_array_equal(dens.values, np.abs(boosted.data.values) ** 2)
    assert boosted.intensity is dens


# --- synthesis ---------------------------------------------------------------

# k-grid of the acceptance suite: 4001 nodes, not a power of two
ALIGNED_K_GRID = Grid(0.1025, 20.1025, 4001)
U_GRID = Grid(-10.0, 10.0, 2001)  # spacing 0.01 puts nodes exactly at 0 and 2


def test_wavelet_amplitude_at_origin(gauss):
    sig = synthesize(gauss, U_GRID)
    assert abs(sig.data.values[1000]) == pytest.approx(0.5 / np.sqrt(5.0), abs=1e-4)


def test_wavelet_amplitude_off_origin(gauss):
    sig = synthesize(gauss, U_GRID)
    expected = 0.5 / np.sqrt(5.0) * np.exp(-0.5)
    assert abs(sig.data.values[1200]) == pytest.approx(expected, abs=1e-4)


def test_classical_is_sqrt_p_times_wavelet(gauss):
    w = synthesize(gauss, U_GRID, mode="wavelet")
    c = synthesize(gauss, U_GRID, mode="classical")
    np.testing.assert_allclose(
        c.data.values, np.sqrt(w.mean_momentum) * w.data.values, rtol=1e-10
    )
    assert c.mean_momentum == 1.0


def test_synthesize_rejects_bad_mode_and_zero_norm(gauss):
    with pytest.raises(ValueError, match="mode"):
        synthesize(gauss, U_GRID, mode="fourier")
    with pytest.raises(ValueError, match="momentum"):
        synthesize(gauss, U_GRID, mode="classical", momentum=2.0)
    zero = spectrum_from_samples(Grid(1.0, 2.0, 64), np.zeros(64))
    with pytest.raises(DataError):
        synthesize(zero, U_GRID)


def test_plancherel_in_classical_mode(gauss):
    u = Grid(-40.0, 40.0, 2048)
    sig = synthesize(gauss, u, mode="classical")
    assert edge_leakage(sig) < 1e-8
    signal_norm = integrate(GridFunction(u, np.abs(sig.data.values) ** 2)).real
    assert signal_norm == pytest.approx(norm_squared(gauss), rel=1e-5)


def test_wavelet_norm_identity(gauss):
    u = Grid(-40.0, 40.0, 2048)
    sig = synthesize(gauss, u)
    signal_norm = integrate(GridFunction(u, np.abs(sig.data.values) ** 2)).real
    assert signal_norm == pytest.approx(norm_squared(gauss) / 5.0, rel=1e-5)


def test_superposition_at_fixed_momentum():
    g1 = gaussian_spectrum(K_GRID, 5.0, 0.5)
    g2 = gaussian_spectrum(K_GRID, 7.0, 0.8)
    alpha, beta = 0.3 - 0.4j, 1.1 + 0.2j
    combined = spectrum_from_samples(
        K_GRID, alpha * g1.data.values + beta * g2.data.values
    )
    u = Grid(-15.0, 15.0, 512)
    p = 5.0
    lhs = synthesize(combined, u, momentum=p)
    rhs = alpha * synthesize(g1, u, momentum=p).data.values + beta * synthesize(
        g2, u, momentum=p
    ).data.values
    np.testing.assert_allclose(lhs.data.values, rhs, rtol=0, atol=1e-12)


def test_modulus_ignores_global_phase(gauss):
    rotated = spectrum_from_samples(
        K_GRID, np.exp(0.7j) * gauss.data.values, reference_scale=5.0
    )
    u = Grid(-15.0, 15.0, 512)
    a = synthesize(gauss, u, momentum=5.0)
    b = synthesize(rotated, u, momentum=5.0)
    np.testing.assert_allclose(
        np.abs(a.data.values), np.abs(b.data.values), rtol=0, atol=1e-12
    )


def test_edge_leakage_flags_truncation(gauss):
    wide = synthesize(gauss, Grid(-40.0, 40.0, 1024))
    narrow = synthesize(gauss, Grid(-2.0, 2.0, 128))
    assert edge_leakage(wide) < 1e-10
    assert edge_leakage(narrow) > 1e-3
    zero_sig = WaveletSignal(GridFunction(Grid(0.0, 1.0, 16), np.zeros(16)), 1.0)
    with pytest.raises(DataError):
        edge_leakage(zero_sig)


def test_wavelet_signal_requires_positive_momentum():
    data = GridFunction(Grid(0.0, 1.0, 4), np.ones(4))
    with pytest.raises(ValueError):
        WaveletSignal(data, 0.0)


# --- synthesis kernel ----------------------------------------------------------


def direct_sum(data, u_nodes):
    """The quadrature sum_j w_j g(k_j) exp(i k_j u) by dense evaluation."""
    return np.exp(1j * np.outer(u_nodes, data.grid.nodes)) @ (
        data.grid.weights * data.values
    )


@pytest.mark.parametrize("n", [4096, 16384])
@pytest.mark.parametrize("eta", [-1.5, 0.0, 1.5])
def test_kernel_matches_direct_sum_at_large_n(n, eta):
    # the chirp phases a n**2 / 2 reach thousands of radians at these sizes;
    # an inexact phase would show as an error growing like eps * dk * du * N**2
    g = boost_spectral(gaussian_spectrum(Grid(0.1, 20.0, n), 5.0, 0.5), Boost(eta))
    u = Grid(-40.0, 40.0, n)
    rows = np.arange(0, n, 64)
    fast = _oscillatory_sum(g.data, u)
    ref = direct_sum(g.data, u.nodes[rows])
    assert np.abs(fast[rows] - ref).max() <= 1e-12 * np.abs(fast).max()


@pytest.mark.parametrize(
    "k_grid, u_grid",
    [
        (ALIGNED_K_GRID, Grid(-30.0, 30.0, 777)),
        (Grid(0.1, 20.0, 300), Grid(-30.0, 30.0, 1001)),
        (Grid(1.0, 9.0, 2), Grid(-3.0, 3.0, 777)),
        (Grid(1.0, 9.0, 777), Grid(-3.0, 3.0, 2)),
        (Grid(1.0, 9.0, 2), Grid(-3.0, 3.0, 2)),
        (Grid(0.1, 20.0, 1024), Grid(2.0, 14.0, 300)),  # u-grid away from 0
    ],
    ids=["4001x777", "300x1001", "2x777", "777x2", "2x2", "offset-u"],
)
def test_kernel_matches_direct_sum_on_any_shape(k_grid, u_grid):
    g = gaussian_spectrum(k_grid, 5.0, 0.5)
    ref = direct_sum(g.data, u_grid.nodes)
    fast = _oscillatory_sum(g.data, u_grid)
    assert fast.shape == (u_grid.count,)
    assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()


def test_kernel_matches_scipy_chirp_z():
    signal = pytest.importorskip("scipy.signal")
    g = gaussian_spectrum(ALIGNED_K_GRID, 5.0, 0.5)
    k, u = g.grid, Grid(-30.0, 30.0, 777)
    # sum_j c_j exp(i k_j u_m) = exp(i k0 u_m) * sum_j c_j A**-j W**(j m)
    czt = signal.czt(
        k.weights * g.data.values,
        u.count,
        w=np.exp(1j * k.spacing * u.spacing),
        a=np.exp(-1j * k.spacing * u.lower),
    )
    ref = np.exp(1j * k.lower * u.nodes) * czt
    fast = _oscillatory_sum(g.data, u)
    # scipy rounds its chirp phases directly, which costs it about 1e-11 here
    assert np.abs(fast - ref).max() <= 1e-10 * np.abs(ref).max()
