import numpy as np
import pytest

from covwave.covariance import Boost, boost_spectral
from covwave.numerics import DataError, Grid, GridFunction
from covwave.photon import (
    PhotonAmplitude,
    boost_photon,
    invariant_norm,
    synthesize_photon_field,
    to_photon,
    to_spectral,
)
from covwave.spectral import (
    flat_spectrum,
    gaussian_spectrum,
    mean_momentum,
    spectrum_from_samples,
    synthesize,
)
from covwave.windowing import Window, apply_window


def flat_13(count=201):
    grid = Grid(1.0, 3.0, count)
    return flat_spectrum(grid, 1.0, 3.0)


def flat_amplitude(count=2048):
    grid = Grid(1.0, 3.0, count)
    return PhotonAmplitude(GridFunction(grid, np.ones(count)), 2.0)


# --- the bridge map ----------------------------------------------------------


def test_map_is_identity_at_mean_momentum():
    a = to_photon(flat_13(), 2.0)
    k = a.grid.nodes
    assert a.data.values[np.argmin(np.abs(k - 2.0))] == 1.0


def test_map_value_below_mean_momentum():
    a = to_photon(flat_13(), 2.0)
    assert a.data.values[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_inverse_map_values():
    g = to_spectral(flat_amplitude(201), 2.0)
    k = g.grid.nodes
    assert g.data.values[np.argmin(np.abs(k - 2.0))] == 1.0
    assert g.data.values[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_round_trip_is_node_wise_identity():
    g = gaussian_spectrum(Grid(0.1, 20.0, 1024), 5.0, 0.5)
    back = to_spectral(to_photon(g, 5.0), 5.0)
    np.testing.assert_allclose(back.data.values, g.data.values, rtol=1e-14)


def test_map_rejects_nonpositive_momentum():
    with pytest.raises(DataError):
        to_photon(flat_13(), 0.0)
    with pytest.raises(DataError):
        to_spectral(flat_amplitude(), -2.0)


def test_map_rejects_support_at_nonpositive_k():
    grid = Grid(-1.0, 3.0, 201)
    g = spectrum_from_samples(grid, np.ones(201))
    with pytest.raises(DataError, match="k = -1.0 "):
        to_photon(g, 2.0)
    # a windowed spectrum names the first node of its own support
    cut = apply_window(g, Window(-0.5, 1.0))
    with pytest.raises(DataError, match=f"k = {cut.grid.nodes[cut.data.support[0]]} "):
        to_photon(cut, 2.0)


def test_map_rejects_grid_reaching_nonpositive_k_even_if_zero_there():
    grid = Grid(-1.0, 3.0, 201)
    values = np.where(grid.nodes > 0.5, 1.0, 0.0)
    g = spectrum_from_samples(grid, values)
    with pytest.raises(DataError, match="positive-momentum"):
        to_photon(g, 2.0)


def test_amplitude_type_enforces_positive_domain():
    with pytest.raises(ValueError):
        PhotonAmplitude(GridFunction(Grid(0.0, 3.0, 8), np.ones(8)), 2.0)
    with pytest.raises(ValueError):
        PhotonAmplitude(GridFunction(Grid(1.0, 3.0, 8), np.ones(8)), 0.0)


def test_factor_is_monotone_around_mean_momentum():
    g = gaussian_spectrum(Grid(0.1, 20.0, 1024), 5.0, 0.5)
    a = to_photon(g, 5.0)
    k = g.grid.nodes
    ga, aa = np.abs(g.data.values), np.abs(a.data.values)
    assert np.all(aa[k >= 5.0] >= ga[k >= 5.0])
    assert np.all(aa[k <= 5.0] <= ga[k <= 5.0])


# --- invariant norm ----------------------------------------------------------


def test_invariant_norm_of_flat_amplitude():
    expected = np.log(3.0) / (2.0 * np.pi)
    assert invariant_norm(flat_amplitude()) == pytest.approx(expected, abs=1e-6)


def test_invariant_norm_is_boost_invariant():
    a = flat_amplitude()
    base = invariant_norm(a)
    for eta in (-2.0, -0.7, 1.0, 2.0):
        boosted = boost_photon(a, Boost(eta))
        assert invariant_norm(boosted) == pytest.approx(base, rel=1e-6)


def test_invariant_norm_of_zero_amplitude():
    grid = Grid(1.0, 3.0, 64)
    a = PhotonAmplitude(GridFunction(grid, np.zeros(64)), 1.0)
    assert invariant_norm(a) == 0.0


def test_boost_photon_scales_grid_and_momentum():
    a = flat_amplitude(64)
    boosted = boost_photon(a, Boost(1.0))
    assert boosted.grid.lower == pytest.approx(np.e, rel=1e-15)
    assert boosted.mean_momentum == pytest.approx(2.0 * np.e, rel=1e-15)
    np.testing.assert_array_equal(boosted.data.values, a.data.values)


def test_boost_commutes_with_the_map():
    g = gaussian_spectrum(Grid(0.1, 20.0, 512), 5.0, 0.5)
    p = mean_momentum(g)
    eta = 0.8
    via_spectral = to_photon(boost_spectral(g, Boost(eta)), np.exp(eta) * p)
    via_photon = boost_photon(to_photon(g, p), Boost(eta))
    assert via_spectral.grid == via_photon.grid
    assert via_spectral.mean_momentum == via_photon.mean_momentum
    np.testing.assert_allclose(
        via_spectral.data.values, via_photon.data.values, rtol=1e-13
    )


# --- field synthesis ---------------------------------------------------------


def test_bridge_fields_coincide_for_flat_spectrum():
    g = flat_13(1024)
    p = mean_momentum(g)
    u = Grid(-40.0, 40.0, 1024)
    G = synthesize(g, u, momentum=p)
    A = synthesize_photon_field(to_photon(g, p), u)
    gap = np.abs(A.data.values - G.data.values).max()
    assert gap < 1e-8 * np.abs(G.data.values).max()


def test_bridge_fields_coincide_for_windowed_gaussian():
    g = apply_window(
        gaussian_spectrum(Grid(0.1, 20.0, 1024), 5.0, 0.5), Window(4.5, 1.0)
    )
    p = mean_momentum(g)
    u = Grid(-40.0, 40.0, 1024)
    G = synthesize(g, u, momentum=p)
    A = synthesize_photon_field(to_photon(g, p), u)
    gap = np.abs(A.data.values - G.data.values).max()
    assert gap < 1e-8 * np.abs(G.data.values).max()


def test_zero_amplitude_gives_zero_field():
    grid = Grid(1.0, 3.0, 64)
    a = PhotonAmplitude(GridFunction(grid, np.zeros(64)), 1.0)
    out = synthesize_photon_field(a, Grid(-5.0, 5.0, 32))
    np.testing.assert_array_equal(out.data.values, 0.0)


def test_field_modulus_ignores_global_phase():
    a = to_photon(flat_13(256), 2.0)
    rotated = PhotonAmplitude(
        GridFunction(a.grid, np.exp(1.3j) * a.data.values), a.mean_momentum
    )
    u = Grid(-10.0, 10.0, 128)
    A1 = synthesize_photon_field(a, u)
    A2 = synthesize_photon_field(rotated, u)
    np.testing.assert_allclose(
        np.abs(A1.data.values), np.abs(A2.data.values), rtol=0, atol=1e-12
    )
