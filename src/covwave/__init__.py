"""Boost-covariant wavelet synthesis, windows, photon amplitudes, and
entropy calculus on one-dimensional light-cone grids."""

from .covariance import (
    AffineMap,
    Boost,
    affine_apply,
    affine_compose,
    affine_image,
    affine_inverse,
    boost_spectral,
    multiplier_pair,
    wavelet_form,
)
from .entropy import (
    EntropyReport,
    ProbabilityDensity,
    boost_density,
    density_from_spectral,
    entropy,
    entropy_difference,
    spectrum_entropy,
)
from .io import read_spectrum, write_signal, write_spectrum
from .numerics import DataError, Grid, GridFunction, integrate
from .photon import (
    PhotonAmplitude,
    boost_photon,
    invariant_norm,
    synthesize_photon_field,
    to_photon,
    to_spectral,
)
from .spectral import (
    SpectralFunction,
    WaveletSignal,
    edge_leakage,
    flat_spectrum,
    gaussian_spectrum,
    mean_momentum,
    norm_squared,
    spectrum_from_samples,
    synthesize,
)
from .windowing import (
    Window,
    apply_window,
    boost_window,
    invariant_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Boost",
    "DataError",
    "EntropyReport",
    "Grid",
    "GridFunction",
    "PhotonAmplitude",
    "ProbabilityDensity",
    "SpectralFunction",
    "WaveletSignal",
    "Window",
    "affine_apply",
    "affine_compose",
    "affine_image",
    "affine_inverse",
    "apply_window",
    "boost_density",
    "boost_photon",
    "boost_spectral",
    "boost_window",
    "density_from_spectral",
    "edge_leakage",
    "entropy",
    "entropy_difference",
    "flat_spectrum",
    "gaussian_spectrum",
    "integrate",
    "invariant_norm",
    "invariant_ratio",
    "mean_momentum",
    "multiplier_pair",
    "norm_squared",
    "read_spectrum",
    "spectrum_entropy",
    "spectrum_from_samples",
    "synthesize",
    "synthesize_photon_field",
    "to_photon",
    "to_spectral",
    "wavelet_form",
    "write_signal",
    "write_spectrum",
]
