"""Momentum-space spectra and their position-space wavelet signals.

A spectrum g(k) sampled on a k-grid is turned into a signal on a u-grid by
the oscillatory synthesis integral

    classical:  F(u) = (2*pi)**-0.5        * integral g(k) exp(i k u) dk
    wavelet:    G(u) = (2*pi*p)**-0.5      * integral g(k) exp(i k u) dk

where p is the mean momentum of the spectrum.  The wavelet normalisation
carries a 1/sqrt(p) that makes the signal norm transform covariantly under
boosts; see the covariance module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numerics import DataError, Grid, GridFunction, _restrict, integrate

__all__ = [
    "SpectralFunction",
    "WaveletSignal",
    "gaussian_spectrum",
    "flat_spectrum",
    "spectrum_from_samples",
    "norm_squared",
    "mean_momentum",
    "synthesize",
    "edge_leakage",
]

@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Spectrum g(k) on a momentum grid, real or complex.

    ``reference_scale`` is the positive scale sigma used by the multiplier
    pair sqrt(p/sigma), sqrt(sigma/p).  Left as None it becomes the
    spectrum's own mean momentum, so the pair starts at (1, 1), or 1.0 for a
    zero-norm spectrum.
    """

    data: GridFunction
    reference_scale: float | None = None

    # the spectrum whose samples these are, set by boost_spectral and
    # apply_window; None for a spectrum that owns its samples
    _source = None

    def __post_init__(self) -> None:
        if self.reference_scale is None:
            # from an intensity that is not cached, so it is freed on return:
            # a base spectrum that is only boosted never reads it again
            n2, first = _moments(_intensity(self.data))
            object.__setattr__(self, "reference_scale", first / n2 if n2 > 0.0 else 1.0)
        if not (np.isfinite(self.reference_scale) and self.reference_scale > 0.0):
            raise ValueError(
                f"reference scale must be positive, got {self.reference_scale}"
            )

    @property
    def grid(self) -> Grid:
        return self.data.grid

    @cached_property
    def intensity(self) -> GridFunction:
        """|g(k)|**2 as real samples on the spectrum's grid.

        Computed once, by the spectrum that owns the samples: a boost leaves
        every sample unchanged, so a boosted or windowed spectrum reads a
        view of its source's array, cut to its own support and placed on its
        own grid.  Every quadrature of the intensity (norm, mean momentum,
        density, entropy) reads this one array.
        """
        if self._source is not None:
            return _restrict(self._source.intensity, self.grid, self.data.support)
        return _intensity(self.data)

    @cached_property
    def _entropy_integrand(self) -> tuple[GridFunction, float]:
        """(J ln J, c) with J = c |g|**2 and c = 2**-e, e the exponent of the
        peak intensity, 0 ln 0 taken as 0.

        The power of two scales exactly and keeps J below 1, so J ln J cannot
        overflow; the entropy of a density J / integral J dk is that of
        |g|**2 / N.  Shared like the intensity.
        """
        if self._source is not None:
            terms, scale = self._source._entropy_integrand
            return _restrict(terms, self.grid, self.data.support), scale
        intensity = self.intensity.inner
        exponent = int(np.frexp(intensity.max(initial=0.0))[1])
        scaled = np.ldexp(intensity, -exponent)
        return (
            GridFunction(self.grid, _x_log_x(scaled), self.data.support),
            math.ldexp(1.0, -exponent),
        )


def _shared(g: SpectralFunction, grid: Grid, support: tuple[int, int]) -> SpectralFunction:
    """g's samples on a support inside g's own, on a grid of the same count,
    as a spectrum that shares them and reads the intensity and entropy
    integrand of the spectrum owning them."""
    frame = SpectralFunction(_restrict(g.data, grid, support), g.reference_scale)
    object.__setattr__(frame, "_source", g if g._source is None else g._source)
    return frame


def _intensity(data: GridFunction) -> GridFunction:
    """|data|**2 as real samples with data's support."""
    v = data.inner
    # for real samples np.square equals np.abs(v)**2 bit for bit, in one pass
    inner = np.abs(v) ** 2 if np.iscomplexobj(v) else np.square(v)
    return GridFunction(data.grid, inner, data.support)


def _x_log_x(v: np.ndarray) -> np.ndarray:
    """v ln v for v >= 0, with ln 1 = 0 standing in at the zero nodes for
    0 ln 0 := 0; built in one array, the largest temporary of an entropy."""
    out = np.where(v > 0.0, v, 1.0)
    np.log(out, out=out)
    out *= v
    return out


@dataclass(frozen=True, eq=False)
class WaveletSignal:
    """Synthesised signal G(u) on a position grid, tagged with the mean
    momentum p that entered its normalisation."""

    data: GridFunction
    mean_momentum: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean_momentum) and self.mean_momentum > 0.0):
            raise ValueError(
                f"mean momentum must be positive, got {self.mean_momentum}"
            )

    @property
    def grid(self) -> Grid:
        return self.data.grid


def gaussian_spectrum(
    grid: Grid,
    center: float,
    width: float,
    reference_scale: float | None = None,
) -> SpectralFunction:
    """Gaussian bump g(k) = exp(-(k - center)**2 / (2 width**2)), peak value 1.

    The grid must sit at positive momenta (lower bound > 0) so that the
    photon map and the mean momentum stay well defined.
    """
    if not (np.isfinite(center) and center > 0.0):
        raise ValueError(f"center must be positive, got {center}")
    if not (np.isfinite(width) and width > 0.0):
        raise ValueError(f"width must be positive, got {width}")
    if grid.lower <= 0.0:
        raise ValueError(
            f"gaussian spectrum needs a grid at k > 0, lower bound is {grid.lower}"
        )
    values = np.exp(-((grid.node_range(0, grid.count) - center) ** 2) / (2.0 * width**2))
    return SpectralFunction(GridFunction(grid, values), reference_scale)


def flat_spectrum(
    grid: Grid,
    support_lower: float,
    support_upper: float,
    reference_scale: float | None = None,
) -> SpectralFunction:
    """Indicator spectrum: 1 on [support_lower, support_upper], 0 elsewhere.

    As for the Gaussian, the grid must sit at positive momenta, and the
    support must meet it.
    """
    if not support_lower < support_upper:
        raise ValueError(
            f"flat support needs lower < upper, got [{support_lower}, {support_upper}]"
        )
    if support_lower <= 0.0:
        raise ValueError(
            f"flat spectrum support must sit at positive momenta, got lower {support_lower}"
        )
    if grid.lower <= 0.0:
        raise ValueError(f"flat spectrum needs a grid at k > 0, lower bound is {grid.lower}")
    if support_upper < grid.lower or support_lower > grid.upper:
        raise ValueError(
            f"flat support [{support_lower}, {support_upper}] lies outside "
            f"the grid [{grid.lower}, {grid.upper}]"
        )
    nodes = grid.node_range(0, grid.count)
    values = ((nodes >= support_lower) & (nodes <= support_upper)).astype(float)
    return SpectralFunction(GridFunction(grid, values), reference_scale)


def spectrum_from_samples(
    grid: Grid,
    values: np.ndarray,
    reference_scale: float | None = None,
) -> SpectralFunction:
    """Wrap explicit real or complex samples as a spectrum."""
    return SpectralFunction(GridFunction(grid, values), reference_scale)


def _moments(dens: GridFunction) -> tuple[float, float]:
    """(integral |g|**2 dk, integral k |g|**2 dk) by trapezoid quadrature,
    from the intensity |g|**2 and over its support."""
    lo, hi = dens.support
    n2 = integrate(dens).real
    moment = dens.grid.node_range(lo, hi) * dens.inner
    first = integrate(GridFunction(dens.grid, moment, dens.support)).real
    return n2, first


def norm_squared(g: SpectralFunction) -> float:
    """integral |g(k)|**2 dk by trapezoid quadrature."""
    return integrate(g.intensity).real


def mean_momentum(g: SpectralFunction) -> float:
    """p = integral k |g|**2 dk / integral |g|**2 dk.

    Raises DataError when the spectrum has zero norm (the ratio is then
    undefined) or when the result is not finite and positive.
    """
    n2, first = _moments(g.intensity)
    if n2 <= 0.0:
        raise DataError("mean momentum undefined for a zero-norm spectrum")
    p = first / n2
    if not (np.isfinite(p) and p > 0.0):
        raise DataError(f"mean momentum must be positive, got {p}")
    return p


def _phase(x: float, y: float, ints: np.ndarray) -> np.ndarray:
    """exp(i x y n) for floats x, y and non-negative integers n, correct to
    rounding even where x y n runs to thousands of radians.

    The product x y is taken exactly.  A Veltkamp split leaves its leading
    part with few enough bits that the product with every n is exact, and
    only the small remainder's product rounds.
    """
    exact = Fraction(x) * Fraction(y)
    c = (2.0 ** int(ints.max()).bit_length() + 1.0) * float(exact)
    lead = c - (c - float(exact))
    rest = float(exact - Fraction(lead))
    return np.exp(1j * (lead * ints)) * np.exp(1j * (rest * ints))


def _oscillatory_sum(data: GridFunction, u: Grid) -> np.ndarray:
    """Quadrature sum_j w_j g(k_j) exp(i k_j u_m) at every node u_m of u.

    With k_j = k0 + j dk, u_m = u0 + m du and a = dk du, the identity
    jm = (j**2 + m**2 - (m - j)**2) / 2 turns the sum into one chirp
    convolution (Bluestein's chirp-z transform), done by FFT in
    O((N_k + N_u) log(N_k + N_u)).  Both grids must be uniform, which the
    Grid type guarantees.
    """
    k = data.grid
    n = np.arange(max(k.count, u.count))
    chirp = _phase(-0.5 * k.spacing, u.spacing, n * n)  # exp(-i a n**2 / 2)
    # smallest power of two that holds the linear convolution of both lengths
    size = 1 << (k.count + u.count - 2).bit_length()

    pre = (
        k.weights
        * data.values
        * _phase(k.spacing, u.lower, n[: k.count])
        * chirp[: k.count].conj()
    )
    # the chirp at n in [-(N_k - 1), N_u - 1], negative n wrapped to the end
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[: u.count] = chirp[: u.count]
    kernel[size - k.count + 1 :] = chirp[k.count - 1 : 0 : -1]

    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kernel))[: u.count]
    return np.exp(1j * (k.lower * u.nodes)) * chirp[: u.count].conj() * conv


def synthesize(
    g: SpectralFunction,
    u_grid: Grid,
    mode: str = "wavelet",
    momentum: float | None = None,
) -> WaveletSignal:
    """Evaluate the synthesis integral of g on the position grid.

    mode "wavelet" uses the (2 pi p)**-0.5 normalisation with p equal to
    ``momentum`` when given, otherwise the spectrum's own mean momentum.
    mode "classical" uses (2 pi)**-0.5 and tags the signal with p = 1.
    """
    if mode not in ("wavelet", "classical"):
        raise ValueError(f"mode must be 'wavelet' or 'classical', got {mode!r}")
    if mode == "wavelet":
        p = momentum if momentum is not None else mean_momentum(g)
        if not (np.isfinite(p) and p > 0.0):
            raise DataError(f"wavelet normalisation needs p > 0, got {p}")
        prefactor = 1.0 / np.sqrt(2.0 * np.pi * p)
    else:
        if momentum is not None:
            raise ValueError("momentum applies only to wavelet mode")
        p = 1.0
        prefactor = 1.0 / np.sqrt(2.0 * np.pi)
    values = prefactor * _oscillatory_sum(g.data, u_grid)
    return WaveletSignal(GridFunction(u_grid, values), p)


def edge_leakage(sig: WaveletSignal) -> float:
    """max(|G| at the two u-grid ends) / max |G| over the grid.

    A diagnostic for truncation of the synthesis window: values near zero
    mean the signal has decayed before the grid ends.
    """
    mag = np.abs(sig.data.values)
    peak = mag.max()
    if peak <= 0.0:
        raise DataError("edge leakage undefined for an identically zero signal")
    return float(max(mag[0], mag[-1]) / peak)
