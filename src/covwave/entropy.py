"""Differential entropy of momentum densities and its boost calculus.

For a density rho(k) the differential entropy in nats is

    S[rho] = - integral rho(k) ln rho(k) dk,      0 ln 0 := 0.

Under a boost the density maps as rho'(k) = exp(-eta) rho(exp(-eta) k),
which shifts the entropy by exactly eta: S' = S + eta.  Differences of
entropies taken in the same frame therefore cancel the shift, and the
analytic-minus-windowed gap

    Delta S = S[rho_analytic] - S[rho_windowed]

is a Lorentz invariant of the spectrum-window pair.

The entropy of the density I / N of an intensity I = |g|**2, with
N = integral I dk, is taken from I itself:

    S[I / N] = ln N - (1/N) integral I ln I dk.

The identity holds exactly at the quadrature level, as N is the same
trapezoid sum as integral I dk.  The array I ln I is one per spectrum: a
boost leaves every sample unchanged, so every frame and every window cut
reads a view of it and needs only two dot products on its own grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import Boost, boost_spectral
from .numerics import DataError, Grid, GridFunction, integrate
from .spectral import SpectralFunction, _x_log_x, norm_squared
from .windowing import Window, apply_window, boost_window

__all__ = [
    "ProbabilityDensity",
    "EntropyReport",
    "density_from_spectral",
    "entropy",
    "spectrum_entropy",
    "boost_density",
    "entropy_difference",
]

#: trapezoid integral of a density may differ from 1 by at most this much
_NORMALISATION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProbabilityDensity:
    """Nonnegative real samples on a grid with trapezoid integral 1."""

    data: GridFunction

    def __post_init__(self) -> None:
        v = self.data.inner
        if np.iscomplexobj(v) and np.any(v.imag != 0.0):
            raise ValueError("a probability density must be real valued")
        if np.any(v.real < 0.0):
            first = self.data.support[0] + int(np.flatnonzero(v.real < 0.0)[0])
            raise ValueError(f"negative density value at index {first}")
        total = integrate(self.data).real
        if abs(total - 1.0) > _NORMALISATION_TOL:
            raise ValueError(f"density integrates to {total}, expected 1")

    @property
    def grid(self) -> Grid:
        return self.data.grid

    @property
    def values(self) -> np.ndarray:
        return self.data.values.real


@dataclass(frozen=True)
class EntropyReport:
    """Analytic and windowed entropies of one spectrum in one frame,
    together with their boost-invariant difference."""

    rapidity: float
    s_analytic: float
    s_windowed: float
    delta_s: float

    def __post_init__(self) -> None:
        if abs(self.delta_s - (self.s_analytic - self.s_windowed)) > 1e-12:
            raise ValueError("delta_s must equal s_analytic - s_windowed")


def _norm(g: SpectralFunction) -> float:
    """integral |g|**2 dk, which must be positive for a density to exist."""
    total = norm_squared(g)
    if total <= 0.0:
        raise DataError("spectrum has zero norm; no density can be formed")
    return total


def density_from_spectral(g: SpectralFunction) -> ProbabilityDensity:
    """rho(k) proportional to |g(k)|**2, normalised on g's grid."""
    intensity = g.intensity
    inner = intensity.inner / _norm(g)
    return ProbabilityDensity(GridFunction(intensity.grid, inner, intensity.support))


def _entropy(x_log_x: GridFunction, norm: float) -> float:
    """ln N - (1/N) integral x ln x dk, the entropy of x / N for N the
    integral of x; the one entropy quadrature."""
    return math.log(norm) - integrate(x_log_x).real / norm


def entropy(rho: ProbabilityDensity) -> float:
    """S = - integral rho ln rho dk with the 0 ln 0 := 0 convention."""
    v = rho.data.inner.real
    if np.any(v < 0.0):
        raise ValueError("entropy needs a nonnegative density")
    return _entropy(GridFunction(rho.grid, _x_log_x(v), rho.data.support), 1.0)


def spectrum_entropy(g: SpectralFunction) -> float:
    """S of the density |g|**2 / N on g's grid, N = integral |g|**2 dk.

    Equal to entropy(density_from_spectral(g)) up to rounding, but formed
    as ln N - (1/N) integral I ln I dk from g's intensity I, with the
    I ln I array shared by every boosted and windowed spectrum of the same
    samples.  That array is built from I scaled by a power of two, which is
    exact and cannot overflow; the entropy of I / N does not depend on
    such a scale.  The two terms cancel to about |ln J| eps, J the scaled
    intensity, so a window far below the spectrum's peak keeps fewer
    digits than one near it.
    """
    terms, scale = g._entropy_integrand
    return _entropy(terms, scale * _norm(g))


def boost_density(rho: ProbabilityDensity, boost: Boost) -> ProbabilityDensity:
    """rho'(k) = exp(-eta) rho(exp(-eta) k) on the exp(eta)-scaled grid.

    The 1/scale factor on the values keeps the integral at exactly the
    same floating-point value times one division, so normalisation is
    preserved to machine precision and S' - S = eta holds exactly at the
    quadrature level.
    """
    s = boost.scale
    data = GridFunction(rho.grid.scaled(s), rho.data.inner.real / s, rho.data.support)
    return ProbabilityDensity(data)


def entropy_difference(
    g: SpectralFunction,
    win: Window,
    boost: Boost | None = None,
) -> EntropyReport:
    """Analytic and windowed entropies of g in the frame reached by boost.

    The spectrum and the window are transported to the target frame first
    (first-kind windows stay put by definition), and both entropies are
    evaluated in that single frame.
    """
    b = boost if boost is not None else Boost(0.0)
    g_frame = boost_spectral(g, b)
    s_analytic = spectrum_entropy(g_frame)
    s_windowed = spectrum_entropy(apply_window(g_frame, boost_window(win, b)))
    return EntropyReport(
        rapidity=b.rapidity,
        s_analytic=s_analytic,
        s_windowed=s_windowed,
        delta_s=s_analytic - s_windowed,
    )
