"""Differential entropy of momentum densities and its boost calculus.

For a density rho(k) the differential entropy in nats is

    S[rho] = - integral rho(k) ln rho(k) dk,      0 ln 0 := 0.

Under a boost the density maps as rho'(k) = exp(-eta) rho(exp(-eta) k),
which shifts the entropy by exactly eta: S' = S + eta.  Differences of
entropies taken in the same frame therefore cancel the shift, and the
analytic-minus-windowed gap

    Delta S = S[rho_analytic] - S[rho_windowed]

is a Lorentz invariant of the spectrum-window pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import Boost, boost_spectral
from .numerics import DataError, Grid, GridFunction, integrate
from .photon import PhotonAmplitude
from .spectral import SpectralFunction
from .windowing import Window, apply_window, boost_window

__all__ = [
    "ProbabilityDensity",
    "EntropyReport",
    "density_from_spectral",
    "density_from_photon",
    "entropy",
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
        v = self.data.values
        if np.iscomplexobj(v) and np.any(v.imag != 0.0):
            raise ValueError("a probability density must be real valued")
        if np.any(v.real < 0.0):
            first = int(np.flatnonzero(v.real < 0.0)[0])
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


def _normalised(raw: GridFunction, what: str) -> ProbabilityDensity:
    total = integrate(raw).real
    if total <= 0.0:
        raise DataError(f"{what} has zero norm; no density can be formed")
    return ProbabilityDensity(GridFunction(raw.grid, raw.values / total))


def density_from_spectral(g: SpectralFunction) -> ProbabilityDensity:
    """rho(k) proportional to |g(k)|**2, normalised on g's grid."""
    return _normalised(g.intensity, "spectrum")


def density_from_photon(a: PhotonAmplitude) -> ProbabilityDensity:
    """rho(k) proportional to |a(k)|**2 / k, normalised on a's grid.

    This is the momentum distribution weighted by the invariant measure;
    for a bridge-built amplitude it coincides with the spectral density.
    """
    raw = np.abs(a.data.values) ** 2 / a.grid.nodes
    return _normalised(GridFunction(a.grid, raw), "photon amplitude")


def entropy(rho: ProbabilityDensity) -> float:
    """S = - integral rho ln rho dk with the 0 ln 0 := 0 convention."""
    v = rho.values
    if np.any(v < 0.0):
        raise ValueError("entropy needs a nonnegative density")
    # v ln v, with ln 1 = 0 standing in at the zero nodes for 0 ln 0 := 0;
    # built in one array, as this is the largest temporary of a frame
    integrand = np.where(v > 0.0, v, 1.0)
    np.log(integrand, out=integrand)
    integrand *= v
    return -integrate(GridFunction(rho.grid, integrand)).real


def boost_density(rho: ProbabilityDensity, boost: Boost) -> ProbabilityDensity:
    """rho'(k) = exp(-eta) rho(exp(-eta) k) on the exp(eta)-scaled grid.

    The 1/scale factor on the values keeps the integral at exactly the
    same floating-point value times one division, so normalisation is
    preserved to machine precision and S' - S = eta holds exactly at the
    quadrature level.
    """
    s = boost.scale
    data = GridFunction(rho.grid.scaled(s), rho.values / s)
    return ProbabilityDensity(data)


def entropy_difference(
    g: SpectralFunction,
    win: Window,
    boost: Boost | None = None,
) -> EntropyReport:
    """Analytic and windowed entropies of g in the frame reached by boost.

    The spectrum and the window are transported to the target frame first
    (first-kind windows stay put by definition), the two densities are
    formed there, and both entropies are evaluated in that single frame.
    """
    b = boost if boost is not None else Boost(0.0)
    g_frame = boost_spectral(g, b)
    win_frame = boost_window(win, b)
    rho_analytic = density_from_spectral(g_frame)
    rho_windowed = density_from_spectral(apply_window(g_frame, win_frame))
    s_analytic = entropy(rho_analytic)
    s_windowed = entropy(rho_windowed)
    return EntropyReport(
        rapidity=b.rapidity,
        s_analytic=s_analytic,
        s_windowed=s_windowed,
        delta_s=s_analytic - s_windowed,
    )
