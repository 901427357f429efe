"""Photon amplitudes and the bridge to and from wavelet spectra.

The single-photon field built from an amplitude a(k) on k > 0 is

    A(u) = integral a(k) / sqrt(2 pi k) exp(i k u) dk,

and the choice a(k) = sqrt(k / p) g(k) makes A coincide with the wavelet
signal of g node for node: the sqrt(k) factors cancel inside the same
quadrature sum, so the match is algebraic rather than approximate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import Boost
from .numerics import DataError, Grid, GridFunction, _restrict, integrate
from .spectral import SpectralFunction, WaveletSignal, _oscillatory_sum

__all__ = [
    "PhotonAmplitude",
    "to_photon",
    "to_spectral",
    "boost_photon",
    "invariant_norm",
    "synthesize_photon_field",
]


@dataclass(frozen=True, eq=False)
class PhotonAmplitude:
    """Complex amplitude a(k) on a strictly positive momentum grid, tagged
    with the mean momentum p of the spectrum it came from."""

    data: GridFunction
    mean_momentum: float

    def __post_init__(self) -> None:
        if self.data.grid.lower <= 0.0:
            raise ValueError(
                f"photon amplitudes live on k > 0, grid starts at {self.data.grid.lower}"
            )
        if not (np.isfinite(self.mean_momentum) and self.mean_momentum > 0.0):
            raise ValueError(
                f"mean momentum must be positive, got {self.mean_momentum}"
            )

    @property
    def grid(self) -> Grid:
        return self.data.grid


def to_photon(g: SpectralFunction, p: float) -> PhotonAmplitude:
    """a(k) = sqrt(k / p) g(k).

    Requires p > 0 and a spectrum supported at positive momenta only: any
    node with k <= 0 and a nonzero sample is rejected, and a grid reaching
    into k <= 0 is rejected even with zero samples there because the
    amplitude type has no representation for that region.
    """
    if not (np.isfinite(p) and p > 0.0):
        raise DataError(f"photon map needs p > 0, got {p}")
    nodes = g.grid.nodes
    if g.grid.lower <= 0.0:
        lo, hi = g.data.support
        bad = (np.abs(g.data.inner) > 0.0) & (nodes[lo:hi] <= 0.0)
        if bad.any():
            k0 = nodes[lo + int(np.flatnonzero(bad)[0])]
            raise DataError(f"spectrum has support at k = {k0} <= 0; photon map undefined")
        raise DataError(
            f"photon map needs a positive-momentum grid, lower bound is {g.grid.lower}"
        )
    values = np.sqrt(nodes / p) * g.data.values
    return PhotonAmplitude(GridFunction(g.grid, values), p)


def to_spectral(
    a: PhotonAmplitude,
    p: float,
    reference_scale: float | None = None,
) -> SpectralFunction:
    """Inverse bridge g(k) = sqrt(p / k) a(k).

    The reference scale defaults to p so that round-tripping a spectrum
    through the photon map needs no extra bookkeeping.
    """
    if not (np.isfinite(p) and p > 0.0):
        raise DataError(f"inverse photon map needs p > 0, got {p}")
    values = np.sqrt(p / a.grid.nodes) * a.data.values
    scale = p if reference_scale is None else reference_scale
    return SpectralFunction(GridFunction(a.grid, values), scale)


def boost_photon(a: PhotonAmplitude, boost: Boost) -> PhotonAmplitude:
    """Boosted amplitude on the exp(eta)-scaled grid, values reused, and the
    momentum tag scaled to exp(eta) p."""
    data = _restrict(a.data, a.grid.scaled(boost.scale), a.data.support)
    return PhotonAmplitude(data, boost.scale * a.mean_momentum)


def invariant_norm(a: PhotonAmplitude) -> float:
    """integral |a(k)|**2 / (2 pi k) dk, the boost-invariant photon norm."""
    dens = np.abs(a.data.values) ** 2 / (2.0 * np.pi * a.grid.nodes)
    return integrate(GridFunction(a.grid, dens)).real


def synthesize_photon_field(a: PhotonAmplitude, u_grid: Grid) -> WaveletSignal:
    """Evaluate A(u) = integral a(k) / sqrt(2 pi k) exp(i k u) dk.

    Reuses the spectral synthesis kernel on the effective integrand
    a(k) / sqrt(2 pi k) so that the bridge identity holds node for node.
    """
    effective = a.data.values / np.sqrt(2.0 * np.pi * a.grid.nodes)
    values = _oscillatory_sum(GridFunction(a.grid, effective), u_grid)
    return WaveletSignal(GridFunction(u_grid, values), a.mean_momentum)
