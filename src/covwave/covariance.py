"""Boosts, one-dimensional affine maps, and covariant function transforms.

On the light-cone coordinate u = z - t a boost of rapidity eta acts as the
squeeze u -> exp(-eta) u, k -> exp(eta) k.  Grids carry the boost exactly:
the bounds are rescaled and the stored samples are reused unchanged, so no
interpolation error enters a boosted quantity.

Affine maps come in two kinds that differ in where the shift sits:

    first kind    x -> exp(eta) x + b
    second kind   x -> exp(eta) (x + b)

Both embed in GL(2) as upper-triangular matrices acting on (x, 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import GridFunction, Grid, _restrict
from .spectral import SpectralFunction, _shared

__all__ = [
    "Boost",
    "AffineMap",
    "affine_apply",
    "affine_compose",
    "affine_inverse",
    "affine_image",
    "wavelet_form",
    "boost_spectral",
    "multiplier_pair",
]

_KINDS = ("first", "second")


@dataclass(frozen=True)
class Boost:
    """Pure boost along the propagation axis, parametrised by rapidity."""

    rapidity: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.rapidity):
            raise ValueError(f"rapidity must be finite, got {self.rapidity}")

    @property
    def scale(self) -> float:
        """Momentum scale factor exp(rapidity)."""
        return float(np.exp(self.rapidity))


@dataclass(frozen=True)
class AffineMap:
    """Scale-and-shift map of the line, kind "first" or "second"."""

    rapidity: float
    shift: float
    kind: str = "first"

    def __post_init__(self) -> None:
        if not np.isfinite(self.rapidity):
            raise ValueError(f"rapidity must be finite, got {self.rapidity}")
        if not np.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    @property
    def scale(self) -> float:
        return float(np.exp(self.rapidity))

    @property
    def offset(self) -> float:
        """The additive part in the normal form x -> scale * x + offset."""
        if self.kind == "first":
            return self.shift
        return self.scale * self.shift

    def matrix(self) -> np.ndarray:
        """2x2 representation acting on column vectors (x, 1)."""
        return np.array([[self.scale, self.offset], [0.0, 1.0]])


def affine_apply(m: AffineMap, x: float) -> float:
    """Image of the point x under the map."""
    if m.kind == "first":
        return m.scale * x + m.shift
    return m.scale * (x + m.shift)


def affine_compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """Map whose action is outer after inner, in first-kind normal form.

    Rapidity composes additively, which keeps repeated composition exact
    instead of accumulating log(exp(.)) rounding.
    """
    offset = outer.scale * inner.offset + outer.offset
    return AffineMap(outer.rapidity + inner.rapidity, offset, "first")


def affine_inverse(m: AffineMap) -> AffineMap:
    """Inverse map in first-kind normal form."""
    inv_scale = float(np.exp(-m.rapidity))
    return AffineMap(-m.rapidity, -inv_scale * m.offset, "first")


def affine_image(f: GridFunction, m: AffineMap) -> GridFunction:
    """Carry samples along the map: node x becomes node m(x), samples and
    support shared with f.

    This realises f'(x') = f(x) with x' = m(x); the grid stays uniform
    because the map is affine.
    """
    lower = affine_apply(m, f.grid.lower)
    upper = affine_apply(m, f.grid.upper)
    return _restrict(f, Grid(lower, upper, f.grid.count), f.support)


def wavelet_form(f: GridFunction, m: AffineMap) -> GridFunction:
    """Unitary image exp(-eta/2) f(m^{-1}(x')) on the transported grid.

    The exp(-eta/2) prefactor compensates the Jacobian of the node map, so
    integral |f'|^2 dx' equals integral |f|^2 dx for either kind of map.
    """
    bare = affine_image(f, m)
    factor = float(np.exp(-0.5 * m.rapidity))
    return GridFunction(bare.grid, factor * bare.inner, bare.support)


def boost_spectral(g: SpectralFunction, boost: Boost) -> SpectralFunction:
    """Boosted spectrum g'(k') = g(exp(-eta) k') on the grid scaled by exp(eta).

    The boosted spectrum shares the read-only samples and the support of g;
    only the grid bounds change.  It shares the intensity and the entropy
    integrand too, as views of the arrays of the spectrum that owns the
    samples, so that a sweep forms them once however many frames it
    visits; every quadrature over them still runs on the boosted grid.  The
    reference scale is left alone, so the multiplier pair picks up the boost
    through the mean momentum.
    """
    return _shared(g, g.grid.scaled(boost.scale), g.data.support)


def multiplier_pair(g: SpectralFunction, p: float) -> tuple[float, float]:
    """(sqrt(p / sigma), sqrt(sigma / p)) for reference scale sigma.

    The two entries multiply to 1 by construction and trade places under
    p -> sigma**2 / p.
    """
    if not (np.isfinite(p) and p > 0.0):
        raise ValueError(f"momentum must be positive, got {p}")
    sigma = g.reference_scale
    return (float(np.sqrt(p / sigma)), float(np.sqrt(sigma / p)))
