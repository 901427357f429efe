"""Uniform closed-interval grids and trapezoid quadrature.

Everything downstream (spectra, signals, densities) stores samples on a
Grid and integrates with trapezoid weights, so quadrature conventions are
fixed here once.  Real samples stay float64 and complex samples complex128,
so real integrands (densities, moments, entropy) are summed as reals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["DataError", "Grid", "GridFunction", "integrate"]


class DataError(ValueError):
    """Numeric precondition failure in otherwise well-formed input.

    Raised for data-dependent problems (zero norm, unsupported domain,
    empty window overlap) as opposed to malformed arguments.  The command
    line maps this class to its own exit code.
    """


@dataclass(frozen=True)
class Grid:
    """Uniformly spaced sample points covering the closed interval [lower, upper]."""

    lower: float
    upper: float
    count: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("grid bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(
                f"grid needs lower < upper, got [{self.lower}, {self.upper}]"
            )
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)

    def node_range(self, lo: int, hi: int) -> np.ndarray:
        """Nodes lo..hi-1, equal bit for bit to ``self.nodes[lo:hi]`` but built
        for that range alone and not cached.

        numpy's linspace forms node i as i * step + lower, with i / (count - 1)
        * (upper - lower) instead when the step underflows to 0, and sets the
        last node to upper; the same operations are done here.
        """
        nodes = np.arange(lo, hi, dtype=np.float64)
        step = self.spacing
        if step == 0.0:
            nodes /= self.count - 1
            nodes *= self.upper - self.lower
        else:
            nodes *= step
        nodes += self.lower
        if hi == self.count and hi > lo:
            nodes[-1] = self.upper
        return nodes

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights: h at interior nodes, h/2 at the ends."""
        w = np.full(self.count, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w

    def scaled(self, factor: float) -> "Grid":
        """Grid with both bounds multiplied by a positive factor, same count."""
        if not (np.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Grid(factor * self.lower, factor * self.upper, self.count)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples attached to a grid, exactly 0 outside a range of its nodes.

    ``support`` is a half-open node-index range [lo, hi), the whole grid
    when left out, and ``inner`` holds the samples at nodes lo..hi-1; the
    zeros outside are not stored.  Real input is stored as float64 and
    complex input as complex128.  Every sample is checked to be finite here,
    once, so consumers need not rescan, and ``inner`` is read-only, so a
    transform that keeps the samples (a boost, a window, an affine map)
    shares them instead of copying, and does not check them again.
    Quadrature and those transforms touch only the support.
    """

    grid: Grid
    inner: np.ndarray
    support: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        lo, hi = (0, self.grid.count) if self.support is None else self.support
        if not 0 <= lo <= hi <= self.grid.count:
            raise ValueError(f"support [{lo}, {hi}) is not a node range of {self.grid.count} nodes")
        inner = np.asarray(self.inner)
        inner = inner.astype(np.complex128 if np.iscomplexobj(inner) else np.float64, copy=False)
        if inner.shape != (hi - lo,):
            raise ValueError(f"expected {hi - lo} samples, got shape {inner.shape}")
        finite = np.isfinite(inner)
        if not finite.all():
            raise ValueError(f"non-finite sample at index {lo + int(np.argmin(finite))}")
        # an array that has the dtype already is taken without a copy, so
        # it is the caller's array that becomes read-only
        inner.flags.writeable = False
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "support", (lo, hi))

    @cached_property
    def values(self) -> np.ndarray:
        """One read-only sample per grid node, zeros included: ``inner``
        itself on a whole-grid support, else a zero-padded array made on
        first read."""
        lo, hi = self.support
        if hi - lo == self.grid.count:
            return self.inner
        values = np.pad(self.inner, (lo, self.grid.count - hi))
        values.flags.writeable = False
        return values


def _restrict(f: GridFunction, grid: Grid, support: tuple[int, int]) -> GridFunction:
    """f's samples on a support inside f's own, carried to a grid of the same
    count: a read-only view of f's samples, which were checked finite when f
    was made and are not scanned again."""
    lo, hi = support
    first = f.support[0]
    view = object.__new__(GridFunction)
    object.__setattr__(view, "grid", grid)
    object.__setattr__(view, "inner", f.inner[lo - first : hi - first])
    object.__setattr__(view, "support", (lo, hi))
    return view


def integrate(f: GridFunction) -> complex:
    """Trapezoid integral of the samples over the grid's interval.

    Only the nodes of f's support enter; the samples outside it are 0.  The
    float64 weights meet real samples in one real dot product, and the
    real and imaginary parts of complex samples in one each.  Those parts
    are copied to contiguous arrays first, so that they are summed in the
    same order as real samples and a real integrand gives the same number
    whether it is stored real or complex.
    """
    lo, hi = f.support
    w, v = f.grid.weights[lo:hi], f.inner
    if np.iscomplexobj(v):
        return complex(w @ v.real.copy(), w @ v.imag.copy())
    return complex(w @ v)

