"""Uniform closed-interval grids and trapezoid quadrature.

Everything downstream (spectra, signals, densities) stores samples on a
Grid and integrates with trapezoid weights, so quadrature conventions are
fixed here once.  Real samples stay float64 and complex samples complex128,
so real integrands (densities, moments, entropy) are summed as reals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


def _samples(values, count: int, first_node: int = 0) -> np.ndarray:
    """values as a float64 or complex128 array of ``count`` finite samples,
    the first of them at node index ``first_node``."""
    values = np.asarray(values)
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    values = values.astype(dtype, copy=False)
    if values.shape != (count,):
        raise ValueError(f"expected {count} samples, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        first = first_node + int(np.argmin(finite))
        raise ValueError(f"non-finite sample at index {first}")
    return values


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples attached to a grid, one value per node.

    Real input is stored as float64 and complex input as complex128.  Every
    sample is checked to be finite here, once, so consumers need not rescan.

    ``support`` is a half-open node-index range [lo, hi) outside which every
    sample is exactly 0.  The plain constructor sets the whole grid;
    ``on_support`` builds samples that are zero outside a narrower range,
    and quadrature and the transforms that keep zeros touch only that range.
    """

    grid: Grid
    values: np.ndarray
    support: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _samples(self.values, self.grid.count))
        object.__setattr__(self, "support", (0, self.grid.count))

    @classmethod
    def on_support(cls, grid: Grid, lo: int, hi: int, inner: np.ndarray) -> "GridFunction":
        """Samples ``inner`` at nodes lo..hi-1 and exactly 0 at every other node.

        Only ``inner`` is checked for finiteness; the zeros are filled in
        here, so the support always matches the values.  When [lo, hi) is
        the whole grid, ``inner`` itself becomes the values array.
        """
        if not 0 <= lo <= hi <= grid.count:
            raise ValueError(f"support [{lo}, {hi}) is not a node range of {grid.count} nodes")
        inner = _samples(inner, hi - lo, lo)
        if hi - lo == grid.count:
            values = inner
        else:
            values = np.zeros(grid.count, dtype=inner.dtype)
            values[lo:hi] = inner
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", values)
        object.__setattr__(f, "support", (lo, hi))
        return f


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
    w, v = f.grid.weights[lo:hi], f.values[lo:hi]
    if np.iscomplexobj(v):
        return complex(w @ v.real.copy(), w @ v.imag.copy())
    return complex(w @ v)

