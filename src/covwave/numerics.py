"""Uniform closed-interval grids, trapezoid quadrature, and resampling.

Everything downstream (spectra, signals, densities) stores samples on a
Grid and integrates with trapezoid weights, so quadrature conventions are
fixed here once.  Real samples stay float64 and complex samples complex128,
so real integrands (densities, moments, entropy) are summed as reals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["DataError", "Grid", "GridFunction", "integrate", "resample"]


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


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples attached to a grid, one value per node.

    Real input is stored as float64 and complex input as complex128.  Every
    sample is checked to be finite here, once, so consumers need not rescan.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        values = values.astype(dtype, copy=False)
        if values.shape != (self.grid.count,):
            raise ValueError(
                f"expected {self.grid.count} samples, got shape {values.shape}"
            )
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(f"non-finite sample at index {first}")
        object.__setattr__(self, "values", values)


def integrate(f: GridFunction) -> complex:
    """Trapezoid integral of the samples over the grid's interval.

    The float64 weights meet real samples in one real dot product, and the
    real and imaginary parts of complex samples in one each.  Those parts
    are copied to contiguous arrays first, so that they are summed in the
    same order as real samples and a real integrand gives the same number
    whether it is stored real or complex.
    """
    w, v = f.grid.weights, f.values
    if np.iscomplexobj(v):
        return complex(w @ v.real.copy(), w @ v.imag.copy())
    return complex(w @ v)


def resample(f: GridFunction, target: Grid) -> GridFunction:
    """Linear interpolation of f onto target nodes, zero outside f's interval."""
    if target == f.grid:
        return GridFunction(target, f.values.copy())
    if target.upper <= f.grid.lower or target.lower >= f.grid.upper:
        raise DataError(
            f"target [{target.lower}, {target.upper}] does not overlap "
            f"source [{f.grid.lower}, {f.grid.upper}]"
        )
    x = target.nodes
    src = f.grid.nodes
    re = np.interp(x, src, f.values.real, left=0.0, right=0.0)
    im = np.interp(x, src, f.values.imag, left=0.0, right=0.0)
    return GridFunction(target, re + 1j * im)
