"""Closed momentum windows and their two transformation behaviours."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import Boost
from .numerics import DataError, Grid
from .spectral import SpectralFunction, _shared

__all__ = [
    "Window",
    "apply_window",
    "boost_window",
    "invariant_ratio",
]


@dataclass(frozen=True)
class Window:
    """Closed interval [lower, lower + width] with a transformation kind.

    kind "second" windows ride along with boosts (both edges scale with
    exp(eta)); kind "first" windows are frame-fixed and ignore boosts.
    """

    lower: float
    width: float
    kind: str = "second"

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower):
            raise ValueError(f"window lower edge must be finite, got {self.lower}")
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"window width must be positive, got {self.width}")
        if self.kind not in ("first", "second"):
            raise ValueError(f"window kind must be 'first' or 'second', got {self.kind!r}")

    @property
    def upper(self) -> float:
        return self.lower + self.width


def _nodes_below(grid: Grid, x: float, inclusive: bool) -> int:
    """How many nodes lie below x (at or below it when inclusive), as
    np.searchsorted(grid.nodes, x) finds it, without building the nodes.

    The node nearest x is found from the spacing and moved by a node or so
    until it is exact, as rounding may put a node on the other side of x.
    """
    def below(i: int) -> bool:
        node = grid.node_range(i, i + 1)[0]
        return node <= x if inclusive else node < x

    guess = (x - grid.lower) / grid.spacing if grid.spacing > 0.0 else 0.0
    i = math.ceil(min(guess, grid.count)) if guess > 0.0 else 0
    while i > 0 and not below(i - 1):
        i -= 1
    while i < grid.count and below(i):
        i += 1
    return i


def apply_window(g: SpectralFunction, win: Window) -> SpectralFunction:
    """Zero the spectrum outside [win.lower, win.upper]; grid is unchanged.

    Both endpoints are kept (closed interval).  The nodes are sorted, so the
    kept ones form an index range, found by index arithmetic on the grid's
    spacing without building the nodes.  The result's support is that range
    narrowed to the input's own, and its samples, intensity and entropy
    integrand are views of those of the spectrum owning the samples, so
    later passes over it cost O(kept nodes) and nothing is copied or
    recomputed.  Raises DataError when the window and the spectral grid do
    not overlap at all.
    """
    grid = g.grid
    if win.upper < grid.lower or win.lower > grid.upper:
        raise DataError(
            f"window [{win.lower}, {win.upper}] misses the spectral "
            f"interval [{grid.lower}, {grid.upper}]"
        )
    first, end = g.data.support
    lo = max(first, _nodes_below(grid, win.lower, inclusive=False))
    hi = max(lo, min(end, _nodes_below(grid, win.upper, inclusive=True)))
    return _shared(g, grid, (lo, hi))


def boost_window(win: Window, boost: Boost) -> Window:
    """Transport the window to the boosted frame.

    Second-kind windows scale edge-for-edge with exp(eta); first-kind
    windows come back unchanged.
    """
    if win.kind == "first":
        return win
    s = boost.scale
    return Window(s * win.lower, s * win.width, win.kind)


def invariant_ratio(win: Window, p: float) -> float:
    """width / p, the combination a boost cannot change for second-kind windows."""
    if not (np.isfinite(p) and p > 0.0):
        raise ValueError(f"momentum must be positive, got {p}")
    return win.width / p
