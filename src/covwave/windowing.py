"""Closed momentum windows and their two transformation behaviours."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import Boost
from .numerics import DataError, GridFunction
from .spectral import SpectralFunction

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


def apply_window(g: SpectralFunction, win: Window) -> SpectralFunction:
    """Zero the spectrum outside [win.lower, win.upper]; grid is unchanged.

    Both endpoints are kept (closed interval).  The result's support is the
    range of kept nodes and its samples a view of the input's, so later
    passes over it cost O(kept nodes) and nothing is copied.  Raises
    DataError when the window and the spectral grid do not overlap at all.
    """
    grid = g.grid
    if win.upper < grid.lower or win.lower > grid.upper:
        raise DataError(
            f"window [{win.lower}, {win.upper}] misses the spectral "
            f"interval [{grid.lower}, {grid.upper}]"
        )
    # the nodes are sorted, so the kept ones form the index range [lo, hi),
    # narrowed to the input's own support
    nodes = grid.nodes
    first, end = g.data.support
    lo = max(first, int(np.searchsorted(nodes, win.lower, "left")))
    hi = max(lo, min(end, int(np.searchsorted(nodes, win.upper, "right"))))
    data = GridFunction(grid, g.data.inner[lo - first : hi - first], (lo, hi))
    return SpectralFunction(data, g.reference_scale)


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
