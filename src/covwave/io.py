"""CSV readers and writers for spectra and signals.

Spectra travel as ``k,re,im`` rows, signals as ``u,re,im,abs`` rows; both
carry a plain header row and full ``repr`` precision so files round-trip
through the readers without loss.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .numerics import Grid, GridFunction

__all__ = ["write_spectrum", "read_spectrum", "write_signal"]

#: relative tolerance for deciding that file abscissae are uniformly spaced
_UNIFORM_RTOL = 1e-9


def write_spectrum(path: str | Path, f: GridFunction) -> None:
    """Write samples as k,re,im rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "re", "im"])
        for k, v in zip(f.grid.nodes, f.values):
            writer.writerow([repr(float(k)), repr(float(v.real)), repr(float(v.imag))])


def read_spectrum(path: str | Path) -> GridFunction:
    """Read k,re,im rows back into a grid function.

    The abscissae must be strictly increasing and uniformly spaced (to a
    small relative tolerance); the reconstructed Grid uses the first and
    last abscissa as its bounds.
    """
    ks: list[float] = []
    vals: list[complex] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["k", "re", "im"]:
            raise ValueError(f"{path}: expected header k,re,im")
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 3:
                raise ValueError(f"{path}: short row {row!r}")
            ks.append(float(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
    if len(ks) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    k = np.asarray(ks)
    steps = np.diff(k)
    if np.any(steps <= 0.0):
        raise ValueError(f"{path}: abscissae must be strictly increasing")
    h = steps.mean()
    if np.max(np.abs(steps - h)) > _UNIFORM_RTOL * max(abs(k[0]), abs(k[-1]), h):
        raise ValueError(f"{path}: abscissae are not uniformly spaced")
    grid = Grid(float(k[0]), float(k[-1]), len(ks))
    return GridFunction(grid, np.asarray(vals))


def write_signal(path: str | Path, f: GridFunction) -> None:
    """Write samples as u,re,im,abs rows.

    The bytes are those of ``csv.writer``: ``repr`` cells and CRLF line ends.
    The rows are built as one string and written at once, and the modulus is
    Python's ``abs`` of each complex sample.
    """
    rows = "".join(
        f"{u!r},{z.real!r},{z.imag!r},{abs(z)!r}\r\n"
        for u, z in zip(f.grid.nodes.tolist(), f.values.tolist())
    )
    with open(path, "w", newline="") as fh:
        fh.write("u,re,im,abs\r\n" + rows)
