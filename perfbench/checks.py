"""Output checks behind the benchmark's failure count, and the health figures.

Every identity tolerance below is one that tests/test_acceptance.py already
pins for the same identity, never a looser one.  Beside the identities, p,
the norm and the signal rows are compared with a plain numpy computation of
the same quadratures (``reference_frames``), so a kernel that is wrong in
every frame alike still fails; the signal rows use the bridge tolerance.  The entropy-gap oracle error carries the known O(h)
error of hard-window quadrature, so it is reported as a health figure and
not gated.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import DELTA_S_ORACLE, GAUSS_CENTER, GAUSS_WIDTH, WINDOW, Workload

ALL_COLUMNS = (
    "eta", "p", "norm_squared", "w_over_p", "photon_norm", "s_analytic", "s_windowed",
    "delta_s", "signal_norm", "edge_leakage", "max_bridge_gap",
)
DELTA_S_SPREAD_TOL = 1e-4  # criterion 3: worst frame deviation of Delta S
ENTROPY_SHIFT_TOL = 1e-5  # criterion 2: |(S' - S) - eta|
BRIDGE_GAP_TOL = 1e-8  # criterion 6: field-vs-wave gap relative to the peak
RATIO_TOL = 1e-12  # criterion 4: relative drift of an exactly covariant ratio
PHOTON_NORM_TOL = 1e-6  # criterion 6: deviation of the invariant photon norm
QUADRATURE_TOL = 1e-10  # relative gap of p and the norm from the reference quadrature
ROW_STRIDE = 64  # rows of each signal file compared with the reference direct sum
# health figures taken from a report; 0 where the workload has no such column
HEALTH = ("spectral.plancherel_resid", "photon.bridge_gap", "entropy.delta_s_spread",
          "entropy.delta_s_oracle_err", "windowing.w_over_p_spread")


def read_report(path: Path) -> list[dict[str, float | None]]:
    """Rows of a covwave CSV report; empty cells read as None."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    if tuple(header) != ALL_COLUMNS:
        raise ValueError(f"unexpected report header {header}")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(cells) != len(header) for cells in rows):
        raise ValueError("report row with a wrong number of cells")
    return [{c: (float(v) if v else None) for c, v in zip(header, cells)} for cells in rows]


def _rel_spread(values: np.ndarray) -> float:
    return float((values.max() - values.min()) / abs(values.mean()))


def signal_file(signals_dir: Path, eta: float) -> Path:
    return signals_dir / f"signal_eta_{float(eta)!r}.csv"


def _trapezoid(values: np.ndarray, lo: float, hi: float) -> float:
    h = (hi - lo) / (values.size - 1)
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def reference_frames(w: Workload) -> dict[float, tuple[float, float, np.ndarray, np.ndarray]]:
    """Per rapidity: p, the norm, and the direct-sum signal at strided u rows.

    Computed here with plain numpy from the formulas, independent of
    covwave: the Gaussian's samples on the boosted k-grid, zeroed outside
    the boosted second-kind window, trapezoid quadrature for the norm and
    p, and G(u) = (2 pi p)^-1/2 sum_j w_j g_j exp(i k_j u).  The row arrays
    are empty when the workload synthesizes nothing.
    """
    k_lo, k_hi, nk = w.k_grid
    samples = np.exp(-((np.linspace(k_lo, k_hi, nk) - GAUSS_CENTER) ** 2) / (2 * GAUSS_WIDTH**2))
    rows = u = np.empty(0)
    if w.u_grid is not None:
        u_lo, u_hi, nu = w.u_grid
        rows = np.unique(np.r_[np.arange(0, nu, ROW_STRIDE), nu - 1])
        u = np.linspace(u_lo, u_hi, nu)[rows]
    refs = {}
    for eta in w.etas:
        s = math.exp(eta)
        k = np.linspace(s * k_lo, s * k_hi, nk)
        lower = s * WINDOW[0]
        g = np.where((k >= lower) & (k <= lower + s * WINDOW[1]), samples, 0.0)
        weights = np.full(nk, (k[-1] - k[0]) / (nk - 1))
        weights[[0, -1]] *= 0.5
        dens = weights * g**2
        norm = float(dens.sum())
        p = float((k * dens).sum() / norm)
        wave = np.exp(1j * np.outer(u, k)) @ (weights * g) / math.sqrt(2 * math.pi * p)
        refs[eta] = (p, norm, rows, wave)
    return refs


def _check_signals(w, rows, signals_dir, refs, fail) -> None:
    u_lo, u_hi, nu = w.u_grid
    u_expected = np.linspace(u_lo, u_hi, nu)
    for row in rows:
        eta = row["eta"]
        path = signal_file(signals_dir, eta)
        if not path.is_file():
            fail(f"eta={eta}: signal file missing")
            continue
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != ["u", "re", "im", "abs"]:
            fail(f"eta={eta}: signal header {header}")
            continue
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            fail(f"eta={eta}: unreadable signal file: {exc}")
            continue
        if data.shape != (nu, 4):
            fail(f"eta={eta}: signal file has shape {data.shape}, want ({nu}, 4)")
            continue
        if not np.isfinite(data).all():
            fail(f"eta={eta}: signal file has non-finite values")
            continue
        u, wave, mag = data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3]
        if np.abs(u - u_expected).max() > 1e-12 * max(abs(u_lo), abs(u_hi)):
            fail(f"eta={eta}: signal abscissae are not the configured u-grid")
        if np.abs(mag - np.abs(wave)).max() > 1e-15 * mag.max():
            fail(f"eta={eta}: abs column disagrees with re, im")
        norm = _trapezoid(mag**2, u_lo, u_hi)
        if abs(norm - row["signal_norm"]) > 1e-12 * norm:
            fail(f"eta={eta}: file norm {norm!r} != report {row['signal_norm']!r}")
        leak = max(mag[0], mag[-1]) / mag.max()
        if abs(leak - row["edge_leakage"]) > 1e-12 * leak:
            fail(f"eta={eta}: file edge leakage {leak!r} != report")
        _, _, ref_rows, ref_wave = refs[eta]
        gap = np.abs(wave[ref_rows] - ref_wave).max() / np.abs(ref_wave).max()
        if not gap <= BRIDGE_GAP_TOL:
            fail(f"eta={eta}: signal differs from the direct sum by {gap:.3e} of its peak")


def check_run(w: Workload, report: Path, signals_dir: Path, refs) -> tuple[list[str], dict]:
    """Check one invocation's outputs; return (failures, health figures)."""
    failures: list[str] = []
    fail = failures.append
    health = dict.fromkeys(HEALTH, 0.0)
    try:
        rows = read_report(report)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], health
    etas = tuple(r["eta"] for r in rows)
    if etas != w.etas:
        return [f"report rapidities {etas} != configured {w.etas}"], health
    for r in rows:
        for c in ALL_COLUMNS:
            v = r[c]
            if (c in w.columns) != (v is not None):
                fail(f"eta={r['eta']}: column {c} is {'missing' if v is None else 'unexpected'}")
            elif v is not None and not math.isfinite(v):
                fail(f"eta={r['eta']}: column {c} is not finite")
    if failures:
        return failures, health

    col = {c: np.array([r[c] for r in rows]) for c in w.columns}
    eta = col["eta"]
    for r in rows:
        ref_p, ref_norm, _, _ = refs[r["eta"]]
        if not abs(r["p"] - ref_p) <= QUADRATURE_TOL * ref_p:
            fail(f"eta={r['eta']}: p {r['p']!r} != reference quadrature {ref_p!r}")
        if not abs(r["norm_squared"] - ref_norm) <= QUADRATURE_TOL * ref_norm:
            fail(f"eta={r['eta']}: norm {r['norm_squared']!r} != reference {ref_norm!r}")
    if _rel_spread(col["p"] * np.exp(-eta)) > RATIO_TOL:
        fail("p * exp(-eta) is not frame invariant")
    if "w_over_p" in col:
        health["windowing.w_over_p_spread"] = _rel_spread(col["w_over_p"])
        if health["windowing.w_over_p_spread"] > RATIO_TOL:
            fail("w_over_p is not frame invariant")
    if "delta_s" in col:
        spread = float(np.ptp(col["delta_s"]))
        health["entropy.delta_s_spread"] = spread
        health["entropy.delta_s_oracle_err"] = float(np.abs(col["delta_s"] - DELTA_S_ORACLE).max())
        if spread > DELTA_S_SPREAD_TOL:
            fail(f"Delta S spreads by {spread:.3e} across frames")
        if np.ptp(col["s_analytic"] - eta) > ENTROPY_SHIFT_TOL:
            fail("s_analytic - eta is not constant across frames")
    if "photon_norm" in col and _rel_spread(col["photon_norm"]) > PHOTON_NORM_TOL:
        fail("photon norm is not frame invariant")
    if "signal_norm" in col:
        plancherel = col["norm_squared"] / col["p"]
        health["spectral.plancherel_resid"] = float(
            np.abs(col["signal_norm"] - plancherel).max() / plancherel.max()
        )
    if "max_bridge_gap" in col:
        # sum(w |G|^2) <= max|G|^2 * (u-range), so this bounds gap / max|G| from above
        u_lo, u_hi, _ = w.u_grid
        peak_floor = np.sqrt(col["signal_norm"] / (u_hi - u_lo))
        health["photon.bridge_gap"] = float((col["max_bridge_gap"] / peak_floor).max())
        if health["photon.bridge_gap"] > BRIDGE_GAP_TOL:
            fail(f"bridge gap {health['photon.bridge_gap']:.3e} relative to the peak")
    if w.emit_signals:
        _check_signals(w, rows, signals_dir, refs, fail)
    return failures, health
