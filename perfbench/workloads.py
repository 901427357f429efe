"""Seeded inputs for the two benchmark workloads.

Each workload is one ``covwave`` command on a generated INI config.  The
seed picks only the rapidity list; grid sizes, the Gaussian and the window
are fixed, so every seed does the same amount of work and the frozen
entropy-gap oracle still applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# gaussian(5, 0.5) behind the second-kind window [4.5, 5.5]; the entropy-gap
# oracle below belongs to exactly this pair (tests/test_acceptance.py)
GAUSS_CENTER, GAUSS_WIDTH = 5.0, 0.5
GAUSS_K = (0.1, 20.0)
WINDOW = (4.5, 1.0)
DELTA_S_ORACLE = 0.417439213437


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    etas: tuple[float, ...]
    k_grid: tuple[float, float, int]
    u_grid: tuple[float, float, int] | None
    emit_signals: bool
    columns: tuple[str, ...]  # report columns the command must fill

    @property
    def frames(self) -> int:
        return len(self.etas)


def _etas(rng: np.random.Generator, count: int, bound: float) -> tuple[float, ...]:
    """Distinct sorted rapidities in [-bound, bound], six decimals each."""
    while True:
        etas = sorted({round(float(x), 6) for x in rng.uniform(-bound, bound, count)})
        if len(etas) == count:
            return tuple(etas)


def _check_resolved(w: Workload) -> None:
    """Refuse a grid on which some frame aliases.

    Every boosted frame needs du * k'_max <= pi (Nyquist on the u-grid) and a
    k-spacing whose period in u, 2 pi / dk', exceeds the u-range.
    """
    if w.u_grid is None:
        return
    k_lo, k_hi, nk = w.k_grid
    u_lo, u_hi, nu = w.u_grid
    du = (u_hi - u_lo) / (nu - 1)
    dk = (k_hi - k_lo) / (nk - 1)
    for eta in w.etas:
        s = math.exp(eta)
        if du * k_hi * s > math.pi or 2 * math.pi / (dk * s) <= u_hi - u_lo:
            raise ValueError(f"{w.name}: grid does not resolve the frame eta={eta}")


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed % 2**64, sum(map(ord, name))])
    gauss_k = (*GAUSS_K, 2048)
    if name == "sweep_gaussian":
        w = Workload(
            name, "sweep", _etas(rng, 5, 1.5), gauss_k,
            # [-35, 35] keeps du * 20 e^1.5 below pi for every frame
            u_grid=(-35.0, 35.0, 2048), emit_signals=True,
            columns=("eta", "p", "norm_squared", "w_over_p", "photon_norm", "s_analytic",
                     "s_windowed", "delta_s", "signal_norm", "edge_leakage",
                     "max_bridge_gap"),
        )
    elif name == "invariants_dense":
        w = Workload(
            name, "entropy", _etas(rng, 9, 1.5), (*GAUSS_K, 2**20),
            u_grid=None, emit_signals=False,
            columns=("eta", "p", "norm_squared", "w_over_p", "s_analytic", "s_windowed",
                     "delta_s"),
        )
    else:
        raise KeyError(name)
    _check_resolved(w)
    return w


NAMES = ("sweep_gaussian", "invariants_dense")


def write_inputs(w: Workload, workdir: Path) -> Path:
    """Write the config into workdir; return its path."""
    workdir.mkdir(parents=True, exist_ok=True)
    k_lo, k_hi, nk = w.k_grid
    lines = [
        "[spectral]",
        "family = gaussian",
        f"center = {GAUSS_CENTER}",
        f"width = {GAUSS_WIDTH}",
        f"grid_lower = {k_lo}",
        f"grid_upper = {k_hi}",
        f"grid_count = {nk}",
    ]
    lines += ["", "[window]", "kind = second", f"lower = {WINDOW[0]}", f"width = {WINDOW[1]}"]
    lines += ["", "[boosts]", "eta = " + ", ".join(repr(e) for e in w.etas)]
    if w.u_grid is not None:
        u_lo, u_hi, nu = w.u_grid
        lines += [
            "", "[output]",
            f"u_lower = {u_lo}", f"u_upper = {u_hi}", f"u_count = {nu}",
            "photon_bridge = true",
            "signals_dir = signals",
        ]
    config = workdir / "run.ini"
    config.write_text("\n".join(lines) + "\n")
    return config


def argv(w: Workload, config: Path, report: Path) -> list[str]:
    """Command line for one invocation of the workload."""
    args = [w.command, "--config", str(config), "--out", str(report)]
    return args + ["--emit-signals"] if w.emit_signals else args
