"""Batch command line: boost sweeps over one configured spectrum.

Every subcommand reads an INI config describing a spectrum, an optional
window, and a rapidity list, then writes a CSV report with one row per
rapidity:

    covwave boost      --config run.ini
    covwave window     --config run.ini --window second,4.5,1.0
    covwave photon     --config run.ini --out photon.csv
    covwave synthesize --config run.ini --emit-signals
    covwave entropy    --config run.ini --density-mode intensity
    covwave sweep      --config run.ini --eta 0,0.5,1
    covwave check      --config run.ini

``check`` validates the configuration, prints every violation it finds,
and never touches the filesystem.  Exit codes: 0 success, 2 usage or
configuration error, 3 numeric precondition failure in otherwise valid
input.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .covariance import Boost, boost_spectral
from .entropy import density_from_photon, density_from_spectral, entropy
from .io import read_spectrum, write_signal
from .numerics import DataError, Grid, GridFunction, integrate
from .photon import invariant_norm, synthesize_photon_field, to_photon
from .spectral import (
    SpectralFunction,
    edge_leakage,
    flat_spectrum,
    gaussian_spectrum,
    mean_momentum,
    norm_squared,
    spectrum_from_samples,
    synthesize,
)
from .windowing import Window, apply_window, boost_window, invariant_ratio

__all__ = ["main"]

_FAMILIES = ("gaussian", "flat", "samples")
_DENSITY_MODES = ("intensity", "photon")
_DEFAULT_GRID_COUNT = 4096
_DEFAULT_U = (-40.0, 40.0, 4096)

_COLUMNS = (
    "eta",
    "p",
    "norm_squared",
    "w_over_p",
    "photon_norm",
    "s_analytic",
    "s_windowed",
    "delta_s",
    "signal_norm",
    "edge_leakage",
    "max_bridge_gap",
)

# numpy overflow and invalid operations raise FloatingPointError, so a
# run fails with a message rather than carrying inf or nan into the report
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}

_COMMANDS = ("boost", "window", "photon", "synthesize", "entropy", "sweep", "check")


class ConfigError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description."""

    spectrum: SpectralFunction
    window: Window | None
    etas: tuple[float, ...]
    u_grid: Grid
    report_path: Path | None
    density_mode: str
    emit_signals: bool
    photon_bridge: bool
    signals_dir: Path
    max_edge_leakage: float | None


def _parse_eta_list(text: str) -> tuple[float, ...]:
    """Comma-separated rapidities, e.g. '0, 0.5, 1.0'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("rapidity list is empty")
    etas = []
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise ValueError(f"bad rapidity {part!r}") from None
        if not np.isfinite(value):
            raise ValueError(f"rapidity must be finite, got {part}")
        etas.append(value)
    return tuple(etas)


def _parse_window_spec(text: str) -> Window:
    """Window given as 'kind,lower,width', e.g. 'second,4.5,1.0'."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"window spec must be kind,lower,width, got {text!r}")
    kind = parts[0]
    try:
        lower, width = float(parts[1]), float(parts[2])
    except ValueError:
        raise ValueError(f"bad window numbers in {text!r}") from None
    return Window(lower, width, kind)


def _boost_problem(k_grid: Grid, eta: float) -> str | None:
    """Why the rapidity eta cannot carry the momentum grid, or None.

    The boosted grid must keep finite bounds, and stay at k > 0 when it
    starts there.  Every frame also integrates k |g|**2 over it, whose
    terms reach (upper - lower) * upper times |g|**2, so that product must
    stay finite as well.  Its terms are at most spacing * upper times
    |g|**2, so that product must stay a normal number: below it the terms
    lose precision as subnormals and then vanish, and p comes out wrong.
    """
    with np.errstate(over="ignore"):
        scale = Boost(eta).scale
    try:
        boosted = k_grid.scaled(scale)
    except ValueError as exc:
        return f"the momentum grid cannot be boosted: {exc}"
    span = f"[{boosted.lower}, {boosted.upper}]"
    if k_grid.lower > 0.0 and boosted.lower <= 0.0:
        return f"the boosted momentum grid {span} must stay at k > 0"
    reach = max(abs(boosted.lower), abs(boosted.upper))
    if not math.isfinite((boosted.upper - boosted.lower) * reach):
        return f"the mean-momentum quadrature over the boosted grid {span} overflows"
    if boosted.spacing * reach < np.finfo(float).tiny:
        return f"the mean-momentum quadrature over the boosted grid {span} underflows"
    return None


def _load_config(path: str) -> configparser.ConfigParser:
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(cfg_path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    return cp


def _build_config(
    cp: configparser.ConfigParser,
    args: argparse.Namespace,
    base_dir: Path,
) -> tuple[RunConfig | None, list[str]]:
    """Validate the config plus flag overrides, collecting every problem."""
    problems: list[str] = []

    def num(
        section: str,
        key: str,
        default: float | None = None,
        required: bool = True,
    ) -> float | None:
        raw = cp.get(section, key, fallback=None)
        if raw is None:
            if required and default is None:
                problems.append(f"[{section}] is missing {key}")
            return default
        try:
            value = float(raw)
        except ValueError:
            problems.append(f"[{section}] {key} is not a number: {raw!r}")
            return default
        if not np.isfinite(value):
            problems.append(f"[{section}] {key} must be finite")
            return default
        return value

    # --- spectral section -------------------------------------------------
    family = cp.get("spectral", "family", fallback=None)
    if family is None:
        problems.append("[spectral] is missing family")
    elif family not in _FAMILIES:
        problems.append(f"[spectral] family must be one of {_FAMILIES}, got {family!r}")

    k_grid: Grid | None = None
    sample_data: GridFunction | None = None
    if family == "samples":
        raw_path = cp.get("spectral", "path", fallback=None)
        if raw_path is None:
            problems.append("[spectral] family samples needs a path")
        else:
            sample_path = (base_dir / raw_path).resolve()
            if not sample_path.is_file():
                problems.append(f"[spectral] sample file not found: {raw_path}")
            else:
                try:
                    sample_data = read_spectrum(sample_path)
                    k_grid = sample_data.grid
                except ValueError as exc:
                    problems.append(f"[spectral] cannot read {raw_path}: {exc}")
    elif family in ("gaussian", "flat"):
        lo = num("spectral", "grid_lower")
        hi = num("spectral", "grid_upper")
        if args.grid_n is not None:
            count = args.grid_n
        else:
            count_raw = cp.get("spectral", "grid_count", fallback=None)
            if count_raw is None:
                count = _DEFAULT_GRID_COUNT
            else:
                try:
                    count = int(count_raw)
                except ValueError:
                    problems.append(f"[spectral] grid_count is not an integer: {count_raw!r}")
                    count = _DEFAULT_GRID_COUNT
        if count < 2:
            problems.append(f"[spectral] grid_count must be at least 2, got {count}")
        if lo is not None and hi is not None and count >= 2:
            if lo >= hi:
                problems.append(f"[spectral] grid needs lower < upper, got [{lo}, {hi}]")
            else:
                if lo <= 0.0:
                    problems.append(
                        f"[spectral] momentum grid must start at k > 0, got lower {lo}"
                    )
                k_grid = Grid(lo, hi, count)

    reference_scale = num("spectral", "reference_scale", required=False)
    if reference_scale is not None and reference_scale <= 0.0:
        problems.append(f"[spectral] reference_scale must be positive, got {reference_scale}")
        reference_scale = None

    center = width = support_lower = support_upper = None
    if family == "gaussian":
        center = num("spectral", "center")
        width = num("spectral", "width")
        if center is not None and center <= 0.0:
            problems.append(f"[spectral] center must be positive, got {center}")
        if width is not None and width <= 0.0:
            problems.append(f"[spectral] width must be positive, got {width}")
    elif family == "flat":
        support_lower = num("spectral", "support_lower")
        support_upper = num("spectral", "support_upper")
        if support_lower is not None and support_lower <= 0.0:
            problems.append(
                f"[spectral] support must sit at k > 0, got lower {support_lower}"
            )
        if support_lower is not None and support_upper is not None:
            if support_lower >= support_upper:
                problems.append("[spectral] support needs lower < upper")
            elif k_grid is not None and (
                support_upper < k_grid.lower or support_lower > k_grid.upper
            ):
                problems.append(
                    f"[spectral] support [{support_lower}, {support_upper}] lies "
                    f"outside the grid [{k_grid.lower}, {k_grid.upper}]"
                )

    # --- window section / flag --------------------------------------------
    window: Window | None = None
    if args.window is not None:
        try:
            window = _parse_window_spec(args.window)
        except ValueError as exc:
            problems.append(f"--window: {exc}")
    elif cp.has_section("window"):
        kind = cp.get("window", "kind", fallback="second")
        w_lower = num("window", "lower")
        w_width = num("window", "width")
        if kind not in ("first", "second"):
            problems.append(f"[window] kind must be 'first' or 'second', got {kind!r}")
        elif w_lower is not None and w_width is not None:
            if w_width <= 0.0:
                problems.append(f"[window] width must be positive, got {w_width}")
            else:
                window = Window(w_lower, w_width, kind)
    if window is not None and k_grid is not None:
        if window.upper < k_grid.lower or window.lower > k_grid.upper:
            problems.append(
                f"window [{window.lower}, {window.upper}] does not overlap the "
                f"spectral grid [{k_grid.lower}, {k_grid.upper}]"
            )

    # --- boosts section / flag ---------------------------------------------
    etas: tuple[float, ...] = (0.0,)
    eta_text = args.eta if args.eta is not None else cp.get("boosts", "eta", fallback=None)
    if eta_text is not None:
        try:
            etas = _parse_eta_list(eta_text)
        except ValueError as exc:
            problems.append(f"rapidity list: {exc}")
    if k_grid is not None:
        for eta in etas:
            problem = _boost_problem(k_grid, eta)
            if problem is not None:
                problems.append(f"rapidity {eta}: {problem}")

    # --- output section / flags ---------------------------------------------
    u_lo = num("output", "u_lower", default=_DEFAULT_U[0])
    u_hi = num("output", "u_upper", default=_DEFAULT_U[1])
    try:
        u_count = cp.getint("output", "u_count", fallback=_DEFAULT_U[2])
    except ValueError:
        problems.append("[output] u_count is not an integer")
        u_count = _DEFAULT_U[2]
    u_grid: Grid | None = None
    if u_lo is not None and u_hi is not None:
        if u_lo >= u_hi or u_count < 2:
            problems.append(
                f"[output] position grid is malformed: [{u_lo}, {u_hi}] with {u_count} points"
            )
        else:
            u_grid = Grid(u_lo, u_hi, u_count)

    density_mode = (
        args.density_mode
        if args.density_mode is not None
        else cp.get("output", "density_mode", fallback="intensity")
    )
    if density_mode not in _DENSITY_MODES:
        problems.append(
            f"density mode must be one of {_DENSITY_MODES}, got {density_mode!r}"
        )

    try:
        emit_signals = args.emit_signals or cp.getboolean(
            "output", "emit_signals", fallback=False
        )
        photon_bridge = cp.getboolean("output", "photon_bridge", fallback=False)
    except ValueError:
        problems.append("[output] emit_signals and photon_bridge must be booleans")
        emit_signals = photon_bridge = False

    max_edge_leakage = num("output", "max_edge_leakage", required=False)
    if max_edge_leakage is not None and max_edge_leakage <= 0.0:
        problems.append(
            f"[output] max_edge_leakage must be positive, got {max_edge_leakage}"
        )

    report_raw = args.out if args.out is not None else cp.get("output", "report", fallback=None)
    report_path = (base_dir / report_raw).resolve() if report_raw else None
    signals_raw = cp.get("output", "signals_dir", fallback=None)
    if signals_raw is not None:
        signals_dir = (base_dir / signals_raw).resolve()
    elif report_path is not None:
        signals_dir = report_path.parent
    else:
        signals_dir = Path.cwd()

    # photon-side commands need k > 0 over the whole grid; flag it here so
    # `check` reports it instead of failing later with a data error
    wants_photon = (
        photon_bridge
        or density_mode == "photon"
        or args.command in ("photon", "sweep")
    )
    if wants_photon and k_grid is not None and k_grid.lower <= 0.0:
        problems.append(
            f"photon quantities need k > 0 across the grid, lower bound is {k_grid.lower}"
        )

    if args.command in ("window", "entropy") and window is None:
        problems.append(f"the {args.command} command needs a [window] section or --window")

    if problems:
        return None, problems

    try:
        with np.errstate(**_RAISE):
            if family == "gaussian":
                spectrum = gaussian_spectrum(k_grid, center, width, reference_scale)
            elif family == "flat":
                spectrum = flat_spectrum(k_grid, support_lower, support_upper, reference_scale)
            else:
                spectrum = spectrum_from_samples(k_grid, sample_data.values, reference_scale)
    except (ValueError, FloatingPointError) as exc:
        return None, [f"[spectral] cannot form the spectrum: {exc}"]

    cfg = RunConfig(
        spectrum=spectrum,
        window=window,
        etas=etas,
        u_grid=u_grid,
        report_path=report_path,
        density_mode=density_mode,
        emit_signals=emit_signals,
        photon_bridge=photon_bridge,
        signals_dir=signals_dir,
        max_edge_leakage=max_edge_leakage,
    )
    return cfg, []


def _signal_norm(values: np.ndarray, grid: Grid) -> float:
    return integrate(GridFunction(grid, np.abs(values) ** 2)).real


def _run(cfg: RunConfig, command: str) -> list[dict[str, float]]:
    """One report row per rapidity; which columns fill in depends on the command."""
    do_photon = command in ("photon", "sweep")
    do_synth = command in ("synthesize", "sweep")
    do_entropy = command == "entropy" or (command == "sweep" and cfg.window is not None)
    do_bridge = do_synth and cfg.photon_bridge
    use_window = cfg.window is not None and command != "boost"

    rows: list[dict[str, float]] = []
    for eta in cfg.etas:
        boost = Boost(eta)
        g_frame = boost_spectral(cfg.spectrum, boost)
        win_frame = boost_window(cfg.window, boost) if cfg.window is not None else None
        g_used = apply_window(g_frame, win_frame) if use_window else g_frame

        p = mean_momentum(g_used)
        row: dict[str, float] = {
            "eta": eta,
            "p": p,
            "norm_squared": norm_squared(g_used),
        }
        if use_window:
            row["w_over_p"] = invariant_ratio(win_frame, p)

        amplitude = None
        if do_photon or do_bridge or (do_entropy and cfg.density_mode == "photon"):
            amplitude = to_photon(g_used, p)
        if do_photon:
            row["photon_norm"] = invariant_norm(amplitude)

        if do_synth:
            sig = synthesize(g_used, cfg.u_grid, "wavelet", momentum=p)
            row["signal_norm"] = _signal_norm(sig.data.values, cfg.u_grid)
            leak = edge_leakage(sig)
            row["edge_leakage"] = leak
            if cfg.max_edge_leakage is not None and leak > cfg.max_edge_leakage:
                raise DataError(
                    f"edge leakage {leak:.3e} at eta={eta} exceeds the "
                    f"configured bound {cfg.max_edge_leakage}"
                )
            if do_bridge:
                field = synthesize_photon_field(amplitude, cfg.u_grid)
                row["max_bridge_gap"] = float(
                    np.abs(field.data.values - sig.data.values).max()
                )
            if cfg.emit_signals:
                cfg.signals_dir.mkdir(parents=True, exist_ok=True)
                name = f"signal_eta_{repr(float(eta))}.csv"
                write_signal(cfg.signals_dir / name, sig.data)

        if do_entropy:
            # each density is dropped once its entropy is taken, so that a
            # frame never holds two of them at once
            if cfg.density_mode == "photon":
                s_full = entropy(density_from_photon(to_photon(g_frame, p)))
                s_win = entropy(density_from_photon(amplitude))
            else:
                s_full = entropy(density_from_spectral(g_frame))
                s_win = entropy(density_from_spectral(g_used))
            row["s_analytic"] = s_full
            row["s_windowed"] = s_win
            row["delta_s"] = s_full - s_win

        rows.append(row)
    return rows


def _write_report(
    cfg: RunConfig,
    rows: list[dict[str, float]],
    command: str,
    config_arg: str,
) -> None:
    """CSV report with '#' provenance lines; timestamps live on their own line."""
    lines = [
        f"# covwave={__version__}",
        f"# command={command}",
        f"# config={config_arg}",
        f"# generated={datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        ",".join(_COLUMNS),
    ]
    for row in rows:
        cells = [repr(float(row[c])) if c in row else "" for c in _COLUMNS]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if cfg.report_path is None:
        sys.stdout.write(text)
    else:
        cfg.report_path.parent.mkdir(parents=True, exist_ok=True)
        cfg.report_path.write_text(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covwave",
        description="boost sweeps over a configured momentum spectrum",
    )
    parser.add_argument("--version", action="version", version=f"covwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"{name} part of the pipeline")
        cmd.add_argument("--config", required=True, help="INI run description")
        cmd.add_argument("--eta", help="comma-separated rapidities, overrides [boosts]")
        cmd.add_argument(
            "--window", help="window as kind,lower,width; overrides [window]"
        )
        cmd.add_argument(
            "--grid-n", type=int, help="override the spectral grid point count"
        )
        cmd.add_argument("--out", help="report path, overrides [output] report")
        cmd.add_argument(
            "--density-mode",
            choices=_DENSITY_MODES,
            help="entropy density: squared modulus or photon-weighted",
        )
        cmd.add_argument(
            "--emit-signals",
            action="store_true",
            help="write per-rapidity signal CSVs next to the report",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cp = _load_config(args.config)
        cfg, problems = _build_config(cp, args, Path(args.config).resolve().parent)
    except ConfigError as exc:
        print(f"covwave: error: config: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        for msg in problems:
            print(f"violation: {msg}")
        if problems:
            return 2
        print("ok")
        return 0

    if problems:
        extra = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        print(f"covwave: error: config: {problems[0]}{extra}", file=sys.stderr)
        return 2

    try:
        with np.errstate(**_RAISE):
            rows = _run(cfg, args.command)
    except (ValueError, FloatingPointError) as exc:
        print(f"covwave: error: data: {exc}", file=sys.stderr)
        return 3

    _write_report(cfg, rows, args.command, args.config)
    return 0
