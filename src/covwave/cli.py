"""Batch command line: boost sweeps over one configured spectrum.

Every subcommand reads an INI config describing a spectrum, an optional
window, and a rapidity list, then writes a CSV report with one row per
rapidity:

    covwave boost      --config run.ini
    covwave window     --config run.ini --window second,4.5,1.0
    covwave photon     --config run.ini --out photon.csv
    covwave synthesize --config run.ini --emit-signals
    covwave entropy    --config run.ini
    covwave sweep      --config run.ini --eta 0,0.5,1
    covwave check      --config run.ini

Config keys, and the flags as the keys they override, are read against one
table, so a misspelt key is a violation; the grids, the window and the
spectrum come from the library's own constructors, whose errors are the
other violations.  ``check`` validates the configuration, prints every
violation it finds, and never touches the filesystem.  Exit codes: 0
success, 2 usage or configuration error (an output path that cannot be
written included), 3 numeric precondition failure in otherwise valid input.
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
from .entropy import spectrum_entropy
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
    synthesize,
)
from .windowing import Window, apply_window, boost_window, invariant_ratio

__all__ = ["main"]

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


def _parse_eta_list(text: str) -> tuple[float, ...]:
    """At least one comma-separated finite rapidity, e.g. '0, 0.5, 1.0'."""
    etas = tuple(float(part) for part in text.split(",") if part.strip())
    if not etas or not all(map(math.isfinite, etas)):
        raise ValueError(text)
    return etas


# every key a config may hold: the parser of its value, and the value it
# takes when left out (None where the key has no default).  A section or key
# that is not listed here is a violation.
_KEYS = {
    ("spectral", "family"): (str, None),
    ("spectral", "path"): (str, None),
    ("spectral", "grid_lower"): (float, None),
    ("spectral", "grid_upper"): (float, None),
    ("spectral", "grid_count"): (int, 4096),
    ("spectral", "reference_scale"): (float, None),
    ("spectral", "center"): (float, None),
    ("spectral", "width"): (float, None),
    ("spectral", "support_lower"): (float, None),
    ("spectral", "support_upper"): (float, None),
    ("window", "kind"): (str, "second"),
    ("window", "lower"): (float, None),
    ("window", "width"): (float, None),
    ("boosts", "eta"): (_parse_eta_list, (0.0,)),
    ("output", "u_lower"): (float, -40.0),
    ("output", "u_upper"): (float, 40.0),
    ("output", "u_count"): (int, 4096),
    ("output", "report"): (str, None),
    ("output", "signals_dir"): (str, None),
    ("output", "emit_signals"): (bool, False),
    ("output", "photon_bridge"): (bool, False),
    ("output", "max_edge_leakage"): (float, None),
}
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}
_TYPE_NAMES[_parse_eta_list] = "a list of finite rapidities"

# the factory of each parametric family, and the [spectral] keys of its
# two parameters
_FACTORIES = {
    "gaussian": (gaussian_spectrum, ("center", "width")),
    "flat": (flat_spectrum, ("support_lower", "support_upper")),
}


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
    emit_signals: bool
    photon_bridge: bool
    signals_dir: Path
    max_edge_leakage: float | None


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
    # no section holds defaults: a [DEFAULT] section is one more section,
    # whose keys are unknown, rather than keys copied into every section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read(cfg_path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a parsing error puts each bad line on a line of its own
        detail = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse {path}: {detail}") from None
    return cp


def _read_keys(cp: configparser.ConfigParser) -> tuple[dict[tuple[str, str], object], list[str]]:
    """Every key of the config as a typed value, and the problems met.

    A key that the table does not list, a value that its parser rejects and
    a number that is not finite are each a problem, and such a key gets no
    value.
    """
    values: dict[tuple[str, str], object] = {}
    problems: list[str] = []
    for section in cp.sections():
        for key, raw in cp.items(section):
            if (section, key) not in _KEYS:
                problems.append(f"[{section}] unknown key {key!r}")
                continue
            parse = _KEYS[section, key][0]
            try:
                value = cp.BOOLEAN_STATES[raw.lower()] if parse is bool else parse(raw)
            except (KeyError, ValueError):
                problems.append(f"[{section}] {key} is not {_TYPE_NAMES[parse]}: {raw!r}")
                continue
            if parse is float and not math.isfinite(value):
                problems.append(f"[{section}] {key} must be finite")
                continue
            values[section, key] = value
    return values, problems


def _build_config(
    cp: configparser.ConfigParser,
    args: argparse.Namespace,
    base_dir: Path,
) -> tuple[RunConfig | None, list[str]]:
    """Build the run from the config plus flag overrides, collecting every problem.

    Each flag is written into cp as the raw value of the key it overrides,
    so that one reader types and checks config and flags alike.  The grids,
    the window and the spectrum come from the library's own constructors,
    which check their inputs: the message of each one that raises is a
    violation.  Only the rules that involve more than one of them, or the
    command, are checked here.
    """
    flags = {
        ("spectral", "grid_count"): args.grid_n,
        ("boosts", "eta"): args.eta,
        ("output", "report"): args.out,
        ("output", "emit_signals"): "true" if args.emit_signals else None,
    }
    if args.window is not None:
        # kind,lower,width: a part left out is empty, which its key rejects,
        # and a part past the third stays in the width
        spec = [part.strip() for part in args.window.split(",", 2)] + ["", ""]
        flags.update(zip([("window", key) for key in ("kind", "lower", "width")], spec))
    for (section, key), raw in flags.items():
        if raw is not None:
            cp.read_dict({section: {key: raw}})
    values, problems = _read_keys(cp)

    def get(section: str, key: str):
        return values.get((section, key), _KEYS[section, key][1])

    def need(section: str, *keys: str) -> list:
        for key in keys:
            if not cp.has_option(section, key):
                problems.append(f"[{section}] is missing {key}")
        return [get(section, key) for key in keys]

    def attempt(where: str, build, *args, **kwargs):
        """build(*args, **kwargs), or None once its error is listed.

        build is not called when an argument is None: that is an input
        whose problem is listed already.  OSError is listed too, as reading
        a sample file raises it for a file that is missing or unreadable.
        """
        if any(arg is None for arg in args):
            return None
        try:
            with np.errstate(**_RAISE):
                return build(*args, **kwargs)
        except (ValueError, FloatingPointError, OSError) as exc:
            problems.append(f"{where} {exc}")
            return None

    # --- spectral section -------------------------------------------------
    (family,) = need("spectral", "family")
    scale = get("spectral", "reference_scale")
    photon_bridge = get("output", "photon_bridge")
    k_grid = spectrum = read = None
    if family == "samples":
        read = ("path",)
        (raw_path,) = need("spectral", "path")
        sample_path = None if raw_path is None else base_dir / raw_path
        data = attempt(f"[spectral] cannot read {raw_path!r}:", read_spectrum, sample_path)
        if data is not None:
            k_grid = data.grid
            spectrum = attempt("[spectral]", SpectralFunction, data, reference_scale=scale)
            # photon-side commands need k > 0 over the whole grid, which the
            # gaussian and flat factories demand of every grid
            if (photon_bridge or args.command in ("photon", "sweep")) and k_grid.lower <= 0.0:
                problems.append(
                    f"photon quantities need k > 0 across the grid, lower bound is {k_grid.lower}"
                )
    elif family in _FACTORIES:
        bounds = need("spectral", "grid_lower", "grid_upper")
        k_grid = attempt("[spectral]", Grid, *bounds, get("spectral", "grid_count"))
        build, keys = _FACTORIES[family]
        read = ("grid_lower", "grid_upper", "grid_count", *keys)
        parameters = need("spectral", *keys)
        spectrum = attempt("[spectral]", build, k_grid, *parameters, reference_scale=scale)
    elif family is not None:
        families = (*_FACTORIES, "samples")
        problems.append(f"[spectral] family must be one of {families}, got {family!r}")
    if read is not None:  # a key that the family ignores must not pass silently
        for section, key in values:
            if section == "spectral" and key not in ("family", "reference_scale", *read):
                problems.append(f"[spectral] {key} is not read by family {family!r}")

    # --- window section ----------------------------------------------------
    window: Window | None = None
    if cp.has_section("window"):
        edges = need("window", "lower", "width")
        window = attempt("[window]", Window, *edges, get("window", "kind"))
    if window is not None and k_grid is not None:
        if window.upper < k_grid.lower or window.lower > k_grid.upper:
            problems.append(
                f"window [{window.lower}, {window.upper}] does not overlap the "
                f"spectral grid [{k_grid.lower}, {k_grid.upper}]"
            )
    if args.command in ("window", "entropy") and window is None:
        problems.append(f"the {args.command} command needs a [window] section or --window")

    # --- boosts section -----------------------------------------------------
    etas = get("boosts", "eta")
    if k_grid is not None:
        for eta in etas:
            problem = _boost_problem(k_grid, eta)
            if problem is not None:
                problems.append(f"rapidity {eta}: {problem}")

    # --- output section -----------------------------------------------------
    u_grid = attempt(
        "[output]",
        Grid,
        get("output", "u_lower"),
        get("output", "u_upper"),
        get("output", "u_count"),
    )
    max_edge_leakage = get("output", "max_edge_leakage")
    if max_edge_leakage is not None and max_edge_leakage <= 0.0:
        problems.append(f"[output] max_edge_leakage must be positive, got {max_edge_leakage}")

    # resolve() raises ValueError for a name that holds a NUL byte
    report_raw, report_path = get("output", "report"), None
    if report_raw:
        report_path = attempt("[output] report:", Path.resolve, base_dir / report_raw)
    signals_raw = get("output", "signals_dir")
    if signals_raw is not None:
        signals_dir = attempt("[output] signals_dir:", Path.resolve, base_dir / signals_raw)
    elif report_path is not None:
        signals_dir = report_path.parent
    else:
        signals_dir = Path.cwd()

    if problems:
        return None, problems
    cfg = RunConfig(
        spectrum=spectrum,
        window=window,
        etas=etas,
        u_grid=u_grid,
        report_path=report_path,
        emit_signals=get("output", "emit_signals"),
        photon_bridge=photon_bridge,
        signals_dir=signals_dir,
        max_edge_leakage=max_edge_leakage,
    )
    return cfg, []


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
        if do_photon or do_bridge:
            amplitude = to_photon(g_used, p)
        if do_photon:
            row["photon_norm"] = invariant_norm(amplitude)

        if do_synth:
            sig = synthesize(g_used, cfg.u_grid, "wavelet", momentum=p)
            intensity = GridFunction(cfg.u_grid, np.abs(sig.data.values) ** 2)
            row["signal_norm"] = integrate(intensity).real
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
            s_full = spectrum_entropy(g_frame)
            s_win = spectrum_entropy(g_used)
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
            "--grid-n", help="grid point count, overrides [spectral] grid_count"
        )
        cmd.add_argument("--out", help="report path, overrides [output] report")
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
        _write_report(cfg, rows, args.command, args.config)
    except (ValueError, FloatingPointError) as exc:
        print(f"covwave: error: data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a report or signal path that cannot be written
        print(f"covwave: error: output: {exc}", file=sys.stderr)
        return 2
    return 0
