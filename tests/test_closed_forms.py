"""Report columns of the six run commands on configs/gaussian_sweep.ini
against the closed forms of tests/closed_forms.py.

Frame-against-frame checks pass an error that every frame shares, such as
a mean momentum off by the same factor in every frame.  These closed forms
come from outside the program and catch it.
"""
import configparser
import math
from pathlib import Path

import pytest

from closed_forms import gaussian_columns
from covwave.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gaussian_sweep.ini"
COMMANDS = ("boost", "window", "photon", "synthesize", "entropy", "sweep")

# Relative bounds.  On the Gaussian the trapezoid rule is spectrally
# accurate, so the unwindowed columns sit at rounding level (4.4e-16 for
# p and norm_squared, 2.7e-15 for s_analytic).  Windowed quadrature keeps
# whole cells at the window edges and converges only at O(h) (ROADMAP item
# 5); each windowed bound is about 1.5x the error measured on this config
# (p and w_over_p 3.4e-5, norm_squared 6.6e-4, photon_norm 7.0e-4).
UNWINDOWED = 1e-14
WINDOWED = {"p": 5e-5, "w_over_p": 5e-5, "norm_squared": 1e-3, "photon_norm": 1.05e-3}
# absolute bound in nats for s_windowed and delta_s (measured 1.14e-3)
ENTROPY = 1.7e-3
# the bridge field and the wavelet signal are the same integral, so their
# gap is 0 up to rounding: about ten ulps of the signal's peak of 0.15
BRIDGE_GAP = 1e-15
# edge_leakage is the only filled column left unchecked: |G| at the u-grid
# ends needs the error function of a complex argument, which math lacks


@pytest.fixture(scope="module")
def config():
    cp = configparser.ConfigParser()
    cp.read(CONFIG)
    spectral, window = cp["spectral"], cp["window"]
    assert spectral["family"] == "gaussian" and window["kind"] == "second"
    center, width = spectral.getfloat("center"), spectral.getfloat("width")
    lower, w = window.getfloat("lower"), window.getfloat("width")
    grid = (spectral.getfloat("grid_lower"), spectral.getfloat("grid_upper"))

    def at(eta):
        return (
            gaussian_columns(center, width, *grid, eta),
            gaussian_columns(center, width, lower, lower + w, eta),
        )

    return at, w


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    folder = tmp_path_factory.mktemp("reports")
    out = {}
    for command in COMMANDS:
        path = folder / f"{command}.csv"
        assert main([command, "--config", str(CONFIG), "--out", str(path)]) == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        out[command] = [
            {h: float(c) for h, c in zip(header, line.split(",")) if c} for line in lines[1:]
        ]
    return out


def _close(value, expected, bound):
    return abs(value - expected) <= bound * abs(expected)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_columns_match_closed_forms(command, config, reports):
    at, w = config
    for row in reports[command]:
        eta = row["eta"]
        full, win = at(eta)
        checked = {"eta", "edge_leakage", "signal_norm"}
        if command == "boost":
            # no window: the spectrum over the whole grid
            for column in ("p", "norm_squared"):
                assert _close(row[column], full[column], UNWINDOWED), (column, eta)
            checked |= {"p", "norm_squared"}
        else:
            for column in ("p", "norm_squared", "photon_norm"):
                if column in row:
                    assert _close(row[column], win[column], WINDOWED[column]), (column, eta)
            expected = w * math.exp(eta) / win["p"]
            assert _close(row["w_over_p"], expected, WINDOWED["w_over_p"]), eta
            checked |= {"p", "norm_squared", "photon_norm", "w_over_p"}
        if "s_analytic" in row:
            assert _close(row["s_analytic"], full["entropy"], UNWINDOWED), eta
            assert abs(row["s_windowed"] - win["entropy"]) <= ENTROPY, eta
            assert abs(row["delta_s"] - (full["entropy"] - win["entropy"])) <= ENTROPY, eta
            checked |= {"s_analytic", "s_windowed", "delta_s"}
        if "max_bridge_gap" in row:
            assert row["max_bridge_gap"] <= BRIDGE_GAP, eta
            checked.add("max_bridge_gap")
        assert set(row) <= checked, set(row) - checked


def test_every_command_fills_its_columns(reports):
    filled = {command: set(rows[0]) for command, rows in reports.items()}
    assert filled["boost"] == {"eta", "p", "norm_squared"}
    assert filled["photon"] >= {"photon_norm"}
    assert filled["entropy"] >= {"s_analytic", "s_windowed", "delta_s"}
    assert filled["synthesize"] >= {"signal_norm", "edge_leakage", "max_bridge_gap"}
    assert filled["sweep"] == set().union(*filled.values())


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the u-grid truncates the windowed signal, which "
    "misses Plancherel's norm_squared/p by 4.3% at eta=-1.5",
)
@pytest.mark.parametrize("command", ("synthesize", "sweep"))
def test_signal_norm_matches_plancherel(command, config, reports):
    at, _ = config
    for row in reports[command]:
        _, win = at(row["eta"])
        assert _close(row["signal_norm"], win["signal_norm"], WINDOWED["norm_squared"]), row["eta"]
