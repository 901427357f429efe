import configparser
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covwave.cli import main
from covwave.io import write_spectrum
from covwave.numerics import Grid, GridFunction

BASE_CONFIG = """\
[spectral]
family = gaussian
center = 5.0
width = 0.5
grid_lower = 0.1
grid_upper = 20.0
grid_count = 1024

[window]
kind = second
lower = 4.5
width = 1.0

[boosts]
eta = 0.0, 0.5, 1.0

[output]
u_lower = -40.0
u_upper = 40.0
u_count = 512
"""


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse raises on usage errors
        return exc.code


def read_report(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {h: (float(c) if c else None) for h, c in zip(header, cells)}
        )
    return rows


# --- check ---------------------------------------------------------------------


def test_check_accepts_valid_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli(["check", "--config", cfg]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_reports_zero_width_window(tmp_path, capsys):
    text = BASE_CONFIG.replace("width = 1.0", "width = 0.0")
    cfg = write_config(tmp_path, text)
    assert run_cli(["check", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "violation" in out
    assert "width" in out


def test_check_cites_positivity_for_photon_on_bad_grid(tmp_path, capsys):
    text = BASE_CONFIG.replace("grid_lower = 0.1", "grid_lower = -0.5")
    text += "photon_bridge = true\n"
    cfg = write_config(tmp_path, text)
    assert run_cli(["check", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "k > 0" in out


def test_check_lists_every_violation(tmp_path, capsys):
    text = BASE_CONFIG.replace("center = 5.0", "center = -5.0")
    text = text.replace("width = 1.0", "width = 0.0")
    cfg = write_config(tmp_path, text)
    assert run_cli(["check", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert out.count("violation:") >= 2


def test_check_never_writes(tmp_path):
    cfg = write_config(tmp_path)
    before = sorted(tmp_path.iterdir())
    run_cli(["check", "--config", cfg])
    assert sorted(tmp_path.iterdir()) == before


# --- exit-code contract ----------------------------------------------------------


def test_missing_config_is_usage_error(tmp_path):
    assert run_cli(["boost", "--config", str(tmp_path / "nope.ini")]) == 2


def test_empty_rapidity_list_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("eta = 0.0, 0.5, 1.0", "eta ="))
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_unparsable_rapidity_is_usage_error(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli(["boost", "--config", cfg, "--eta", "0.0,abc"]) == 2


def test_entropy_requires_a_window(tmp_path):
    text = BASE_CONFIG.replace("[window]\nkind = second\nlower = 4.5\nwidth = 1.0\n\n", "")
    cfg = write_config(tmp_path, text)
    assert run_cli(["entropy", "--config", cfg]) == 2


def test_annihilating_window_is_data_error(tmp_path, capsys):
    text = """\
[spectral]
family = flat
support_lower = 1.0
support_upper = 3.0
grid_lower = 0.5
grid_upper = 20.0
grid_count = 256

[boosts]
eta = 0.0
"""
    cfg = write_config(tmp_path, text)
    code = run_cli(["window", "--config", cfg, "--window", "second,10.0,1.0"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # single-line diagnostic
    assert "error: data:" in err


def test_usage_error_is_single_line(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("center = 5.0", "center = x"))
    assert run_cli(["boost", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "error: config:" in err


@pytest.mark.parametrize("eta", ["800", "-800", "400"])
@pytest.mark.parametrize("command", ["check", "sweep", "entropy"])
def test_extreme_rapidity_fails_cleanly(tmp_path, capsys, command, eta):
    # e^eta overflows, underflows to 0, or takes k |g|**2 past float range
    cfg = write_config(tmp_path)
    report = tmp_path / "report.csv"
    code = run_cli([command, "--config", cfg, f"--eta={eta}", "--out", str(report)])
    out, err = capsys.readouterr()
    assert code == 2
    assert not report.exists()
    if command == "check":
        assert "ok" not in out.splitlines()
        assert f"violation: rapidity {float(eta)}" in out
    else:
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"rapidity {float(eta)}" in err


@pytest.mark.parametrize(
    "amplitude, scale_line, check_code, run_code",
    [(1e200, "", 2, 2), (1e155, "reference_scale = 5.0\n", 0, 3)],
)
def test_overflowing_samples_fail_cleanly(
    tmp_path, capsys, amplitude, scale_line, check_code, run_code
):
    # |g|**2 overflows: in the default reference scale while the config is
    # built, or, with the scale given, in the first frame of the run
    grid = Grid(0.5, 10.0, 257)
    write_spectrum(tmp_path / "input.csv", GridFunction(grid, np.full(257, amplitude)))
    text = f"[spectral]\nfamily = samples\npath = input.csv\n{scale_line}"
    cfg = write_config(tmp_path, text)
    assert run_cli(["check", "--config", cfg]) == check_code
    capsys.readouterr()
    assert run_cli(["boost", "--config", cfg]) == run_code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflow" in err


def test_success_exit_code(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


# --- reports ---------------------------------------------------------------------


def test_report_has_one_row_per_rapidity(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out)]) == 0
    rows = read_report(out)
    assert [r["eta"] for r in rows] == [0.0, 0.5, 1.0]


def test_entropy_sweep_gap_is_frame_independent(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["entropy", "--config", cfg, "--out", str(out)]) == 0
    rows = read_report(out)
    gaps = [r["delta_s"] for r in rows]
    assert max(gaps) - min(gaps) < 1e-4
    shifts = [r["s_analytic"] for r in rows]
    assert shifts[1] - shifts[0] == pytest.approx(0.5, abs=1e-9)


def test_bridge_gap_column(tmp_path):
    text = BASE_CONFIG + "photon_bridge = true\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "report.csv"
    assert run_cli(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    for row in read_report(out):
        assert row["max_bridge_gap"] < 1e-8


def test_sweep_fills_every_section(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for row in read_report(out):
        for column in (
            "p",
            "norm_squared",
            "w_over_p",
            "photon_norm",
            "s_analytic",
            "delta_s",
            "signal_norm",
            "edge_leakage",
        ):
            assert row[column] is not None
    ratios = [r["w_over_p"] for r in read_report(out)]
    assert max(ratios) - min(ratios) < 1e-12


def test_photon_density_mode(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    code = run_cli(
        ["entropy", "--config", cfg, "--out", str(out), "--density-mode", "photon"]
    )
    assert code == 0
    gaps = [r["delta_s"] for r in read_report(out)]
    assert max(gaps) - min(gaps) < 1e-4


def test_report_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert run_cli(["sweep", "--config", cfg, "--out", str(out2)]) == 0

    def stable_lines(path):
        return [
            l for l in path.read_text().splitlines() if not l.startswith("# generated=")
        ]

    assert stable_lines(out1) == stable_lines(out2)


def test_report_to_stdout_without_out_path(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli(["boost", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# covwave=")
    assert "eta,p,norm_squared" in out


def test_emit_signals_writes_one_file_per_rapidity(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    code = run_cli(
        ["synthesize", "--config", cfg, "--out", str(out), "--emit-signals"]
    )
    assert code == 0
    for eta in ("0.0", "0.5", "1.0"):
        assert (tmp_path / f"signal_eta_{eta}.csv").exists()


# --- flag overrides and input families ----------------------------------------------


def test_grid_count_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out), "--grid-n", "4096"]) == 0
    assert run_cli(["boost", "--config", cfg, "--grid-n", "1"]) == 2


def test_eta_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out), "--eta", "-0.25"]) == 0
    rows = read_report(out)
    assert [r["eta"] for r in rows] == [-0.25]


def test_negative_eta_list_needs_equals_form(tmp_path):
    # argparse reads "--eta -1.5,0.5" as a flag; "--eta=-1.5,0.5" passes the value
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out), "--eta=-1.5,0.5"]) == 0
    rows = read_report(out)
    assert [r["eta"] for r in rows] == [-1.5, 0.5]


def test_window_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.csv"
    code = run_cli(
        ["window", "--config", cfg, "--out", str(out), "--window", "second,4.0,2.0"]
    )
    assert code == 0
    row = read_report(out)[0]
    assert row["w_over_p"] == pytest.approx(2.0 / row["p"], rel=1e-12)


def test_samples_family(tmp_path):
    grid = Grid(0.5, 10.0, 257)
    values = np.exp(-((grid.nodes - 3.0) ** 2))
    write_spectrum(tmp_path / "input.csv", GridFunction(grid, values))
    text = """\
[spectral]
family = samples
path = input.csv

[boosts]
eta = 0.0, 0.4
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "report.csv"
    assert run_cli(["boost", "--config", cfg, "--out", str(out)]) == 0
    rows = read_report(out)
    assert rows[1]["p"] == pytest.approx(np.exp(0.4) * rows[0]["p"], rel=1e-10)


def test_missing_sample_file_is_config_error(tmp_path):
    text = "[spectral]\nfamily = samples\npath = nothere.csv\n"
    cfg = write_config(tmp_path, text)
    assert run_cli(["boost", "--config", cfg]) == 2


def test_edge_leakage_bound_enforced(tmp_path):
    # a tiny u-window truncates the signal, tripping the configured bound
    text = BASE_CONFIG.replace("u_lower = -40.0", "u_lower = -1.0")
    text = text.replace("u_upper = 40.0", "u_upper = 1.0")
    text += "max_edge_leakage = 1e-8\n"
    cfg = write_config(tmp_path, text)
    assert run_cli(["synthesize", "--config", cfg]) == 3


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "covwave", "check", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(CONFIG_DIR.glob("*.ini")) if "[output]" in p.read_text()],
    ids=lambda p: p.name,
)
def test_shipped_config_resolves_every_frame(path):
    # the signal of frame eta holds momenta up to e^eta k_max, which the u-grid
    # resolves only while du * e^eta * k_max <= pi
    cp = configparser.ConfigParser()
    cp.read(path)
    out = cp["output"]
    u_range = out.getfloat("u_upper") - out.getfloat("u_lower")
    du = u_range / (out.getint("u_count") - 1)
    k_max = cp["spectral"].getfloat("grid_upper")
    for eta in (float(e) for e in cp["boosts"]["eta"].split(",")):
        assert du * np.exp(eta) * k_max <= np.pi, f"eta={eta}"
