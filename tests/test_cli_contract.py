"""The 0/2/3 exit-code contract of config parsing, over generated configs.

Each example writes one INI file whose keys are drawn from the CLI's key
table with well-formed, malformed, non-finite or missing values, plus
unknown keys and, at times, bytes that are not UTF-8.  Whatever the text,
``check`` and ``boost`` must end with a code of the contract and a
one-line diagnostic, never a traceback, and ``check`` must pass exactly
the configs that the run accepts.  Output paths that cannot be written
are covered in test_cli.py: ``check`` never touches the filesystem, so
they are left out here (``boost`` writes to a fresh ``--out`` path).
"""
import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covwave.cli import _KEYS, main
from covwave.io import write_spectrum
from covwave.numerics import Grid, GridFunction


def _numbers(lo, hi):
    return st.floats(lo, hi).map(repr)


# values that parse, in ranges wide enough that the constructors reject
# some of them; grid counts stay small and rapidities at |eta| <= 2 (the
# extreme ones are pinned by test_extreme_rapidity_fails_cleanly)
WELL_FORMED = {
    ("spectral", "family"): st.sampled_from(["gaussian", "flat", "samples"]),
    ("spectral", "path"): st.sampled_from(
        ["positive.csv", "negative.csv", "garbage.csv", "absent.csv"]
    ),
    ("spectral", "grid_lower"): _numbers(-1.0, 5.0),
    ("spectral", "grid_upper"): _numbers(-1.0, 30.0),
    ("spectral", "grid_count"): st.integers(-2, 4096).map(str),
    ("spectral", "reference_scale"): _numbers(-1.0, 10.0),
    ("spectral", "center"): _numbers(-1.0, 10.0),
    ("spectral", "width"): _numbers(-0.5, 2.0),
    ("spectral", "support_lower"): _numbers(-1.0, 10.0),
    ("spectral", "support_upper"): _numbers(-1.0, 30.0),
    ("window", "kind"): st.sampled_from(["first", "second", "third"]),
    ("window", "lower"): _numbers(-1.0, 30.0),
    ("window", "width"): _numbers(-0.5, 5.0),
    ("boosts", "eta"): st.lists(st.floats(-2.0, 2.0), max_size=3).map(
        lambda etas: ", ".join(map(repr, etas))
    ),
    ("output", "u_lower"): _numbers(-50.0, 1.0),
    ("output", "u_upper"): _numbers(-1.0, 50.0),
    ("output", "u_count"): st.integers(-2, 4096).map(str),
    ("output", "report"): st.sampled_from(["report.csv", "out/report.csv"]),
    ("output", "signals_dir"): st.sampled_from(["signals", "out/signals"]),
    ("output", "emit_signals"): st.sampled_from(["true", "false", "yes", "0"]),
    ("output", "photon_bridge"): st.sampled_from(["true", "false", "on", "1"]),
    ("output", "max_edge_leakage"): _numbers(-0.1, 1.0),
}
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999", "0, nan"])
MALFORMED = st.text(max_size=12)
SECTIONS = sorted({section for section, _ in _KEYS})


def _value(key):
    """A value for key, or None to leave the key out; a well-formed value is
    drawn half the time, so that most configs get past the reader."""
    return st.one_of(
        WELL_FORMED[key], WELL_FORMED[key], MALFORMED, NON_FINITE, st.none()
    )


@st.composite
def config_bytes(draw):
    lines = []
    for section in SECTIONS + ["extra"]:
        keys = [key for s, key in _KEYS if s == section]
        unknown = draw(st.lists(st.from_regex(r"[a-z_]{1,10}", fullmatch=True), max_size=1))
        if section != "spectral" and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        for key in keys + [k for k in unknown if (section, k) not in _KEYS]:
            value = draw(_value((section, key)) if key in keys else MALFORMED)
            if value is not None:
                lines.append(f"{key} = {value}")
    data = "\n".join(lines).encode() + b"\n"
    if draw(st.integers(0, 9)) == 0:  # a byte that no UTF-8 text holds
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _write_samples(folder: Path) -> None:
    grid = Grid(0.5, 10.0, 129)
    write_spectrum(folder / "positive.csv", GridFunction(grid, np.exp(-((grid.nodes - 3.0) ** 2))))
    grid = Grid(-1.0, 10.0, 129)
    write_spectrum(folder / "negative.csv", GridFunction(grid, np.exp(-((grid.nodes - 3.0) ** 2))))
    (folder / "garbage.csv").write_text("k,re,im\n1.0,x\n")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_key_table_is_fully_drawn():
    assert set(WELL_FORMED) == set(_KEYS)


@settings(max_examples=200, deadline=None)
@given(config_bytes())
def test_check_and_boost_keep_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        _write_samples(folder)
        config = folder / "run.ini"
        config.write_bytes(data)
        check, check_out, check_err = _run(["check", "--config", str(config)])
        report = folder / "report.csv"
        boost, _, boost_err = _run(["boost", "--config", str(config), "--out", str(report)])

    assert check in (0, 2) and boost in (0, 2, 3)
    assert "Traceback" not in check_err + boost_err
    if check == 0:
        assert check_out == "ok\n" and check_err == ""
    elif check_err:  # the file itself could not be read
        assert check_out == "" and check_err.count("\n") == 1
    else:
        assert all(line.startswith("violation: ") for line in check_out.splitlines())
    if boost != 0:
        assert boost_err.count("\n") == 1
    # check passes exactly the configs that the run accepts
    assert (check == 2) == (boost == 2)
