import csv

import numpy as np
import pytest

from covwave.io import read_spectrum, write_signal, write_spectrum
from covwave.numerics import Grid, GridFunction


def test_spectrum_roundtrip_is_lossless(tmp_path):
    grid = Grid(0.1, 20.0, 257)
    rng = np.random.default_rng(5)
    f = GridFunction(grid, rng.standard_normal(257) + 1j * rng.standard_normal(257))
    path = tmp_path / "spectrum.csv"
    write_spectrum(path, f)
    back = read_spectrum(path)
    assert back.grid.count == 257
    assert back.grid.lower == grid.lower
    assert back.grid.upper == grid.upper
    np.testing.assert_array_equal(back.values, f.values)


def test_read_skips_comment_lines(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text("k,re,im\n# provenance note\n1.0,0.5,0.0\n2.0,0.25,-1.0\n")
    f = read_spectrum(path)
    assert f.grid.count == 2
    assert f.values[1] == 0.25 - 1.0j


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1.0,0.0,0.0\n2.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        read_spectrum(path)


def test_read_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,re,im\n1.0,0.0\n")
    with pytest.raises(ValueError, match="short row"):
        read_spectrum(path)


def test_read_rejects_single_sample(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,re,im\n1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="at least 2"):
        read_spectrum(path)


def test_read_rejects_nonuniform_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,re,im\n1.0,0.0,0.0\n2.0,0.0,0.0\n4.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="uniform"):
        read_spectrum(path)


def test_read_rejects_decreasing_abscissae(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,re,im\n2.0,0.0,0.0\n1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="increasing"):
        read_spectrum(path)


def test_signal_file_carries_modulus_column(tmp_path):
    grid = Grid(-1.0, 1.0, 3)
    f = GridFunction(grid, np.array([1.0 + 0.0j, 0.0 + 1.0j, 3.0 + 4.0j]))
    path = tmp_path / "signal.csv"
    write_signal(path, f)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["u", "re", "im", "abs"]
    last = lines[-1].split(",")
    assert float(last[3]) == pytest.approx(5.0)


def reference_signal_bytes(path, f):
    """The signal file as csv.writer writes it, modulus from numpy's scalar abs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "re", "im", "abs"])
        for u, v in zip(f.grid.nodes, f.values):
            cells = (float(u), float(v.real), float(v.imag), float(abs(v)))
            writer.writerow([repr(c) for c in cells])
    return path.read_bytes()


def test_signal_file_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(11)
    n = 4096
    scale = 10.0 ** rng.uniform(-320, 300, size=(2, n))
    values = scale[0] * rng.standard_normal(n) + 1j * scale[1] * rng.standard_normal(n)
    values[:6] = [-0.0 + 0.0j, complex(0.0, -0.0), 5e-324 - 2.5e-320j,
                  1e300 + 1e300j, -1.7e308 + 3e-310j, 1 / 3 - 2j / 3]
    f = GridFunction(Grid(-37.5, 41.25, n), values)
    write_signal(tmp_path / "fast.csv", f)
    assert (tmp_path / "fast.csv").read_bytes() == reference_signal_bytes(
        tmp_path / "ref.csv", f
    )
