import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavekit.io import read_pgm, read_pyramid_container, read_signal_csv, write_pgm, write_signal_csv

RNG = np.random.default_rng(16180339)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "wavekit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# --- verify -------------------------------------------------------------------


def test_verify_haar_lawton():
    r = run_cli("verify", "--filter", "haar", "--lawton")
    assert r.returncode == 0
    assert "qmf: PASS" in r.stdout
    assert "cuntz[n=16]: PASS" in r.stdout
    assert "lawton: ONB" in r.stdout


def test_verify_db4():
    r = run_cli("verify", "--filter", "db4", "--lawton")
    assert r.returncode == 0
    assert "lawton: ONB" in r.stdout


def test_verify_stretched_haar_fails_lawton():
    r = run_cli("verify", "--filter", "stretched_haar", "--lawton")
    assert r.returncode == 1
    assert "lawton: NOT_ONB" in r.stdout
    assert "multiplicity 2" in r.stdout


def test_verify_without_lawton_flag_passes():
    r = run_cli("verify", "--filter", "stretched_haar")
    assert r.returncode == 0
    assert "lawton" not in r.stdout


def test_verify_unknown_filter_is_input_error():
    r = run_cli("verify", "--filter", "nosuch")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_verify_filter_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("name: myhaar\nstart: 0\ncoeffs: 0.5 0.5\n")
    r = run_cli("verify", "--filter", str(path), "--lawton")
    assert r.returncode == 0
    assert "myhaar" in r.stdout


def test_verify_non_qmf_filter_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("name: hat\nstart: 0\ncoeffs: 0.25 0.5 0.25\n")
    r = run_cli("verify", "--filter", str(path), "--lawton")
    assert r.returncode == 1
    assert "qmf: FAIL" in r.stdout
    assert "lawton: SKIPPED" in r.stdout


def test_verify_missing_args_exit_two():
    r = run_cli("verify")
    assert r.returncode == 2


# --- transform ------------------------------------------------------------------


def test_transform_1d_roundtrip(tmp_path):
    sig = str(tmp_path / "x.csv")
    pyr = str(tmp_path / "x.pyr")
    rec = str(tmp_path / "x_rec.csv")
    x = RNG.standard_normal(64)
    write_signal_csv(sig, x)
    r = run_cli("transform", "dwt1d", "--in", sig, "--filter", "db4",
                "--levels", "2", "--out", pyr)
    assert r.returncode == 0, r.stderr
    p, name = read_pyramid_container(pyr)
    assert name == "db4"
    assert p.levels == 2
    r2 = run_cli("transform", "idwt1d", "--in", pyr, "--out", rec)
    assert r2.returncode == 0, r2.stderr
    assert np.abs(read_signal_csv(rec) - x).max() < 1e-12


def test_transform_1d_default_levels_is_max(tmp_path):
    sig = str(tmp_path / "x.csv")
    pyr = str(tmp_path / "x.pyr")
    write_signal_csv(sig, RNG.standard_normal(64))
    r = run_cli("transform", "dwt1d", "--in", sig, "--filter", "db4", "--out", pyr)
    assert r.returncode == 0
    p, _ = read_pyramid_container(pyr)
    assert p.levels == 4  # 64 -> 32 -> 16 -> 8 -> 4; 4 meets the floor, 2 would not


def test_transform_1d_too_deep_is_level_error(tmp_path):
    sig = str(tmp_path / "x.csv")
    write_signal_csv(sig, RNG.standard_normal(16))
    r = run_cli("transform", "dwt1d", "--in", sig, "--filter", "db4",
                "--levels", "3", "--out", str(tmp_path / "x.pyr"))
    assert r.returncode == 2


def test_transform_1d_length_six_db4_no_levels(tmp_path):
    """A six-sample signal admits no level for a four-tap filter (6/2 = 3
    falls below the filter-length floor)."""
    sig = str(tmp_path / "x.csv")
    write_signal_csv(sig, np.arange(6.0))
    r = run_cli("transform", "dwt1d", "--in", sig, "--filter", "db4",
                "--out", str(tmp_path / "x.pyr"))
    assert r.returncode == 2


def test_transform_2d_worked_example(tmp_path):
    img = str(tmp_path / "t.pgm")
    pyr = str(tmp_path / "t.pyr")
    write_pgm(img, np.array([[1.0, 2.0], [3.0, 4.0]]))
    r = run_cli("transform", "dwt2d", "--in", img, "--filter", "haar",
                "--levels", "1", "--out", pyr)
    assert r.returncode == 0, r.stderr
    p, _ = read_pyramid_container(pyr)
    assert p.approx[0, 0] == 5.0
    assert p.details[0].h[0, 0] == -1.0
    assert p.details[0].v[0, 0] == -2.0
    assert p.details[0].d[0, 0] == 0.0


def test_transform_2d_roundtrip_and_container_bytes(tmp_path):
    img = str(tmp_path / "i.pgm")
    pyr = str(tmp_path / "i.pyr")
    pyr2 = str(tmp_path / "i2.pyr")
    back = str(tmp_path / "i_back.pgm")
    data = RNG.integers(0, 256, size=(16, 16)).astype(float)
    write_pgm(img, data)
    r = run_cli("transform", "dwt2d", "--in", img, "--filter", "haar",
                "--levels", "2", "--out", pyr)
    assert r.returncode == 0, r.stderr
    r2 = run_cli("transform", "idwt2d", "--in", pyr, "--out", back)
    assert r2.returncode == 0, r2.stderr
    assert np.array_equal(read_pgm(back), data)
    # read + rewrite through the library reproduces the container bytes
    p, name = read_pyramid_container(pyr)
    from wavekit.io import write_pyramid_container

    write_pyramid_container(pyr2, p, name)
    assert Path(pyr).read_bytes() == Path(pyr2).read_bytes()


def test_transform_2d_preview_and_quantize(tmp_path):
    img = str(tmp_path / "i.pgm")
    pyr = str(tmp_path / "i.pyr")
    prev = str(tmp_path / "prev.pgm")
    write_pgm(img, RNG.integers(0, 256, size=(8, 8)).astype(float))
    r = run_cli("transform", "dwt2d", "--in", img, "--filter", "haar",
                "--levels", "1", "--out", pyr, "--preview", prev,
                "--quantize", "4.0")
    assert r.returncode == 0, r.stderr
    assert read_pgm(prev).shape == (8, 8)
    p, _ = read_pyramid_container(pyr)
    # all coefficients snapped to multiples of 4
    assert np.allclose(np.mod(p.approx, 4.0), 0.0)


def test_transform_preview_rejected_for_1d(tmp_path):
    sig = str(tmp_path / "x.csv")
    write_signal_csv(sig, RNG.standard_normal(16))
    r = run_cli("transform", "dwt1d", "--in", sig, "--filter", "haar",
                "--out", str(tmp_path / "x.pyr"), "--preview",
                str(tmp_path / "p.pgm"))
    assert r.returncode == 2


def test_transform_inverse_uses_container_filter(tmp_path):
    sig = str(tmp_path / "x.csv")
    pyr = str(tmp_path / "x.pyr")
    rec = str(tmp_path / "r.csv")
    x = RNG.standard_normal(32)
    write_signal_csv(sig, x)
    run_cli("transform", "dwt1d", "--in", sig, "--filter", "haar", "--out", pyr)
    r = run_cli("transform", "idwt1d", "--in", pyr, "--out", rec)
    assert r.returncode == 0
    assert np.abs(read_signal_csv(rec) - x).max() < 1e-12


def test_transform_missing_input_exit_two(tmp_path):
    r = run_cli("transform", "dwt1d", "--in", str(tmp_path / "nope.csv"),
                "--filter", "haar", "--out", str(tmp_path / "o.pyr"))
    assert r.returncode == 2


# --- cascade ---------------------------------------------------------------------


def test_cascade_phi_csv(tmp_path):
    out = str(tmp_path / "phi.csv")
    r = run_cli("cascade", "--filter", "db4", "--resolution", "4", "--out", out)
    assert r.returncode == 0, r.stderr
    assert "support [0, 3]" in r.stdout
    assert "integral: 1" in r.stdout
    rows = [line.split(",") for line in Path(out).read_text().splitlines()]
    assert len(rows) == 3 * 16 + 1
    xs = np.array([float(r[0]) for r in rows])
    assert xs[0] == 0.0 and xs[-1] == 3.0


def test_cascade_psi_zero_mean(tmp_path):
    out = str(tmp_path / "psi.csv")
    r = run_cli("cascade", "--filter", "db4", "--resolution", "5",
                "--which", "psi", "--out", out)
    assert r.returncode == 0, r.stderr
    vals = np.array([float(line.split(",")[1]) for line in Path(out).read_text().splitlines()])
    assert abs(vals.sum() * 2.0**-5) < 1e-10


def test_cascade_degenerate_filter_is_numeric_error(tmp_path):
    r = run_cli("cascade", "--filter", "stretched_haar", "--resolution", "3",
                "--out", str(tmp_path / "phi.csv"))
    assert r.returncode == 3
    assert "error:" in r.stderr


def test_cascade_resolution_cap(tmp_path):
    r = run_cli("cascade", "--filter", "haar", "--resolution", "99",
                "--out", str(tmp_path / "phi.csv"))
    assert r.returncode == 2


def test_cwt_cascade_wavelet_resolution_cap(tmp_path):
    sig = str(tmp_path / "x.csv")
    write_signal_csv(sig, RNG.standard_normal(64))
    r = run_cli("cwt", "--in", sig, "--wavelet", "cascade:db4:99", "--scales", "2:8:2")
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "99" in lines[0]
    assert "Traceback" not in r.stdout + r.stderr


# --- cwt -------------------------------------------------------------------------


@pytest.fixture()
def sine_csv(tmp_path):
    path = str(tmp_path / "sine.csv")
    n = 256
    x = np.arange(n, dtype=float)
    write_signal_csv(path, np.sin(2 * np.pi * x / 32.0) * np.hanning(n))
    return path


def test_cwt_reports_admissibility_and_peak(sine_csv, tmp_path):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "mexican_hat",
                "--scales", "1:48:8")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("admissibility: 6.283")
    peak_line = [l for l in r.stdout.splitlines() if l.startswith("peak:")][0]
    # scale near sqrt(2) * 32 / (2 pi) ~ 7.2, allow two voices
    scale = float(peak_line.split("scale=")[1].split()[0])
    assert 5.8 <= scale <= 9.7


def test_cwt_scalogram_and_heatmap(sine_csv, tmp_path):
    out = str(tmp_path / "s.csv")
    hm = str(tmp_path / "s.pgm")
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "mexican_hat",
                "--scales", "2:16:4", "--out", out, "--heatmap", hm)
    assert r.returncode == 0, r.stderr
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("scales,")
    assert lines[1].startswith("shifts,")
    n_scales = len(lines[0].split(",")) - 1
    assert len(lines) == 2 + n_scales
    assert read_pgm(hm).shape == (n_scales, 256)


def test_cwt_invert_reports_error(sine_csv, tmp_path):
    out = str(tmp_path / "c.csv")
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "mexican_hat",
                "--scales", "1:48:8", "--out", out, "--invert")
    assert r.returncode == 0, r.stderr
    err_line = [l for l in r.stdout.splitlines() if "relative L2 error" in l][0]
    rel = float(err_line.rsplit(" ", 1)[1])
    assert rel < 0.05
    rec = read_signal_csv(str(tmp_path / "c.recon.csv"))
    assert rec.size == 256


def test_cwt_invert_without_out_rejected(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "mexican_hat",
                "--scales", "1:8:4", "--invert")
    assert r.returncode == 2


def test_cwt_gaussian_inadmissible_exit_three(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "gaussian",
                "--scales", "1:8:4")
    assert r.returncode == 3
    assert "error:" in r.stderr


def test_cwt_cascade_wavelet(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "cascade:db4:8",
                "--scales", "2:32:8")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("admissibility: 1.386")


def test_cwt_haar_alias(sine_csv):
    # unit-width wavelet: the smallest scale must leave >= 4 samples across
    # the support, so start the ladder at 4
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "haar",
                "--scales", "4:16:4")
    assert r.returncode == 0, r.stderr


def test_cwt_too_small_scale_is_resolution_error(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "haar",
                "--scales", "2:16:4")
    assert r.returncode == 3


def test_cwt_bad_scales_syntax(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "mexican_hat",
                "--scales", "fast")
    assert r.returncode == 2


def test_cwt_unknown_wavelet(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "sombrero",
                "--scales", "1:8:4")
    assert r.returncode == 2


# --- top level -------------------------------------------------------------------


def test_no_command_exits_two():
    r = run_cli()
    assert r.returncode == 2


def test_unknown_command_exits_two():
    r = run_cli("fourier")
    assert r.returncode == 2
