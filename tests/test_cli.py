import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

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


GOLDEN_VERIFY_LAWTON = {
    "haar": (0, "filter: haar (2 taps, start 0)\n"
                "qmf: PASS (max residual 0.000e+00, tol 1e-12)\n"
                "cuntz[n=16]: PASS (max deviation 2.220e-16, tol 1e-10)\n"
                "lawton: ONB (eigenvalue-1 multiplicity 1)\n"),
    "db4": (0, "filter: db4 (4 taps, start 0)\n"
               "qmf: PASS (max residual 1.110e-16, tol 1e-12)\n"
               "cuntz[n=16]: PASS (max deviation 1.110e-16, tol 1e-10)\n"
               "lawton: ONB (eigenvalue-1 multiplicity 1)\n"),
    "stretched_haar": (1, "filter: stretched_haar (4 taps, start 0)\n"
                          "qmf: PASS (max residual 0.000e+00, tol 1e-12)\n"
                          "cuntz[n=16]: PASS (max deviation 2.220e-16, tol 1e-10)\n"
                          "lawton: NOT_ONB (eigenvalue-1 multiplicity 2)\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY_LAWTON))
def test_verify_lawton_golden_output(name):
    """The whole standard output and the exit status, byte for byte."""
    r = run_cli("verify", "--filter", name, "--lawton")
    assert (r.returncode, r.stdout, r.stderr) == (*GOLDEN_VERIFY_LAWTON[name], "")


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


@pytest.mark.parametrize(
    "data, message",
    [
        (b"name: x\nstart: 0\ncoeffs: 0.25 0.25 0.25 0.26\n",
         "3: filter 'x' is flagged normalized but sum(h) = 1.01"),
        (b"name: x\nstart: 0\ncoeffs: 0.5 \xff0.5\n", "3: not UTF-8 text"),
    ],
    ids=["refused-taps", "not-utf8"],
)
def test_verify_bad_filter_file_names_path_and_line(tmp_path, capsys, data, message):
    from wavekit.cli import main

    path = tmp_path / "f.txt"
    path.write_bytes(data)
    assert main(["verify", "--filter", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{message}")
    assert len(err.splitlines()) == 1


def test_verify_cuntz_n_over_byte_budget_exits_two(monkeypatch, capsys):
    import wavekit.errors
    from wavekit.cli import main

    monkeypatch.setattr(wavekit.errors, "_BYTE_BUDGET", 1 << 12)
    assert main(["verify", "--filter", "db4", "--cuntz-n", "32"]) == 0
    capsys.readouterr()
    assert main(["verify", "--filter", "db4", "--cuntz-n", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cuntz_check at n = 64")
    assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize("levels", ([], ["--levels", "0"]))
def test_transform_refuses_depth_zero_with_one_text(tmp_path, capsys, levels):
    """dwt1d and dwt2d refuse a default depth of 0, and --levels 0, with the
    same one-line message naming the length or the shape."""
    from wavekit.cli import main

    sig, img, out = (str(tmp_path / name) for name in ("x.csv", "i.pgm", "o.pyr"))
    write_signal_csv(sig, np.arange(6.0))
    write_pgm(img, np.zeros((2, 2)))
    for mode, path, what in (("dwt1d", sig, "length 6"), ("dwt2d", img, "shape 2x2")):
        argv = ["transform", mode, "--in", path, "--filter", "db4", "--out", out]
        assert main(argv + levels) == 2
        assert capsys.readouterr().err == (
            f"error: {what} admits no decomposition with filter 'db4' (4 taps)\n"
        )


@pytest.mark.parametrize("levels", ("0", "-2"))
def test_transform_leaves_bad_levels_to_the_level_check(tmp_path, capsys, levels):
    """On inputs that admit levels, --levels 0 or -2 is refused by the level
    check, not as an input that admits no decomposition."""
    from wavekit.cli import main

    sig, img, out = (str(tmp_path / name) for name in ("x.csv", "i.pgm", "o.pyr"))
    write_signal_csv(sig, RNG.standard_normal(64))
    write_pgm(img, np.zeros((16, 16)))
    for mode, path in (("dwt1d", sig), ("dwt2d", img)):
        argv = ["transform", mode, "--in", path, "--filter", "db4", "--out", out]
        assert main(argv + ["--levels", levels]) == 2
        assert capsys.readouterr().err == (
            f"error: level count must be a positive integer, got {levels}\n"
        )


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


@pytest.mark.parametrize(
    "mode, flag, value",
    [
        ("dwt1d", "--preview", "p.pgm"),
        ("dwt1d", "--quantize", "4.0"),
        ("dwt1d", "--quantize", "0"),
        ("idwt1d", "--levels", "2"),
        ("idwt1d", "--preview", "p.pgm"),
        ("idwt1d", "--quantize", "4.0"),
        ("idwt2d", "--levels", "2"),
        ("idwt2d", "--preview", "p.pgm"),
    ],
)
def test_transform_refuses_a_flag_its_mode_does_not_take(tmp_path, monkeypatch, capsys, mode, flag, value):
    """Each flag a mode refuses is one error line naming the flag and the mode,
    exit 2. The refusal comes before anything is read or written: it wins over
    a missing --in file, and neither --out nor --preview is created."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    argv = ["transform", mode, "--in", "missing", "--filter", "haar", "--out", "o.out", flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} does not apply to {mode}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["dwt1d", "dwt2d"])
def test_forward_transform_needs_filter_before_reading(tmp_path, monkeypatch, capsys, mode):
    """A forward transform without --filter exits 2 with one error line,
    before the missing --in file is noticed; a flag the mode refuses is
    named first."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    argv = ["transform", mode, "--in", "missing", "--out", "o.pyr"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: forward transforms need --filter\n")
    if mode == "dwt1d":
        assert main(argv + ["--preview", "p.pgm"]) == 2
        assert capsys.readouterr() == ("", "error: --preview does not apply to dwt1d\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["dwt1d", "dwt2d"])
def test_forward_transform_resolves_filter_before_input(tmp_path, monkeypatch, capsys, mode):
    """An unknown --filter is named before a missing --in file."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["transform", mode, "--in", "missing", "--filter", "nosuch", "--out", "o.pyr"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown filter 'nosuch'") and len(err.splitlines()) == 1


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


def test_cascade_haar_padded_with_zero_taps(tmp_path):
    path = tmp_path / "padded.txt"
    path.write_text("name: padded\nstart: -1\ncoeffs: 0 0.5 0.5 0\n")
    out = tmp_path / "phi.csv"
    r = run_cli("cascade", "--filter", str(path), "--resolution", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "support [-1, 2]" in r.stdout and "integral: 1\n" in r.stdout
    rows = np.loadtxt(out, delimiter=",")
    assert_array_equal(rows[:, 1], (rows[:, 0] >= 0) & (rows[:, 0] < 1))


@pytest.mark.parametrize("start", [2**50 - 1, 2**50])
def test_cascade_refuses_an_x_column_it_would_round(monkeypatch, capsys, tmp_path, start):
    """haar's x = start + k/8 at J = 3 are all doubles up to start 2^50 - 1;
    from start 2^50 the command exits 2 with one error line naming the CSV,
    and writes no CSV. The refusal comes before any refinement: in process,
    with refinement made to fail, start 2^50 at J = 22 still exits 2; psi,
    whose grid does not move with the start, is written."""
    path = tmp_path / "far.txt"
    path.write_text(f"name: far\nstart: {start}\ncoeffs: 0.5 0.5\n")
    out = tmp_path / "phi.csv"
    r = run_cli("cascade", "--filter", str(path), "--resolution", "3", "--out", str(out))
    if start < 2**50:
        assert r.returncode == 0, r.stderr
        assert np.unique(np.loadtxt(out, delimiter=",")[:, 0]).size == 9
    else:
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith(f"error: {out}: x from") and len(r.stderr.splitlines()) == 1
        assert not out.exists()

        import wavekit.cli

        # psi's grid starts at (2 - L)/2 = 0 whatever the start, so it is written.
        psi = tmp_path / "psi.csv"
        argv = ["cascade", "--filter", str(path), "--resolution", "3", "--which", "psi"]
        assert wavekit.cli.main([*argv, "--out", str(psi)]) == 0
        assert np.loadtxt(psi, delimiter=",")[0, 0] == 0.0
        capsys.readouterr()

        def refined(*args, **kwargs):
            raise AssertionError("refined before the x column was checked")

        monkeypatch.setattr(wavekit.cli, "scaling_function", refined)
        monkeypatch.setattr(wavekit.cli, "wavelet_function", refined)
        argv = ["cascade", "--filter", str(path), "--resolution", "22", "--out", str(out)]
        assert wavekit.cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {out}: x from")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


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


@pytest.mark.parametrize("case", ["no-out", "missing-in", "zero-signal"])
def test_cwt_invert_refusals_come_before_any_work(tmp_path, monkeypatch, capsys, case):
    """--invert without --out, and --invert on an all-zero signal, exit 2 with
    their one error line before the transform runs: nothing on stdout and no
    scalogram, heat map or reconstruction written. Without --out the refusal
    also wins over a missing --in file."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    write_signal_csv("zero.csv", np.zeros(64))
    write_signal_csv("sine.csv", np.sin(np.arange(64.0)))
    argv = ["cwt", "--wavelet", "mexican_hat", "--scales", "1:8:4", "--heatmap", "h.pgm", "--invert"]
    if case == "zero-signal":
        argv += ["--in", "zero.csv", "--out", "s.csv"]
        message = "--invert needs a nonzero input signal"
    else:
        argv += ["--in", "sine.csv" if case == "no-out" else "missing.csv"]
        message = "--invert needs --out to place the reconstruction"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sine.csv", "zero.csv"]


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


def test_cwt_absurd_scales_exit_two(sine_csv):
    """A ladder of 10^12 voices per octave is refused by the cwt byte budget
    before it is allocated: one error line, no traceback."""
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "mexican_hat",
                "--scales", "1:2:1000000000000")
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "budget" in lines[0]
    assert "Traceback" not in r.stdout + r.stderr


def test_cwt_over_byte_budget_exits_two(monkeypatch, capsys, sine_csv):
    import wavekit.errors
    from wavekit.cli import main

    monkeypatch.setattr(wavekit.errors, "_BYTE_BUDGET", 1 << 19)
    assert main(["cwt", "--in", sine_csv, "--wavelet", "mexican_hat", "--scales", "1:48:8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cwt of 256 samples on a 46 x 256 grid")
    assert len(err.splitlines()) == 1


def test_cwt_unknown_wavelet(sine_csv):
    r = run_cli("cwt", "--in", sine_csv, "--wavelet", "sombrero",
                "--scales", "1:8:4")
    assert r.returncode == 2


@pytest.mark.parametrize("command", ("cwt", "verify"))
def test_complex_value_with_overflowing_modulus_exits_two(tmp_path, command):
    """1.7e308+1.7e308i has finite parts but a modulus past the largest
    float: a signal CSV sample or a filter-file coefficient like it is
    refused with one error line, not a traceback."""
    token = "1.7e308+1.7e308i"
    if command == "cwt":
        path = tmp_path / "x.csv"
        path.write_text(f"0.5\n{token}\n0.25\n0\n")
        r = run_cli("cwt", "--in", str(path), "--wavelet", "mexican_hat", "--scales", "1:8:4")
    else:
        path = tmp_path / "f.txt"
        path.write_text(f"name: huge\nstart: 0\ncoeffs: 0.5 {token}\n")
        r = run_cli("verify", "--filter", str(path))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and token in lines[0]
    assert "Traceback" not in r.stdout + r.stderr


@pytest.mark.parametrize(
    "mode, text, lineno",
    [
        ("idwt1d", "len: 2\n[detail-1]\nabc\n[approx]\n1\n", 6),
        ("idwt2d", "dims: 2x2\n[h-1]\n1\n[v-1]\n1\n[d-1]\nabc\n[a]\n1\n", 10),
        ("verify", "name: x\nstart: 0\ncoeffs: 0.5 abc\n", 3),
    ],
)
def test_bad_cell_exits_two_naming_path_and_line(tmp_path, capsys, mode, text, lineno):
    """A cell that does not parse in a container block or on a filter
    file's coeffs line ends in exit status 2 and one error line that names
    the file and the line."""
    from wavekit.cli import main

    path = tmp_path / "bad.txt"
    if mode == "verify":
        path.write_text(text)
        argv = ["verify", "--filter", str(path)]
    else:
        path.write_text("magic: wavekit-pyr1\nfilter: haar\nlevels: 1\n" + text)
        argv = ["transform", mode, "--in", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}:{lineno}: cannot parse number 'abc'\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["transform", "idwt1d"], "levels: 1\nlen: 2\n[detail-1]\n1_0\n[approx]\n1\n",
         "6: cannot parse number '1_0'"),
        (["transform", "idwt1d"], "levels: \u0663\nlen: 8\n", "3: levels must be an integer, got '\u0663'"),
        (["verify", "--filter"], "name: x\nstart: 0_1\ncoeffs: 0.5 0.5\n",
         "2: start must be an integer, got '0_1'"),
    ],
    ids=["block-cell", "levels", "start"],
)
def test_number_forms_outside_ascii_decimals_exit_two(tmp_path, capsys, argv, text, message):
    """A digit separator or a non-ASCII digit, which Python's float() and
    int() take, ends in exit status 2 and one error line naming the file
    and the line."""
    from wavekit.cli import main

    path = tmp_path / "bad.txt"
    if argv[0] == "verify":
        path.write_text(text, encoding="utf-8")
        argv = [*argv, str(path)]
    else:
        path.write_text("magic: wavekit-pyr1\nfilter: haar\n" + text, encoding="utf-8")
        argv = [*argv, "--in", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:{message}\n"


# --- top level -------------------------------------------------------------------


def test_no_command_exits_two():
    r = run_cli()
    assert r.returncode == 2


def test_unknown_command_exits_two():
    r = run_cli("fourier")
    assert r.returncode == 2


_DB4_TAPS = "0.34150635094610965 0.5915063509461097 0.15849364905389035 -0.09150635094610965"


@pytest.mark.parametrize(
    "argv, status, budget",
    [
        (["verify", "--filter", "{far}"], 2, None),
        (["transform", "dwt1d", "--in", "x.csv", "--filter", "{far}", "--out", "x.pyr"], 2, None),
        (["cascade", "--filter", "{far}", "--resolution", "3", "--out", "c.csv"], 2, None),
        (["cwt", "--in", "x.csv", "--wavelet", "cascade:{far}:4", "--scales", "4:16:2"], 2, None),
        (["cascade", "--filter", "{int64}", "--resolution", "3", "--out", "c.csv"], 2, None),
        (["cwt", "--in", "x.csv", "--wavelet", "mexican_hat", "--scales", "1e-300:1e300:8"], 3, None),
        (["cwt", "--in", "x.csv", "--wavelet", "mexican_hat", "--scales", "1e-310:1:8"], 3, None),
        (["cwt", "--in", "x.csv", "--wavelet", "mexican_hat", "--scales", "1:2:" + "9" * 401], 2, None),
        (["verify", "--filter", "{long}", "--cuntz-n", "2000", "--lawton"], 2, 1 << 20),
        (["cascade", "--filter", "haar", "--resolution", "25", "--out", "c.csv"], 2, None),
        (["cascade", "--filter", "haar", "--resolution", "9" * 20, "--out", "c.csv"], 2, None),
        (["cwt", "--in", "x.csv", "--wavelet", "cascade:db4:20", "--scales", "4:16:2"], 2, None),
    ],
    ids=[
        "verify-start-1e20", "dwt1d-start-1e20", "cascade-start-1e20", "cwt-start-1e20",
        "cascade-start-int64-max", "ladder-1e-300:1e300", "ladder-1e-310:1", "voices-401-digits",
        "lawton-1000-taps", "haar-resolution-25", "resolution-20-digits", "admissibility-db4-20",
    ],
)
def test_cli_refusals_are_one_error_line(monkeypatch, capsys, tmp_path, argv, status, budget):
    """Filter starts past 2^52, scale ladders whose ratio or voice count
    overflows a float, a 1,000-tap stretched filter under a 1 MiB budget,
    cascade grids past the budget and the admissibility FFT of a level-20 db4
    cascade wavelet (137,625,600 points) each end in their exit status with
    one error: line, before anything large is allocated."""
    import wavekit.errors
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    write_signal_csv("x.csv", np.sin(np.arange(64.0)))
    for name, start in (("far", "99999999999999999999"), ("int64", "9223372036854775807")):
        (tmp_path / f"{name}.txt").write_text(f"name: x\nstart: {start}\ncoeffs: {_DB4_TAPS}\n")
    taps = ["0"] * 1000
    taps[0] = taps[-1] = "0.5"
    (tmp_path / "long.txt").write_text(f"name: long\nstart: 0\ncoeffs: {' '.join(taps)}\n")
    if budget is not None:
        monkeypatch.setattr(wavekit.errors, "_BYTE_BUDGET", budget)
    argv = [a.format(far="far.txt", int64="int64.txt", long="long.txt") for a in argv]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_filter_start_counts_mod_n(tmp_path):
    """A filter at start 10^12 (a multiple of 64) passes verify and gives the
    64-sample dwt1d container of the same taps at start 0."""
    sig = tmp_path / "x.csv"
    write_signal_csv(str(sig), RNG.standard_normal(64))
    outs = []
    for start in (0, 10**12):
        path = tmp_path / f"f{start}.txt"
        path.write_text(f"name: x\nstart: {start}\ncoeffs: {_DB4_TAPS}\n")
        assert run_cli("verify", "--filter", str(path), "--lawton").returncode == 0
        out = tmp_path / f"{start}.pyr"
        assert run_cli("transform", "dwt1d", "--in", str(sig), "--filter", str(path),
                       "--out", str(out)).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- the contract over generated command lines --------------------------------------

# Each flag's values: the good ones, then the bad ones (malformed, missing and
# wrong-kind files, unwritable outputs, outputs that may name the file of
# another output or of an input, and zero, negative, huge, NaN and
# non-numeric numbers).
_FUZZ_FLAGS = {
    "--filter": (("haar", "db4", "in/f.txt", "stretched_haar"),
                 ("nosuch", "in/bad.txt", "in/hat.txt", "in/empty.txt", "in/missing.txt", "in")),
    "--in": (("in/x.csv", "in/i.pgm", "in/x.pyr", "in/i.pyr"),
             ("in/short.csv", "in/zero.csv", "in/bad.txt", "in/empty.txt", "in/missing.txt", "in")),
    "--out": (("o.pyr", "o.csv", "o.pgm"),
              ("none/o.csv", "in", "", "in/", "in/x.csv", "in/i.pgm", "in/x.pyr", "in/f.txt")),
    "--preview": (("p.pgm",), ("none/p.pgm", "in", "", "o.pyr", "./o.pgm", "in/i.pgm")),
    "--heatmap": (("h.pgm",), ("none/h.pgm", "in", "", "o.csv", "o.recon.csv", "in/x.csv")),
    "--levels": (("1", "2"), ("0", "-1", "99", "3.5", "abc")),
    "--quantize": (("0.5",), ("0", "-1", "nan", "inf", "1e-320", "abc")),
    "--tol": (("1e-10", "0"), ("-1", "nan", "inf", "abc")),
    "--cuntz-n": (("8", "16"), ("0", "-4", "7", str(10**12), "abc")),
    "--resolution": (("3", "0"), ("-2", "25", "x", "9" * 20)),
    "--which": (("phi", "psi"), ("chi",)),
    "--wavelet": (("mexican_hat", "haar", "cascade:db4:3", "cascade:in/f.txt:2"),
                  ("gaussian", "cascade:haar:x", "cascade::3", "nosuch")),
    "--scales": (("4:16:2", "8:32:3"),
                 ("16:4:2", "0:8:4", "4:16:0", "a:b:c", "4:16", "nan:8:2", "1e-300:1e300:8")),
}
# Each subcommand's flags, the ones a run needs first.
_FUZZ_COMMANDS = {
    "verify": (("--filter",), ("--tol", "--cuntz-n", "--lawton")),
    "transform": (("--in", "--out", "--filter"), ("--levels", "--preview", "--quantize")),
    "cascade": (("--filter", "--resolution", "--out"), ("--which",)),
    "cwt": (("--in", "--wavelet", "--scales"), ("--out", "--heatmap", "--invert")),
}
_FUZZ_MODES = {"dwt1d": "in/x.csv", "idwt1d": "in/x.pyr", "dwt2d": "in/i.pgm", "idwt2d": "in/i.pyr"}


def _fuzz_argv(rng: np.random.Generator) -> list[str]:
    """One command line: a subcommand (and, for transform, a mode or a bad
    one), each flag a run needs with probability 0.95 and each other flag
    with probability 0.5, now and then a flag of another subcommand; each
    value good with probability 0.75, else bad. A good transform input is
    the one its mode reads."""
    command = str(rng.choice(list(_FUZZ_COMMANDS)))
    argv = [command]
    good = dict(_FUZZ_FLAGS)
    if command == "transform":
        argv.append(str(rng.choice(list(_FUZZ_MODES) + ["dwt3d"])))
        good["--in"] = ((_FUZZ_MODES.get(argv[1], "in/x.csv"),), _FUZZ_FLAGS["--in"][1])
    required, optional = _FUZZ_COMMANDS[command]
    flags = [(flag, 0.95) for flag in required] + [(flag, 0.5) for flag in optional]
    if rng.random() < 0.1:
        flags.append((str(rng.choice(list(_FUZZ_FLAGS))), 1.0))
    for flag, chance in flags:
        if rng.random() < chance:
            argv.append(flag)
            if flag in _FUZZ_FLAGS:
                argv.append(str(rng.choice(good[flag][rng.random() >= 0.75])))
    return argv


def _fuzz_inputs(folder: Path) -> None:
    folder.mkdir()
    x = np.sin(np.arange(64.0) / 3)
    write_signal_csv(str(folder / "x.csv"), x)
    write_signal_csv(str(folder / "short.csv"), x[:6])
    write_signal_csv(str(folder / "zero.csv"), np.zeros(32))
    write_pgm(str(folder / "i.pgm"), np.arange(256.0).reshape(16, 16))
    (folder / "f.txt").write_text(f"name: x\nstart: 3\ncoeffs: {_DB4_TAPS}\n")
    (folder / "hat.txt").write_text("name: hat\nstart: 0\ncoeffs: 0.25 0.5 0.25\n")
    (folder / "bad.txt").write_text("name: x\nstart: 0\ncoeffs: 0.5 abc\n")
    (folder / "empty.txt").write_text("")
    from wavekit import builtin_filter, dwt1d, dwt2d
    from wavekit.io import write_pyramid_container

    f = builtin_filter("db4")
    write_pyramid_container(str(folder / "x.pyr"), dwt1d(x, f, 2), "db4")
    write_pyramid_container(str(folder / "i.pyr"), dwt2d(read_pgm(str(folder / "i.pgm")), f, 2), "db4")


def _tree(folder: Path) -> dict:
    return {str(p.relative_to(folder)): p.read_bytes() for p in folder.rglob("*") if p.is_file()}


def _read_dyadic(path: str) -> None:
    assert {len(row.split(",")) for row in Path(path).read_text().splitlines()} == {2}


def _read_scalogram(path: str) -> None:
    rows = [row.split(",") for row in Path(path).read_text().splitlines()]
    assert (rows[0][0], rows[1][0]) == ("scales", "shifts")
    assert [len(row) for row in rows[2:]] == [len(rows[1]) - 1] * (len(rows[0]) - 1)


def _read_back(argv: list[str]) -> set:
    """Read each file a command line that exited 0 names as what its command
    writes there: a container, a PGM image, a signal, x,value rows or a
    scalogram. Returns their paths."""
    from wavekit.cli import _recon_path

    flag = dict(zip(argv, argv[1:]))
    written = []
    if argv[0] == "transform":
        readers = {"dwt1d": read_pyramid_container, "dwt2d": read_pyramid_container,
                   "idwt1d": read_signal_csv, "idwt2d": read_pgm}
        written.append((flag["--out"], readers[argv[1]]))
        written += [(flag["--preview"], read_pgm)] if "--preview" in flag else []
    elif argv[0] == "cascade":
        written.append((flag["--out"], _read_dyadic))
    elif argv[0] == "cwt":
        written += [(flag["--out"], _read_scalogram)] if "--out" in flag else []
        written += [(flag["--heatmap"], read_pgm)] if "--heatmap" in flag else []
        written += [(_recon_path(flag["--out"]), read_signal_csv)] if "--invert" in argv else []
    for path, read in written:
        read(path)
    return {os.path.normpath(path) for path, _ in written}


def _reads(argv: list[str]) -> set:
    """The paths of the files a command line may read: --in, --filter and the
    filter of a cascade wavelet."""
    flag = dict(zip(argv, argv[1:]))
    wavelet = flag.get("--wavelet", "")
    cascade = wavelet[len("cascade:"):].rpartition(":")[0] if wavelet.startswith("cascade:") else None
    return {os.path.normpath(p) for p in (flag.get("--in"), flag.get("--filter"), cascade) if p}


def test_generated_command_lines_keep_the_exit_contract(tmp_path, monkeypatch, capsys):
    """500 seeded command lines, run in-process: none ends in a traceback;
    each exits 0, 1, 2 or 3; a refusal (2 or 3) prints exactly one error
    line (for argparse's usage errors, a usage text and one error line) and
    leaves the folder as it found it, inputs and outputs alike. A line that
    exits 0 changes no file it reads, and each output it names reads back as
    what its command writes there."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    _fuzz_inputs(tmp_path / "in")
    before = _tree(tmp_path)
    rng = np.random.default_rng(20261020)
    statuses = set()
    for _ in range(500):
        argv = _fuzz_argv(rng)
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - any other escape is the failure sought
            pytest.fail(f"{argv} raised {exc!r}")
        out, err = capsys.readouterr()
        statuses.add(status)
        assert status in (0, 1, 2, 3), argv
        assert "Traceback" not in out + err, argv
        after = _tree(tmp_path)
        if status in (2, 3):
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and err.rstrip("\n").endswith(errors[0]), (argv, err)
            assert after == before, argv
        # A file changes only as an output of a line that exits 0, never as one it reads.
        changed = {name for name, data in before.items() if after.get(name) != data}
        assert changed <= (_read_back(argv) if status == 0 else set()) - _reads(argv), argv
        for name in changed:
            (tmp_path / name).write_bytes(before[name])
        for name in set(after) - set(before):
            (tmp_path / name).unlink()
    assert statuses == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "dwt2d", "--in", "i.pgm", "--filter", "haar", "--out", "o.pyr",
          "--preview", "none/p.pgm"], "cannot write 'none/p.pgm': no such directory"),
        (["transform", "dwt2d", "--in", "i.pgm", "--filter", "haar", "--out", "o.pyr",
          "--preview", "."], "cannot write '.': not a file name"),
        (["transform", "dwt2d", "--in", "i.pgm", "--filter", "haar", "--out", "o.pyr",
          "--preview", ""], "cannot write '': not a file name"),
        (["cwt", "--in", "x.csv", "--wavelet", "haar", "--scales", "4:16:2", "--out", "o.csv",
          "--heatmap", "none/h.pgm"], "cannot write 'none/h.pgm': no such directory"),
        (["cwt", "--in", "x.csv", "--wavelet", "haar", "--scales", "4:16:2", "--out", "o.csv",
          "--invert"], "cannot write 'o.recon.csv': not a file name"),
    ],
    ids=["preview-no-directory", "preview-is-directory", "preview-empty", "heatmap-no-directory",
         "recon-is-directory"],
)
def test_an_unwritable_second_output_is_refused_before_the_first(tmp_path, monkeypatch, capsys,
                                                                  argv, message):
    """A command with two outputs, the second of which cannot be written,
    exits 2 with one error line before it writes the first."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    write_pgm("i.pgm", np.arange(256.0).reshape(16, 16))
    write_signal_csv("x.csv", np.sin(np.arange(64.0) / 3))
    (tmp_path / "o.recon.csv").mkdir()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["i.pgm", "o.recon.csv", "x.csv"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "dwt2d", "--in", "i.pgm", "--filter", "db4", "--out", "p.pyr",
          "--preview", "p.pyr"], "cannot write 'p.pyr': --out and --preview name one file"),
        (["transform", "dwt2d", "--in", "i.pgm", "--filter", "db4", "--out", "p.pyr",
          "--preview", "./sub/../p.pyr"],
         "cannot write './sub/../p.pyr': --out and --preview name one file"),
        (["cwt", "--in", "x.csv", "--wavelet", "haar", "--scales", "4:16:2", "--out", "sc.csv",
          "--heatmap", "sc.csv"], "cannot write 'sc.csv': --out and --heatmap name one file"),
        (["cwt", "--in", "x.csv", "--wavelet", "haar", "--scales", "4:16:2", "--out", "sc.csv",
          "--invert", "--heatmap", "sc.recon.csv"],
         "cannot write 'sc.recon.csv': --heatmap and the --invert reconstruction name one file"),
        (["cwt", "--in", "x.csv", "--wavelet", "haar", "--scales", "4:16:2", "--out", "link.csv",
          "--invert"],
         "cannot write 'link.recon.csv': --out and the --invert reconstruction name one file"),
    ],
    ids=["out-preview", "out-preview-resolved", "out-heatmap", "heatmap-recon", "out-recon-link"],
)
def test_two_outputs_that_name_one_file_are_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                                    argv, message):
    """Two outputs of one command that resolve to one file, by name, by a
    path through another folder or by a link, exit 2 with one error line
    before anything is written."""
    from wavekit.cli import main

    monkeypatch.chdir(tmp_path)
    write_pgm("i.pgm", np.arange(256.0).reshape(16, 16))
    write_signal_csv("x.csv", np.sin(np.arange(64.0) / 3))
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.recon.csv").symlink_to(tmp_path / "link.csv")
    before = _tree(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "dwt1d", "--in", "x.csv", "--filter", "db4", "--out", "x.csv"],
         "cannot write 'x.csv': --in and --out name one file"),
        (["cascade", "--filter", "f.txt", "--resolution", "3", "--out", "f.txt"],
         "cannot write 'f.txt': --filter and --out name one file"),
        (["cwt", "--in", "x.csv", "--wavelet", "mexican_hat", "--scales", "1:8:2",
          "--heatmap", "x.csv"], "cannot write 'x.csv': --in and --heatmap name one file"),
        (["transform", "idwt1d", "--in", "x.pyr", "--filter", "f.txt", "--out", "sub/../f.txt"],
         "cannot write 'sub/../f.txt': --filter and --out name one file"),
        (["cwt", "--in", "x.csv", "--wavelet", "cascade:f.txt:3", "--scales", "4:16:2",
          "--out", "link.txt"], "cannot write 'link.txt': --wavelet and --out name one file"),
    ],
    ids=["dwt1d-in-out", "cascade-filter-out", "cwt-in-heatmap", "idwt1d-filter-out-resolved",
         "cwt-cascade-filter-out-link"],
)
def test_an_output_that_names_an_input_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                                   argv, message):
    """An output that resolves to a file the command reads (--in, a --filter
    file or the filter file of a cascade wavelet), by name, through another
    folder or by a link, exits 2 with one error line and leaves every file
    as it was."""
    from wavekit import builtin_filter, dwt1d
    from wavekit.cli import main
    from wavekit.io import write_pyramid_container

    monkeypatch.chdir(tmp_path)
    x = np.sin(np.arange(64.0) / 3)
    write_signal_csv("x.csv", x)
    write_pyramid_container("x.pyr", dwt1d(x, builtin_filter("db4"), 2), "db4")
    (tmp_path / "f.txt").write_text(f"name: x\nstart: 0\ncoeffs: {_DB4_TAPS}\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(tmp_path / "f.txt")
    before = _tree(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _tree(tmp_path) == before
