"""Acceptance checks, one test per criterion.

Each test prints a single ``criterion NN ...: PASS`` line (visible with
``pytest -s``; the ``-v`` test names mirror them) and enforces the stated
tolerance and runtime budget. Timing is wall clock on a warm interpreter:
imports happen at module load, before any timer starts.
"""
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wavekit.cascade import scaling_function
from wavekit.cwt import (
    CwtGrid,
    SampledFunction,
    admissibility,
    cwt,
    icwt,
    named_wavelet,
    parseval_ratio,
)
from wavekit.filters import FilterSpec, builtin_filter, qmf_check
from wavekit.image2d import dwt2d, dwt2d_step, idwt2d, max_levels_2d
from wavekit.io import (
    read_pgm,
    read_pyramid_container,
    read_signal_csv,
    write_pgm,
    write_pyramid_container,
    write_signal_csv,
)
from wavekit.subband import cuntz_check, dwt1d, idwt1d, max_levels, subband_matrices
from wavekit.transfer import lawton_test

RNG = np.random.default_rng(1)


def _ok(num: int, label: str):
    print(f"criterion {num:02d} {label}: PASS")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wavekit", *args], capture_output=True, text=True
    )


def test_criterion_01_qmf_cuntz_equivalence():
    for name in ("haar", "db4"):
        f = builtin_filter(name)
        t0 = time.perf_counter()
        assert qmf_check(f, tol=1e-12).passed
        assert time.perf_counter() - t0 < 0.1
        t0 = time.perf_counter()
        assert cuntz_check(f, n=16, tol=1e-10).passed
        assert time.perf_counter() - t0 < 0.1
    delta = FilterSpec("delta", np.array([1.0, 0.0]), 0)
    assert not qmf_check(delta, tol=1e-12).passed
    assert not cuntz_check(delta, n=16, tol=1e-10).passed
    _ok(1, "qmf/cuntz equivalence")


def test_criterion_02_perfect_reconstruction():
    t0 = time.perf_counter()
    sizes = [8, 16, 64]
    for trial in range(100):
        n = sizes[trial % 3]
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        f = builtin_filter("db4" if trial % 2 else "haar")
        top = max_levels(n, f)
        if top == 0:
            continue
        for lev in range(1, top + 1):
            back = idwt1d(dwt1d(x, f, lev), f)
            assert np.abs(back - x).max() <= 1e-10
    f2 = builtin_filter("haar")
    for _ in range(10):
        img = RNG.standard_normal((16, 16))
        for lev in range(1, max_levels_2d((16, 16), f2) + 1):
            back = idwt2d(dwt2d(img, f2, lev), f2)
            assert np.abs(back - img).max() <= 1e-8
    assert time.perf_counter() - t0 < 1.0
    _ok(2, "perfect reconstruction")


def test_criterion_03_slant_mirror_bitwise():
    for name in ("haar", "db4"):
        m = subband_matrices(builtin_filter(name), 16)
        assert np.array_equal(m.analysis_low, np.conj(m.synthesis_low).T)
        assert np.array_equal(m.analysis_high, np.conj(m.synthesis_high).T)
    _ok(3, "slant mirror property")


def test_criterion_04_two_by_two_worked_example():
    q = dwt2d_step(np.array([[1.0, 2.0], [3.0, 4.0]]), builtin_filter("haar"))
    assert q.a[0, 0] == 5.0
    assert q.h[0, 0] == -1.0
    assert q.v[0, 0] == -2.0
    assert q.d[0, 0] == 0.0
    assert (q.a**2 + q.h**2 + q.v**2 + q.d**2).sum() == 30.0
    _ok(4, "2x2 worked example")


def test_criterion_05_lawton_verdicts():
    t0 = time.perf_counter()
    haar = lawton_test(builtin_filter("haar"))
    assert haar.verdict == "ONB"
    eigs = np.sort(haar.eigenvalues.real)
    assert np.abs(eigs - np.array([0.5, 0.5, 1.0])).max() <= 1e-8
    assert np.abs(haar.eigenvalues.imag).max() <= 1e-8
    stretched = lawton_test(builtin_filter("stretched_haar"))
    assert stretched.verdict == "NOT_ONB"
    assert stretched.multiplicity >= 2
    assert lawton_test(builtin_filter("db4")).verdict == "ONB"
    assert time.perf_counter() - t0 < 0.1
    _ok(5, "lawton verdicts")


def test_criterion_06_cascade():
    t0 = time.perf_counter()
    f = builtin_filter("db4")
    s3 = np.sqrt(3.0)
    phi0 = scaling_function(f, 0)
    assert abs(phi0.values[1] - (1 + s3) / 2) <= 1e-10
    assert abs(phi0.values[2] - (1 - s3) / 2) <= 1e-10
    phi6 = scaling_function(f, 6)
    # two-scale identity on the grid itself
    worst = 0.0
    for m in range(phi6.values.size):
        acc = 0.0
        for t in range(f.length):
            qidx = 2 * m - t * 64
            if 0 <= qidx < phi6.values.size:
                acc += 2.0 * f.h[t] * phi6.values[qidx]
        worst = max(worst, abs(phi6.values[m] - acc))
    assert worst <= 1e-10
    assert abs(phi6.riemann_integral() - 1.0) <= 1e-6
    phi8 = scaling_function(f, 8)
    v = phi8.values
    shift = 1 << 8
    assert abs(float((v * v).sum() * phi8.step) - 1.0) <= 2e-3
    shifted = np.zeros_like(v)
    shifted[shift:] = v[:-shift]
    assert abs(float((v * shifted).sum() * phi8.step)) <= 2e-3
    assert time.perf_counter() - t0 < 1.0
    _ok(6, "cascade scaling function")


def test_criterion_07_admissibility():
    psi = named_wavelet("mexican_hat")
    c1 = admissibility(psi, refine=1)
    assert abs(c1 - 2 * np.pi) / (2 * np.pi) <= 0.01
    c2 = admissibility(named_wavelet("mexican_hat"), refine=2)
    assert abs(c2 - c1) / c1 <= 0.002
    _ok(7, "admissibility constant")


def test_criterion_08_cwt_inversion():
    t0 = time.perf_counter()
    n = 256
    xs = np.arange(n, dtype=float) / n
    vals = np.exp(-0.5 * ((xs - 0.5) / 0.08) ** 2) * np.cos(2 * np.pi * 8 * xs)
    f = SampledFunction(0.0, 1.0 / n, vals)
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(scales=np.geomspace(2.0 / n, 0.5, 64), shifts=f.xs)
    rec = icwt(cwt(f, psi, grid), psi)
    rel = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
    assert rel <= 0.05
    assert time.perf_counter() - t0 < 5.0
    _ok(8, "cwt inversion")


def test_criterion_09_parseval_tight_frame():
    # the unit box concentrates at coarse scales, so the 12-octave window
    # spans j = -8..4; each widening of the range may only raise the ratio
    base = SampledFunction(-2.0, 2.0**-10, np.zeros(6 * 1024))
    vals = np.where((base.xs >= 0.0) & (base.xs < 1.0), 1.0, 0.0)
    f = SampledFunction(-2.0, 2.0**-10, vals)
    psi = named_wavelet("haar_psi")
    ratio = parseval_ratio(f, psi, (-8, 4))
    assert 0.95 <= ratio <= 1.0001
    narrower = parseval_ratio(f, psi, (-6, 3))
    narrowest = parseval_ratio(f, psi, (-4, 2))
    assert narrowest <= narrower + 1e-12
    assert narrower <= ratio + 1e-12
    _ok(9, "parseval tight frame")


def test_criterion_10_cli_contract(tmp_path):
    # criterion 1 through the CLI: exit 0 verdicts for haar/db4, exit 1 for
    # the delta filter that fails both checks
    assert run_cli("verify", "--filter", "haar").returncode == 0
    assert run_cli("verify", "--filter", "db4").returncode == 0
    delta = tmp_path / "delta.txt"
    delta.write_text("name: delta\nstart: 0\ncoeffs: 1 0\n")
    r = run_cli("verify", "--filter", str(delta))
    assert r.returncode == 1
    assert "qmf: FAIL" in r.stdout

    # criterion 5 through the CLI
    r = run_cli("verify", "--filter", "haar", "--lawton")
    assert r.returncode == 0 and "lawton: ONB" in r.stdout
    r = run_cli("verify", "--filter", "stretched_haar", "--lawton")
    assert r.returncode == 1 and "lawton: NOT_ONB" in r.stdout
    r = run_cli("verify", "--filter", "db4", "--lawton")
    assert r.returncode == 0 and "lawton: ONB" in r.stdout

    # criterion 4 through the CLI, plus bit-identical container round-trip
    img = str(tmp_path / "t.pgm")
    pyr = str(tmp_path / "t.pyr")
    write_pgm(img, np.array([[1.0, 2.0], [3.0, 4.0]]))
    r = run_cli("transform", "dwt2d", "--in", img, "--filter", "haar",
                "--levels", "1", "--out", pyr)
    assert r.returncode == 0
    p, name = read_pyramid_container(pyr)
    assert name == "haar"
    assert p.approx[0, 0] == 5.0
    assert p.details[0].h[0, 0] == -1.0
    assert p.details[0].v[0, 0] == -2.0
    assert p.details[0].d[0, 0] == 0.0
    pyr2 = str(tmp_path / "t2.pyr")
    write_pyramid_container(pyr2, p, name)
    assert Path(pyr).read_bytes() == Path(pyr2).read_bytes()

    # 1-d container round trip through the CLI is bit-identical too
    sig = str(tmp_path / "x.csv")
    pyr1d = str(tmp_path / "x.pyr")
    write_signal_csv(sig, RNG.standard_normal(32))
    assert run_cli("transform", "dwt1d", "--in", sig, "--filter", "db4",
                   "--levels", "2", "--out", pyr1d).returncode == 0
    p1, name1 = read_pyramid_container(pyr1d)
    pyr1d2 = str(tmp_path / "x2.pyr")
    write_pyramid_container(pyr1d2, p1, name1)
    assert Path(pyr1d).read_bytes() == Path(pyr1d2).read_bytes()

    # documented statuses: 2 for input errors, 3 for numeric failures
    assert run_cli("verify", "--filter", "nosuch").returncode == 2
    rec = str(tmp_path / "r.csv")
    assert run_cli("transform", "idwt1d", "--in", pyr1d, "--out", rec).returncode == 0
    assert np.abs(read_signal_csv(rec) - read_signal_csv(sig)).max() < 1e-12
    assert run_cli("cascade", "--filter", "stretched_haar", "--resolution",
                   "3", "--out", str(tmp_path / "p.csv")).returncode == 3
    _ok(10, "cli contract")
