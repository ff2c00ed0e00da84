"""Correctness checks computed apart from wavekit.

Every check returns a list of problems (empty when the output is right).
None of them calls into wavekit: the references are written here from the
definitions (FFT circular correlation for the filter bank, the closed-form
Mexican hat for the scalogram, the two-scale identity for the cascade).
Each workload's ``perturbed`` (workloads.py) feeds these checks deliberately
damaged outputs; a check that accepts one makes the run incorrect.
"""
from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

#: Relative error allowed in pyramid round trips, first levels and energy.
PYRAMID_TOL = 1e-10
#: Scalogram cells: error relative to the peak of their row.
CELL_TOL = 1e-9
#: icwt relative L2 error bounds (criterion 8 uses 0.05 for the Mexican hat;
#: the step-interpolated cascade wavelet is rougher).
INVERSION_BOUND = {"mexican_hat": 0.05, "cascade": 0.1}
#: Cascade values: Riemann sum and two-scale identity.
CASCADE_TOL = 1e-9


def highpass(h: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """g_k = (-1)^k h_{1-k} for a real filter, with its start index."""
    gstart = 2 - start - h.size
    ks = np.arange(gstart, gstart + h.size)
    return np.where(ks % 2 == 0, 1.0, -1.0) * h[1 - ks - start], gstart


def analyze_axis(x: np.ndarray, c: np.ndarray, start: int, axis: int) -> np.ndarray:
    """sqrt(2) * sum_t c_t x[(2i + start + t) mod n] along ``axis``, as one
    FFT circular correlation followed by keeping the even lags."""
    n = x.shape[axis]
    kernel = np.zeros(n)
    np.add.at(kernel, (start + np.arange(c.size)) % n, c)
    shape = [1] * x.ndim
    shape[axis] = -1
    spectrum = np.fft.rfft(x, axis=axis) * np.conj(np.fft.rfft(kernel)).reshape(shape)
    full = np.fft.irfft(spectrum, n=n, axis=axis)
    return SQRT2 * np.take(full, np.arange(0, n, 2), axis=axis)


def _rel(a, b) -> float:
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale


# ---------------------------------------------------------------------------
# pyramid


def first_level_1d(label, x, detail1, h, start) -> list[str]:
    """Level-1 details of a (batch of) 1-d signal(s) along the last axis."""
    g, gstart = highpass(h, start)
    err = _rel(detail1, analyze_axis(x, g, gstart, axis=-1))
    return [] if err <= PYRAMID_TOL else [f"{label}: level-1 details off by {err:.3g}"]


def first_level_2d(label, img, planes, h, start) -> list[str]:
    """Level-1 (h, v, d) planes: rows (axis 1) first, then columns."""
    g, gstart = highpass(h, start)
    low_x = analyze_axis(img, h, start, axis=1)
    high_x = analyze_axis(img, g, gstart, axis=1)
    ref = {
        "h": analyze_axis(high_x, h, start, axis=0),
        "v": analyze_axis(low_x, g, gstart, axis=0),
        "d": analyze_axis(high_x, g, gstart, axis=0),
    }
    out = []
    for name, plane in zip("hvd", planes):
        err = _rel(plane, ref[name])
        if err > PYRAMID_TOL:
            out.append(f"{label}: level-1 {name} plane off by {err:.3g}")
    return out


def roundtrip(label, x, rec, tol=PYRAMID_TOL) -> list[str]:
    err = _rel(rec, x)
    return [] if err <= tol else [f"{label}: reconstruction off by {err:.3g}"]


def energy(label, x, bands) -> list[str]:
    """||x||^2 equals the summed band energies (orthonormal analysis)."""
    total = float(np.sum(np.abs(x) ** 2))
    parts = sum(float(np.sum(np.abs(b) ** 2)) for b in bands)
    err = abs(total - parts) / total
    return [] if err <= PYRAMID_TOL else [f"{label}: band energy off by {err:.3g}"]


# ---------------------------------------------------------------------------
# scalogram


def mexican_hat(u: np.ndarray) -> np.ndarray:
    return (1.0 - u * u) * np.exp(-0.5 * u * u)


def step_function(x0: float, step: float, values: np.ndarray):
    """Samples extended as a step function, zero outside."""

    def evaluate(u: np.ndarray) -> np.ndarray:
        idx = np.floor((u - x0) / step).astype(int)
        ok = (idx >= 0) & (idx < values.size)
        return np.where(ok, values[np.clip(idx, 0, values.size - 1)], 0.0)

    return evaluate


def cells(label, x, matrix, scales, shifts, psi, picks) -> list[str]:
    """Trapezoid sums sum_k w_k x_k psi((k - s)/r)/sqrt(r) on a unit grid at
    the picked (row, column) cells, against the row peak."""
    w = np.ones(x.size)
    w[0] = w[-1] = 0.5
    k = np.arange(x.size, dtype=float)
    out = []
    for i, j in picks:
        r, s = scales[i], shifts[j]
        ref = float(np.sum(w * x * psi((k - s) / r))) / math.sqrt(r)
        err = abs(matrix[i, j] - ref) / max(float(np.abs(matrix[i]).max()), 1e-300)
        if err > CELL_TOL:
            out.append(f"{label}: cell (r={r:.4g}, s={s:g}) off by {err:.3g} of its row peak")
    return out


def admissibility_constant(label, value) -> list[str]:
    """The Mexican hat has C = 2 pi exactly."""
    err = abs(value - 2 * math.pi) / (2 * math.pi)
    return [] if err <= 0.01 else [f"{label}: C = {value!r} is {err:.2%} from 2 pi"]


def inversion(label, x, rec, bound) -> list[str]:
    w = np.ones(x.size)
    w[0] = w[-1] = 0.5
    err = math.sqrt(float(np.sum(w * np.abs(rec - x) ** 2)) / float(np.sum(w * np.abs(x) ** 2)))
    return [] if err <= bound else [f"{label}: icwt relative error {err:.4g} > {bound}"]


def parseval(label, ratio) -> list[str]:
    return [] if 0.95 <= ratio <= 1.0001 else [f"{label}: Parseval ratio {ratio!r} outside [0.95, 1.0001]"]


# ---------------------------------------------------------------------------
# verify


def qmf(label, h, max_residual, passed) -> list[str]:
    """Even-lag autocorrelation residuals, computed here and compared with
    the program's own maximum."""
    ac = np.correlate(h, h, mode="full")[h.size - 1 :: 2]
    ac[0] -= 0.5
    mine = float(np.abs(ac).max())
    out = []
    if mine > 1e-12:
        out.append(f"{label}: QMF residual {mine:.3g} > 1e-12")
    if not passed or abs(max_residual - mine) > 1e-14:
        out.append(f"{label}: qmf_check reports {max_residual!r} (passed={passed}), expected {mine!r}")
    return out


def cuntz(label, n, max_deviation, passed, expected_n) -> list[str]:
    if passed and n == expected_n and max_deviation <= 1e-10:
        return []
    return [f"{label}: cuntz_check n={n} deviation {max_deviation:.3g} passed={passed}"]


def lawton(label, verdict, multiplicity, bucket, expect_onb) -> list[str]:
    if expect_onb and (verdict, multiplicity, bucket) == ("ONB", 1, 1):
        return []
    if not expect_onb and verdict == "NOT_ONB" and multiplicity >= 2:
        return []
    want = "ONB" if expect_onb else "NOT_ONB with multiplicity >= 2"
    return [f"{label}: lawton {verdict} multiplicity {multiplicity}, expected {want}"]


def two_scale(label, coeffs, start, level, values, x0, phi, phi_start) -> list[str]:
    """values at x0 + m/2^J equal 2 sum_t c_t phi(2x - start - t), with phi
    on its own level-J grid starting at phi_start (phi itself for c = h)."""
    m = np.arange(values.size)
    rhs = np.zeros(values.size)
    for t, c in enumerate(coeffs):
        q = 2 * m + round((2 * x0 - start - t - phi_start) * (1 << level))
        ok = (q >= 0) & (q < phi.size)
        rhs[ok] += 2.0 * c * phi[q[ok]]
    err = float(np.abs(values - rhs).max()) / float(np.abs(phi).max())
    return [] if err <= CASCADE_TOL else [f"{label}: two-scale identity off by {err:.3g}"]


def cascade(label, h, start, level, phi, psi, psi_x0) -> list[str]:
    out = []
    total = float(phi.sum()) * 2.0**-level
    if abs(total - 1.0) > CASCADE_TOL:
        out.append(f"{label}: scaling function integrates to {total!r}")
    out += two_scale(f"{label} phi", h, start, level, phi, float(start), phi, start)
    g, gstart = highpass(h, start)
    out += two_scale(f"{label} psi", g, gstart, level, psi, psi_x0, phi, start)
    return out


# ---------------------------------------------------------------------------
# cli


def exit_status(label, got, want) -> list[str]:
    return [] if got == want else [f"{label}: exit status {got}, documented {want}"]


def exact(label, got, want) -> list[str]:
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    return [f"{label}: differs from the input"]


def bounded(label, value, bound) -> list[str]:
    return [] if value < bound else [f"{label}: {value!r} is not below {bound}"]
