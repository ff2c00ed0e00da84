import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavekit import errors
from wavekit.cascade import wavelet_function
from wavekit.errors import (
    AdmissibilityError,
    CatalogError,
    DomainError,
    ParameterError,
    ResolutionError,
    ShapeError,
    SizeError,
)
from wavekit.cwt import (
    AnalyzingWavelet,
    CwtCoefficients,
    CwtGrid,
    SampledFunction,
    WAVELET_NAMES,
    admissibility,
    cwt,
    dyadic_sample,
    geometric_scales,
    icwt,
    named_wavelet,
    parseval_ratio,
    wavelet_from_dyadic,
    wavelet_from_filter,
    wavelet_from_samples,
)
from wavekit.cwt import _auto_k_range, _scaled_kernel, _smooth_length, _trapezoid_weights
from wavekit.filters import builtin_filter

RNG = np.random.default_rng(31415926)

#: The module itself: the package exports the function ``cwt`` under its name.
CWT_MODULE = importlib.import_module("wavekit.cwt")


def windowed_sine(n=256, period=32.0):
    x = np.arange(n, dtype=float)
    return SampledFunction(
        x_min=0.0, dx=1.0, values=np.sin(2 * np.pi * x / period) * np.hanning(n)
    )


def bandlimited_bump(n=256):
    """Smooth bump built from a handful of low frequencies."""
    x = np.arange(n, dtype=float) / n
    vals = (
        np.exp(-0.5 * ((x - 0.5) / 0.08) ** 2)
        * np.cos(2 * np.pi * 8 * x)
    )
    return SampledFunction(x_min=0.0, dx=1.0 / n, values=vals)


# --- sampled functions ----------------------------------------------------


def test_sampled_function_grid():
    f = SampledFunction(1.0, 0.5, np.arange(4.0))
    assert f.size == 4
    assert f.x_max == pytest.approx(2.5)
    assert_allclose(f.xs, [1.0, 1.5, 2.0, 2.5], atol=0)
    w = f.trapezoid_weights()
    assert_allclose(w, [0.25, 0.5, 0.5, 0.25], atol=0)


def test_sampled_function_validation():
    for x_min, dx in ((0.0, 0.0), (0.0, -1.0), (0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                      (np.inf, 1.0), (-np.inf, 1.0)):
        with pytest.raises(ParameterError):
            SampledFunction(x_min, dx, np.ones(4))


@pytest.mark.parametrize(
    "x_min, dx, n_samples, error",
    [(np.nan, 1.0, 16, ParameterError), (np.inf, 1.0, 16, ParameterError),
     (0.0, 0.0, 16, ParameterError), (0.0, -1.0, 16, ParameterError),
     (0.0, np.nan, 16, ParameterError), (0.0, np.inf, 16, ParameterError),
     (0.0, 1.0, 0, SizeError), (0.0, 1.0, -3, SizeError), (0.0, 1.0, 2.5, SizeError)],
)
def test_cwt_coefficients_refuse_a_bad_sample_grid(x_min, dx, n_samples, error):
    """The signal grid that ``icwt`` inverts onto needs a finite start, a
    finite positive step and a positive whole number of samples (2.5 would
    make a grid of 3); each bad field is refused
    by the error type ``SampledFunction`` uses for it, before ``icwt`` could
    index an empty grid or divide by a zero step."""
    grid = CwtGrid([1.0, 2.0], np.arange(16.0))
    with pytest.raises(error):
        CwtCoefficients(np.zeros(grid.shape), grid, x_min, dx, n_samples)


@pytest.mark.parametrize(
    "values, error",
    [(np.ones((2, 3)), ShapeError), (np.array([]), SizeError)],
    ids=["2-d", "empty"],
)
def test_sampled_function_refuses_bad_values(values, error):
    with pytest.raises(error):
        SampledFunction(0.0, 1.0, values)


@pytest.mark.parametrize("support", [(-np.inf, 1.0), (0.0, np.nan), (0.0, np.inf)])
def test_analyzing_wavelet_refuses_a_non_finite_support(support):
    with pytest.raises(ParameterError, match="finite interval"):
        AnalyzingWavelet("w", support, np.sin)


def test_norm_matches_closed_form():
    f = SampledFunction(0.0, 0.01, np.ones(101))
    assert f.norm() == pytest.approx(1.0, rel=1e-12)


def test_one_trapezoid_rule_and_its_single_points():
    """One rule for every trapezoid sum: half of each step to either end. A
    lone sample keeps its step, so its norm is |v| sqrt(dx); a lone scale or
    shift weighs zero (icwt of one scale is the zero function)."""
    assert_allclose(_trapezoid_weights(np.diff([1.0, 2.0, 4.0, 4.5])), [0.5, 1.5, 1.25, 0.25], atol=0)
    assert_allclose(_trapezoid_weights(np.array([])), [0.0], atol=0)
    assert SampledFunction(2.0, 0.5, np.array([-3.0])).norm() == pytest.approx(3.0 * math.sqrt(0.5), rel=1e-15)


# --- catalog ----------------------------------------------------------------


def test_catalog_names():
    assert set(WAVELET_NAMES) == {"mexican_hat", "haar_psi", "gaussian"}
    with pytest.raises(CatalogError):
        named_wavelet("sombrero")


def test_mexican_hat_shape():
    psi = named_wavelet("mexican_hat")
    assert psi.evaluate(np.array([0.0]))[0] == pytest.approx(1.0)
    # zero crossings at |x| = 1
    assert psi.evaluate(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
    # negligible outside the stated support (catalog entries truncate where
    # the tail drops below 1e-10 of the peak)
    lo, hi = psi.support
    assert np.abs(psi.evaluate(np.array([lo - 1.0, hi + 1.0]))).max() < 1e-13


def test_mexican_hat_far_out_is_zero_not_nan():
    """Past |x| = 1.4e154, x * x overflows; psi there is 0, not NaN (inf * 0),
    at j = 1023 on 600 points from -2 at dx = 0.01. On a grid across the
    +-8 support the clamp leaves the bits of (1 - x^2) exp(-x^2 / 2)."""
    psi = named_wavelet("mexican_hat")
    grid = SampledFunction(-2.0, 0.01, np.zeros(600))
    with np.errstate(over="ignore"):  # 2^1023 x itself overflows for |x| >= 2
        values = dyadic_sample(psi, 1023, 0, grid).values
    assert not np.isnan(values).any()
    x = np.linspace(-8.0, 8.0, 16001)
    assert psi.evaluate(x).tobytes() == ((1.0 - x * x) * np.exp(-0.5 * x * x)).tobytes()


def test_haar_psi_values():
    psi = named_wavelet("haar_psi")
    xs = np.array([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0])
    assert_allclose(psi.evaluate(xs), [0, 1, 1, -1, -1, 0], atol=0)


# --- admissibility ----------------------------------------------------------


def test_mexican_hat_admissibility_two_pi():
    """The second Gaussian derivative has C = 2 pi exactly."""
    c = admissibility(named_wavelet("mexican_hat"))
    assert abs(c - 2 * np.pi) / (2 * np.pi) < 0.01


def test_admissibility_refinement_stable():
    psi = named_wavelet("mexican_hat")
    c1 = admissibility(psi, refine=1)
    c2 = admissibility(psi, refine=2)
    assert abs(c2 - c1) / c1 < 0.002


def test_admissibility_cached():
    psi = named_wavelet("mexican_hat")
    assert admissibility(psi) is admissibility(psi)  # float identity via cache


def test_admissibility_constant_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        AnalyzingWavelet("x", (0.0, 1.0), named_wavelet("haar_psi").fn, _c=42.0)


def test_replaced_wavelet_recomputes_admissibility():
    mex = named_wavelet("mexican_hat")
    assert admissibility(mex) == pytest.approx(2 * np.pi, rel=0.01)
    haar = named_wavelet("haar_psi")
    swapped = dataclasses.replace(mex, fn=haar.fn, support=(0.0, 1.0))
    assert admissibility(swapped) == admissibility(haar)


def test_wavelet_fields_cannot_change_under_cached_constant():
    psi = named_wavelet("mexican_hat")
    c = admissibility(psi)
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.fn = named_wavelet("haar_psi").fn
    assert admissibility(psi) is c


def test_icwt_reuses_cached_admissibility():
    """Once the constant is known, icwt after a cwt on the same ladder
    evaluates psi nowhere (the kernel spectra are held), and on a fresh
    wavelet only for its own kernels (2n - 1 lags per scale)."""
    f = windowed_sine(n=64)
    counted, count = counting(named_wavelet("mexican_hat"))
    admissibility(counted)
    c = cwt(f, counted, CwtGrid(scales=geometric_scales(1.0, 8.0, 2), shifts=f.xs))
    before = count[0]
    icwt(c, counted)
    assert count[0] == before
    fresh, fresh_count = counting(named_wavelet("mexican_hat"))
    admissibility(fresh)
    before = fresh_count[0]
    icwt(c, fresh)
    assert fresh_count[0] - before == c.scales.size * (2 * f.size - 1)


def test_haar_psi_admissibility_two_log_two():
    # C = 2 ln 2 for the square-wave wavelet; the step spectrum decays
    # slowly, so allow a relaxed 1% here
    c = admissibility(named_wavelet("haar_psi"))
    assert abs(c - 2 * math.log(2.0)) / (2 * math.log(2.0)) < 0.01


def test_gaussian_is_inadmissible():
    with pytest.raises(AdmissibilityError):
        admissibility(named_wavelet("gaussian"))


def test_admissibility_needs_no_numpy_trapezoid(monkeypatch):
    """The half-axis sums use the module's own trapezoid weights, so numpy
    releases without ``np.trapezoid`` (before 2.0) give the same constant."""
    monkeypatch.delattr(np, "trapezoid", raising=False)
    c = admissibility(named_wavelet("mexican_hat"))
    assert c == pytest.approx(6.283162955890356, rel=1e-12)


def test_admissibility_refine_validation():
    psi = named_wavelet("mexican_hat")
    with pytest.raises(ParameterError):
        admissibility(psi, refine=0)
    with pytest.raises(ParameterError):
        admissibility(psi, refine=1.5)


def test_cascade_wavelet_admissible():
    """Step-interpolated cascade output must pass the zero-mean gate: the
    quadrature grid aligns with the dyadic lattice, so the Riemann mean
    agrees with the exact step-function integral."""
    psi = wavelet_from_filter(builtin_filter("db4"), resolution=8)
    c = admissibility(psi)
    assert 0.1 < c < 10.0
    psi2 = wavelet_from_filter(builtin_filter("db4"), resolution=8)
    c2 = admissibility(psi2, refine=2)
    assert abs(c2 - c) / c < 0.002


def test_smooth_length_is_the_next_7_smooth_integer():
    def smooth(m):
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        return m == 1

    for n in [*range(1, 2000), 9216, 67074, 132096, 260127]:
        m = _smooth_length(n)
        assert m >= n and smooth(m) and not any(map(smooth, range(n, m))), n


def _admissibility_pair(monkeypatch, psi, refine):
    """The constant on the smooth FFT length, and on the unpadded window of
    support plus 2 pad points that the estimate used before."""
    new = CWT_MODULE._estimate_admissibility(psi, refine)
    with monkeypatch.context() as m:
        m.setattr(CWT_MODULE, "_smooth_length", lambda n: n)
        old = CWT_MODULE._estimate_admissibility(psi, refine)
    return new, old


@pytest.mark.parametrize("refine", [1, 2])
def test_mexican_hat_window_is_already_smooth(monkeypatch, refine):
    new, old = _admissibility_pair(monkeypatch, named_wavelet("mexican_hat"), refine)
    assert new == old


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("level", [None, *range(4, 11)])
def test_haar_type_constant_moves_toward_two_log_two(monkeypatch, level, refine):
    """For the square wave, catalog or cascade-built, the longer window
    refines the frequency grid: the constant moves by at most 2.5e-6 of
    itself, and toward the closed form 2 ln 2, whose distance (about 1.2e-4
    of it) the change does not grow."""
    if level is None:
        psi = named_wavelet("haar_psi")
    else:
        psi = wavelet_from_filter(builtin_filter("haar"), level)
    new, old = _admissibility_pair(monkeypatch, psi, refine)
    assert new == pytest.approx(old, rel=2.5e-6, abs=0)
    exact = 2.0 * math.log(2.0)
    assert abs(new - exact) <= abs(old - exact)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("level", range(4, 11))
def test_db4_cascade_constant_keeps_eight_digits(monkeypatch, level, refine):
    psi = wavelet_from_filter(builtin_filter("db4"), level)
    new, old = _admissibility_pair(monkeypatch, psi, refine)
    assert new == pytest.approx(old, rel=1e-8, abs=0)


def padded_window_admissibility(psi, refine):
    """The estimate as it stood with psi sampled on the whole window: the
    support padded by ``pad`` points each side, zeros on the right up to
    ``_smooth_length``, one complex FFT, and trapezoids over the fftfreq
    half-axes."""
    lo, hi = psi.support
    width = hi - lo
    target = width / (CWT_MODULE._ADMISSIBILITY_SAMPLES * refine)
    if psi.native_dx is not None:
        dx = psi.native_dx / max(1, int(np.ceil(psi.native_dx / target)))
    else:
        dx = target
    xs = lo + dx * np.arange(int(round(width / dx)))
    vals = psi.evaluate(xs)
    l1 = float(np.abs(vals).sum() * dx)
    if l1 == 0.0 or abs(complex(vals.sum() * dx)) > CWT_MODULE._MEAN_TOLERANCE * l1:
        raise AdmissibilityError("zero, or nonzero mean")
    pad = int(np.ceil(max(CWT_MODULE._ADMISSIBILITY_RADIUS, 2.0 * width) / dx))
    window = (lo - pad * dx) + dx * np.arange(xs.size + 2 * pad)
    n = CWT_MODULE._smooth_length(window.size)
    power = np.abs(dx * np.fft.fft(psi.evaluate(window), n)) ** 2
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    integrand = power / np.where(w == 0.0, 1.0, np.abs(w))
    integrand[w == 0.0] = 0.0
    total = sum(float(integrand[h] @ _trapezoid_weights(np.diff(w[h]))) for h in (w < 0.0, w > 0.0))
    if not np.isfinite(total) or total <= 0.0:
        raise AdmissibilityError("no positive quadrature")
    tail = np.abs(w) > 0.75 * np.abs(w).max()
    if integrand[tail].sum() * (2.0 * np.pi / (n * dx)) > 0.02 * total:
        raise ResolutionError("not decayed")
    return total


_FFT_LENGTHS = {
    "smooth": None,
    "odd": lambda m: m | 1,
    "even": lambda m: m + (m & 1),
}


@pytest.mark.parametrize("length", list(_FFT_LENGTHS))
@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("name", ["mexican_hat", "haar_psi", "cascade:db4:8", "morlet"])
def test_support_samples_give_the_padded_window_constant(monkeypatch, name, refine, length):
    """Transforming only the support samples, zero-padded to the same FFT
    length, gives the constant of psi sampled on the whole window to 1e-13
    relative: real and complex wavelets, even and odd lengths."""
    if length != "smooth":
        monkeypatch.setattr(CWT_MODULE, "_smooth_length", _FFT_LENGTHS[length])
    if name == "morlet":
        psi = morlet_sampled()
    elif name.startswith("cascade"):
        psi = wavelet_from_filter(builtin_filter("db4"), 8)
    else:
        psi = named_wavelet(name)
    lengths = []
    with monkeypatch.context() as m:
        m.setattr(CWT_MODULE, "_charge", lambda what, need: lengths.append(int(what.split()[-3])))
        got = CWT_MODULE._estimate_admissibility(psi, refine)
    assert lengths[0] % 2 == (length == "odd")
    assert got == pytest.approx(padded_window_admissibility(psi, refine), rel=1e-13, abs=0)


def _noise_wavelet(size, seed=5):
    """Zero-mean noise as a step function: its spectrum has not decayed at
    the sampling Nyquist frequency once a native step is one sample."""
    vals = np.random.default_rng(seed).standard_normal(size)
    return wavelet_from_samples(SampledFunction(0.0, 1.0, vals - vals.mean()), f"noise{size}")


@pytest.mark.parametrize(
    "psi",
    [
        named_wavelet("gaussian"),
        AnalyzingWavelet("zero", (0.0, 1.0), np.zeros_like),
        AnalyzingWavelet("offset_hat", (-8.0, 8.0), lambda x: named_wavelet("mexican_hat").fn(x) + 1e-3),
        _noise_wavelet(2048),
        _noise_wavelet(64),
        named_wavelet("mexican_hat"),
    ],
    ids=lambda psi: psi.name,
)
def test_admissibility_refusals_match_the_padded_window(psi):
    """AdmissibilityError and ResolutionError come on the same inputs as
    with the whole window sampled."""
    try:
        expect = padded_window_admissibility(psi, 1)
    except (AdmissibilityError, ResolutionError) as err:
        with pytest.raises(type(err)):
            CWT_MODULE._estimate_admissibility(psi, 1)
    else:
        assert CWT_MODULE._estimate_admissibility(psi, 1) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("name", ["mexican_hat", "haar_psi", *(f"cascade:db4:{j}" for j in range(6, 11))])
def test_admissibility_charge_covers_its_traced_peak(monkeypatch, name):
    """The bytes admissibility charges against the budget are at least the
    tracemalloc peak of the estimate (after one warm-up call), and one byte
    less of budget refuses it before the FFT."""
    if name.startswith("cascade"):
        psi = wavelet_from_filter(builtin_filter("db4"), int(name.rsplit(":", 1)[1]))
    else:
        psi = named_wavelet(name)
    charged = []
    monkeypatch.setattr(CWT_MODULE, "_charge", lambda what, need: charged.append(need))
    CWT_MODULE._estimate_admissibility(psi, 1)
    tracemalloc.start()
    try:
        CWT_MODULE._estimate_admissibility(psi, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charged[0] == charged[1] >= peak
    monkeypatch.setattr(CWT_MODULE, "_charge", errors._charge)
    monkeypatch.setattr(errors, "_BYTE_BUDGET", charged[0] - 1)
    with pytest.raises(SizeError, match=f"^admissibility of '{name}' on .* budget"):
        admissibility(psi)


def test_wavelet_from_dyadic_haar_matches_catalog():
    d = wavelet_function(builtin_filter("haar"), 6)
    stepwise = wavelet_from_dyadic(d)
    exact = named_wavelet("haar_psi")
    xs = np.linspace(-0.5, 1.5, 1001)
    assert_allclose(stepwise.evaluate(xs), exact.evaluate(xs), atol=1e-12)


# --- grids ------------------------------------------------------------------


def test_geometric_scales_endpoints_and_density():
    r = geometric_scales(1.0, 16.0, voices=8)
    assert r[0] == pytest.approx(1.0)
    assert r[-1] == pytest.approx(16.0)
    assert r.size == 33  # 4 octaves * 8 voices + 1
    ratios = r[1:] / r[:-1]
    assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_geometric_scales_degenerate_and_invalid():
    assert_allclose(geometric_scales(2.0, 2.0), [2.0], atol=0)
    with pytest.raises(DomainError):
        geometric_scales(0.0, 4.0)
    with pytest.raises(DomainError):
        geometric_scales(4.0, 2.0)
    with pytest.raises(ParameterError):
        geometric_scales(1.0, 4.0, voices=0)


def test_grid_validation():
    with pytest.raises(DomainError):
        CwtGrid(scales=np.array([1.0, 1.0]), shifts=np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        CwtGrid(scales=np.array([-1.0]), shifts=np.array([0.0]))
    g = CwtGrid(scales=np.array([1.0, 2.0]), shifts=np.array([0.0, 1.0, 2.0]))
    assert g.shape == (2, 3)


@pytest.mark.parametrize(
    "scales, shifts, error",
    [
        ([], [0.0], SizeError),
        ([1.0], [], SizeError),
        ([1.0, np.inf], [0.0], DomainError),
        ([1.0], [0.0, np.nan], DomainError),
    ],
    ids=["no-scales", "no-shifts", "infinite-scale", "nan-shift"],
)
def test_grid_refuses_empty_or_non_finite_values(scales, shifts, error):
    with pytest.raises(error):
        CwtGrid(scales=np.array(scales), shifts=np.array(shifts))


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (3,)])
def test_coefficients_refuse_a_matrix_off_their_grid(shape):
    grid = CwtGrid(scales=np.array([1.0, 2.0]), shifts=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ShapeError, match="does not match grid"):
        CwtCoefficients(np.zeros(shape), grid, 0.0, 1.0, 3)


# --- forward transform ------------------------------------------------------


def test_cwt_matrix_shape_and_metadata():
    f = windowed_sine()
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(scales=geometric_scales(2.0, 16.0, 4), shifts=f.xs)
    c = cwt(f, psi, grid)
    assert c.matrix.shape == (grid.scales.size, 256)
    assert c.n_samples == 256
    assert_allclose(c.sample_grid(), f.xs, atol=0)


def test_cwt_resolution_guard():
    f = windowed_sine()
    psi = named_wavelet("mexican_hat")
    tiny = CwtGrid(scales=np.array([0.01]), shifts=f.xs)
    with pytest.raises(ResolutionError):
        cwt(f, psi, tiny)


def test_cwt_linearity():
    psi = named_wavelet("mexican_hat")
    a = windowed_sine()
    b = SampledFunction(0.0, 1.0, RNG.standard_normal(256))
    grid = CwtGrid(scales=np.array([4.0, 8.0]), shifts=np.arange(0.0, 256.0, 8))
    ca = cwt(a, psi, grid).matrix
    cb = cwt(b, psi, grid).matrix
    combined = SampledFunction(0.0, 1.0, 2.0 * a.values - 3.0 * b.values)
    cc = cwt(combined, psi, grid).matrix
    assert_allclose(cc, 2.0 * ca - 3.0 * cb, atol=1e-10)


def test_cwt_shift_covariance():
    """Rolling a signal that vanishes at the edges by one grid step shifts
    each coefficient row by one shift slot (the shift grid is the sample
    grid)."""
    f = windowed_sine()
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(scales=np.array([4.0]), shifts=f.xs)
    c0 = cwt(f, psi, grid).matrix[0]
    rolled = SampledFunction(0.0, 1.0, np.roll(f.values, 1))
    c1 = cwt(rolled, psi, grid).matrix[0]
    # interior slots move one to the right; edges are tainted by the
    # trapezoid end weights, so compare away from them
    assert_allclose(c1[32:224], c0[31:223], atol=1e-8)


def test_cwt_scale_covariance():
    """Dilating the input by 2 maps coefficients at (r, s) to sqrt(2) times
    the coefficients of the original at (r/2, s/2), on a continuum; the
    sampled version reproduces it to quadrature accuracy."""
    psi = named_wavelet("mexican_hat")
    n = 512
    xs = np.arange(n, dtype=float)
    base = np.exp(-0.5 * ((xs - 256) / 24.0) ** 2) * np.cos(2 * np.pi * xs / 64)
    f = SampledFunction(0.0, 1.0, base)
    # f(x/2) on a doubled grid keeps the same sample values
    f2 = SampledFunction(0.0, 2.0, base)
    g1 = CwtGrid(scales=np.array([8.0]), shifts=np.array([256.0]))
    g2 = CwtGrid(scales=np.array([16.0]), shifts=np.array([512.0]))
    c1 = cwt(f, psi, g1).matrix[0, 0]
    c2 = cwt(f2, psi, g2).matrix[0, 0]
    assert c2 == pytest.approx(math.sqrt(2.0) * c1, rel=1e-6)


def test_cwt_peak_tracks_oscillation():
    """For a windowed sine the peak response scale sits near sqrt(2)/w0 for
    the mexican hat (within a couple of voices; the r^(1/2) coefficient
    normalization biases the discrete argmax upward)."""
    f = windowed_sine(period=32.0)
    psi = named_wavelet("mexican_hat")
    scales = geometric_scales(1.0, 48.0, voices=8)
    c = cwt(f, psi, CwtGrid(scales=scales, shifts=f.xs))
    peak_scale = scales[np.argmax(np.abs(c.matrix).max(axis=1))]
    w0 = 2 * np.pi / 32.0
    predicted = math.sqrt(2.0) / w0
    octaves_off = abs(math.log2(peak_scale / predicted))
    assert octaves_off <= 2.0 / 8.0  # within two voices


# --- inversion ---------------------------------------------------------------


def test_icwt_reconstructs_bump():
    f = bandlimited_bump()
    psi = named_wavelet("mexican_hat")
    # 64 scales x 256 shifts
    grid = CwtGrid(
        scales=np.geomspace(2.0 / 256.0, 0.5, 64), shifts=f.xs
    )
    c = cwt(f, psi, grid)
    rec = icwt(c, psi)
    err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
    assert err <= 0.05


def test_icwt_single_scale_degenerates_to_zero():
    f = windowed_sine()
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(scales=np.array([8.0]), shifts=f.xs)
    rec = icwt(cwt(f, psi, grid), psi)
    assert_allclose(rec.values, 0.0, atol=0)


def test_icwt_preserves_grid():
    f = windowed_sine(n=64)
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(scales=np.geomspace(2.0, 16.0, 16), shifts=f.xs)
    rec = icwt(cwt(f, psi, grid), psi)
    assert rec.x_min == f.x_min
    assert rec.dx == f.dx
    assert rec.size == f.size


# --- FFT correlation against the dense kernel -------------------------------


def dense_cwt_matrix(f, psi, grid):
    """Reference cwt: one dense (shifts x n) kernel per scale."""
    weighted = f.values * f.trapezoid_weights()
    offsets = f.xs[None, :] - grid.shifts[:, None]
    return np.stack(
        [np.conj(_scaled_kernel(psi, offsets, float(r))) @ weighted for r in grid.scales]
    )


def dense_icwt_values(c, psi):
    """Reference icwt: the dense kernel summed scale by scale."""
    xs = c.sample_grid()
    wr = _trapezoid_weights(np.diff(c.scales))
    ws = _trapezoid_weights(np.diff(c.shifts))
    offsets = xs[None, :] - c.shifts[:, None]
    out = np.zeros(xs.size, dtype=c.matrix.dtype)
    for i, r in enumerate(c.scales):
        out += (wr[i] / (r * r)) * ((c.matrix[i] * ws) @ _scaled_kernel(psi, offsets, float(r)))
    return out * (2.0 / admissibility(psi))


def counting(psi):
    """The same wavelet, counting the points it is evaluated at."""
    count = [0]

    def fn(x):
        count[0] += x.size
        return psi.fn(x)

    return AnalyzingWavelet(psi.name, psi.support, fn, psi.native_dx), count


def support_lag_count(psi, n, dx, scales):
    """The psi samples of one ladder: per block of scales (as many as fit
    ``_BLOCK_BYTES`` of spectra), every scale at each lag k dx, |k| < n, in
    [x_lo, x_hi), the lowest and highest ends of the block's r * support,
    and at the nearest lag beyond each end (below x_lo, at or above x_hi)."""
    step = max(1, CWT_MODULE._BLOCK_BYTES // (16 * _smooth_length(2 * n - 1)))
    lags = dx * np.arange(1 - n, n)
    total = 0
    for lo in range(0, scales.size, step):
        r = scales[lo : lo + step]
        x_lo, x_hi = min(r * psi.support[0]), max(r * psi.support[1])
        inside = int(((lags >= x_lo) & (lags < x_hi)).sum())
        total += r.size * (inside + int(lags[0] < x_lo) + int(lags[-1] >= x_hi))
    return total


def morlet_sampled():
    """A complex wavelet (w0 = 6, mean below the zero-mean gate) given by
    samples, so it evaluates as a step function."""
    x = -6.0 + np.arange(12 * 32) / 32.0
    vals = np.exp(6j * x - 0.5 * x * x)
    return wavelet_from_samples(SampledFunction(-6.0, 1.0 / 32.0, vals), "morlet")


def agreement_case(name):
    """(signal, wavelet, scales) for one agreement case."""
    n = 256
    real = RNG.standard_normal(n)
    cplx = real + 1j * RNG.standard_normal(n)
    if name == "mexican_hat":
        return SampledFunction(0.0, 1.0, real), named_wavelet("mexican_hat"), geometric_scales(0.25, 64.0, 4)
    if name == "haar_psi":
        return SampledFunction(0.0, 1.0, real), named_wavelet("haar_psi"), geometric_scales(4.0, 64.0, 4)
    if name == "cascade_db4":
        psi = wavelet_from_filter(builtin_filter("db4"), 8)
        return SampledFunction(0.0, 1.0, real), psi, geometric_scales(2.0, 64.0, 4)
    if name == "morlet_complex_signal":
        return SampledFunction(0.0, 1.0, cplx), morlet_sampled(), geometric_scales(0.5, 32.0, 4)
    if name == "morlet_real_signal":
        return SampledFunction(0.0, 1.0, real), morlet_sampled(), geometric_scales(0.5, 32.0, 4)
    assert name == "mexican_hat_dx_0.1"
    return SampledFunction(-1.7, 0.1, real), named_wavelet("mexican_hat"), geometric_scales(0.05, 6.4, 4)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize(
    "case",
    [
        "mexican_hat",
        "haar_psi",
        "cascade_db4",
        "morlet_complex_signal",
        "morlet_real_signal",
        "mexican_hat_dx_0.1",
    ],
)
def test_fft_path_matches_dense_kernel(case, stride):
    """Shifts on the samples (all of them, or every third from the second)
    take the FFT correlation, which evaluates psi only on the lags near each
    block's supports and agrees with the dense kernel to 1e-12 of each row's
    peak."""
    f, psi, scales = agreement_case(case)
    grid = CwtGrid(scales=scales, shifts=f.xs[1::stride] if stride > 1 else f.xs)
    counted, count = counting(psi)
    c = cwt(f, counted, grid)
    assert count[0] == support_lag_count(psi, f.size, f.dx, scales)
    expect = dense_cwt_matrix(f, psi, grid)
    assert c.matrix.dtype == expect.dtype
    complex_input = np.iscomplexobj(f.values) or case.startswith("morlet")
    assert c.matrix.dtype == (np.complex128 if complex_input else np.float64)
    peak = np.abs(expect).max(axis=1, keepdims=True)
    assert np.all(np.abs(c.matrix - expect) <= 1e-12 * peak)

    rec = icwt(c, psi)
    expect_rec = dense_icwt_values(c, psi)
    assert rec.values.dtype == expect_rec.dtype
    assert np.abs(rec.values - expect_rec).max() <= 1e-12 * np.abs(expect_rec).max()


@pytest.mark.parametrize("offset", [0.5, 8.0], ids=["half_sample", "past_the_end"])
def test_unaligned_shifts_keep_dense_kernel(offset):
    """Shifts between samples, or on the lattice but past the last sample,
    take the dense kernel: psi is evaluated at every (shift, sample) pair and
    the values are those of the dense reference, bit for bit."""
    f = windowed_sine(n=128)
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(scales=geometric_scales(2.0, 16.0, 4), shifts=f.xs + offset * f.dx)
    counted, count = counting(psi)
    c = cwt(f, counted, grid)
    assert count[0] == grid.scales.size * grid.shifts.size * f.size
    np.testing.assert_array_equal(c.matrix, dense_cwt_matrix(f, psi, grid))
    np.testing.assert_array_equal(icwt(c, psi).values, dense_icwt_values(c, psi))


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["fft", "dense"])
def test_icwt_real_coefficients_complex_wavelet(offset):
    """Either path returns the complex synthesis when only the wavelet is
    complex, and the two agree."""
    psi = morlet_sampled()
    grid = CwtGrid(scales=geometric_scales(0.5, 8.0, 4), shifts=np.arange(64.0) + offset)
    c = CwtCoefficients(RNG.standard_normal(grid.shape), grid, 0.0, 1.0, 64)
    rec = icwt(c, psi)
    assert rec.values.dtype == np.complex128
    expect = dense_icwt_values(
        CwtCoefficients(c.matrix.astype(complex), grid, 0.0, 1.0, 64), psi
    )
    assert np.abs(rec.values - expect).max() <= 1e-12 * np.abs(expect).max()


# --- the spectral ladder -------------------------------------------------------


def _ladder_wavelet(name):
    """A fresh wavelet and the scale at which its support spans 4 samples of
    step 1."""
    if name == "mexican_hat":
        return named_wavelet(name), 0.25
    if name == "haar_psi":
        return named_wavelet(name), 4.0
    if name == "morlet":
        return morlet_sampled(), 1.0 / 3.0
    return wavelet_from_filter(builtin_filter("db4"), 6), 4.0 / 3.0


def _assert_close(got, want):
    assert got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=60)
@given(
    n=st.integers(1, 40),
    name=st.sampled_from(["mexican_hat", "haar_psi", "morlet", "cascade_db4"]),
    complex_signal=st.booleans(),
    ladder=st.tuples(st.floats(1.0, 3.0), st.floats(1.0, 40.0), st.integers(1, 4)),
    block=st.sampled_from([1, 16 * 3 * 64, 1 << 19]),
    data=st.data(),
)
@example(n=1, name="mexican_hat", complex_signal=False, ladder=(1.0, 8.0, 2), block=1 << 19, data=None)
@example(n=2, name="morlet", complex_signal=True, ladder=(1.0, 8.0, 2), block=1, data=None)
def test_ladder_matches_dense_references(n, name, complex_signal, ladder, block, data):
    """Over lengths (1 and 2 included), ladders, blocks of scales and shift
    subsets, the batched paths agree with the dense references to 1e-12 of
    the peak; cwt evaluates psi once per scale and lag near the block's
    supports, and the icwt that follows evaluates it nowhere."""
    psi, r_min = _ladder_wavelet(name)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_signal else 0.0)
    f = SampledFunction(-0.5, 0.75, values)
    lo, ratio, voices = ladder
    scales = geometric_scales(lo * r_min * f.dx, lo * r_min * f.dx * ratio, voices)
    picks = np.arange(n) if data is None else np.array(
        sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    )
    grid = CwtGrid(scales, f.xs[picks])
    counted, count = counting(psi)
    admissibility(counted)
    before = count[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CWT_MODULE, "_BLOCK_BYTES", block)
        c = cwt(f, counted, grid)
        evals = support_lag_count(psi, n, f.dx, scales)
        assert count[0] - before == evals
        rec = icwt(c, counted)
    assert count[0] - before == evals
    _assert_close(c.matrix, dense_cwt_matrix(f, psi, grid))
    _assert_close(rec.values, dense_icwt_values(c, psi))


@pytest.mark.parametrize("complex_signal", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n, length", [(2, 3), (5, 9), (14, 27), (100, 200), (1100, 2205)])
def test_ladder_length_is_the_next_smooth_one(n, length, complex_signal):
    """The ladder's FFTs have _smooth_length(2n - 1) points, odd at n = 2, 5
    and 14 (a power of two would take 4, 16, 32, 256 and 4,096): cwt on a
    fresh wavelet, then icwt and a cwt of another signal on the ladder it
    holds, agree with the dense references to 1e-12 of the peak."""
    rng = np.random.default_rng(n)

    def signal():
        values = rng.standard_normal(n)
        return SampledFunction(0.0, 1.0, values + 1j * rng.standard_normal(n) if complex_signal else values)

    f, g = signal(), signal()
    psi = named_wavelet("mexican_hat")
    grid = CwtGrid(np.geomspace(0.25, 16.0, 4), f.xs)
    c = cwt(f, psi, grid)
    (held,) = psi._ladder.values()
    assert {spectra.shape[1] for _, spectra, _ in held} == {length if complex_signal else length // 2 + 1}
    _assert_close(c.matrix, dense_cwt_matrix(f, psi, grid))
    _assert_close(icwt(c, psi).values, dense_icwt_values(c, psi))
    _assert_close(cwt(g, psi, grid).matrix, dense_cwt_matrix(g, psi, grid))


def test_held_ladder_serves_interleaved_grids():
    """One wavelet on interleaved lengths and ladders holds one ladder, the
    last one computed, and gives the results of a fresh wavelet, bit for
    bit: each icwt, and a cwt repeated on the held grid, evaluate no psi."""
    psi, count = counting(named_wavelet("mexican_hat"))
    admissibility(psi)
    plan = [(64, 1.0, 16.0), (96, 1.0, 16.0), (64, 2.0, 8.0), (64, 1.0, 16.0), (96, 1.0, 16.0)]
    for n, lo, hi in plan:
        f = windowed_sine(n)
        grid = CwtGrid(geometric_scales(lo, hi, 4), f.xs)
        before = count[0]
        c = cwt(f, psi, grid)
        rec = icwt(c, psi)
        other = SampledFunction(0.0, 1.0, RNG.standard_normal(n))
        again = cwt(other, psi, grid)
        assert count[0] - before == support_lag_count(psi, n, f.dx, grid.scales)
        assert len(psi._ladder) == 1
        fresh = named_wavelet("mexican_hat")
        expect = cwt(f, fresh, grid)
        assert_allclose(c.matrix, expect.matrix, atol=0, rtol=0)
        assert_allclose(rec.values, icwt(expect, fresh).values, atol=0, rtol=0)
        assert_allclose(again.matrix, cwt(other, fresh, grid).matrix, atol=0, rtol=0)
        _assert_close(rec.values, dense_icwt_values(c, fresh))
    assert all(not spectra.flags.writeable for _, spectra, _ in next(iter(psi._ladder.values())))


def test_ladder_over_the_cap_is_not_held(monkeypatch):
    """A ladder whose spectra pass the cap is computed block by block and
    dropped, and so is the ladder the wavelet held; icwt recomputes."""
    f = windowed_sine(n=64)
    psi, count = counting(named_wavelet("mexican_hat"))
    admissibility(psi)
    per_scale = 16 * (128 // 2 + 1)  # one real FFT row at length 128
    monkeypatch.setattr(CWT_MODULE, "_LADDER_BYTES", 4 * per_scale)
    monkeypatch.setattr(CWT_MODULE, "_BLOCK_BYTES", 1)
    small = CwtGrid(geometric_scales(1.0, 2.0, 2), f.xs)
    cwt(f, psi, small)
    held = dict(psi._ladder)
    assert len(held) == 1
    big = CwtGrid(geometric_scales(1.0, 16.0, 2), f.xs)
    before = count[0]
    c = cwt(f, psi, big)
    assert psi._ladder == {}
    rec = icwt(c, psi)
    assert count[0] - before == 2 * support_lag_count(psi, f.size, f.dx, big.scales)
    _assert_close(rec.values, dense_icwt_values(c, psi))


def test_a_call_on_another_grid_holds_one_ladder_within_its_charge():
    """A cwt on a new grid drops the ladder the wavelet held before it
    computes its own: with tracemalloc running since the first call, the
    second call's peak stays within its own plan charge (ladders of 100 to
    127 complex rows of 2,048 bins, up to 3.97 MiB, each under the 4 MiB
    cap; holding both took the 127-row case to 11.2 MiB against 9.5), and
    it evaluates psi and gives results as on a fresh wavelet, bit for
    bit."""
    f = SampledFunction(0.0, 1.0, RNG.standard_normal(1024) + 1j * RNG.standard_normal(1024))
    for scales in (100, 127):
        first = CwtGrid(np.geomspace(4.0, 200.0, scales), f.xs)
        second = CwtGrid(np.geomspace(4.5, 220.0, scales), f.xs)
        psi, count = counting(named_wavelet("mexican_hat"))
        tracemalloc.start()
        try:
            cwt(f, psi, first)
            tracemalloc.reset_peak()
            before = count[0]
            c = cwt(f, psi, second)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= plan_charge(f.size, second, True)
        assert count[0] - before == support_lag_count(psi, f.size, f.dx, second.scales)
        assert c.matrix.tobytes() == cwt(f, named_wavelet("mexican_hat"), second).matrix.tobytes()
        (held,) = psi._ladder.values()
        assert sum(spectra.nbytes for _, spectra, _ in held) <= CWT_MODULE._LADDER_BYTES


def test_replaced_wavelet_holds_no_ladder():
    f = windowed_sine(n=64)
    psi, count = counting(named_wavelet("mexican_hat"))
    c = cwt(f, psi, CwtGrid(geometric_scales(1.0, 16.0, 2), f.xs))
    copy = dataclasses.replace(psi)
    assert psi._ladder and copy._ladder == {}
    admissibility(copy)
    before = count[0]
    rec = icwt(c, copy)
    assert count[0] - before == support_lag_count(psi, f.size, f.dx, c.scales)
    assert_allclose(rec.values, icwt(c, psi).values, atol=0, rtol=0)


def test_round_trip_peak_memory():
    """The tracemalloc peak of an n = 1024, 73-scale round trip on a fresh
    wavelet stays within 4.7 result sizes (4.61 measured): the S x n result,
    the held ladder (73 rows of 1025 complex bins, 2.0 result sizes) and one
    block of scales' spectra and products; a block's kernels are dropped
    once transformed."""
    f = SampledFunction(0.0, 1.0, RNG.standard_normal(1024))
    grid = CwtGrid(geometric_scales(1.0, 512.0, 8), f.xs)
    assert grid.scales.size == 73
    psi = named_wavelet("mexican_hat")
    admissibility(psi)
    tracemalloc.start()
    try:
        icwt(cwt(f, psi, grid), psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.7 * 73 * 1024 * 8


def traced(fn):
    """The result of one call of ``fn`` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plan_charge(n, grid, on_samples):
    """What cwt and icwt charge for ``grid`` on n samples: the complex result,
    plus on the FFT path the 2n - 1 lags, the held ladder and _FFT_BLOCKS
    blocks of complex spectra, on the dense path _PAIR_BYTES a (shift,
    sample) pair."""
    count, m = grid.shape
    if on_samples:
        block = max(CWT_MODULE._BLOCK_BYTES, 16 * _smooth_length(2 * n - 1))
        work = 16 * n + CWT_MODULE._LADDER_BYTES + CWT_MODULE._FFT_BLOCKS * block
    else:
        work = CWT_MODULE._PAIR_BYTES * m * n
    return 16 * count * m + work


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["fft", "dense"])
def test_cwt_over_byte_budget_is_refused_before_allocating(monkeypatch, offset):
    """cwt and icwt charge one plan: at that budget both run, and a byte
    less refuses each with SizeError before psi is evaluated."""
    f = windowed_sine(n=64)
    grid = CwtGrid(geometric_scales(1.0, 16.0, 2), f.xs + offset)
    psi = named_wavelet("mexican_hat")
    c = cwt(f, psi, grid)
    fresh = dataclasses.replace(psi)
    admissibility(psi)
    admissibility(fresh)
    need = plan_charge(64, grid, offset == 0.0)
    monkeypatch.setattr(errors, "_BYTE_BUDGET", need)
    assert cwt(f, named_wavelet("mexican_hat"), grid).matrix.tobytes() == c.matrix.tobytes()
    assert icwt(c, fresh).values.tobytes() == icwt(c, psi).values.tobytes()
    monkeypatch.setattr(errors, "_BYTE_BUDGET", need - 1)
    counted, count = counting(psi)
    with pytest.raises(SizeError, match="^cwt of 64 samples on a 9 x 64 grid .* budget"):
        cwt(f, counted, grid)
    with pytest.raises(SizeError, match="^icwt of 64 samples on a 9 x 64 grid .* budget"):
        icwt(c, counted)
    assert count[0] == 0


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["fft", "dense"])
def test_icwt_of_an_absurd_sample_count_is_refused_before_allocating(offset):
    """Coefficients that claim 10^13 samples are refused by the byte budget
    before icwt builds their sample grid (72.8 TiB) or evaluates psi."""
    grid = CwtGrid(np.array([1.0, 2.0]), np.array([0.0, 1.0]) + offset)
    c = CwtCoefficients(np.ones((2, 2)), grid, 0.0, 1.0, 10**13)
    psi, count = counting(named_wavelet("mexican_hat"))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="^icwt of 10000000000000 samples .* budget"):
            icwt(c, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count[0] == 0 and peak < 1 << 16


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["fft", "dense"])
def test_icwt_takes_a_numpy_sample_count(offset):
    """A numpy integer sample count is held as an int and inverts as one."""
    grid = CwtGrid(np.array([2.0, 4.0]), np.arange(16.0) + offset)
    matrix = RNG.standard_normal(grid.shape)
    c = CwtCoefficients(matrix, grid, 0.0, 1.0, np.int64(16))
    assert type(c.n_samples) is int
    psi = named_wavelet("mexican_hat")
    expect = icwt(CwtCoefficients(matrix, grid, 0.0, 1.0, 16), psi).values
    assert icwt(c, psi).values.tobytes() == expect.tobytes()


class _Unweighted(SampledFunction):
    def trapezoid_weights(self):
        raise AssertionError("cwt went on past its charge")


def test_dense_grid_past_the_budget_is_refused():
    """4 scales of 5,999 shifts between 6,000 samples peak at about 1.4 GiB
    on the dense path: both directions are refused at the 1 GiB budget,
    before cwt weights the signal or icwt evaluates psi."""
    f = _Unweighted(0.0, 1.0, np.ones(6000))
    grid = CwtGrid(geometric_scales(2.0, 16.0, 1), f.xs[:-1] + 0.5)
    assert grid.shape == (4, 5999)
    assert plan_charge(6000, grid, False) > errors._BYTE_BUDGET
    psi, count = counting(named_wavelet("mexican_hat"))
    with pytest.raises(SizeError, match="^cwt of 6000 samples on a 4 x 5999 grid .* budget"):
        cwt(f, psi, grid)
    c = CwtCoefficients(np.zeros(grid.shape), grid, 0.0, 1.0, 6000)
    with pytest.raises(SizeError, match="^icwt of 6000 samples on a 4 x 5999 grid .* budget"):
        icwt(c, psi)
    assert count[0] == 0


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "path, sizes",
    [("fft", [(300, 40), (5000, 60), (1 << 15, 2)]), ("dense", [(64, 3), (200, 24), (500, 4)])],
    ids=["fft", "dense"],
)
def test_plan_charge_covers_the_traced_peak_of_either_direction(path, sizes, complex_data):
    """The plan's charge is at least the tracemalloc peak of cwt on a fresh
    wavelet, of the icwt after it and of an icwt on a fresh copy, for the
    mexican hat and a complex sampled wavelet. The FFT sizes take one block
    of many scales, blocks of three past the ladder cap, and one-scale
    blocks of 1 MiB with a held ladder; the peaks read up to 0.84 of the
    charge on either path."""
    rng = np.random.default_rng(len(sizes))
    for n, scales in sizes:
        values = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_data else 0.0)
        f = SampledFunction(0.0, 1.0, values)
        grid = CwtGrid(np.geomspace(4.0, n / 4, scales), f.xs if path == "fft" else f.xs[:-1] + 0.5)
        charge = plan_charge(n, grid, path == "fft")
        for psi in (named_wavelet("mexican_hat"), morlet_sampled()):
            fresh = dataclasses.replace(psi)
            admissibility(psi)
            admissibility(fresh)
            c, peak = traced(lambda: cwt(f, psi, grid))
            assert peak <= charge, (n, scales, psi.name, "cwt")
            for held in (psi, fresh):
                assert traced(lambda: icwt(c, held))[1] <= charge, (n, scales, psi.name, "icwt")


def test_geometric_scales_over_byte_budget_is_refused():
    """A ladder whose own scales pass the cwt budget is refused before
    anything is allocated."""
    with pytest.raises(SizeError, match="budget"):
        geometric_scales(1.0, 2.0, 10**12)


def test_geometric_scales_count_without_overflow():
    """r_max / r_min past the float range is counted as log2 r_max - log2 r_min,
    and a voices count no float holds is refused, not converted. A finite
    ratio keeps its own log2: at 5:20:8 the difference of logs would round
    up to 17 steps."""
    assert geometric_scales(5.0, 20.0, 8).size == 17
    for r_min, r_max, count in ((1e-300, 1e300, 15947), (1e-310, 1.0, 8240)):
        r = geometric_scales(r_min, r_max, 8)
        assert r.size == count and np.all(np.isfinite(r)) and np.all(np.diff(r) > 0)
    for voices in (int("9" * 401), 2**1000, np.int64(2**62)):
        with pytest.raises(SizeError, match="^a ladder of .* scales needs about .* budget"):
            geometric_scales(1.0, 2.0, voices)


# --- dyadic family -----------------------------------------------------------


def test_dyadic_sample_matches_closed_form():
    psi = named_wavelet("haar_psi")
    grid = SampledFunction(0.0, 0.125, np.zeros(17))
    s = dyadic_sample(psi, 1, 1, grid)
    # 2^{1/2} psi(2x - 1): +sqrt(2) on [0.5, 0.75), -sqrt(2) on [0.75, 1)
    expect = np.zeros(17)
    expect[4:6] = math.sqrt(2.0)
    expect[6:8] = -math.sqrt(2.0)
    assert_allclose(s.values, expect, atol=0)


@pytest.mark.parametrize(
    "points, error",
    [
        (np.arange(17) / 8.0, None),
        (np.array([0.5]), ShapeError),
        (np.array([0.0, 0.25, 0.75]), DomainError),
    ],
    ids=["uniform", "one-point", "non-uniform"],
)
def test_dyadic_sample_on_an_array_grid(points, error):
    """A uniform array of points gives the samples of the equivalent
    SampledFunction grid; a single point or uneven steps are refused."""
    psi = named_wavelet("haar_psi")
    if error is not None:
        with pytest.raises(error):
            dyadic_sample(psi, 1, 1, points)
        return
    s = dyadic_sample(psi, 1, 1, points)
    t = dyadic_sample(psi, 1, 1, SampledFunction(0.0, 0.125, np.zeros(17)))
    assert (s.x_min, s.dx) == (t.x_min, t.dx)
    assert_allclose(s.values, t.values, atol=0)


@pytest.mark.parametrize("j,k", [(-2, 3), (0, 0), (3, -5)])
def test_dyadic_sample_norm_invariance(j, k):
    """The scale-and-shift action is unitary, so every (j, k) member has the
    same L2 norm (up to grid error on a fine enough grid)."""
    psi = named_wavelet("mexican_hat")
    scale = 2.0**j
    lo = (psi.support[0] + k) / scale - 1.0
    hi = (psi.support[1] + k) / scale + 1.0
    dx = 2.0**-8 / min(scale, 1.0)  # keep samples-per-feature constant
    n = int(round((hi - lo) / dx)) + 1
    s = dyadic_sample(psi, j, k, SampledFunction(lo, dx, np.zeros(n)))
    base = dyadic_sample(
        psi, 0, 0, SampledFunction(-12.0, 2.0**-8, np.zeros(12000))
    )
    assert s.norm() == pytest.approx(base.norm(), rel=1e-3)


def _centi_box():
    """The indicator of [0, 1) sampled at dx = 0.01 on [-2, 4)."""
    xs = -2.0 + 0.01 * np.arange(600)
    return SampledFunction(-2.0, 0.01, ((xs >= 0.0) & (xs < 1.0)).astype(float))


@pytest.mark.parametrize("name", ["haar_psi", "mexican_hat"])
@pytest.mark.parametrize("j", [1024, 1100, -1075, -1100])
def test_dyadic_sample_refuses_a_level_whose_scale_is_not_a_positive_double(name, j):
    """2^j overflows from j = 1024 and rounds to 0 from j = -1075: each is a
    DomainError naming j, not an OverflowError or a grid of zeros."""
    with pytest.raises(DomainError, match=f"j = {j}:"):
        dyadic_sample(named_wavelet(name), j, 0, SampledFunction(-2.0, 0.01, np.zeros(600)))


@pytest.mark.parametrize("j", [1100, -1022, -1075, -1100])
def test_parseval_ratio_refuses_a_level_without_finite_samples_per_support(j):
    """At j = 1100 2^j overflows; at -1075 and -1100 it rounds to 0; at -1022
    with dx = 0.01 the samples per support, width/(2^j dx), overflow. Each is
    a DomainError naming j."""
    with pytest.raises(DomainError, match=f"j = {j}:"):
        parseval_ratio(_centi_box(), named_wavelet("haar_psi"), (j, j))


@pytest.mark.parametrize(
    "name, ratio", [("haar_psi", 9.332636185032189e-302), ("mexican_hat", 1.2557329009999375e-301)]
)
def test_parseval_ratio_at_j_minus_1000_is_unchanged(name, ratio):
    """j = -1000 has a finite 2^j and samples per support, so its ratio is
    computed, and equals the value from before the level check."""
    assert parseval_ratio(_centi_box(), named_wavelet(name), (-1000, -1000)) == ratio


def test_parseval_ratio_haar_box_literal_range():
    """Closed form for the box function against the square-wave family:
    scales j = -1..-M each contribute 2^-|j|, finer scales contribute
    nothing, so j in [-4, 8] gives exactly 15/16."""
    f = SampledFunction(-2.0, 2.0**-10, np.zeros(6 * 1024))
    vals = np.where((f.xs >= 0.0) & (f.xs < 1.0), 1.0, 0.0)
    f = SampledFunction(-2.0, 2.0**-10, vals)
    psi = named_wavelet("haar_psi")
    ratio = parseval_ratio(f, psi, (-4, 8))
    assert ratio == pytest.approx(15.0 / 16.0, abs=1e-9)


def test_parseval_ratio_wide_scales_approach_one():
    f0 = SampledFunction(-2.0, 2.0**-10, np.zeros(6 * 1024))
    vals = np.where((f0.xs >= 0.0) & (f0.xs < 1.0), 1.0, 0.0)
    f = SampledFunction(-2.0, 2.0**-10, vals)
    psi = named_wavelet("haar_psi")
    ratio = parseval_ratio(f, psi, (-8, 4))
    assert ratio == pytest.approx(1.0 - 2.0**-8, abs=1e-9)
    assert 0.95 <= ratio <= 1.0001


def test_parseval_ratio_monotone_in_ranges():
    f0 = SampledFunction(-2.0, 2.0**-8, np.zeros(1536))
    vals = np.where((f0.xs >= 0.0) & (f0.xs < 1.0), 1.0, 0.0)
    f = SampledFunction(-2.0, 2.0**-8, vals)
    psi = named_wavelet("haar_psi")
    r1 = parseval_ratio(f, psi, (-2, 1))
    r2 = parseval_ratio(f, psi, (-4, 2))
    r3 = parseval_ratio(f, psi, (-6, 3))
    assert r1 <= r2 + 1e-12
    assert r2 <= r3 + 1e-12


def test_parseval_ratio_explicit_k_range():
    f0 = SampledFunction(0.0, 2.0**-8, np.zeros(256))
    vals = np.ones(256)
    f = SampledFunction(0.0, 2.0**-8, vals)
    psi = named_wavelet("haar_psi")
    # k range excluding the support -> zero
    assert parseval_ratio(f, psi, (0, 2), k_range=(50, 40)) == 0.0
    assert parseval_ratio(f, psi, (0, 2), k_range=(1000, 1010)) == 0.0


def dense_parseval_ratio(f, psi, j_range, k_range=None):
    """The reference loop: every psi_{j,k} evaluated on the whole grid, in
    blocks of 256 shifts, with the ranges exactly as given."""
    total = 0.0
    xs = f.xs
    for j in range(j_range[0], j_range[1] + 1):
        k_lo, k_hi = k_range or _auto_k_range(psi, j, float(xs[0]), float(xs[-1]))
        scale = 2.0**j
        for block_lo in range(k_lo, k_hi + 1, 256):
            ks = np.arange(block_lo, min(block_lo + 256, k_hi + 1))
            block = psi.evaluate(scale * xs[None, :] - ks[:, None])
            coeffs = math.sqrt(scale) * f.dx * (np.conj(block) @ f.values)
            total += float((np.abs(coeffs) ** 2).sum())
    return total / float((np.abs(f.values) ** 2).sum() * f.dx)


@pytest.fixture(scope="module")
def dyadic_wavelets():
    cascade = wavelet_from_filter(builtin_filter("db4"), 8)
    return {"haar_psi": named_wavelet("haar_psi"), "mexican_hat": named_wavelet("mexican_hat"), "cascade:db4:8": cascade}


def _box(x_min=-2.0, dx=2.0**-10, n=6 * 1024):
    xs = x_min + dx * np.arange(n)
    return SampledFunction(x_min, dx, ((xs >= 0.0) & (xs < 1.0)).astype(float))


_PARSEVAL_SIGNALS = {
    "box": _box(),
    "real": SampledFunction(1.7, 0.02, RNG.standard_normal(500)),
    "complex": SampledFunction(-3.3, 0.01, RNG.standard_normal(700) + 1j * RNG.standard_normal(700)),
}


@pytest.mark.parametrize(
    "j_range, k_range",
    [
        ((-8, 4), None),  # coarse scales on dense blocks, fine ones on windows
        ((-8, -4), None),  # coarse only: every support spans the grid
        ((2, 6), None),  # fine only
        ((1, 5), (-10, 40)),  # partly outside the grid
        ((0, 3), (-1000, -900)),  # wholly outside
        ((-3, 6), (200, 400)),  # outside for coarse j, partly inside for fine j
    ],
)
@pytest.mark.parametrize("signal", list(_PARSEVAL_SIGNALS))
@pytest.mark.parametrize("wavelet", ["haar_psi", "mexican_hat", "cascade:db4:8"])
def test_parseval_ratio_matches_dense_reference(dyadic_wavelets, wavelet, signal, j_range, k_range):
    """Evaluating psi_{j,k} only near its own support gives the dense
    ratio to 1e-12 relative, on grids that do not start at 0."""
    psi, f = dyadic_wavelets[wavelet], _PARSEVAL_SIGNALS[signal]
    expect = dense_parseval_ratio(f, psi, j_range, k_range)
    assert parseval_ratio(f, psi, j_range, k_range) == pytest.approx(expect, rel=1e-12, abs=0)


def every_k_parseval_ratio(f, psi, j_range):
    """The ratio as it stood when every k of ``_auto_k_range`` was evaluated
    on the whole grid wherever the support spans the grid (w >= n)."""
    norm_sq = float((np.abs(f.values) ** 2).sum() * f.dx)
    n, lo, total = f.size, psi.support[0], 0.0
    for j in range(j_range[0], j_range[1] + 1):
        k_lo, k_hi = _auto_k_range(psi, j, f.x_min, f.x_max)
        scale = 2.0 ** float(j)
        amp = math.sqrt(scale) * f.dx
        w = int(np.ceil(psi.width / (scale * f.dx))) + 4
        scaled_xs = scale * (f.x_min + f.dx * np.arange(-w, n + w)) if w < n else scale * f.xs
        values = np.pad(f.values, w) if w < n else None
        for block_lo in range(k_lo, k_hi + 1, 256):
            ks = np.arange(block_lo, min(block_lo + 256, k_hi + 1))
            if w < n:
                starts = np.floor(((lo + ks) / scale - f.x_min) / f.dx).astype(np.intp) - 1
                meets = (starts > -w) & (starts < n)
                ks, idx = ks[meets], (starts[meets] + w)[:, None] + np.arange(w)
                block = psi.evaluate(scaled_xs[idx] - ks[:, None])
                coeffs = amp * np.einsum("kt,kt->k", np.conj(block), values[idx])
            else:
                coeffs = amp * (np.conj(psi.evaluate(scaled_xs[None, :] - ks[:, None])) @ f.values)
            total += float((np.abs(coeffs) ** 2).sum())
    return total / norm_sq


@pytest.mark.parametrize("j_range", [(-8, 4), (-12, -4), (-3, 6), (2, 6)])
@pytest.mark.parametrize("signal", list(_PARSEVAL_SIGNALS))
@pytest.mark.parametrize("wavelet", ["haar_psi", "mexican_hat", "cascade:db4:8"])
def test_parseval_ratio_skips_ks_off_the_grid_bit_for_bit(dyadic_wavelets, wavelet, signal, j_range):
    """Skipping the ks whose support misses the grid where the support spans
    it leaves the ratio bit for bit as it was with every k evaluated."""
    psi, f = dyadic_wavelets[wavelet], _PARSEVAL_SIGNALS[signal]
    assert parseval_ratio(f, psi, j_range) == every_k_parseval_ratio(f, psi, j_range)


@pytest.mark.parametrize("j", [1000, 1023])
def test_parseval_ratio_refuses_a_level_of_too_many_shifts(j):
    """On a box over [-2, 4) at dx = 0.01 the haar_psi shifts of level j
    number about 6 2^j: at j = 1000 far past ``_MAX_SHIFTS``, at j = 1023 too
    many to count (2^j 4 overflows). Both raise a DomainError naming j
    before any block of shifts is evaluated."""
    psi, count = counting(named_wavelet("haar_psi"))
    xs = -2.0 + 0.01 * np.arange(600)
    f = SampledFunction(-2.0, 0.01, ((xs >= 0.0) & (xs < 1.0)).astype(float))
    with pytest.raises(DomainError, match=f"level j = {j}: "):
        parseval_ratio(f, psi, (j, j))
    assert count[0] == 0


def test_parseval_ratio_coarse_level_evaluates_ks_on_the_grid_only():
    """At j = -8 the box's grid [-2, 4) meets the supports [256 k, 256 (k + 1))
    of k = -1 and 0 only: 2 of the 6 ks of ``_auto_k_range``, each on the
    whole grid."""
    psi, count = counting(named_wavelet("haar_psi"))
    f = _box()
    assert _auto_k_range(psi, -8, f.x_min, f.x_max) == (-3, 2)
    ratio = parseval_ratio(f, psi, (-8, -8))
    assert count[0] == 2 * f.size
    assert ratio == every_k_parseval_ratio(f, psi, (-8, -8))


def test_parseval_ratio_evaluates_psi_near_its_supports():
    """On the box against the square waves j = -8..4, at most a fifth of the
    dense loop's psi evaluations are made."""
    dense, dense_count = counting(named_wavelet("haar_psi"))
    windowed, count = counting(named_wavelet("haar_psi"))
    f = _box()
    expect = dense_parseval_ratio(f, dense, (-8, 4))
    assert parseval_ratio(f, windowed, (-8, 4)) == pytest.approx(expect, rel=1e-12, abs=0)
    assert 0 < count[0] <= dense_count[0] / 5


def test_parseval_ratio_zero_function_rejected():
    f = SampledFunction(0.0, 0.1, np.zeros(16))
    with pytest.raises(DomainError):
        parseval_ratio(f, named_wavelet("haar_psi"), (0, 1))
