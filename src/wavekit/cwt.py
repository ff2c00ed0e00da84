"""Continuous wavelet analysis on sampled data.

The analyzing family is psi_{r,s}(x) = r^{-1/2} psi((x - s)/r) for scale
r > 0 and shift s. ``cwt`` computes trapezoidal inner products <psi_{r,s}|f>
over a geometric scale grid and an arithmetic shift grid, and ``icwt``
inverts them through the measure dr ds / r^2 weighted by the admissibility
constant

    C = integral |psi_hat(w)|^2 / |w| dw,
    psi_hat(t) = integral e^{-ixt} psi(x) dx,

estimated by ``admissibility`` from an FFT of psi's zero-padded support
samples. The scale grid covers r > 0 only; for a real-valued wavelet the
negative-scale half of the inversion measure contributes the same amount,
so ``icwt`` folds it in as a factor 2.

When every shift is a sample point of the signal (as with ``shifts = f.xs``
or any subset of it), ``cwt`` is an FFT cross-correlation with psi at the
2n - 1 sample lags and ``icwt`` the matching convolution summed over scales
(Torrence & Compo 1998, "A Practical Guide to Wavelet Analysis"), both on one
ladder of kernel spectra held on the wavelet: O(S n log n) time for S scales,
3S + 2 FFTs per round trip, work memory of a few blocks of scales plus the held
ladder. Every FFT here pads to the next 2^a 3^b 5^c 7^d (``_smooth_length``)
of what it must hold: the 2n - 1 lags of n = 1,100 take 2,205 points, not
4,096. On the usual grid, every sample a shift in order, neither direction
gathers or scatters: ``cwt`` copies each block's correlation out in two slices,
and ``icwt`` transforms the weighted coefficients straight to the FFT length,
whose zero padding places them; a subset of the samples takes one gather or
scatter per block. Other shift grids take a dense (shifts x n) kernel per
scale. One plan, ``_plan``, picks the path and the FFT length for both
directions and charges what either may allocate against the byte budget
before anything is. All
evaluate psi through ``_scaled_kernel``, so no analytic spectrum is needed;
the ladder and ``admissibility`` read psi as 0 outside its ``support``.

``dyadic_sample`` and ``parseval_ratio`` cover the dyadic family
psi_{j,k}(x) = 2^{j/2} psi(2^j x - k) used by discrete decompositions.
"""
from __future__ import annotations

__all__ = [
    "WAVELET_NAMES",
    "AnalyzingWavelet",
    "CwtCoefficients",
    "CwtGrid",
    "SampledFunction",
    "admissibility",
    "cwt",
    "dyadic_sample",
    "geometric_scales",
    "icwt",
    "named_wavelet",
    "parseval_ratio",
    "wavelet_from_dyadic",
    "wavelet_from_filter",
    "wavelet_from_samples",
]

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .cascade import DyadicFunction, wavelet_function
from .errors import (
    AdmissibilityError,
    CatalogError,
    DomainError,
    ParameterError,
    ResolutionError,
    ShapeError,
    SizeError,
    _charge,
)
from .filters import FilterSpec, _value_eq

#: Zero-mean gate: |integral psi| must not exceed this times ||psi||_1.
_MEAN_TOLERANCE = 1e-6

#: Default samples across the wavelet support when estimating admissibility.
_ADMISSIBILITY_SAMPLES = 1024

#: Half-width of the padded FFT window, in units of x (at least this, and at
#: least twice the support width, so the frequency grid resolves the spectrum).
_ADMISSIBILITY_RADIUS = 64.0

#: Bytes of kernel spectra per block of scales and per held ladder.
_BLOCK_BYTES = 1 << 19
_LADDER_BYTES = 1 << 22

#: What ``_plan`` charges for the work of each path. FFT path: arrays the size
#: of one block's complex spectra (the signal's spectrum, the last block's
#: spectra and product, psi on the block's lags, its kernels at the FFT's length
#: and dtype, and the FFT's output); the traced peaks of real and complex data
#: at n = 2^18 read up to 5.8.
#: Dense path: bytes per (shift, sample) pair (the offsets, their quotient by
#: r and psi's own work); the catalog and sampled wavelets trace 40.
_FFT_BLOCKS = 7
_PAIR_BYTES = 48

#: Most shifts k one level of ``parseval_ratio`` may take: about 13 s at the
#: 0.1 us per k its blocks ran at (a box on 600 samples, haar_psi, j = 17).
_MAX_SHIFTS = 1 << 27


def _check_grid(x_min, dx) -> None:
    """A sample grid x_min + k dx: a finite start and a finite, positive step."""
    if not np.isfinite(x_min):
        raise ParameterError(f"grid start must be finite, got {x_min!r}")
    if not (np.isfinite(dx) and dx > 0):
        raise ParameterError(f"grid step must be positive, got {dx!r}")


@dataclass(frozen=True)
class SampledFunction:
    """Complex or real samples on a uniform grid x_min + k*dx."""

    x_min: float
    dx: float
    values: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values))
        if v.ndim != 1:
            raise ShapeError("sampled function values must be 1-d")
        if v.size == 0:
            raise SizeError("sampled function needs at least one sample")
        _check_grid(self.x_min, self.dx)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "dx", float(self.dx))

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.values.size - 1)

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.values.size)

    def trapezoid_weights(self) -> np.ndarray:
        return _trapezoid_weights(np.full(self.size - 1, self.dx), self.dx)

    def norm(self) -> float:
        """Trapezoidal L2 norm."""
        return float(
            np.sqrt((np.abs(self.values) ** 2 * self.trapezoid_weights()).sum().real)
        )


@dataclass(frozen=True)
class AnalyzingWavelet:
    """A wavelet given by a vectorized evaluator on a known support.

    ``support`` is the closed interval outside which the wavelet is zero or
    negligibly small (catalog entries truncate where |psi| drops below
    1e-10 of its peak). The wavelet is immutable: ``admissibility`` computes
    its constant (at ``refine=1``) on first use and keeps it with the wavelet,
    and ``dataclasses.replace`` gives a new wavelet that computes its own.
    Inadmissible wavelets (nonzero mean) stay constructible so the failure
    surfaces where the constant is actually needed.
    """

    name: str
    support: tuple[float, float]
    fn: Callable[[np.ndarray], np.ndarray]
    #: For step-interpolated (sampled) wavelets, the native sample step;
    #: quadrature grids align to it so piecewise-constant sums stay exact.
    native_dx: float | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterError(f"support must be a finite interval, got {self.support!r}")
        object.__setattr__(self, "support", (float(lo), float(hi)))

    @property
    def width(self) -> float:
        return self.support[1] - self.support[0]

    def evaluate(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)))

    @cached_property
    def _admissibility(self) -> float:
        # Filled on first use by admissibility(psi); not a field, so it
        # cannot be passed in, and a raised error leaves nothing cached.
        return _estimate_admissibility(self, 1)

    @cached_property
    def _ladder(self) -> dict:
        # One ladder of kernel spectra, filled by _kernel_spectra; not a
        # field, so a dataclasses.replace copy starts empty.
        return {}


def _trapezoid_weights(steps: np.ndarray, single: float = 0.0) -> np.ndarray:
    """Composite trapezoid weights of points ``steps`` apart. A single point
    gets ``single``: dx for a sampled function's norm, and zero for the sums
    over scales and shifts, so a degenerate quadrature gives a zero integral
    rather than an arbitrary scale factor."""
    if steps.size == 0:
        return np.array([single])
    half = 0.5 * steps
    w = np.empty(half.size + 1, half.dtype)
    w[:-1] = half
    w[-1] = 0.0
    w[1:] += half
    return w


def _mexican_hat(x: np.ndarray) -> np.ndarray:
    # Past |x| = 44.7 the exponential is already 0; the clamp keeps x * x from
    # overflowing to inf, and inf * 0 from making NaN, at |x| >= 1.4e154. Two
    # new arrays, written in place; x itself is only read.
    xx = np.multiply(x, x, out=np.empty_like(x))  # out=: arrays for a 0-d x too
    np.minimum(xx, 2000.0, out=xx)
    gauss = np.multiply(xx, -0.5, out=np.empty_like(xx))
    np.exp(gauss, out=gauss)
    np.subtract(1.0, xx, out=xx)
    xx *= gauss
    return xx


def _haar_psi(x: np.ndarray) -> np.ndarray:
    up = ((x >= 0.0) & (x < 0.5)).astype(float)
    down = ((x >= 0.5) & (x < 1.0)).astype(float)
    return up - down


def _gaussian(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x)


# The gaussian has nonzero mean, hence no finite admissibility constant; it
# is in the catalog so rejection paths stay exercised end to end.
_CATALOG: dict[str, tuple[tuple[float, float], Callable]] = {
    "mexican_hat": ((-8.0, 8.0), _mexican_hat),
    "haar_psi": ((0.0, 1.0), _haar_psi),
    "gaussian": ((-8.0, 8.0), _gaussian),
}

WAVELET_NAMES = tuple(sorted(_CATALOG))


def named_wavelet(name: str) -> AnalyzingWavelet:
    try:
        support, fn = _CATALOG[name]
    except KeyError:
        known = ", ".join(WAVELET_NAMES)
        raise CatalogError(f"unknown wavelet {name!r} (try one of: {known})") from None
    return AnalyzingWavelet(name=name, support=support, fn=fn)


def wavelet_from_samples(sf: SampledFunction, name: str = "sampled") -> AnalyzingWavelet:
    """Wrap uniform samples as a wavelet, interpolated as a step function.

    Each sample value extends over [x_k, x_k + dx); everything outside the
    sampled interval evaluates to zero.
    """
    vals = np.pad(sf.values, (0, 1))  # index -1 reads the 0 past the end

    def evaluate(x: np.ndarray) -> np.ndarray:
        idx = np.floor((x - sf.x_min) / sf.dx)
        idx = np.where((idx >= 0) & (idx < sf.size), idx, -1).astype(np.intp)
        return vals[idx]

    return AnalyzingWavelet(
        name=name,
        support=(sf.x_min, sf.x_max + sf.dx),
        fn=evaluate,
        native_dx=sf.dx,
    )


def wavelet_from_dyadic(d: DyadicFunction, name: str | None = None) -> AnalyzingWavelet:
    """Bridge from the cascade module: use a refined psi (or phi) here."""
    sf = SampledFunction(x_min=d.x0, dx=d.step, values=d.values)
    return wavelet_from_samples(sf, name=name or f"dyadic-{d.kind}")


def wavelet_from_filter(f: FilterSpec, resolution: int) -> AnalyzingWavelet:
    """The cascade-built mother wavelet of a discrete filter, ready for cwt."""
    return wavelet_from_dyadic(
        wavelet_function(f, resolution), name=f"cascade:{f.name}:{resolution}"
    )


def admissibility(psi: AnalyzingWavelet, refine: int = 1) -> float:
    """Estimate C = integral |psi_hat(w)|^2/|w| dw by FFT quadrature.

    The wavelet is sampled at roughly dx = width/(1024*refine) on its support
    only. The samples are zero-padded to the next length 2^a 3^b 5^c 7^d (where
    the FFT is fast) at or above the support plus max(64, 2*width) each side,
    and transformed (a real FFT for a real wavelet: |psi_hat| is even). The
    integrand is trapezoid-summed on the grid k*dw over the negative and
    positive half-axes separately, excluding w = 0. ``refine``
    doubles (etc.) the sampling density for stability checks. The result for
    refine=1 is computed once per wavelet; later calls return the same float.

    For sampled (step-interpolated) wavelets the grid is snapped to an
    integer number of points per native step and anchored at the support
    start, so the Riemann mean and the spectrum agree exactly with the
    underlying step function instead of aliasing against its lattice.

    Raises AdmissibilityError when the mean is not numerically zero (the
    integral diverges at w = 0), ResolutionError when the spectrum has not
    decayed by the Nyquist frequency (the estimate would be meaningless), and
    SizeError before the FFT past the budget (24 bytes a point, 40 complex).
    """
    if not isinstance(refine, (int, np.integer)) or refine < 1:
        raise ParameterError(f"refine must be a positive integer, got {refine!r}")
    if refine == 1:
        return psi._admissibility
    return _estimate_admissibility(psi, refine)


@lru_cache(maxsize=256)
def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d >= n."""
    best = 1 << (n - 1).bit_length()
    m7 = 1
    while m7 < best:
        m5 = m7
        while m5 < best:
            m3 = m5
            while m3 < best:  # m3 times the least power of two reaching n
                best = min(best, m3 << (-(-n // m3) - 1).bit_length())
                m3 *= 3
            m5 *= 5
        m7 *= 7
    return best


def _estimate_admissibility(psi: AnalyzingWavelet, refine: int) -> float:
    lo, hi = psi.support
    width = hi - lo
    target = width / (_ADMISSIBILITY_SAMPLES * refine)
    if psi.native_dx is not None and psi.native_dx > 0.0:
        per_step = max(1, int(np.ceil(psi.native_dx / target)))
        dx = psi.native_dx / per_step
    else:
        dx = target

    # Zero-mean gate on the support itself (Riemann sums).
    xs = lo + dx * np.arange(int(round(width / dx)))
    vals = psi.evaluate(xs)
    l1 = float(np.abs(vals).sum() * dx)
    if l1 == 0.0:
        raise AdmissibilityError("wavelet is identically zero on its support")
    mean = abs(complex(vals.sum() * dx))
    if mean > _MEAN_TOLERANCE * l1:
        raise AdmissibilityError(
            f"wavelet {psi.name!r} has nonzero mean ({mean:.3g}); the "
            "admissibility integral diverges at zero frequency"
        )

    # The zero-padded support samples stand for psi on a window padded by
    # ``pad`` each side: where psi sits in it moves only the phase of psi_hat.
    # 67,074 = 2·3·7·1597 points (level-8 db4) transform slower than 67,200.
    pad = int(np.ceil(max(_ADMISSIBILITY_RADIUS, 2.0 * width) / dx))
    n = _smooth_length(xs.size + 2 * pad)
    per_point = 40 if np.iscomplexobj(vals) else 24  # traced: up to 23.4 real, 36.9 complex
    _charge(f"admissibility of {psi.name!r} on {n} FFT points", per_point * n)
    if np.iscomplexobj(vals):  # |psi_hat| at k dw for k = 1, 2, ... and at -k dw
        power = np.abs(dx * np.fft.fft(vals, n)) ** 2
        halves = power[1 : (n + 1) // 2], power[:0:-1][: n // 2]
    else:  # |psi_hat| is even
        power = np.abs(dx * np.fft.rfft(vals, n)) ** 2
        halves = power[1 : (n + 1) // 2], power[1 : n // 2 + 1]
    dw = 2.0 * np.pi / (n * dx)
    total = tail_part = 0.0
    for half in halves:  # 0 < |w| <= n dw / 2; the tail is |w| > 3/4 of that
        integrand = half / (dw * np.arange(1, half.size + 1))
        total += float(integrand @ _trapezoid_weights(np.full(half.size - 1, dw)))
        tail_part += float(integrand[int(0.75 * (n // 2)) :].sum() * dw)
    if not np.isfinite(total) or total <= 0.0:
        raise AdmissibilityError(f"admissibility quadrature for {psi.name!r} returned {total!r}")
    if tail_part > 0.02 * total:
        raise ResolutionError(
            f"spectrum of {psi.name!r} has not decayed at the sampling "
            "Nyquist frequency; refine the grid"
        )
    return total


@dataclass(frozen=True)
class CwtGrid:
    """Strictly positive, increasing scales and increasing shifts."""

    scales: np.ndarray
    shifts: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.scales, dtype=float))
        s = np.atleast_1d(np.asarray(self.shifts, dtype=float))
        if r.size == 0 or s.size == 0:
            raise SizeError("cwt grid needs at least one scale and one shift")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(s)):
            raise DomainError("cwt grid values must be finite")
        if np.any(r <= 0.0):
            raise DomainError("scales must be strictly positive")
        if np.any(np.diff(r) <= 0.0) or np.any(np.diff(s) <= 0.0):
            raise DomainError("scales and shifts must be strictly increasing")
        object.__setattr__(self, "scales", r)
        object.__setattr__(self, "shifts", s)

    @property
    def shape(self) -> tuple[int, int]:
        return self.scales.size, self.shifts.size


def geometric_scales(r_min: float, r_max: float, voices: int = 8) -> np.ndarray:
    """Geometric scale ladder with ``voices`` steps per octave (endpoints in)."""
    if not (np.isfinite(r_min) and r_min > 0 and np.isfinite(r_max)):
        raise DomainError("scale bounds must be finite and positive")
    if r_max < r_min:
        raise DomainError("r_max must be at least r_min")
    if not isinstance(voices, (int, np.integer)) or voices < 1:
        raise ParameterError(f"voices must be a positive integer, got {voices!r}")
    if r_max == r_min:
        return np.array([float(r_min)])
    ratio = r_max / r_min
    octaves = np.log2(ratio) if np.isfinite(ratio) else np.log2(r_max) - np.log2(r_min)
    # At most 2,098 octaves: under 2^1000 voices the product stays a finite float.
    count = np.ceil(voices * octaves) + 1 if voices < 1 << 1000 else np.inf
    _charge(f"a ladder of {count:.3g} scales", 8 * count)
    return np.geomspace(r_min, r_max, max(int(count), 2))


@dataclass(frozen=True)
class CwtCoefficients:
    """<psi_{r,s}|f> over a grid, plus f's own grid for later inversion."""

    matrix: np.ndarray
    grid: CwtGrid
    x_min: float
    dx: float
    n_samples: int

    __eq__ = _value_eq

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != self.grid.shape:
            raise ShapeError(
                f"coefficient matrix shape {m.shape} does not match grid "
                f"shape {self.grid.shape}"
            )
        _check_grid(self.x_min, self.dx)
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 1:
            raise SizeError(f"the signal needs a positive sample count, got {self.n_samples!r}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_samples", int(self.n_samples))

    @property
    def scales(self) -> np.ndarray:
        return self.grid.scales

    @property
    def shifts(self) -> np.ndarray:
        return self.grid.shifts

    def sample_grid(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_samples)


def _scaled_kernel(psi: AnalyzingWavelet, offsets: np.ndarray, r: float) -> np.ndarray:
    """psi_{r,s}(x) = psi((x - s)/r)/sqrt(r) at the given offsets x - s; ``r``
    may be an array that broadcasts against them."""
    return psi.evaluate(offsets / r) / np.sqrt(r)


def _plan(what: str, x_min: float, dx: float, n: int, grid: CwtGrid):
    """The set-up ``cwt`` and ``icwt`` share for ``grid`` on the n samples
    x_min + k dx: the sample index k of every shift, or None where some shift
    is not a sample (the dense path), and the FFT length _smooth_length(2n - 1)
    (2,205 points at n = 1,100: any length >= 2n - 1 wraps no lag onto the n
    outputs). First it charges what either direction peaks at: the complex
    S x shifts result, plus on the FFT path the 2n - 1 lags, the held ladder
    and ``_FFT_BLOCKS`` arrays the size of one block of scales' complex
    spectra, on the dense path ``_PAIR_BYTES`` per (shift, sample) pair."""
    count, m = grid.shape
    k = np.rint((grid.shifts - x_min) / dx)
    on_samples = 0 <= k[0] and k[-1] < n and np.array_equal(x_min + dx * k, grid.shifts)
    length = _smooth_length(2 * n - 1)
    fft_work = 16 * n + _LADDER_BYTES + _FFT_BLOCKS * max(_BLOCK_BYTES, 16 * length)
    work = fft_work if on_samples else _PAIR_BYTES * m * n
    _charge(f"{what} of {n} samples on a {count} x {m} grid", 16 * count * m + work)
    return (k.astype(np.intp) if on_samples else None), length


def _kernel_spectra(
    psi: AnalyzingWavelet, n: int, length: int, dx: float, scales: np.ndarray, complex_data: bool
):
    """Yield (scale slice, spectra, (forward, inverse, dtype)) per block of scales.

    Row i of ``spectra`` is the FFT at ``length``, the plan's
    ``_smooth_length(2n - 1)`` (2,205 points at n = 1,100), of psi_{r_i}
    at the lags (1 - n) dx ... (n - 1) dx, stored from column 0: real FFTs
    when data and kernels are real. A block is one ``_scaled_kernel`` call on
    the lags in its r * supports and the nearest beyond each end (0 elsewhere
    up to ``length``, in the FFT's dtype) and one FFT along the last axis,
    about ``_BLOCK_BYTES`` of spectra. The
    wavelet holds the last ladder that fits ``_LADDER_BYTES``, so the
    ``icwt`` after a ``cwt`` on the same grid evaluates no psi; a call that
    misses drops the held ladder first, so no call holds two.
    """
    key = (n, dx, scales.tobytes(), complex_data)
    held = psi._ladder.get(key)
    if held is not None:
        yield from held
        return
    psi._ladder.clear()  # a call holds one ladder at a time, as the plan charges
    lags = dx * np.arange(1 - n, n)
    step = max(1, _BLOCK_BYTES // (16 * length))
    blocks, kept = [], 0
    for lo in range(0, scales.size, step):
        rows = slice(lo, lo + step)
        ends = [r * end for r in scales[rows][[0, -1]].tolist() for end in psi.support]
        a, b = np.searchsorted(lags, (min(ends), max(ends))).tolist()  # every r * support,
        a, b = max(a - 1, 0), min(b + 1, lags.size)  # and the nearest lag beyond each end
        part = _scaled_kernel(psi, lags[a:b], scales[rows, None])
        complex_kernel = np.iscomplexobj(part)
        if complex_data or complex_kernel:
            fft = np.fft.fft, np.fft.ifft, np.complex128
        else:
            fft = np.fft.rfft, np.fft.irfft, np.float64
        kernels = np.zeros((part.shape[0], length), fft[2])  # the FFT's length and dtype: it pads
        kernels[:, a:b] = part  # and casts nothing
        del part
        spectra = fft[0](kernels)
        spectra.setflags(write=False)
        del kernels
        kept += spectra.nbytes
        blocks = blocks + [(rows, spectra, fft)] if kept <= _LADDER_BYTES else None
        yield rows, spectra, fft
    if blocks is not None:
        # Complex kernels take complex FFTs for real and complex data alike.
        for kind in (False, True) if complex_kernel else (complex_data,):
            psi._ladder[key[:-1] + (kind,)] = blocks


def cwt(f: SampledFunction, psi: AnalyzingWavelet, grid: CwtGrid) -> CwtCoefficients:
    """Trapezoidal <psi_{r,s}|f> for every grid point.

    When every shift is a sample point of f, each row is the FFT
    cross-correlation of the weighted samples with psi_r at the 2n - 1 lags
    (0 outside r * support), a block of scales at a time: 2S + 1 FFTs (S + 1
    on a held ladder), work memory of a few blocks plus the ladder held for
    ``icwt``. On every sample the correlation is copied out in two slices,
    on a subset gathered. Other shift grids take a dense (shifts x n) kernel
    per scale, psi untruncated on purpose: cut at the support, the paths'
    different rounding of x - s turns edge values (the mexican hat's psi(8) =
    -8e-13) into jumps that take their agreement at dx = 0.1 to its 1e-12
    bound.

    Raises ResolutionError when any scale squeezes the wavelet support onto
    fewer than 4 grid steps, and SizeError, before allocating, when the
    plan's charge passes the byte budget: the complex S x shifts result plus
    the work of its path (``_plan``), which covers the traced peak of either
    direction.
    """
    smallest = float(grid.scales[0])
    if smallest * psi.width < 4.0 * f.dx:
        raise ResolutionError(
            f"scale {smallest:g} leaves fewer than 4 samples across the "
            f"wavelet support (dx = {f.dx:g}); shrink dx or raise the scale"
        )
    idx, length = _plan("cwt", f.x_min, f.dx, f.size, grid)
    weighted = f.values * f.trapezoid_weights()
    if idx is None:
        offsets = f.xs[None, :] - grid.shifts[:, None]
        matrix = np.stack(
            [np.conj(_scaled_kernel(psi, offsets, float(r))) @ weighted for r in grid.scales]
        )
    else:
        # Column t of the circular cross-correlation pairs sample k with lag
        # k - t, so sample m reads t = m - (n - 1) mod length: on every sample,
        # the last n - 1 columns and then column 0.
        n = f.size
        cols = None if idx.size == n else (idx - (n - 1)) % length
        matrix = None
        blocks = _kernel_spectra(psi, n, length, f.dx, grid.scales, np.iscomplexobj(weighted))
        for rows, spectra, (forward, inverse, dtype) in blocks:
            if matrix is None:
                signal = forward(weighted, length)
                matrix = np.empty(grid.shape, dtype)
            product = np.conj(spectra)
            product *= signal
            wrapped = inverse(product, length)
            if cols is None:
                matrix[rows, : n - 1] = wrapped[:, length - n + 1 :]
                matrix[rows, n - 1] = wrapped[:, 0]
            else:
                matrix[rows] = wrapped[:, cols]
            del wrapped  # not held while the next block's product is built
    return CwtCoefficients(matrix, grid, f.x_min, f.dx, f.size)


def icwt(c: CwtCoefficients, psi: AnalyzingWavelet) -> SampledFunction:
    """Invert ``cwt`` output on its source grid.

    Double trapezoid over the grid with measure dr ds / r^2, scaled by
    2 / C: the grid holds positive scales only, and for a real-valued
    wavelet the omitted negative-scale half contributes exactly the same
    amount. Accuracy is set by the grid; a single-scale grid yields the zero
    function (degenerate quadrature) rather than an error.

    When every shift is a sample point, a block of scales' weighted
    coefficients is spread onto the samples (on every sample, by the FFT's
    own zero padding), transformed in one FFT, times
    the kernel spectra (held from a ``cwt`` on the same grid) and summed over
    scales before one inverse FFT: S + 1 FFTs on a held ladder (2S + 1
    otherwise), work memory of a few blocks plus the held ladder. Other shift
    grids take a dense (shifts x n) kernel per scale, on a sample grid built
    only then.

    Raises SizeError, before allocating or evaluating psi, when the charge
    of the same plan as ``cwt`` passes the byte budget.
    """
    idx, length = _plan("icwt", c.x_min, c.dx, c.n_samples, c.grid)
    constant = admissibility(psi)
    wr = _trapezoid_weights(np.diff(c.scales))
    ws = _trapezoid_weights(np.diff(c.shifts))
    if idx is None:
        offsets = c.sample_grid()[None, :] - c.shifts[:, None]
        out = sum((wr[i] / (r * r)) * ((c.matrix[i] * ws) @ _scaled_kernel(psi, offsets, float(r)))
                  for i, r in enumerate(c.scales))
    else:
        dtype = np.result_type(c.matrix, ws)
        total = 0.0
        blocks = _kernel_spectra(psi, c.n_samples, length, c.dx, c.scales, np.iscomplexobj(c.matrix))
        for rows, spectra, (forward, inverse, _) in blocks:
            if idx.size == c.n_samples:  # every sample: the FFT's zero padding spreads them
                spread = c.matrix[rows] * ws
            else:
                spread = np.zeros((spectra.shape[0], c.n_samples), dtype)
                spread[:, idx] = c.matrix[rows] * ws
            product = forward(spread, length)
            product *= spectra
            total = total + (wr[rows] / c.scales[rows] ** 2) @ product
        out = inverse(total, length)[c.n_samples - 1 : 2 * c.n_samples - 1]
    return SampledFunction(x_min=c.x_min, dx=c.dx, values=out * (2.0 / constant))


def _grid_points(grid) -> tuple[float, float, int]:
    """Accept a SampledFunction or a uniform 1-d array of sample points."""
    if isinstance(grid, SampledFunction):
        return grid.x_min, grid.dx, grid.size
    xs = np.atleast_1d(np.asarray(grid, dtype=float))
    if xs.ndim != 1 or xs.size < 2:
        raise ShapeError("grid must be a 1-d array of at least two points")
    steps = np.diff(xs)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-9, atol=0.0):
        raise DomainError("grid points must be uniformly increasing")
    return float(xs[0]), dx, xs.size


def _dyadic_scale(j, width: float = 0.0, dx: float = 1.0) -> float:
    """2^j; a ``DomainError`` naming j unless it is a positive finite double and
    width/(2^j dx), ``parseval_ratio``'s samples per support, is finite."""
    try:
        scale = 2.0 ** float(j)
        per_support = float(width) / (scale * dx)
    except (OverflowError, ZeroDivisionError):
        scale = per_support = math.inf
    if not (0.0 < scale < math.inf and math.isfinite(per_support)):
        raise DomainError(f"level j = {j}: 2^j or width/(2^j dx) is not a positive finite double")
    return scale


def dyadic_sample(psi: AnalyzingWavelet, j: int, k: int, grid) -> SampledFunction:
    """Samples of psi_{j,k}(x) = 2^{j/2} psi(2^j x - k) on the given grid.

    This is the unitary scale-and-shift action at scale 2^-j and shift
    k 2^-j, so every (j, k) has the same L2 norm as psi itself.
    """
    x_min, dx, n = _grid_points(grid)
    xs = x_min + dx * np.arange(n)
    scale = _dyadic_scale(j)
    values = math.sqrt(scale) * psi.evaluate(scale * xs - k)
    return SampledFunction(x_min=x_min, dx=dx, values=values)


def _auto_k_range(
    psi: AnalyzingWavelet,
    j: int,
    x_lo: float,
    x_hi: float,
    scale: float | None = None,
    k_range: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Smallest k interval whose psi_{j,k} supports can touch [x_lo, x_hi],
    cut to ``k_range`` if given; ``scale`` is 2^j where the caller holds it.
    A ``DomainError`` naming j where it spans more than ``_MAX_SHIFTS`` ks,
    or where 2^j x_lo or 2^j x_hi overflows."""
    lo, hi = psi.support
    scale = _dyadic_scale(j) if scale is None else scale
    k_lo, k_hi = np.floor(scale * x_lo - hi) - 1, np.ceil(scale * x_hi - lo) + 1
    if k_range is not None:
        k_lo, k_hi = max(k_lo, int(k_range[0])), min(k_hi, int(k_range[1]))
    if not k_hi - k_lo < _MAX_SHIFTS:  # also where a bound is inf or nan
        raise DomainError(
            f"level j = {j}: {float(k_hi - k_lo + 1):.3g} shifts k, over the "
            f"{_MAX_SHIFTS} one level may take"
        )
    return int(k_lo), int(k_hi)


def _conj(a: np.ndarray) -> np.ndarray:
    """conj(a), with no copy of a real array."""
    return np.conj(a) if np.iscomplexobj(a) else a


def parseval_ratio(
    f: SampledFunction,
    psi: AnalyzingWavelet,
    j_range: tuple[int, int],
    k_range: tuple[int, int] | None = None,
) -> float:
    """sum_{j,k} |<psi_{j,k}|f>|^2 / ||f||^2 with Riemann-sum inner products.

    ``j_range`` and ``k_range`` are inclusive; ``k_range=None`` covers, for
    each j, every k whose wavelet support meets f's grid. For a wavelet
    family that resolves the identity the ratio climbs to 1 as the ranges
    grow, as long as the grid resolves every level: where psi_{j,k} spans
    fewer than about two samples (width / (2^j dx) < 2) the Riemann sums no
    longer approximate the inner products, and the ratio can exceed 1.
    ``haar_psi`` on the unit box sampled over [-2, 4) at dx = 0.01 reads
    1.28 at j = 7 alone, whose supports span 0.78 samples. Such levels are
    computed as stated, not refused. Each term is nonnegative, so the ratio
    is monotone in the ranges. Empty ranges give 0.

    psi_{j,k} is evaluated only on the samples near its support: a k whose
    support misses the grid adds nothing, and where the support spans fewer
    samples than the grid, each inner product runs over its own window.
    """
    norm_sq = float((np.abs(f.values) ** 2).sum() * f.dx)
    if norm_sq == 0.0:
        raise DomainError("parseval ratio needs a nonzero function")
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    n = f.size
    lo = psi.support[0]
    total = 0.0
    for j in range(j_lo, j_hi + 1):
        scale = _dyadic_scale(j, psi.width, f.dx)
        k_lo, k_hi = _auto_k_range(psi, j, f.x_min, f.x_max, scale, k_range)
        amp = math.sqrt(scale) * f.dx
        # Samples across the support, plus one either side for rounding.
        w = int(np.ceil(psi.width / (scale * f.dx))) + 4
        # Where the support spans fewer samples than the grid, grid and values
        # are padded by w samples each side, so every window that meets the
        # grid lies inside them; the padded values are 0.
        pad = w if w < n else 0
        scaled_xs = scale * (f.x_min + f.dx * np.arange(-pad, n + pad))
        values = np.pad(f.values, pad) if pad else f.values
        for block_lo in range(k_lo, k_hi + 1, 256):
            ks = np.arange(block_lo, min(block_lo + 256, k_hi + 1))
            # The first sample of each support's window, less one for rounding.
            starts = np.floor(((lo + ks) / scale - f.x_min) / f.dx) - 1
            meets = (starts > -w) & (starts < n)
            if w < n:
                ks, idx = ks[meets], (starts[meets].astype(np.intp) + w)[:, None] + np.arange(w)
                block = psi.evaluate(scaled_xs[idx] - ks[:, None])
                coeffs = amp * np.einsum("kt,kt->k", _conj(block), values[idx])
            else:  # rows off the grid stay 0: the product's rounding depends on its row count
                part = psi.evaluate(scaled_xs[None, :] - ks[meets, None])
                block = np.zeros((ks.size, n), part.dtype)
                block[meets] = part
                coeffs = amp * (_conj(block) @ values)
            total += float((np.abs(coeffs) ** 2).sum())
    return total / norm_sq
