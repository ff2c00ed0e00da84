"""One-dimensional two-channel filter bank on periodic signals.

Analysis splits an even-length signal x into half-length averages y and
details z:

    y_i = sqrt(2) * sum_t conj(h_t) x_{(2i+t) mod n}
    z_i = sqrt(2) * sum_t conj(g_t) x_{(2i+t) mod n}

with g the derived high-pass companion. Synthesis is the adjoint and the two
compose to the identity whenever the filter passes ``qmf_check``: the
downsampling operators are isometries with orthogonal ranges summing to the
whole space, which ``cuntz_check`` verifies on materialized matrices.

Every step here and in :mod:`wavekit.image2d` is ``_split`` (analysis
along a tuple of axes, one after the other: ``(0,)`` for a signal, ``(1, 0)``
for an image) or its adjoint ``_merge``, behind one input gate ``_checked``.
Along each axis they run one kernel pair, ``_analyze_axis`` and
``_synthesize_axis``, on the even and odd phases x[0::2], x[1::2] (the
pyramid algorithm of Mallat 1989): sample (2i+s) mod n is phase s mod 2
shifted cyclically by floor(s/2), so a band costs L contiguous multiply-adds
over half-length slices, with no index arrays. Each level rule is stated
once, in ``max_levels`` (and ``image2d.max_levels_2d``); ``_check_levels``
accepts exactly the depths 1..max. ``subband_matrices`` keeps its own index
formula, so the tests check the kernel against an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LevelError, ParameterError, ShapeError, SizeError
from .filters import FilterSpec, derive_highpass

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class SubbandPair:
    """One analysis step's output: averages ``y`` and details ``z``."""

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y))
        z = np.atleast_1d(np.asarray(self.z))
        if y.ndim != 1 or z.ndim != 1 or y.size != z.size:
            raise ShapeError("y and z must be 1-d arrays of equal length")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class Pyramid1D:
    """Multilevel decomposition: details per level plus the final averages.

    ``details[l]`` holds the level-(l+1) details of length n / 2^(l+1);
    ``approx`` holds the deepest averages. Total coefficient count equals the
    original signal length.
    """

    details: tuple[np.ndarray, ...]
    approx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(self.details))
        if not self.details:
            raise ShapeError("a pyramid needs at least one detail level")

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def signal_length(self) -> int:
        return 2 * self.details[0].size

    def coefficient_count(self) -> int:
        return self.approx.size + sum(d.size for d in self.details)


@dataclass(frozen=True)
class SubbandMatrices:
    """Materialized periodized operators for an n-point signal.

    ``synthesis_low``/``synthesis_high`` are the n x n/2 upsampling isometries
    (entries sqrt(2) h_{(i-2j) mod n}); ``analysis_low``/``analysis_high`` the
    n/2 x n adjoints (entries sqrt(2) conj(h_{(j-2i) mod n})). Each column of a
    synthesis matrix is the previous column rolled by two rows, which is the
    slanted band structure the tests pin down.
    """

    n: int
    synthesis_low: np.ndarray
    synthesis_high: np.ndarray
    analysis_low: np.ndarray
    analysis_high: np.ndarray


@dataclass(frozen=True)
class CuntzReport:
    """Deviations of the five operator identities checked by ``cuntz_check``.

    ``isometry_low`` and ``isometry_high`` measure analysis . synthesis minus
    the identity on the half-size space for the matching channel;
    ``cross_low_high``/``cross_high_low`` the mixed products against zero; and
    ``completeness`` the sum of the two range projections against the identity
    on the full space.
    """

    n: int
    tolerance: float
    isometry_low: float
    isometry_high: float
    cross_low_high: float
    cross_high_low: float
    completeness: float
    max_deviation: float
    passed: bool


def _periodized(c: np.ndarray, start: int, n: int) -> np.ndarray:
    per = np.zeros(n, dtype=c.dtype)
    for t in range(c.size):
        per[(start + t) % n] += c[t]
    return per


def _analyze_axis(
    x: np.ndarray, c: np.ndarray, start: int, axis: int, scale: float
) -> np.ndarray:
    """scale * sum_t conj(c_t) x_{(2i+start+t) mod n} along ``axis``.

    With s = start + t, sample (2i+s) mod n is entry (i + s//2) mod n/2 of
    the phase x[s%2::2], so each tap adds that phase shifted cyclically: two
    contiguous slices, or one when the shift is zero. No index arrays.
    """
    xs = x.swapaxes(0, axis)
    half = xs.shape[0] // 2
    shape = list(x.shape)
    shape[axis] = half
    out = np.zeros(shape, dtype=np.result_type(x.dtype, c.dtype, np.float64))
    acc = out.swapaxes(0, axis)
    phases = (xs[0::2], xs[1::2])
    for t, ct in enumerate(np.conj(c)):
        phase = phases[(start + t) % 2]
        k = ((start + t) // 2) % half
        acc[: half - k] += ct * phase[k:]
        if k:
            acc[half - k :] += ct * phase[:k]
    out *= scale
    return out


def _synthesize_axis(
    out: np.ndarray, y: np.ndarray, c: np.ndarray, start: int, axis: int, scale: float
) -> np.ndarray:
    """Adjoint of :func:`_analyze_axis`: add the upsampled, filtered ``y`` into
    ``out`` (twice y's length along ``axis``), as scale * c_t * y per tap
    into the shifted phase out[s%2::2]."""
    ys = y.swapaxes(0, axis)
    half = ys.shape[0]
    acc = out.swapaxes(0, axis)
    phases = (acc[0::2], acc[1::2])
    for t, ct in enumerate(c):
        phase = phases[(start + t) % 2]
        k = ((start + t) // 2) % half
        phase[k:] += scale * ct * ys[: half - k]
        if k:
            phase[:k] += scale * ct * ys[half - k :]
    return out


def _split(x: np.ndarray, f: FilterSpec, axes: tuple[int, ...], scale: float) -> list:
    """Analyze along each axis in turn, low band before high: 2^len(axes)
    bands, ordered like binary numbers with the first axis as the top bit.

    ``scale`` is applied on the last axis only, so 1-d is ``axes=(0,)`` with
    sqrt(2) and the 2-d step ``axes=(1, 0)`` with the exact factor 2, giving
    the bands (a, v, h, d).
    """
    g = derive_highpass(f)
    bands = [x]
    for axis in axes:
        s = scale if axis == axes[-1] else 1.0
        bands = [_analyze_axis(b, c.h, c.start, axis, s) for b in bands for c in (f, g)]
    return bands


def _merge(bands, f: FilterSpec, axes: tuple[int, ...], scale: float) -> np.ndarray:
    """Adjoint of :func:`_split`: merge sibling bands pairwise, last axis
    first, into one array whose dtype comes from the bands and the filter."""
    g = derive_highpass(f)
    dtype = np.result_type(*(b.dtype for b in bands), f.h.dtype, np.float64)
    for axis in reversed(axes):
        s = scale if axis == axes[-1] else 1.0
        merged = []
        for low, high in zip(bands[0::2], bands[1::2]):
            shape = list(low.shape)
            shape[axis] *= 2
            out = np.zeros(shape, dtype=dtype)
            _synthesize_axis(out, low, f.h, f.start, axis, s)
            merged.append(_synthesize_axis(out, high, g.h, g.start, axis, s))
        bands = merged
    return bands[0]


def _checked(x, f: FilterSpec, ndim: int) -> np.ndarray:
    """The input gate of every 1-d (``ndim=1``) and 2-d analysis: each axis
    even, at least 2 and no shorter than the filter."""
    arr = np.atleast_1d(np.asarray(x))
    what = "signal" if ndim == 1 else "image"
    if arr.ndim != ndim:
        raise SizeError(f"{what}s must be {ndim}-d arrays")
    for n in arr.shape:
        if n < 2 or n % 2 != 0:
            raise SizeError(f"{what} shape {arr.shape} needs even sizes >= 2")
        if n < f.length:
            raise SizeError(
                f"{what} size {n} is shorter than the filter ({f.length} taps)"
            )
    return arr


def analysis_step(x, f: FilterSpec) -> SubbandPair:
    """Split x into averages and details (half length each).

    Requires len(x) even and at least the filter length. Indices wrap mod n,
    so the step is exactly invertible by ``synthesis_step`` for filters that
    pass ``qmf_check``.
    """
    y, z = _split(_checked(x, f, 1), f, (0,), SQRT2)
    return SubbandPair(y=y, z=z)


def synthesis_step(p: SubbandPair, f: FilterSpec) -> np.ndarray:
    """Merge an averages/details pair back into a double-length signal."""
    if p.y.size < 1:
        raise ShapeError("cannot synthesize from empty bands")
    return _merge((p.y, p.z), f, (0,), SQRT2)


def max_levels(n: int, f: FilterSpec) -> int:
    """Largest admissible pyramid depth for an n-point signal: each level
    halves an even length and leaves at least max(L, 2) samples. The
    admissible depths are exactly 1..max_levels."""
    floor = max(f.length, 2)
    lev = 0
    while n % 2 == 0 and n // 2 >= floor:
        n //= 2
        lev += 1
    return lev


def _check_levels(n_lev, admissible: int, what: str) -> None:
    """Accept depths 1..admissible, the downward-closed set a
    ``max_levels`` function reports for ``what`` (a length or shape)."""
    if not isinstance(n_lev, (int, np.integer)) or n_lev < 1:
        raise LevelError(f"level count must be a positive integer, got {n_lev!r}")
    if n_lev > admissible:
        raise LevelError(f"{n_lev} levels requested; {what} admits at most {admissible}")


def dwt1d(x, f: FilterSpec, n_lev: int) -> Pyramid1D:
    """Full pyramid: repeat ``analysis_step`` on the averages n_lev times.

    A depth beyond ``max_levels(len(x), f)`` raises LevelError.
    """
    arr = _checked(x, f, 1)
    _check_levels(n_lev, max_levels(arr.size, f), f"length {arr.size}")
    details = []
    current = arr
    for _ in range(n_lev):
        pair = analysis_step(current, f)
        details.append(pair.z)
        current = pair.y
    return Pyramid1D(details=tuple(details), approx=current)


def idwt1d(p: Pyramid1D, f: FilterSpec) -> np.ndarray:
    """Invert ``dwt1d``. Detail lengths must chain consistently."""
    current = np.asarray(p.approx)
    for level in range(p.levels - 1, -1, -1):
        z = np.asarray(p.details[level])
        if z.size != current.size:
            raise ShapeError(
                f"detail level {level + 1} has length {z.size}, expected "
                f"{current.size}"
            )
        current = synthesis_step(SubbandPair(y=current, z=z), f)
    return current


def subband_matrices(f: FilterSpec, n: int) -> SubbandMatrices:
    """Materialize the four periodized operators for an n-point signal.

    Analysis matrices are built from their own index formula, not by
    transposing, so agreement with the conjugate transpose is a real check.
    """
    if n % 2 != 0 or n < 2:
        raise SizeError(f"n must be even and positive, got {n}")
    g = derive_highpass(f)
    hp = _periodized(f.h, f.start, n)
    gp = _periodized(g.h, g.start, n)
    half = n // 2
    i = np.arange(n)[:, None]
    j = np.arange(half)[None, :]
    synthesis_low = SQRT2 * hp[(i - 2 * j) % n]
    synthesis_high = SQRT2 * gp[(i - 2 * j) % n]
    ii = np.arange(half)[:, None]
    jj = np.arange(n)[None, :]
    analysis_low = SQRT2 * np.conj(hp[(jj - 2 * ii) % n])
    analysis_high = SQRT2 * np.conj(gp[(jj - 2 * ii) % n])
    return SubbandMatrices(
        n=n,
        synthesis_low=synthesis_low,
        synthesis_high=synthesis_high,
        analysis_low=analysis_low,
        analysis_high=analysis_high,
    )


def cuntz_check(f: FilterSpec, n: int, tol: float = 1e-10) -> CuntzReport:
    """Check the isometry, orthogonality and completeness identities at size n.

    Requires n >= 2L so the periodized taps do not self-overlap. A QMF filter
    drives every deviation to rounding level; h = (1, 0) fails with deviation
    1/2 or worse.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError("tol must be a nonneg finite float")
    if n < 2 * f.length:
        raise SizeError(f"cuntz_check needs n >= 2L = {2 * f.length}, got {n}")
    m = subband_matrices(f, n)
    eye_half = np.eye(n // 2)
    eye_full = np.eye(n)
    dev = {
        "isometry_low": np.abs(m.analysis_low @ m.synthesis_low - eye_half).max(),
        "isometry_high": np.abs(m.analysis_high @ m.synthesis_high - eye_half).max(),
        "cross_low_high": np.abs(m.analysis_low @ m.synthesis_high).max(),
        "cross_high_low": np.abs(m.analysis_high @ m.synthesis_low).max(),
        "completeness": np.abs(
            m.synthesis_low @ m.analysis_low
            + m.synthesis_high @ m.analysis_high
            - eye_full
        ).max(),
    }
    worst = float(max(dev.values()))
    return CuntzReport(
        n=n,
        tolerance=float(tol),
        isometry_low=float(dev["isometry_low"]),
        isometry_high=float(dev["isometry_high"]),
        cross_low_high=float(dev["cross_low_high"]),
        cross_high_low=float(dev["cross_high_low"]),
        completeness=float(dev["completeness"]),
        max_deviation=worst,
        passed=worst <= tol,
    )
