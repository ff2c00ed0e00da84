"""One-dimensional two-channel filter bank on periodic signals.

Analysis splits an even-length signal x into half-length averages y and
details z:

    y_i = sqrt(2) * sum_t conj(h_t) x_{(2i+t) mod n}
    z_i = sqrt(2) * sum_t conj(g_t) x_{(2i+t) mod n}

with g the derived high-pass companion. Synthesis is the adjoint and the two
compose to the identity whenever the filter passes ``qmf_check``: the
downsampling operators are isometries with orthogonal ranges summing to the
whole space, which ``cuntz_check`` verifies on this same kernel.

Every step here and in :mod:`wavekit.image2d` is ``_split`` (analysis along
one axis) or its adjoint ``_merge``, at every output or, into arrays the caller
passes, at a range of them: the 2-d step runs them strip by strip. Every
analysis passes one input gate, ``_checked``; every inverse, and the container
writer of :mod:`wavekit.io`, first passes ``_check_chain``, the one rule for
how the bands chain. Both run one kernel, ``_polyphase_product``, the polyphase
form of the pyramid algorithm (Mallat 1989; Vaidyanathan 1993, ch. 6), as
``_split`` states it: it gathers a block of outputs, sized by the one rule
``_block``, once and makes each band one matmul, written straight into the
caller's arrays. With one sample per row a row makes ``_ROWS`` outputs, a window times a banded block of the taps (one
for complex taps and for a block's leftover outputs), and only ``_kernel_taps``
knows the taps' layout. Any axes before and after the filtered one ride along,
so the 1-d step, both passes of the 2-d step and batched rows share it. Each
level rule is stated once, in ``max_levels`` (and ``image2d.max_levels_2d``);
``_check_levels`` accepts exactly the depths 1..max. ``subband_matrices`` is
the tests' oracle.

A short signal, up to ``_OPERATOR_MAX_N`` samples, skips the per-level kernel
runs in ``dwt1d`` and ``idwt1d``: for a fixed filter, length and depth the
pyramid is one n x n matrix M, built by the kernel and cached on the filter
(``_pyramid_operator``), so a call is its gates and one product. A cached M
vouches for the gates on the length and depth, so ``dwt1d`` looks it up before
any. The product c that ``dwt1d`` returns vouches for the chain rule: its bands
are consecutive views of c, which the pyramid holds (``Pyramid1D._flat``), so
while a pyramid's ``details`` and ``approx`` are still those views ``idwt1d``
inverts c itself, with no chain rule and no concatenation. Every other pyramid
(built by hand, copied, unpickled or with a field swapped) runs the chain rule
once. A 64-sample db4 round trip takes about 5 us (timeit, one BLAS thread).
The other callers (``analysis_step``, ``synthesis_step``, ``cuntz_check``, the
2-d pyramid) run the kernel.
"""
from __future__ import annotations

__all__ = [
    "CuntzReport",
    "Pyramid1D",
    "SubbandMatrices",
    "SubbandPair",
    "analysis_step",
    "cuntz_check",
    "dwt1d",
    "idwt1d",
    "max_levels",
    "subband_matrices",
    "synthesis_step",
]

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LevelError, ParameterError, ShapeError, SizeError, _charge
from .filters import FilterSpec, derive_highpass

_SQRT2 = float(np.sqrt(2.0))
_FLOAT64 = np.dtype(np.float64)

#: Fewest outputs per channel in one block of ``_polyphase_product`` (64 KiB
#: of float64, with a gather buffer about twice that): the block of every pass
#: over up to 2^18 samples. A flat 2^14 took the tracemalloc peak of a
#: 2^16-sample round trip to 3.009 signal sizes, a flat 2^15 that of a 6-level
#: db4 ``dwt2d`` of 512^2 to 1.760 image sizes; the tests allow 3.01 and 1.6.
_BLOCK = 1 << 13

#: Most bytes of output per channel in one block: 2^15 float64 or 2^14
#: complex128 outputs, whose gather buffer fits in a core's 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 18

#: Outputs per BLAS row with one sample per row, float64 taps only. A 2048^2 db4
#: row pass: 11.4 ms at 1, 8.3 at 4, 7.7 at 8, 8.6 at 16 (best of 7, 1 BLAS thread).
_ROWS = 8

#: Longest signal whose ``dwt1d``/``idwt1d`` is one product with the cached
#: pyramid operator (see ``_pyramid_operator``) instead of a kernel run per
#: level; 0 sends every call to the kernel. A full-depth db4 round trip took
#: 7.5 against 124 us at n = 64, 20 against 180 at 256 and 84 against 217 at
#: 512, whose operator is 2 MiB (timeit, 2 cores, OpenBLAS on one thread).
_OPERATOR_MAX_N = 256

#: Most bytes the pyramid operators cached on one filter may hold: four
#: float64 operators at n = 256, or 64 at n = 64. A call whose operator
#: would not fit runs the kernel.
_OPERATOR_BYTES = 1 << 21
_OPERATOR_CODES = "?" + np.typecodes["AllInteger"] + "efdFD"  #: data that fits in complex128


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

    A pyramid that ``dwt1d`` computed as one product also holds that
    product, the coefficient vector c whose consecutive views are its bands,
    in the private field ``_flat`` = (details, approx, c); others hold None.
    ``idwt1d`` inverts c itself while ``details`` and ``approx`` are still
    those objects, so values written into the bands count, but a band's
    ``shape`` or ``dtype`` attribute set in place does not. ``_flat`` is
    not a parameter of ``__init__`` and takes no part in equality or repr;
    copies, pickles and ``dataclasses.replace`` leave it out, so no second
    copy of the coefficients travels with them.
    """

    details: tuple[np.ndarray, ...]
    approx: np.ndarray
    _flat: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        details = tuple(np.atleast_1d(np.asarray(z)) for z in self.details)
        if not details:
            raise ShapeError("a pyramid needs at least one detail level")
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "approx", np.atleast_1d(np.asarray(self.approx)))

    def __getstate__(self) -> dict:  # what copy and pickle keep: no _flat
        return {"details": self.details, "approx": self.approx}

    @classmethod
    def _of(cls, details: tuple, approx: np.ndarray, c: np.ndarray | None = None) -> Pyramid1D:
        """The pyramid of ``dwt1d``'s own 1-d bands, taken as they are, and
        the vector c they are views of, if they are."""
        p = object.__new__(cls)
        flat = None if c is None else (details, approx, c)
        p.__dict__.update(details=details, approx=approx, _flat=flat)
        return p

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
    np.add.at(per, (start + np.arange(c.size)) % n, c)
    return per


def _block(samples: int, itemsize: int) -> int:
    """Outputs per channel in each block of a pass over a signal or image of
    ``samples`` samples of ``itemsize`` bytes: a 32nd of it, between
    ``_BLOCK`` and ``_BLOCK_BYTES`` of outputs. The 2048^2 db4 round trip
    took 39.6 / 34.8 / 33.0 / 34.2 ms in blocks of 2^13 / 2^14 / 2^15 / 2^16
    (a loop shaped like the benchmark's pass, best of 9, 1 BLAS thread)."""
    return max(_BLOCK, min(_BLOCK_BYTES // itemsize, samples // 32))


def _polyphase_product(srcs, taps: np.ndarray, dsts, axis: int, first: int = 0, samples=None) -> None:
    """The periodic polyphase product behind every filter-bank step:

        out_j[l, i - first, t] = sum_q sum_s taps[2q + s, j] in_s[l, (i + q + u_j + v_s) mod half, t]

    along ``axis`` at the outputs i in [first, first + count), l and t
    running over the axes before and after it. The two channels in_s come from
    ``srcs``, (array, v) pairs, and the out_j go to ``dsts``, (array, u)
    pairs: C-contiguous arrays of the dtype of ``taps``, the inputs' shape
    but count long along ``axis`` for each of their channels. An array
    2 half long along ``axis`` holds two channels, its phases, and one half
    long holds one.

    In the blocks ``_block`` gives ``samples``, by default the inputs' size
    (whole trailing rows, and whole index ranges when a block spans lead
    rows), the wrapped input is
    gathered once, its channels interleaved, into one buffer per call. The
    2Q samples that meet output i then sit at even steps from entry i + u, so
    one overlapping strided view holds every window, and each result block
    is one matmul of that view with its columns of ``taps``, written in place
    through a strided view of the result. A product's rows are the trailing
    samples of one output or, one sample a row, r outputs i0 + r(p a + e) + t
    (t < r) of phase e: windows of 2Q + 2(r - 1) samples, 2rp >= that apart
    as BLAS needs, times the banded ``taps``. Trailing samples and the k mod
    rp outputs a block of k has left over take one a row, times its corner.
    """
    shape = srcs[0][0].shape
    half = sum(a.shape[axis] for a, _ in srcs) // 2
    lead, trail = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
    c, band = 2 // len(dsts), taps.shape[1] // 2
    count = dsts[0][0].shape[axis] // c
    r, width = band if trail == 1 else 1, len(taps) - 2 * band + 2
    span = width // 2 - 1 + max(u for _, u in dsts)
    block = _block(samples or sum(a.size for a, _ in srcs), taps.itemsize)
    ib = min(count, max(1, block // trail))
    lb = min(lead, max(1, block // (ib * trail)))
    p = 1 << ((width // 2 + r - 2) // r).bit_length() if trail == 1 else 1
    gathered = np.empty(lb * (ib + span) * 2 * trail, dtype=taps.dtype)
    srcs = [(a.reshape(lead, half, -1, trail), v) for a, v in srcs]
    it = gathered.itemsize
    pair = 2 * trail * it
    # Windows and result blocks are strided views of the flat buffers as
    # (lead, phase, row, trailing sample, tap or output), the trailing
    # sample left out when there is one per row.
    t_shape, last = ((trail,), (it, trail * it)) if trail > 1 else ((), (it,))
    step = c * trail * it
    products = [
        (a, u, cols) for (a, u), cols in zip(dsts, (taps[:, : band * c], taps[:, band * c :]))
    ]
    for l0 in range(0, lead, lb):
        rows = slice(l0, min(l0 + lb, lead))
        m = rows.stop - l0
        for i0 in range(first, first + count, ib):
            k = min(ib, first + count - i0)
            g = gathered[: m * (k + span) * 2 * trail].reshape(m, k + span, 2, trail)
            s = 0
            for a, v in srcs:
                src, dst = (i0 + v) % half, 0
                while dst < k + span:  # in runs, wrapping mod half as often as needed
                    n = min(half - src, k + span - dst)
                    g[:, dst : dst + n, s : s + a.shape[2]] = a[rows, src : src + n]
                    src, dst = 0, dst + n
                s += a.shape[2]
            # p phases of k // rp rows of r outputs, then the k mod rp left, one a row
            rem = k % (r * p)
            for e, q, n, o in [t for t in ((0, p, k // (r * p), r), (k - rem, 1, rem, 1)) if t[2]]:
                lanes, wsteps = (m, q, n), (g.strides[0], o * pair, o * q * pair) + last
                osteps = (count * step, o * step, o * q * step) + last
                wtail, tail = t_shape + (width + 2 * o - 2,), t_shape + (o * c,)
                at = (l0 * count + i0 - first + e) * step
                for a, u, cols in products:  # the whole band, or its corner
                    w = np.ndarray(lanes + wtail, g.dtype, gathered, (u + e) * pair, wsteps)
                    out = np.ndarray(lanes + tail, a.dtype, a, at, osteps)
                    np.matmul(w, cols if o == band else cols[:width, :c], out=out)


def _kernel_taps(f: FilterSpec, synthesis: bool, scale: float, dtype) -> tuple:
    """((o_h, o_g), taps): the (2Q, 2) taps T of ``_polyphase_product`` times
    ``scale`` for input of ``dtype``, read-only, in the result dtype, cached
    on ``f`` with the offsets. Each of h and its companion g starts on a
    whole pair of samples, 2 o_b, and both are padded to one even width 2Q:
    C[b, 2q + s] is the tap of band b (0 for h, 1 for g) at index
    2 (o_b + q) + s. Analysis column b is conj(C[b]); synthesis column s
    holds C[b, 2(Q-1-q) + s] at 2q + b, stored row by row like the phases it
    makes. T comes as a banded block B, r = ``_ROWS`` (1 unless float64):
    B[2t + m, r c j + c t + s] = T[m, c j + s] for the c = 1 (analysis) or
    2 columns of product j, so a row makes r outputs; the corner is T's."""
    key = (synthesis, scale, np.dtype(dtype), _ROWS)
    entry = f._tap_cache.get(key)
    if entry is None:
        bands = (f, derive_highpass(f))
        los = [b.start - b.start % 2 for b in bands]
        width = max(b.stop - lo for b, lo in zip(bands, los))
        c = np.zeros((2, width + width % 2), dtype=f.h.dtype)
        for row, b, lo in zip(c, bands, los):
            row[b.start - lo : b.stop - lo] = b.h
        if synthesis:
            c = c.reshape(2, -1, 2)[:, ::-1].transpose(1, 0, 2).reshape(-1, 2)
        else:
            c = np.conj(c).T
        taps = np.multiply(c, scale, dtype=np.result_type(dtype, c.dtype, np.float64))
        r, cols = _ROWS if taps.dtype == np.float64 else 1, 1 + synthesis
        block = np.zeros((len(c) + 2 * r - 2, 2 // cols, r, cols), taps.dtype)
        for t in range(r):
            block[2 * t : 2 * t + len(c), :, t] = taps.reshape(len(c), -1, cols)
        block.setflags(write=False)
        entry = f._tap_cache[key] = (los[0] // 2, los[1] // 2), block.reshape(len(block), -1)
    return entry


def _split(x: np.ndarray, f: FilterSpec, axis: int, scale: float, outs=None, first=0, samples=None) -> list:
    """Both bands of ``x`` along ``axis``, low then high:
    scale * sum_t conj(c_t) x_{(2i+start+t) mod n} for c = h and c = g, at
    every i into new arrays, or at i in [first, first + count) into ``outs``,
    two arrays count long along ``axis`` in the result dtype, in the
    kernel's blocks for ``samples`` (by default the size of ``x``).

    Sample 2(o_b + q + i) + s is entry o_b + q + i of the phase x[s::2], so
    band b at i is sum_q sum_s scale conj(C[b, 2q + s]) x[2(o_b + q + i) + s]
    with the offsets (o_h, o_g) and taps C of ``_kernel_taps``.
    """
    (o_h, o_g), taps = _kernel_taps(f, False, scale, x.dtype)
    half = x.shape[axis] // 2
    # New results before the kernel's short-lived gather buffer: in this order
    # the pyramid benchmark's peak RSS was 1% lower.
    if outs is None:
        outs = [np.empty(x.shape[:axis] + (half,) + x.shape[axis + 1 :], taps.dtype) for _ in "hg"]
    # Offsets count mod half; the shorter way from o_h to o_g bounds the gather buffer.
    gap = (o_g - o_h) % half
    base, us = (o_h, (0, gap)) if 2 * gap < half else (o_g, (half - gap, 0))
    _polyphase_product([(x, base)], taps, list(zip(outs, us)), axis, first, samples)
    return outs


def _merge(bands, f: FilterSpec, axis: int, scale: float, out=None, first=0, samples=None) -> np.ndarray:
    """Adjoint of :func:`_split`: from the bands (low, high), phase s of the
    output at k is sum_b sum_q scale C[b, 2q + s] band_b[k - q - o_b], at
    every k into a new array in the result dtype of the bands and the
    filter, or at k in [first, first + count) into ``out``, 2 count long
    along ``axis``, whose result dtype it computes in, in the kernel's
    blocks for ``samples`` (by default the bands' size). With q replaced by
    Q - 1 - q both phases come from one product, band b read from offset
    -o_b - (Q - 1), r less than half the block's 2(Q + r - 1) rows."""
    low, high = bands
    dtype = np.promote_types(low.dtype, high.dtype) if out is None else out.dtype
    offsets, taps = _kernel_taps(f, True, scale, dtype)
    if out is None:
        shape = low.shape[:axis] + (2 * low.shape[axis],) + low.shape[axis + 1 :]
        out = np.empty(shape, taps.dtype)
    srcs = [(y, taps.shape[1] // 2 - len(taps) // 2 - o) for y, o in zip(bands, offsets)]
    _polyphase_product(srcs, taps, [(out, 0)], axis, first, samples)
    return out


def _checked(x, f: FilterSpec, ndim: int) -> np.ndarray:
    """The input gate of every 1-d (``ndim=1``) and 2-d analysis: a numeric
    dtype, and each axis even, at least 2 and no shorter than the filter."""
    arr = np.atleast_1d(np.asarray(x))
    what = "signal" if ndim == 1 else "image"
    if arr.dtype.kind not in "biufc":
        raise DomainError(f"{what}s must be numeric, got dtype {arr.dtype}")
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


def _check_chain(approx: np.ndarray, levels, ndim: int) -> tuple[tuple[int, ...], np.dtype]:
    """The chain rule of every pyramid, 1-d (``ndim=1``) or 2-d: the averages
    are a nonempty ``ndim``-d array, each band of level l (``levels[l - 1]``)
    has the shape of the averages it merges with, and the planes have a
    common numeric dtype, promoted once over their distinct dtypes. Returns
    the shape of the signal or image the pyramid inverts to, and that dtype."""
    shape = approx.shape
    if len(shape) != ndim or approx.size == 0:
        raise ShapeError(f"averages of shape {shape} are not a nonempty {ndim}-d array")
    dtypes = {approx.dtype}
    for level in range(len(levels), 0, -1):
        for band in levels[level - 1]:
            if band.shape != shape:
                raise ShapeError(
                    f"detail level {level} has shape {band.shape}, expected {shape}"
                )
            dtypes.add(band.dtype)
        # A 1-d display takes a sixth of the comprehension's time.
        shape = (2 * shape[0],) if ndim == 1 else tuple([2 * n for n in shape])
    try:  # one dtype needs no promotion; the kind test below refuses it alike
        dtype = dtypes.pop() if len(dtypes) == 1 else np.result_type(*dtypes)
    except TypeError:  # no common dtype, e.g. datetimes among numbers
        dtype = None
    if dtype is None or dtype.kind not in "biufc":
        raise DomainError("bands must be numeric (bool, integer, float or complex)")
    return shape, dtype


def _pyramid_operator(f: FilterSpec, n: int, levels: int, dtype) -> np.ndarray | None:
    """The n x n matrix M of the ``levels``-deep pyramid of n samples, or
    None when n is over ``_OPERATOR_MAX_N``, data of ``dtype`` or the taps
    do not fit in complex128, ``max_levels`` refuses the depth (so a cached
    M vouches for every gate on n and the depth), or M would take the
    operators cached on ``f`` past ``_OPERATOR_BYTES``.

    Row i of M is the pyramid of the unit impulse e_i, its bands side by side
    in ``Pyramid1D`` order (details of level 1, ..., of level ``levels``,
    then the averages), so the pyramid of x is x @ M and, the synthesis
    being the adjoint, its inverse is conj(M) @ c. The kernel builds M, one
    ``_split`` of the rows per level. It is read-only, in the filter's result
    dtype, and cached in ``f._tap_cache`` under ("pyramid", n, levels), after
    the slices of c that are the bands, under ("cuts", n, levels), so a
    cached M has its cuts.
    """
    if n > _OPERATOR_MAX_N or dtype.char not in _OPERATOR_CODES:
        return None
    key = ("pyramid", n, levels)
    op = f._tap_cache.get(key)
    if op is None:
        if f.h.dtype.char not in _OPERATOR_CODES or not 1 <= levels <= max_levels(n, f):
            return None
        rows = np.eye(n, dtype=np.result_type(f.h.dtype, np.float64))
        # A snapshot: another thread sharing f may insert while this sums.
        held = sum(v.nbytes for k, v in f._tap_cache.copy().items() if k[0] == "pyramid")
        if held + rows.nbytes > _OPERATOR_BYTES:
            return None
        bands = []
        for _ in range(levels):
            rows, z = _split(rows, f, 1, _SQRT2)
            bands.append(z)
        ends = [n - (n >> lev) for lev in range(levels + 1)] + [n]
        f._tap_cache["cuts", n, levels] = [slice(a, b) for a, b in zip(ends, ends[1:])]
        op = f._tap_cache[key] = np.concatenate((*bands, rows), axis=1)
        op.setflags(write=False)
    return op


def _operator_product(op: np.ndarray, v: np.ndarray, adjoint: bool) -> np.ndarray:
    """v @ op, or conj(op) @ v if ``adjoint``, in the kernel's result dtype.
    Real data and a real M make one matrix-vector product; otherwise the real
    and imaginary parts of v are the two rows (columns, for the adjoint) of
    one matrix-matrix product: a complex matrix-vector product at n = 64 took
    2 to 8 ms under OpenBLAS 0.3.31 with two threads on 2 cores, against 3 us
    on one thread, and a product of mixed dtypes casts M on every call.
    ``dwt1d`` and ``idwt1d`` make a float64 product with a float64 M
    themselves, a call and a dtype test less."""
    if op.dtype.kind != "c" and v.dtype.kind != "c":
        v = v.astype(op.dtype, copy=False)
        return op.dot(v) if adjoint else v.dot(op)
    parts = np.stack((v.real, v.imag), axis=int(adjoint)).astype(op.dtype, copy=False)
    # conj(M) @ v = conj(M @ re v) + i conj(M @ im v)
    q = np.conj(op @ parts).T if adjoint else parts @ op
    return q[0] + 1j * q[1]


def analysis_step(x, f: FilterSpec) -> SubbandPair:
    """Split x into averages and details (half length each).

    Requires len(x) even and at least the filter length. Indices wrap mod n,
    so the step is exactly invertible by ``synthesis_step`` for filters that
    pass ``qmf_check``.
    """
    y, z = _split(_checked(x, f, 1), f, 0, _SQRT2)
    return SubbandPair(y=y, z=z)


def synthesis_step(p: SubbandPair, f: FilterSpec) -> np.ndarray:
    """Merge an averages/details pair back into a double-length signal."""
    _check_chain(p.y, [(p.z,)], 1)
    return _merge((p.y, p.z), f, 0, _SQRT2)


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
    """Full pyramid: split the averages n_lev times, as ``analysis_step``
    does once. Up to ``_OPERATOR_MAX_N`` samples that is one product c with
    the cached ``_pyramid_operator``, and the bands are views of c, which the
    pyramid holds for ``idwt1d``; the gates run only when a 1-d array and an
    integer depth find none.

    A depth beyond ``max_levels(len(x), f)`` raises LevelError.
    """
    # The type test keeps 3.0, which hashes like 3, from matching a cached key.
    fast = type(x) is np.ndarray and x.ndim == 1 and isinstance(n_lev, (int, np.integer))
    op = _pyramid_operator(f, x.size, n_lev, x.dtype) if fast else None
    if op is None:
        x = _checked(x, f, 1)
        _check_levels(n_lev, max_levels(x.size, f), f"length {x.size}")
        op = None if fast else _pyramid_operator(f, x.size, n_lev, x.dtype)
    if op is not None:
        c = x.dot(op) if x.dtype is op.dtype is _FLOAT64 else _operator_product(op, x, adjoint=False)
        *details, approx = [c[cut] for cut in f._tap_cache["cuts", x.size, n_lev]]
        return Pyramid1D._of(tuple(details), approx, c)
    details = []
    for _ in range(n_lev):
        x, z = _split(x, f, 0, _SQRT2)
        details.append(z)
    return Pyramid1D._of(tuple(details), x)


def idwt1d(p: Pyramid1D, f: FilterSpec) -> np.ndarray:
    """Invert ``dwt1d``. The averages must be nonempty and 1-d, and each
    level's details as long as the averages they merge with. Up to
    ``_OPERATOR_MAX_N`` samples the inverse is the adjoint product
    conj(M) @ c of the cached ``_pyramid_operator``. A pyramid whose fields
    are still the bands ``dwt1d`` cut from its product c (``Pyramid1D._flat``)
    skips the chain rule, which that layout implies, and the concatenation:
    its inverse is conj(M) @ c of c itself."""
    flat = p._flat
    if flat is not None and flat[0] is p.details and flat[1] is p.approx:
        c = flat[2]
        op = _pyramid_operator(f, c.size, len(p.details), c.dtype)
        if op is not None:
            return op.dot(c) if c.dtype is op.dtype is _FLOAT64 else _operator_product(op, c, adjoint=True)
    levels = [(z,) for z in p.details]
    (n,), dtype = _check_chain(p.approx, levels, 1)
    op = _pyramid_operator(f, n, len(levels), dtype)
    if op is not None:
        return _operator_product(op, np.concatenate((*p.details, p.approx)), adjoint=True)
    x = p.approx
    for z in reversed(p.details):
        x = _merge((x, z), f, 0, _SQRT2)
    return x


def subband_matrices(f: FilterSpec, n: int) -> SubbandMatrices:
    """Materialize the four periodized operators for an n-point signal.

    Analysis matrices are built from their own index formula, not by
    transposing, so agreement with the conjugate transpose is a real check.
    """
    if n % 2 != 0 or n < 2:
        raise SizeError(f"n must be even and positive, got {n}")
    # Four n^2 entries of 8 bytes or more (tracemalloc peaks: 3.5 float64, 3.0 complex128).
    _charge(f"subband_matrices at n = {n}", 4 * n * n * max(f.h.itemsize, 8))
    hp, gp = (_periodized(c.h, c.start, n) for c in (f, derive_highpass(f)))
    # Synthesis entry (i, j) is tap i - 2j mod n; analysis entry (j, i) its conj.
    syn = (np.arange(n)[:, None] - 2 * np.arange(n // 2)[None, :]) % n
    ana = (np.arange(n)[None, :] - 2 * np.arange(n // 2)[:, None]) % n
    return SubbandMatrices(
        n=n,
        synthesis_low=_SQRT2 * hp[syn],
        synthesis_high=_SQRT2 * gp[syn],
        analysis_low=_SQRT2 * np.conj(hp[ana]),
        analysis_high=_SQRT2 * np.conj(gp[ana]),
    )


def cuntz_check(f: FilterSpec, n: int, tol: float = 1e-10) -> CuntzReport:
    """Check the isometry, orthogonality and completeness identities at size n
    on the pyramids' own kernel, in O(n L) time and O(n) memory.

    Each A_i S_j commutes with the shift by one on the half space, so its
    column 0 holds every entry; S_0 A_0 + S_1 A_1 commutes with the shift by
    two, so its columns 0 and 1 do. ``_split``/``_merge`` of unit impulses
    give those columns. Requires n even and n >= 2L so the periodized taps do
    not self-overlap. A QMF filter drives every deviation to rounding level;
    h = (1, 0) fails with deviation 1/2 or worse.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError("tol must be a nonneg finite float")
    if n % 2 != 0 or n < 2 * f.length:
        raise SizeError(f"cuntz_check needs an even n >= 2L = {2 * f.length}, got {n}")
    dtype = np.result_type(f.h.dtype, np.float64)
    # Ten n-vectors (tracemalloc peaks: 8.0 to 8.4 of them, n = 2^10 ... 2^20).
    _charge(f"cuntz_check at n = {n}", 10 * n * dtype.itemsize)
    half = n // 2
    # Columns 0 and 1 of S_0 A_0 + S_1 A_1 - I: e0 and e1 (the rows of e),
    # split then merged.
    e = np.eye(2, n, dtype=dtype)
    completeness = np.abs(_merge(_split(e, f, 1, _SQRT2), f, 1, _SQRT2) - e).max()
    # Column 0 of A_i S_j - delta_ij I: e0 in the low band (row 0) and in the
    # high band (row 1), merged then split, the bands side by side as in e.
    e[1, 1], e[1, half] = 0.0, 1.0
    out = _split(_merge((e[:, :half], e[:, half:]), f, 1, _SQRT2), f, 1, _SQRT2)
    dev = np.abs(np.concatenate(out, axis=1) - e).reshape(2, 2, half).max(axis=2).T
    worst = float(max(dev.max(), completeness))
    return CuntzReport(
        n=n,
        tolerance=float(tol),
        isometry_low=float(dev[0, 0]),
        isometry_high=float(dev[1, 1]),
        cross_low_high=float(dev[0, 1]),
        cross_high_low=float(dev[1, 0]),
        completeness=float(completeness),
        max_deviation=worst,
        passed=worst <= tol,
    )
