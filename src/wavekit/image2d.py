"""Separable two-dimensional transform on periodic images.

One step filters every column (the y direction, numpy axis 0) and every row
(the x direction, axis 1), yielding four quarter-size planes:

    a  low in x, low in y      (averages)
    h  high in x, low in y     (horizontal detail)
    v  low in x, high in y     (vertical detail)
    d  high in both            (diagonal detail)

On the 2x2 image [[1, 2], [3, 4]] with the haar filter this gives a=5, h=-1,
v=-2, d=0, which the tests treat as the orientation contract. A step runs
the 1-d filter bank of :mod:`wavekit.subband` columns first, then rows, one
strip of output rows at a time (``_split2d``, and ``_merge2d`` inverts it),
so no plane-sized intermediate exists; both carry the single exact factor 2
on the second pass. Each pass over a strip is one call of the subband
polyphase kernel, each band of a block one matrix product of strided
windows over the gathered samples with the filter's taps. A row of the row
pass's product is the window of several outputs of one image row and meets
a banded block of the taps (one output for complex taps); a row of the
column pass's product is one column's window for one output and meets the
plain taps. Repeating the step on ``a`` builds an ``ImagePyramid``;
``quantize``/``dequantize`` snap pyramid coefficients to a uniform lattice
for storage.

Both passes over a strip run in the blocks ``subband._block`` gives the
whole image: at 2048 wide, 16 rows a block for the column pass, 32 for rows.

Strips write rows no other strip writes, so a step runs them on up to two
workers (``_on_workers``): the caller takes the first half and one helper
thread, started for the step and joined before it returns, the rest, each
with its own strip temporaries. The helper starts only where the process
may run on two CPUs and its temporaries and gather buffer take at most a
fifth of the step's output (``_workers``): float64 squares from 976^2,
complex ones from 902^2, so 1024^2 and 2048^2 but not 512^2. Strips and
blocks are those of one worker, so every band is the one worker's to the
bit.
"""
from __future__ import annotations

__all__ = [
    "ImagePyramid",
    "LevelDetail",
    "QuadDecomp",
    "Quantizer",
    "dequantize",
    "dwt2d",
    "dwt2d_step",
    "idwt2d",
    "max_levels_2d",
    "preview_layout",
    "quantize",
    "snap_to_lattice",
]

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError
from .filters import FilterSpec, _value_eq
from .subband import _block, _check_chain, _check_levels, _checked, _kernel_taps, _merge, _split

#: Most samples of each strip temporary of a 2-d step (512 KiB of float64): 32
#: rows of a 2048-wide image, 128 of a 512-wide one. Each of a step's two
#: workers holds its own pair, full size. Strips of 2^15, two workers on
#: every step, lost the second worker's gain (a 2048^2 db4 round trip took
#: 66-69 ms, median of 15, against 65-67 on one worker and 54-55 at 2^16
#: under ``_workers``) and took a 512^2 dwt2d to 1.646 image sizes, over
#: the tests' 1.6. With the passes' blocks sized from the image, a 2048^2
#: db4 step took 12.4 / 10.3 ms forward / inverse at 32 rows, 12.5 / 10.2
#: at 64 and 13.1 / 10.7 in one strip (best of 15, 1 BLAS thread, one
#: worker). At 2^17 a 512^2 image is one strip, and its 6-level round trip
#: peaks at 3.32 image sizes (tracemalloc), against 2.82 at 2^16.
_STRIP = 1 << 16

@dataclass(frozen=True)
class QuadDecomp:
    """The four quarter-size planes of one 2-d analysis step."""

    a: np.ndarray
    h: np.ndarray
    v: np.ndarray
    d: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        for name in ("a", "h", "v", "d"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        shapes = {self.a.shape, self.h.shape, self.v.shape, self.d.shape}
        if len(shapes) != 1 or self.a.ndim != 2:
            raise ShapeError("quadrants must be four 2-d arrays of equal shape")


@dataclass(frozen=True)
class LevelDetail:
    """Detail planes (h, v, d) of one pyramid level."""

    h: np.ndarray
    v: np.ndarray
    d: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        for name in ("h", "v", "d"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))


@dataclass(frozen=True)
class ImagePyramid:
    """Per-level detail triples plus the deepest averages plane.

    ``details[l]`` holds level l+1 planes of shape (N/2^(l+1), M/2^(l+1)).
    The total coefficient count equals the pixel count of the source image.
    The constructor runs the chain rule, so planes that do not chain, are empty
    or are not numeric raise here; ``map_planes`` and ``dataclasses.replace``
    rebuild through it, and a field swapped with ``object.__setattr__`` is not supported.
    """

    details: tuple[LevelDetail, ...]
    approx: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(self.details))
        if not self.details:
            raise ShapeError("an image pyramid needs at least one detail level")
        object.__setattr__(self, "approx", np.asarray(self.approx))
        _check_chain(self.approx, [(t.v, t.h, t.d) for t in self.details], 2)

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def image_shape(self) -> tuple[int, int]:
        n, m = self.details[0].h.shape
        return 2 * n, 2 * m

    def coefficient_count(self) -> int:
        return self.approx.size + sum(
            t.h.size + t.v.size + t.d.size for t in self.details
        )

    def map_planes(self, fn) -> "ImagePyramid":
        """New pyramid with ``fn`` applied to every coefficient plane."""
        return ImagePyramid(
            details=tuple(
                LevelDetail(h=fn(t.h), v=fn(t.v), d=fn(t.d)) for t in self.details
            ),
            approx=fn(self.approx),
        )


@dataclass(frozen=True)
class Quantizer:
    """Uniform scalar quantizer with positive step."""

    step: float

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0):
            raise ParameterError(f"quantizer step must be positive, got {self.step!r}")


def _split2d(img: np.ndarray, f: FilterSpec) -> list:
    """The planes (a, v, h, d) of one step of ``img``: for each strip of k
    output rows, the column pass (y, no factor) writes k rows of the two
    column bands into the worker's two k x M temporaries, and the row pass
    (x, the factor 2) of each temporary writes rows i0..i0+k of two planes.
    Separable passes commute, so the pass that reads neighbouring rows
    always reads ``img`` itself and no strip needs a halo."""
    img = np.ascontiguousarray(img)  # read once per strip
    (n, m), dtype = img.shape, np.result_type(img.dtype, f.h.dtype, np.float64)
    planes = [np.empty((n // 2, m // 2), dtype) for _ in "avhd"]
    a, v, h, d = planes
    k = min(n // 2, max(1, _STRIP // m))
    _kernel_taps(f, False, 1.0, img.dtype)  # cached before a helper reads them
    _kernel_taps(f, False, 2.0, dtype)

    def strips(temps, starts):
        for i0 in starts:
            rows = slice(i0, min(i0 + k, n // 2))
            lo, hi = _split(img, f, 0, 1.0, temps[:, : rows.stop - i0], i0, n * m)
            _split(lo, f, 1, 2.0, (a[rows], h[rows]), samples=n * m)
            _split(hi, f, 1, 2.0, (v[rows], d[rows]), samples=n * m)

    _on_workers(strips, range(0, n // 2, k), (2, k, m), dtype, n * m)
    return planes


def _merge2d(planes, f: FilterSpec) -> np.ndarray:
    """Adjoint of :func:`_split2d` on the planes (a, v, h, d), in their
    result dtype with the filter: for each strip of 2k output rows, the
    column merges (y, the factor 2) of (a, v) and of (h, d) write the
    worker's two 2k x M/2 temporaries, and the row merge (x, no factor) of
    the two writes the strip's rows of the image."""
    a, v, h, d = map(np.ascontiguousarray, planes)  # read once per strip
    (n, m), dtype = a.shape, np.result_type(a, v, h, d, f.h.dtype, np.float64)
    out = np.empty((2 * n, 2 * m), dtype)
    k = min(n, max(1, _STRIP // (2 * m)))
    _kernel_taps(f, True, 2.0, dtype)  # cached before a helper reads them
    _kernel_taps(f, True, 1.0, dtype)

    def strips(temps, starts):
        for i0 in starts:
            rows = min(k, n - i0)
            lo, hi = temps[:, : 2 * rows]
            _merge((a, v), f, 0, 2.0, lo, i0, out.size)
            _merge((h, d), f, 0, 2.0, hi, i0, out.size)
            _merge((lo, hi), f, 1, 1.0, out[2 * i0 : 2 * (i0 + rows)], samples=out.size)

    _on_workers(strips, range(0, n, k), (2, 2 * k, m), dtype, out.size)
    return out


def _workers(temps: int, samples: int, itemsize: int) -> int:
    """Workers for the strips of a step with ``samples`` output samples of
    ``itemsize`` bytes and strip temporaries of ``temps`` samples: 2 where
    a second worker's temporaries and gather buffer (two of the kernel's
    blocks) take at most a fifth of the output and the process may run on
    more than one CPU, else 1. Two workers then add at most 0.4 output sizes
    to the step's four planes, within the 1.45 image sizes the tests allow a
    1024^2 dwt2d. A 1024^2 float64 step takes the helper (2^17 + 2^16
    samples against a fifth of 2^20); a 512^2 one, whose temporaries are
    half its output, does not, nor does any step below about 976^2."""
    if 5 * (temps + 2 * _block(samples, itemsize)) > samples:
        return 1
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return min(2, len(cpus))


def _on_workers(strips, starts: range, shape: tuple, dtype, samples: int) -> None:
    """``strips(temps, part)`` over ``starts``, the first rows of a step's
    strips, on the workers ``_workers`` gives, each with its own strip
    temporaries ``temps`` of ``shape``: the caller runs the first half of
    the strips and, on two workers, one helper thread the rest, joined
    before this returns. Strips write disjoint rows, so the result is the
    one worker's to the bit; an exception in the helper is raised here,
    after the join."""
    if _workers(math.prod(shape), samples, np.dtype(dtype).itemsize) == 1:
        return strips(np.empty(shape, dtype), starts)
    cut, failed = (len(starts) + 1) // 2, []

    def helper():
        try:
            strips(np.empty(shape, dtype), starts[cut:])
        except BaseException as exc:  # re-raised in the caller
            failed.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        strips(np.empty(shape, dtype), starts[:cut])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def dwt2d_step(img, f: FilterSpec) -> QuadDecomp:
    """One separable step: columns (y) first, then rows (x), one strip of
    output rows at a time, with no full-size intermediate plane.

    The two sqrt(2) axis factors are applied as a single exact factor 2 on
    the second pass, so integer images with short filters produce exact
    float results (the 2x2 oracle below relies on this).
    """
    a, v, h, d = _split2d(_checked(img, f, 2), f)
    return QuadDecomp(a=a, h=h, v=v, d=d)


def max_levels_2d(shape: tuple[int, int], f: FilterSpec) -> int:
    """Largest pyramid depth admissible for both image dimensions.

    Each halving needs the plane it acts on to have even dimensions no
    shorter than the filter, so the deepest averages plane may reach 1x1
    (unlike the 1-d rule, which keeps the final level at filter length).
    The admissible depths are exactly 1..max_levels_2d.
    """
    floor = max(f.length, 2)
    lev = 0
    n, m = shape
    while n % 2 == 0 and m % 2 == 0 and n >= floor and m >= floor:
        n //= 2
        m //= 2
        lev += 1
    return lev


def dwt2d(img, f: FilterSpec, n_lev: int) -> ImagePyramid:
    """Repeat ``dwt2d_step`` on the averages plane n_lev times."""
    arr = _checked(img, f, 2)
    _check_levels(n_lev, max_levels_2d(arr.shape, f), f"shape {arr.shape}")
    details = []
    current = arr
    for _ in range(n_lev):
        q = dwt2d_step(current, f)
        details.append(LevelDetail(h=q.h, v=q.v, d=q.d))
        current = q.a
    return ImagePyramid(details=tuple(details), approx=current)


def idwt2d(p: ImagePyramid, f: FilterSpec) -> np.ndarray:
    """Invert ``dwt2d``; the pyramid was checked when it was built."""
    a = p.approx
    for t in reversed(p.details):
        a = _merge2d((a, t.v, t.h, t.d), f)
    return a


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _to_indices(arr: np.ndarray, step: float) -> np.ndarray:
    """round(arr / step), refusing a step so small that a quotient overflows."""
    with np.errstate(over="ignore"):
        parts = (arr.real / step, arr.imag / step) if np.iscomplexobj(arr) else (arr / step,)
    if not all(np.isfinite(q).all() for q in parts):
        raise DomainError(f"quantizer step {step!r} is too small: some coefficient / step is not finite")
    if len(parts) == 2:
        return _round_half_away(parts[0]) + 1j * _round_half_away(parts[1])
    return _round_half_away(parts[0])


def quantize(p: ImagePyramid, q: Quantizer) -> ImagePyramid:
    """Map every coefficient c to the integer index round(c / step).

    Rounding is half away from zero; complex planes quantize componentwise.
    ``dequantize`` is the right inverse: quantize(dequantize(k), q) == k for
    integer pyramids k, and the composition dequantize(quantize(p, q), q)
    snaps coefficients to the lattice step * Z, i.e. c -> round(c/step)*step.
    """
    return p.map_planes(lambda arr: _to_indices(arr, q.step))


def dequantize(p: ImagePyramid, q: Quantizer) -> ImagePyramid:
    """Map integer indices back to coefficient values step * k."""
    return p.map_planes(lambda arr: arr * q.step)


def snap_to_lattice(p: ImagePyramid, q: Quantizer) -> ImagePyramid:
    """Convenience composition: round every coefficient to the nearest
    multiple of the quantizer step (half away from zero)."""
    return dequantize(quantize(p, q), q)


def _rescale_for_display(plane: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(plane):
        plane = np.abs(plane)
    lo = float(plane.min())
    hi = float(plane.max())
    if hi <= lo:
        return np.full(plane.shape, 128, dtype=np.uint8)
    scaled = (plane - lo) * (255.0 / (hi - lo))
    return _round_half_away(scaled).astype(np.uint8)


def preview_layout(p: ImagePyramid) -> np.ndarray:
    """Quadrant mosaic of the pyramid, each plane rescaled to 0..255.

    Averages sit top-left, horizontal detail top-right, vertical bottom-left,
    diagonal bottom-right; deeper levels nest recursively into the averages
    slot. Display use only: the rescale is per plane and not invertible.
    """
    current = _rescale_for_display(p.approx)
    for t in reversed(p.details):
        top = np.hstack([current, _rescale_for_display(t.h)])
        bottom = np.hstack([_rescale_for_display(t.v), _rescale_for_display(t.d)])
        current = np.vstack([top, bottom])
    return current
