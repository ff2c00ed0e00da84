"""Separable two-dimensional transform on periodic images.

One step filters every row (the x direction, numpy axis 1) and then every
column (the y direction, axis 0), yielding four quarter-size planes:

    a  low in x, low in y      (averages)
    h  high in x, low in y     (horizontal detail)
    v  low in x, high in y     (vertical detail)
    d  high in both            (diagonal detail)

On the 2x2 image [[1, 2], [3, 4]] with the haar filter this gives a=5, h=-1,
v=-2, d=0, which the tests treat as the orientation contract. A step is the
1-d filter bank's separable split of :mod:`wavekit.subband` over the axes
(1, 0), which yields the bands in the order (a, v, h, d), and its inverse
the matching merge; both carry the single exact factor 2 on the column
pass. Repeating the step on ``a`` builds an ``ImagePyramid``;
``quantize``/``dequantize`` snap pyramid coefficients to a uniform lattice
for storage.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .filters import FilterSpec
from .subband import _check_levels, _checked, _merge, _split


@dataclass(frozen=True)
class QuadDecomp:
    """The four quarter-size planes of one 2-d analysis step."""

    a: np.ndarray
    h: np.ndarray
    v: np.ndarray
    d: np.ndarray

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


@dataclass(frozen=True)
class ImagePyramid:
    """Per-level detail triples plus the deepest averages plane.

    ``details[l]`` holds level l+1 planes of shape (N/2^(l+1), M/2^(l+1)).
    The total coefficient count equals the pixel count of the source image.
    """

    details: tuple[LevelDetail, ...]
    approx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(self.details))
        if not self.details:
            raise ShapeError("an image pyramid needs at least one detail level")

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


def dwt2d_step(img, f: FilterSpec) -> QuadDecomp:
    """One separable step: rows (x) first, then columns (y).

    The two sqrt(2) axis factors are applied as a single exact factor 2 on
    the second pass, so integer images with short filters produce exact
    float results (the 2x2 oracle below relies on this).
    """
    a, v, h, d = _split(_checked(img, f, 2), f, (1, 0), 2.0)
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
    """Invert ``dwt2d``. Plane shapes must chain consistently."""
    current = np.asarray(p.approx)
    for level in range(p.levels - 1, -1, -1):
        t = p.details[level]
        if t.h.shape != current.shape or t.v.shape != current.shape or t.d.shape != current.shape:
            raise ShapeError(
                f"detail level {level + 1} planes have shape {t.h.shape}, "
                f"expected {current.shape}"
            )
        q = QuadDecomp(a=current, h=t.h, v=t.v, d=t.d)
        current = _merge((q.a, q.v, q.h, q.d), f, (1, 0), 2.0)
    return current


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _to_indices(arr: np.ndarray, step: float) -> np.ndarray:
    if np.iscomplexobj(arr):
        return _round_half_away(arr.real / step) + 1j * _round_half_away(arr.imag / step)
    return _round_half_away(arr / step)


def quantize(p: ImagePyramid, q: Quantizer) -> ImagePyramid:
    """Map every coefficient c to the integer index round(c / step).

    Rounding is half away from zero; complex planes quantize componentwise.
    ``dequantize`` is the right inverse: quantize(dequantize(k), q) == k for
    integer pyramids k, and the composition dequantize(quantize(p, q), q)
    snaps coefficients to the lattice step * Z, i.e. c -> round(c/step)*step.
    """
    return p.map_planes(lambda arr: _to_indices(np.asarray(arr), q.step))


def dequantize(p: ImagePyramid, q: Quantizer) -> ImagePyramid:
    """Map integer indices back to coefficient values step * k."""
    return p.map_planes(lambda arr: np.asarray(arr) * q.step)


def snap_to_lattice(p: ImagePyramid, q: Quantizer) -> ImagePyramid:
    """Convenience composition: round every coefficient to the nearest
    multiple of the quantizer step (half away from zero)."""
    return dequantize(quantize(p, q), q)


def _rescale_for_display(plane: np.ndarray) -> np.ndarray:
    plane = np.asarray(plane)
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
