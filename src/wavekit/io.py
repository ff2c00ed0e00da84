"""File formats: CSV signals, PGM images, filter files, pyramid containers.

Everything numeric is serialized at 17 significant digits (%.17g), which
round-trips IEEE-754 doubles exactly, so containers re-serialize to the same
bytes. Complex values are written as ``a+bi`` with both parts at full
precision; real arrays stay plain decimals. PGM covers both the ASCII (P2)
and binary (P5) flavors with maxval up to 255.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .errors import FormatError
from .filters import FilterSpec
from .image2d import ImagePyramid, LevelDetail
from .subband import Pyramid1D

CONTAINER_MAGIC = "wavekit-pyr1"


# ---------------------------------------------------------------------------
# scalar formatting


def format_value(v) -> str:
    """One float or complex scalar at full (17 significant digit) precision."""
    if not isinstance(v, float) and (isinstance(v, complex) or np.iscomplexobj(v)):
        c = complex(v)
        return f"{c.real:.17g}{c.imag:+.17g}i"
    return f"{float(v):.17g}"


def parse_value(token: str):
    """Inverse of format_value: decimal, or a+bi with an ``i`` suffix."""
    text = token.strip()
    if not text:
        raise FormatError("empty numeric field")
    try:
        if text.endswith("i") or text.endswith("I"):
            value = complex(text[:-1].replace(" ", "") + "j")
        else:
            value = float(text)
    except ValueError:
        raise FormatError(f"cannot parse number {token!r}") from None
    if not np.isfinite(value if isinstance(value, float) else abs(value)):
        raise FormatError(f"non-finite value {token!r}")
    return value


def _format_array_line(row) -> str:
    return ",".join(map(format_value, row))


# ---------------------------------------------------------------------------
# signal CSV (one value per line)


def read_signal_csv(path: str) -> np.ndarray:
    """Signal CSV: one real or complex value per line, blank lines skipped."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if "," in text:
                raise FormatError(
                    f"{path}:{lineno}: expected one value per line, got a row"
                )
            try:
                values.append(parse_value(text))
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise FormatError(f"{path}: no samples found")
    return np.asarray(values)


def write_signal_csv(path: str, values) -> None:
    arr = np.atleast_1d(np.asarray(values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in arr:
            fh.write(format_value(v) + "\n")


# ---------------------------------------------------------------------------
# PGM (P2 ASCII / P5 binary, maxval <= 255)


def read_pgm(path: str) -> np.ndarray:
    """Grayscale PGM as a float array of shape (rows, cols)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file (magic {data[:2]!r})")
    binary = data[:2] == b"P5"

    # Tokenize the header: magic, width, height, maxval; '#' starts a comment.
    tokens = []
    pos = 2
    while len(tokens) < 3 and pos < len(data):
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    if len(tokens) < 3:
        raise FormatError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: non-integer PGM header fields") from None
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise FormatError(f"{path}: unsupported PGM maxval {maxval}")

    if binary:
        pos += 1  # single whitespace byte after maxval
        raster = data[pos : pos + width * height]
        if len(raster) < width * height:
            raise FormatError(f"{path}: PGM raster shorter than promised")
        pixels = np.frombuffer(raster, dtype=np.uint8).astype(float)
    else:
        body = b"\n".join(
            line.split(b"#", 1)[0] for line in data[pos:].splitlines()
        )
        fields = body.split()
        if len(fields) < width * height:
            raise FormatError(f"{path}: PGM raster shorter than promised")
        try:
            pixels = np.array(
                [int(t) for t in fields[: width * height]], dtype=float
            )
        except ValueError:
            raise FormatError(f"{path}: non-integer PGM pixel") from None
    if pixels.max(initial=0.0) > maxval:
        raise FormatError(f"{path}: pixel exceeds maxval {maxval}")
    return pixels.reshape(height, width)


def _to_gray(arr: np.ndarray) -> np.ndarray:
    """Clip to [0, 255] and round half away from zero to uint8."""
    a = np.asarray(arr, dtype=float)
    a = np.clip(a, 0.0, 255.0)
    return np.floor(a + 0.5).astype(np.uint8)


def write_pgm(path: str, array, binary: bool = True) -> None:
    """Write a grayscale image; values are clipped and rounded to 0..255."""
    a = np.asarray(array)
    if a.ndim != 2 or a.size == 0:
        raise FormatError("PGM needs a nonempty 2-d array")
    gray = a if a.dtype == np.uint8 else _to_gray(a)
    height, width = gray.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(gray.tobytes())
        else:
            for row in gray:
                fh.write((" ".join(str(int(v)) for v in row) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# filter files


def read_filter_file(path: str) -> FilterSpec:
    """Three-line filter description.

    Line 1: ``name: <identifier>``; line 2: ``start: <integer>``; line 3:
    ``coeffs: <space-separated values>``. Values are decimals or a+bi pairs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != 3:
        raise FormatError(f"{path}: expected exactly 3 nonblank lines, got {len(lines)}")
    fields = {}
    for lineno, (expected, line) in enumerate(zip(("name", "start", "coeffs"), lines), 1):
        key, sep, rest = line.partition(":")
        if not sep or key.strip() != expected:
            raise FormatError(f"{path}:{lineno}: expected '{expected}: ...'")
        fields[expected] = rest.strip()
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.-]*", fields["name"]):
        raise FormatError(f"{path}: bad filter name {fields['name']!r}")
    try:
        start = int(fields["start"])
    except ValueError:
        raise FormatError(f"{path}: start must be an integer") from None
    coeffs = [parse_value(tok) for tok in fields["coeffs"].split()]
    if not coeffs:
        raise FormatError(f"{path}: no coefficients")
    return FilterSpec(name=fields["name"], h=np.asarray(coeffs), start=start)


# ---------------------------------------------------------------------------
# pyramid containers


def _layout(levels: int, shape: tuple[int, ...]) -> list[tuple[str, tuple[int, int]]]:
    """(label, plane shape) of every block in file order.

    A 1-d pyramid of ``shape=(n,)`` stores ``[detail-1]`` .. ``[detail-k]``
    and ``[approx]`` as one-column planes; an image pyramid of
    ``shape=(rows, cols)`` stores ``[h-l]``, ``[v-l]``, ``[d-l]`` per level
    and a final ``[a]``.
    """
    if len(shape) == 1:
        (n,) = shape
        blocks = [(f"detail-{l}", (n >> l, 1)) for l in range(1, levels + 1)]
        return blocks + [("approx", (n >> levels, 1))]
    rows, cols = shape
    blocks = [
        (f"{band}-{l}", (rows >> l, cols >> l))
        for l in range(1, levels + 1)
        for band in "hvd"
    ]
    return blocks + [("a", (rows >> levels, cols >> levels))]


def write_pyramid_container(path: str, pyramid, filter_name: str) -> None:
    """Serialize a 1-d or 2-d pyramid with full-precision decimals.

    The header carries ``len: <n>`` (1-d) or ``dims: <rows>x<cols>`` (2-d);
    the blocks follow ``_layout``, one CSV row per plane row, so a 1-d block
    holds one value per line.
    """
    if isinstance(pyramid, Pyramid1D):
        size = f"len: {pyramid.signal_length}"
        shape = (pyramid.signal_length,)
        planes = [np.asarray(v)[:, None] for v in (*pyramid.details, pyramid.approx)]
    elif isinstance(pyramid, ImagePyramid):
        shape = pyramid.image_shape
        size = f"dims: {shape[0]}x{shape[1]}"
        planes = [p for t in pyramid.details for p in (t.h, t.v, t.d)] + [pyramid.approx]
    else:
        raise FormatError(f"cannot serialize {type(pyramid).__name__} as a pyramid")
    lines = [
        f"magic: {CONTAINER_MAGIC}",
        f"filter: {filter_name}",
        f"levels: {pyramid.levels}",
        size,
    ]
    for (label, _), plane in zip(_layout(pyramid.levels, shape), planes):
        lines.append(f"[{label}]")
        lines.extend(map(_format_array_line, np.asarray(plane).tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _ContainerReader:
    def __init__(self, path: str):
        self.path = path
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def fail(self, message: str):
        raise FormatError(f"{self.path}:{self.pos}: {message}")

    def header(self, key: str) -> str:
        if self.pos >= len(self.lines):
            self.fail(f"missing '{key}:' header")
        line = self.lines[self.pos]
        self.pos += 1
        k, sep, rest = line.partition(":")
        if not sep or k.strip() != key:
            self.fail(f"expected '{key}: ...', got {line!r}")
        return rest.strip()

    def block(self, label: str, rows: int, cols: int) -> np.ndarray:
        if self.pos >= len(self.lines) or self.lines[self.pos].strip() != f"[{label}]":
            got = self.lines[self.pos] if self.pos < len(self.lines) else "<eof>"
            self.fail(f"expected block [{label}], got {got!r}")
        self.pos += 1
        body = self.lines[self.pos : self.pos + rows]
        if len(body) < rows:
            self.fail(f"block needs {rows} rows, file ends early")
        for i, line in enumerate(body):
            if line.count(",") != cols - 1:
                raise FormatError(
                    f"{self.path}:{self.pos + i + 1}: expected {cols} columns, "
                    f"got {line.count(',') + 1}"
                )
        self.pos += rows
        cells = ",".join(body).split(",")
        return np.asarray(list(map(parse_value, cells))).reshape(rows, cols)

    def done(self):
        while self.pos < len(self.lines):
            if self.lines[self.pos].strip():
                self.fail(f"trailing content {self.lines[self.pos]!r}")
            self.pos += 1


def read_pyramid_container(path: str) -> tuple[Pyramid1D | ImagePyramid, str]:
    """Parse a container; returns the pyramid and the filter name it names."""
    r = _ContainerReader(path)
    if r.header("magic") != CONTAINER_MAGIC:
        raise FormatError(f"{path}: magic is not {CONTAINER_MAGIC!r}")
    filter_name = r.header("filter")
    try:
        levels = int(r.header("levels"))
    except ValueError:
        raise FormatError(f"{path}: levels must be an integer") from None
    if levels < 1:
        raise FormatError(f"{path}: levels must be at least 1")

    next_line = r.lines[r.pos] if r.pos < len(r.lines) else ""
    if next_line.startswith("len"):
        try:
            shape = (int(r.header("len")),)
        except ValueError:
            raise FormatError(f"{path}: len must be an integer") from None
    else:
        dims = r.header("dims")
        m = re.fullmatch(r"(\d+)x(\d+)", dims)
        if not m:
            raise FormatError(f"{path}: dims must look like <rows>x<cols>, got {dims!r}")
        shape = (int(m.group(1)), int(m.group(2)))
    # Shifts rather than 1 << levels, so a huge level count costs nothing.
    if any(n >> levels < 1 or n >> levels << levels != n for n in shape):
        size = "x".join(str(n) for n in shape)
        raise FormatError(f"{path}: size {size} does not admit {levels} levels")
    planes = [r.block(label, *plane) for label, plane in _layout(levels, shape)]
    r.done()
    if len(shape) == 1:
        vectors = [p.ravel() for p in planes]
        return Pyramid1D(details=tuple(vectors[:-1]), approx=vectors[-1]), filter_name
    details = tuple(LevelDetail(*planes[i : i + 3]) for i in range(0, 3 * levels, 3))
    return ImagePyramid(details=details, approx=planes[-1]), filter_name


# ---------------------------------------------------------------------------
# analysis exports


def write_dyadic_csv(path: str, d) -> None:
    """x,value rows at the function's own grid resolution."""
    xs = d.xs
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, v in zip(xs, d.values):
            fh.write(f"{format_value(x)},{format_value(v)}\n")


def write_scalogram_csv(path: str, c) -> None:
    """Header rows named ``scales`` and ``shifts``, then the matrix."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scales," + _format_array_line(c.scales) + "\n")
        fh.write("shifts," + _format_array_line(c.shifts) + "\n")
        for row in np.atleast_2d(c.matrix):
            fh.write(_format_array_line(row) + "\n")


def write_heatmap_pgm(path: str, c) -> None:
    """Coefficient magnitudes affinely mapped onto the 0..255 gray ramp."""
    mag = np.abs(np.atleast_2d(c.matrix))
    lo, hi = float(mag.min()), float(mag.max())
    if hi <= lo:
        gray = np.full(mag.shape, 128, dtype=np.uint8)
    else:
        gray = _to_gray(255.0 * (mag - lo) / (hi - lo))
    write_pgm(path, gray)


def require_file(path: str) -> str:
    """Existence gate with a uniform error for CLI input paths."""
    if not os.path.isfile(path):
        raise FormatError(f"{path}: no such file")
    return path
