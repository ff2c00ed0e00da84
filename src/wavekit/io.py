"""File formats: CSV signals, PGM images, filter files, pyramid containers.

Everything numeric is serialized at 17 significant digits (%.17g), which
round-trips IEEE-754 doubles exactly, so containers re-serialize to the same
bytes. Complex values are written as ``a+bi`` with both parts at full
precision; real arrays stay plain decimals. PGM covers both the ASCII (P2)
and binary (P5) flavors with maxval up to 255.

Each job on a text file has one private helper: ``_lines`` splits at line
ends only (LF, CRLF, CR) and names ``path:line`` of bytes that are not UTF-8,
``_header`` parses ``key: value`` lines, ``_integer`` every integer header
field, ``_parse_value`` one number and ``_format_value`` writes one,
``_read_numbers`` every number on a line (naming ``path:line`` for a bad cell
or a row of the wrong width), ``_check_x_column`` refuses a dyadic grid whose
x would round or collapse and ``_write_lines`` writes every text file.
Numbers are ASCII decimals: ``_parse_value`` and ``_integer`` refuse the
digit separators and non-ASCII digits that ``float`` and ``int`` take.
"""
from __future__ import annotations

__all__ = [
    "read_filter_file",
    "read_pgm",
    "read_pyramid_container",
    "read_signal_csv",
    "write_dyadic_csv",
    "write_heatmap_pgm",
    "write_pgm",
    "write_pyramid_container",
    "write_scalogram_csv",
    "write_signal_csv",
]

import math
import re
from contextlib import suppress
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import DomainError, FormatError
from .filters import FilterSpec, _START_LIMIT
from .image2d import ImagePyramid, LevelDetail, _rescale_for_display, _round_half_away
from .subband import Pyramid1D

_CONTAINER_MAGIC = "wavekit-pyr1"


# ---------------------------------------------------------------------------
# scalar formatting


def _format_value(v) -> str:
    """One float or complex scalar at full (17 significant digit) precision."""
    if not isinstance(v, float) and (isinstance(v, complex) or np.iscomplexobj(v)):
        c = complex(v)
        return f"{c.real:.17g}{c.imag:+.17g}i"
    return f"{float(v):.17g}"


def _parse_value(token: str):
    """Inverse of _format_value: decimal, or a+bi with an ``i`` suffix."""
    text = token.strip()
    if not text:
        raise FormatError("empty numeric field")
    if "_" in text or not text.isascii():  # float() and complex() take both
        raise FormatError(f"cannot parse number {token!r}")
    try:
        if text.endswith("i") or text.endswith("I"):
            value = complex(text[:-1].replace(" ", "") + "j")
        else:
            value = float(text)
    except ValueError:
        raise FormatError(f"cannot parse number {token!r}") from None
    try:
        finite = math.isfinite(abs(value))
    except OverflowError:  # a complex modulus past the largest float
        finite = False
    if not finite:
        raise FormatError(f"non-finite value {token!r}")
    return value


def _format_array_line(row) -> str:
    return ",".join(map(_format_value, row))


def _lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, split at LF, CRLF and CR only, where
    ``str.splitlines`` would also split at form feeds, U+0085, U+2028 and more.
    Bytes that are not UTF-8 raise FormatError naming ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        bad = data[exc.start : exc.end].hex(" ")
        raise FormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason}: {bad})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _write_lines(path: str, lines) -> None:
    """Write the strings ``lines`` as UTF-8 text, each ended by LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([*lines, ""]))


def _nonblank_lines(path: str) -> tuple:
    """The stripped nonblank lines of a text file, and their line numbers."""
    stripped = list(map(str.strip, _lines(path)))
    return list(filter(None, stripped)), compress(count(1), stripped)


def _header(path: str, lines: list[str], numbers, keys: tuple) -> dict:
    """``{key: value}`` of ``key: value`` lines, one per slot of ``keys`` (the
    tuple of keys the slot accepts) and numbered by ``numbers``; a missing
    line or another key raises FormatError naming ``path:line`` and the line."""
    fields = {}
    for slot, lineno, line in zip(keys, numbers, chain(lines, repeat("<eof>"))):
        key, sep, value = line.partition(":")
        if not sep or key.strip() not in slot:
            raise FormatError(f"{path}:{lineno}: expected '{slot[-1]}: ...', got {line!r}")
        fields[key.strip()] = value.strip()
    return fields


def _integer(path: str, what: str, text: str) -> int:
    """The integer field ``what`` of ``path`` (``path:line`` in a file of
    lines): ASCII digits after an optional sign."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        with suppress(ValueError):  # more digits than int() converts
            return int(text)
    raise FormatError(f"{path}: {what} must be an integer, got {text!r}")


#: A run of anything but ASCII spaces and tabs.
_WORD = re.compile(r"[^ \t]+")


def _cells(text: str, sep: str | None) -> list[str]:
    """``text`` split at ``sep``, or with None at runs of ASCII spaces and
    tabs: not at the other whitespace ``str.split()`` takes, such as U+2028."""
    return _WORD.findall(text) if sep is None else text.split(sep)


def _read_numbers(
    path: str, texts: list[str], numbers, width: int | None = None, sep: str | None = ","
) -> np.ndarray:
    """Every value on the nonempty list of lines ``texts``, in order, as one
    flat array: ``width`` cells to a line split at ``sep`` or, with both
    None, any number of cells split by ``_cells``. ``numbers`` holds
    the line number of each text; a line of another width or with a bad cell
    raises FormatError naming ``path:line``.

    All cells go through one ``map(_parse_value, ...)``, and the failing line
    is looked for, and ``numbers`` read, only after a failure: a guarded
    parse per line read a 2^16-line signal CSV markedly slower.
    """
    joined = (sep or " ").join(texts)
    if width == 1:  # one cell a line: the joins are the only separators
        cells = texts if joined.count(sep) == len(texts) - 1 else None
    else:
        fits = width is None or set(map(str.count, texts, repeat(sep))) == {width - 1}
        cells = _cells(joined, sep) if fits else None
    if cells is not None:
        try:
            return np.asarray(list(map(_parse_value, cells)))
        except FormatError:
            pass
    for lineno, text in zip(numbers, texts):
        cells = _cells(text, sep)
        try:
            if width is not None and len(cells) != width:
                raise FormatError(f"expected {width} column(s), got {len(cells)}")
            for cell in cells:
                _parse_value(cell)
        except FormatError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    raise AssertionError("unreachable: a failed parse has a failing line")


# ---------------------------------------------------------------------------
# signal CSV (one value per line)


def read_signal_csv(path: str) -> np.ndarray:
    """Signal CSV: one real or complex value per line, blank lines skipped."""
    texts, numbers = _nonblank_lines(path)
    if not texts:
        raise FormatError(f"{path}: no samples found")
    return _read_numbers(path, texts, numbers, 1)


def write_signal_csv(path: str, values) -> None:
    _write_lines(path, map(_format_value, np.atleast_1d(np.asarray(values))))


# ---------------------------------------------------------------------------
# PGM (P2 ASCII / P5 binary, maxval <= 255)


#: A header comment where a token may start, else a token (group 1).
_PGM_TOKEN = re.compile(rb"#[^\n\r]*|(\S+)")


def read_pgm(path: str) -> np.ndarray:
    """Grayscale PGM as a float array of shape (rows, cols)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file (magic {data[:2]!r})")
    binary = data[:2] == b"P5"
    tokens = list(islice(filter(itemgetter(1), _PGM_TOKEN.finditer(data, 2)), 3))
    if len(tokens) < 3:
        raise FormatError(f"{path}: truncated PGM header")
    header = (str(m[1], "latin-1") for m in tokens)
    width, height, maxval = (_integer(path, "PGM header field", t) for t in header)
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise FormatError(f"{path}: unsupported PGM maxval {maxval}")

    pos = tokens[-1].end()
    if binary:
        pos += 1  # single whitespace byte after maxval
        raster = data[pos : pos + width * height]
        if len(raster) < width * height:
            raise FormatError(f"{path}: PGM raster shorter than promised")
        pixels = np.frombuffer(raster, dtype=np.uint8).astype(float)
    else:
        body = b"\n".join(line.split(b"#", 1)[0] for line in data[pos:].splitlines())
        fields = body.split()[: width * height]
        if len(fields) < width * height:
            raise FormatError(f"{path}: PGM raster shorter than promised")
        if not b"".join(fields).isdigit():  # ASCII digits only: no sign, no '_'
            raise FormatError(f"{path}: PGM pixels must be unsigned decimal integers")
        pixels = np.array(fields, dtype=float)
    if pixels.max(initial=0.0) > maxval:
        raise FormatError(f"{path}: pixel exceeds maxval {maxval}")
    return pixels.reshape(height, width)


def _to_gray(arr: np.ndarray) -> np.ndarray:
    """Clip to [0, 255] and round half away from zero to uint8."""
    return _round_half_away(np.clip(np.asarray(arr, dtype=float), 0.0, 255.0)).astype(np.uint8)


def write_pgm(path: str, array, binary: bool = True) -> None:
    """Write a grayscale image; values are clipped and rounded to 0..255."""
    a = np.asarray(array)
    if a.ndim != 2 or a.size == 0:
        raise FormatError("PGM needs a nonempty 2-d array")
    gray = a if a.dtype == np.uint8 else _to_gray(a)
    height, width = gray.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n255"
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"{header}\n".encode("ascii"))
            fh.write(gray.tobytes())
    else:
        _write_lines(path, [header, *(" ".join(map(str, row)) for row in gray.tolist())])


# ---------------------------------------------------------------------------
# filter files


def read_filter_file(path: str) -> FilterSpec:
    """Three-line filter description.

    Line 1: ``name: <identifier>``; line 2: ``start: <integer>``; line 3:
    ``coeffs: <values separated by spaces or tabs>``. Values are decimals or
    a+bi pairs. Coefficients that ``FilterSpec`` refuses raise its
    DomainError, naming ``path:line`` of the coeffs line; a start it refuses
    (past 2^52) names the start line.
    """
    texts, numbers = _nonblank_lines(path)
    if len(texts) != 3:
        raise FormatError(f"{path}: expected exactly 3 nonblank lines, got {len(texts)}")
    numbers = list(numbers)
    fields = _header(path, texts, numbers, (("name",), ("start",), ("coeffs",)))
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.-]*", fields["name"]):
        raise FormatError(f"{path}:{numbers[0]}: bad filter name {fields['name']!r}")
    start = _integer(f"{path}:{numbers[1]}", "start", fields["start"])
    coeffs = _read_numbers(path, [fields["coeffs"]], numbers[2:], sep=None)
    if not coeffs.size:
        raise FormatError(f"{path}:{numbers[2]}: no coefficients")
    try:
        return FilterSpec(name=fields["name"], h=coeffs, start=start)
    except DomainError as exc:
        line = numbers[1] if abs(start) > _START_LIMIT else numbers[2]
        raise DomainError(f"{path}:{line}: {exc}") from None


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
    # Every pyramid ran the chain rule when it was built, so what is written reads back.
    if isinstance(pyramid, Pyramid1D):
        levels, shape = [(z,) for z in pyramid.details], (pyramid.signal_length,)
    elif isinstance(pyramid, ImagePyramid):
        levels, shape = [(t.h, t.v, t.d) for t in pyramid.details], pyramid.image_shape
    else:
        raise FormatError(f"cannot serialize {type(pyramid).__name__} as a pyramid")
    size = f"len: {shape[0]}" if len(shape) == 1 else f"dims: {shape[0]}x{shape[1]}"
    planes = [p.reshape(len(p), -1) for bands in (*levels, (pyramid.approx,)) for p in bands]
    lines = [
        f"magic: {_CONTAINER_MAGIC}",
        f"filter: {filter_name}",
        f"levels: {pyramid.levels}",
        size,
    ]
    for (label, _), plane in zip(_layout(pyramid.levels, shape), planes):
        lines.append(f"[{label}]")
        lines.extend(map(_format_array_line, plane.tolist()))
    _write_lines(path, lines)


def read_pyramid_container(path: str) -> tuple[Pyramid1D | ImagePyramid, str]:
    """Parse a container; returns the pyramid and the filter name it names."""
    lines = _lines(path)
    keys = (("magic",), ("filter",), ("levels",), ("len", "dims"))
    header = _header(path, lines, count(1), keys)
    # The header is always lines 1 to 4, so its errors name those lines.
    if header["magic"] != _CONTAINER_MAGIC:
        raise FormatError(f"{path}:1: magic is not {_CONTAINER_MAGIC!r}")
    levels = _integer(f"{path}:3", "levels", header["levels"])
    if levels < 1:
        raise FormatError(f"{path}:3: levels must be at least 1")
    if "len" in header:
        shape = (_integer(f"{path}:4", "len", header["len"]),)
    else:
        m = re.fullmatch(r"(\d+)x(\d+)", header["dims"], re.ASCII)
        if not m:
            raise FormatError(
                f"{path}:4: dims must look like <rows>x<cols>, got {header['dims']!r}"
            )
        shape = tuple(_integer(f"{path}:4", "dims", n) for n in m.groups())
    # Shifts rather than 1 << levels, so a huge level count costs nothing.
    if any(n >> levels < 1 or n >> levels << levels != n for n in shape):
        size = "x".join(str(n) for n in shape)
        raise FormatError(f"{path}:4: size {size} does not admit {levels} levels")
    planes, pos = [], 4
    for label, (rows, cols) in _layout(levels, shape):
        got = lines[pos] if pos < len(lines) else "<eof>"
        if got.strip() != f"[{label}]":
            raise FormatError(f"{path}:{pos + 1}: expected block [{label}], got {got!r}")
        body = lines[pos + 1 : pos + 1 + rows]
        if len(body) < rows:
            raise FormatError(f"{path}:{len(lines)}: block needs {rows} rows, file ends early")
        values = _read_numbers(path, body, range(pos + 2, pos + 2 + rows), cols)
        planes.append(values.reshape(rows, cols))
        pos += 1 + rows
    for i in range(pos, len(lines)):
        if lines[i].strip():
            raise FormatError(f"{path}:{i + 1}: trailing content {lines[i]!r}")
    if len(shape) == 1:
        vectors = [p.ravel() for p in planes]
        return Pyramid1D(details=tuple(vectors[:-1]), approx=vectors[-1]), header["filter"]
    details = tuple(LevelDetail(*planes[i : i + 3]) for i in range(0, 3 * levels, 3))
    return ImagePyramid(details=details, approx=planes[-1]), header["filter"]


# ---------------------------------------------------------------------------
# analysis exports


def _check_x_column(path: str, x0: float, level: int, count: int) -> None:
    """Refuse, naming ``path``, the grid x0 + k/2^level (k < count) when its
    step is below the least double, 2^-1074, so that its x column would
    collapse, or when some |x| 2^level passes 2^53, so that it would round."""
    where = f"{path}: x from {x0:.17g} at step 2^-{level} would"
    if level > 1074:
        raise DomainError(f"{where} collapse: the step is below 2^-1074")
    try:
        first = math.ldexp(x0, level)  # in steps of 2^-level, exactly
    except OverflowError:  # past the largest double, so past 2^53
        first = math.inf
    if not -(2**53) <= first <= 2**53 - (count - 1):  # float-int comparisons are exact
        raise DomainError(f"{where} round past 2^53")


def write_dyadic_csv(path: str, d) -> None:
    """x,value rows at the function's own grid, refused by ``_check_x_column`` first."""
    _check_x_column(path, d.x0, d.level, d.values.size)
    _write_lines(path, map(_format_array_line, zip(d.xs, d.values)))


def write_scalogram_csv(path: str, c) -> None:
    """Header rows named ``scales`` and ``shifts``, then the matrix."""
    head = ["scales," + _format_array_line(c.scales), "shifts," + _format_array_line(c.shifts)]
    _write_lines(path, head + list(map(_format_array_line, np.atleast_2d(c.matrix))))


def write_heatmap_pgm(path: str, c) -> None:
    """Coefficient magnitudes affinely mapped onto the 0..255 gray ramp."""
    write_pgm(path, _rescale_for_display(np.abs(np.atleast_2d(c.matrix))))
