import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavekit.errors import DomainError, FormatError, ShapeError, WavekitError
from wavekit.cascade import DyadicFunction, scaling_function
from wavekit.cli import _require_file
from wavekit.filters import FilterSpec, builtin_filter
from wavekit.image2d import ImagePyramid, LevelDetail, dwt2d
from wavekit.io import (
    _CONTAINER_MAGIC,
    _format_value,
    _parse_value,
    read_filter_file,
    read_pgm,
    read_pyramid_container,
    read_signal_csv,
    write_dyadic_csv,
    write_heatmap_pgm,
    write_pgm,
    write_pyramid_container,
    write_scalogram_csv,
    write_signal_csv,
)
from wavekit.subband import Pyramid1D, dwt1d

RNG = np.random.default_rng(57721566)


# --- scalar round trips ------------------------------------------------------


@pytest.mark.parametrize(
    "x",
    [0.0, 1.0, -1.5, 1 / 3, np.pi, 1e-300, -2.2250738585072014e-308, 12345.6789],
)
def test_float_roundtrip_bit_identical(x):
    assert _parse_value(_format_value(x)) == x


def test_seventeen_digits_survive():
    x = 0.1 + 0.2  # 0.30000000000000004
    assert _parse_value(_format_value(x)) == x


def test_complex_roundtrip():
    z = complex(1 / 3, -2 / 7)
    token = _format_value(z)
    assert token.endswith("i")
    assert _parse_value(token) == z


def test_parse_rejects_garbage():
    """Among the refused tokens, forms float() takes that are not ASCII
    decimals: a digit separator, Arabic-Indic and fullwidth digits."""
    for bad in ("", "  ", "abc", "1+2", "nan", "inf", "1e999", "1_0", "1+2_0i", "\u0663", "\uff11.\uff15"):
        with pytest.raises(FormatError):
            _parse_value(bad)


@pytest.mark.parametrize(
    "token, expected",
    [
        ("nan", None),
        (" inf", None),
        ("1e400", None),
        ("1+infi", None),
        ("1e308+1e308i", complex(1e308, 1e308)),
        ("1.7e308+1.7e308i", None),
    ],
)
def test_parse_finiteness_edge_tokens(token, expected):
    """Overflow and non-finite tokens are refused, a complex value whose
    modulus overflows among them; a complex value whose modulus is still
    finite is accepted."""
    if expected is None:
        with pytest.raises(FormatError, match="non-finite"):
            _parse_value(token)
    else:
        assert _parse_value(token) == expected


# --- signal CSV ----------------------------------------------------------------


def test_signal_csv_roundtrip(tmp_path):
    path = str(tmp_path / "sig.csv")
    x = RNG.standard_normal(64)
    write_signal_csv(path, x)
    back = read_signal_csv(path)
    assert np.array_equal(back, x)


def test_signal_csv_complex(tmp_path):
    path = str(tmp_path / "sig.csv")
    x = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    write_signal_csv(path, x)
    assert np.array_equal(read_signal_csv(path), x)


def test_signal_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1.5\n\n\n2.5\n")
    assert_allclose(read_signal_csv(str(path)), [1.5, 2.5], atol=0)


def test_signal_csv_row_rejected(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(FormatError):
        read_signal_csv(str(path))


def test_signal_csv_empty_rejected(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("\n\n")
    with pytest.raises(FormatError):
        read_signal_csv(str(path))


# --- PGM -----------------------------------------------------------------------


def test_pgm_binary_roundtrip(tmp_path):
    path = str(tmp_path / "img.pgm")
    img = RNG.integers(0, 256, size=(5, 7)).astype(float)
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.array_equal(back, img)


def test_pgm_ascii_roundtrip(tmp_path):
    path = str(tmp_path / "img.pgm")
    img = RNG.integers(0, 256, size=(3, 4)).astype(float)
    write_pgm(path, img, binary=False)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_comments_and_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2 # trailing\n255\n1 2 # note\n3 4\n")
    assert np.array_equal(read_pgm(str(path)), [[1.0, 2.0], [3.0, 4.0]])


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n1 1\n255\nx")
    with pytest.raises(FormatError):
        read_pgm(str(path))


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n1000\n")
    with pytest.raises(FormatError):
        read_pgm(str(path))


def test_pgm_rejects_short_raster(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\nxy")
    with pytest.raises(FormatError):
        read_pgm(str(path))


@pytest.mark.parametrize("pixel", [b"-3", b"+3", b"1_0"])
def test_pgm_rejects_pixels_that_are_not_unsigned_decimals(tmp_path, pixel):
    """P2 pixels are ASCII digits only: a sign or a digit separator, which
    int() takes, is refused with an error naming the path."""
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 1\n255\n7 " + pixel + b"\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: PGM pixels must be unsigned")):
        read_pgm(str(path))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n4 4\n", "truncated PGM header"),
        (b"P2 # 3 3 255\n", "truncated PGM header"),
        (b"P2\n0 4\n255\n", "bad PGM dimensions 0x4"),
        (b"P5\n4 0\n255\n", "bad PGM dimensions 4x0"),
    ],
    ids=["two-fields", "fields-in-a-comment", "zero-width", "zero-height"],
)
def test_pgm_rejects_a_bad_header(tmp_path, data, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_pgm(str(path))


def test_pgm_rejects_pixel_above_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n1 1\n10\n11\n")
    with pytest.raises(FormatError):
        read_pgm(str(path))


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0,), (2, 2, 2)])
def test_write_pgm_refuses_what_is_not_a_nonempty_image(tmp_path, shape):
    path = tmp_path / "img.pgm"
    with pytest.raises(FormatError, match="nonempty 2-d"):
        write_pgm(str(path), np.zeros(shape))
    assert not path.exists()


def test_write_pgm_clips_and_rounds(tmp_path):
    path = str(tmp_path / "img.pgm")
    write_pgm(path, np.array([[-5.0, 0.4, 0.5, 300.0]]))
    assert np.array_equal(read_pgm(path), [[0.0, 0.0, 1.0, 255.0]])


# --- filter files ----------------------------------------------------------------


def test_filter_file_roundtrip(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("name: myfilter\nstart: -1\ncoeffs: 0.5 0.5\n")
    f = read_filter_file(str(path))
    assert f.name == "myfilter"
    assert f.start == -1
    assert_allclose(f.h, [0.5, 0.5], atol=0)


def test_filter_file_complex_coeffs(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("name: c\nstart: 0\ncoeffs: 0.5+0i 0.25+0.25i 0.25-0.25i\n")
    f = read_filter_file(str(path))
    assert np.iscomplexobj(f.h)
    assert f.h[1] == 0.25 + 0.25j


def test_filter_file_structure_enforced(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("name: x\ncoeffs: 1.0\n")
    with pytest.raises(FormatError):
        read_filter_file(str(path))
    path.write_text("start: 0\nname: x\ncoeffs: 1.0\n")
    with pytest.raises(FormatError):
        read_filter_file(str(path))
    path.write_text("name: bad name!\nstart: 0\ncoeffs: 1.0\n")
    with pytest.raises(FormatError):
        read_filter_file(str(path))


# --- containers -------------------------------------------------------------------


def test_container_1d_roundtrip_bitwise(tmp_path):
    f = builtin_filter("db4")
    p = dwt1d(RNG.standard_normal(64), f, 2)
    path = str(tmp_path / "p.pyr")
    write_pyramid_container(path, p, "db4")
    back, name = read_pyramid_container(path)
    assert name == "db4"
    assert back.levels == 2
    assert np.array_equal(back.approx, p.approx)
    for a, b in zip(back.details, p.details):
        assert np.array_equal(a, b)
    # re-serialization is byte identical
    path2 = str(tmp_path / "p2.pyr")
    write_pyramid_container(path2, back, name)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_container_2d_roundtrip_bitwise(tmp_path):
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((8, 8)), f, 2)
    path = str(tmp_path / "p.pyr")
    write_pyramid_container(path, p, "haar")
    back, name = read_pyramid_container(path)
    assert name == "haar"
    assert np.array_equal(back.approx, p.approx)
    for a, b in zip(back.details, p.details):
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.d, b.d)
    path2 = str(tmp_path / "p2.pyr")
    write_pyramid_container(path2, back, name)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_container_complex_coefficients(tmp_path):
    f = builtin_filter("db4")
    x = RNG.standard_normal(32) + 1j * RNG.standard_normal(32)
    p = dwt1d(x, f, 1)
    path = str(tmp_path / "p.pyr")
    write_pyramid_container(path, p, "db4")
    back, _ = read_pyramid_container(path)
    assert np.array_equal(back.details[0], p.details[0])


def test_container_header_text(tmp_path):
    f = builtin_filter("haar")
    p = dwt1d(np.arange(8.0), f, 1)
    path = tmp_path / "p.pyr"
    write_pyramid_container(str(path), p, "haar")
    lines = path.read_text().splitlines()
    assert lines[0] == f"magic: {_CONTAINER_MAGIC}"
    assert lines[1] == "filter: haar"
    assert lines[2] == "levels: 1"
    assert lines[3] == "len: 8"
    assert lines[4] == "[detail-1]"
    # A whole container, byte for byte.
    write_pyramid_container(str(path), dwt1d(np.arange(1.0, 5.0), f, 1), "haar")
    assert path.read_bytes() == (
        b"magic: wavekit-pyr1\nfilter: haar\nlevels: 1\nlen: 4\n"
        b"[detail-1]\n-0.70710678118654757\n-0.70710678118654746\n"
        b"[approx]\n2.1213203435596428\n4.9497474683058336\n"
    )


def test_container_writer_refuses_pyramids_that_do_not_chain(tmp_path):
    """Every pyramid runs the inverses' chain rule when it is built, and the
    writer runs none: an image or 1-d pyramid whose bands do not chain, or
    that holds non-numeric bands, raises when it is built, so it never
    reaches the writer and no file is left behind that could not be read
    back."""
    ones = np.ones((4, 4))
    level = LevelDetail(h=ones, v=ones, d=ones)
    path = tmp_path / "p.pyr"
    with pytest.raises(ShapeError, match="detail level 1"):
        write_pyramid_container(str(path), ImagePyramid(details=(level, level), approx=ones), "haar")
    assert not path.exists()
    with pytest.raises(ShapeError, match=r"detail level 1 has shape \(4,\), expected \(8,\)"):
        Pyramid1D(details=(np.ones(4), np.ones(4)), approx=np.ones(4))
    with pytest.raises(DomainError, match="numeric"):
        Pyramid1D(details=(np.ones(4),), approx=np.full(4, "a"))


@pytest.mark.parametrize(
    "thing",
    [np.ones(4), dwt2d(np.ones((4, 4)), builtin_filter("haar"), 1).details[0]],
    ids=["array", "level-detail"],
)
def test_container_writer_refuses_what_is_not_a_pyramid(tmp_path, thing):
    path = tmp_path / "p.pyr"
    with pytest.raises(FormatError, match=f"cannot serialize {type(thing).__name__}"):
        write_pyramid_container(str(path), thing, "haar")
    assert not path.exists()


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_container_rejects_fewer_than_one_level(tmp_path, levels):
    path = tmp_path / "p.pyr"
    path.write_text(f"magic: wavekit-pyr1\nfilter: haar\nlevels: {levels}\nlen: 2\n[approx]\n1\n2\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: levels must be at least 1")):
        read_pyramid_container(str(path))


def test_container_rejects_wrong_magic(tmp_path):
    path = tmp_path / "p.pyr"
    path.write_text("magic: other\nfilter: haar\nlevels: 1\nlen: 2\n")
    with pytest.raises(FormatError):
        read_pyramid_container(str(path))


def test_container_rejects_truncation(tmp_path):
    f = builtin_filter("haar")
    p = dwt1d(np.arange(8.0), f, 1)
    path = tmp_path / "p.pyr"
    write_pyramid_container(str(path), p, "haar")
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-2]) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:12: block needs 4 rows, file ends early")):
        read_pyramid_container(str(path))


def test_container_rejects_trailing_junk(tmp_path):
    f = builtin_filter("haar")
    p = dwt1d(np.arange(8.0), f, 1)
    path = tmp_path / "p.pyr"
    write_pyramid_container(str(path), p, "haar")
    path.write_text(path.read_text() + "surprise\n")
    with pytest.raises(FormatError):
        read_pyramid_container(str(path))


def test_container_rejects_inconsistent_length(tmp_path):
    path = tmp_path / "p.pyr"
    path.write_text(
        "magic: wavekit-pyr1\nfilter: haar\nlevels: 2\nlen: 6\n"
    )
    with pytest.raises(FormatError):
        read_pyramid_container(str(path))


@pytest.mark.parametrize(
    "levels, size",
    [("1", "dims: 0x4"), ("2", "dims: 8x6"), ("1", "len: 0"), (str(10**30), "len: 64")],
)
def test_container_rejects_sizes_that_do_not_admit_the_levels(tmp_path, levels, size):
    path = tmp_path / "p.pyr"
    path.write_text(f"magic: wavekit-pyr1\nfilter: haar\nlevels: {levels}\n{size}\n[a]\n")
    with pytest.raises(FormatError, match="does not admit"):
        read_pyramid_container(str(path))


def _container(tmp_path, kind: str) -> Path:
    """A haar container of a 16-sample real or complex signal (``1d``,
    ``complex``) or of an 8 x 8 image (``2d``), two levels deep."""
    f = builtin_filter("haar")
    if kind == "2d":
        p = dwt2d(RNG.standard_normal((8, 8)), f, 2)
    else:
        x = RNG.standard_normal(16)
        p = dwt1d(x + 1j * RNG.standard_normal(16) if kind == "complex" else x, f, 2)
    path = tmp_path / f"{kind}.pyr"
    write_pyramid_container(str(path), p, "haar")
    return path


@pytest.mark.parametrize("kind", ["1d", "2d", "complex"])
@pytest.mark.parametrize("where", ["first block", "last block"])
def test_bad_container_cell_names_path_and_line(tmp_path, kind, where):
    """A cell that does not parse, in the first row of the first block
    (line 6, after four header lines and a label) or in the second-to-last
    line of the file, is named by path and line."""
    path = _container(tmp_path, kind)
    lines = path.read_text().splitlines()
    lineno = 6 if where == "first block" else len(lines) - 1
    cells = lines[lineno - 1].split(",")
    cells[-1] = "abc"
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:{lineno}: cannot parse number 'abc'"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_pyramid_container(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.5\n\n2.5,3.5\n", "3: expected 1 column(s), got 2"),
        ("1.5\n\n2.5\nabc\n", "4: cannot parse number 'abc'"),
    ],
)
def test_bad_signal_csv_line_names_path_and_line(tmp_path, text, message):
    path = tmp_path / "sig.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}:{message}")):
        read_signal_csv(str(path))


def test_container_row_of_wrong_width_names_path_and_line(tmp_path):
    path = _container(tmp_path, "2d")
    lines = path.read_text().splitlines()
    lines[5] += ",0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:6: expected 4 column(s), got 5")):
        read_pyramid_container(str(path))


def test_bad_filter_coefficient_names_path_and_line(tmp_path):
    """Line numbers count blank lines too."""
    path = tmp_path / "f.txt"
    path.write_text("name: x\n\nstart: 0\ncoeffs: 0.5 abc\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:4: cannot parse number 'abc'")):
        read_filter_file(str(path))
    path.write_text("name: x\nstart: 0\ncoeffs: 0.5,0.5\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: cannot parse number '0.5,0.5'")):
        read_filter_file(str(path))


def test_filter_coefficients_split_at_spaces_and_tabs_only(tmp_path):
    """Tabs separate taps like spaces; U+2028, U+0085 and the \\x1c-\\x1f
    separators, which str.split() also splits at, stay inside their cell."""
    path = tmp_path / "f.txt"
    path.write_text("name: x\nstart: 0\ncoeffs: 0.25 \t0.25\t0.5\n")
    assert_allclose(read_filter_file(str(path)).h, [0.25, 0.25, 0.5], atol=0)
    path.write_text("name: x\nstart: 0\ncoeffs: \t\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: no coefficients")):
        read_filter_file(str(path))
    for byte in ("\u2028", "\x85", "\x1c", "\x1f"):
        path.write_text(f"name: x\nstart: 0\ncoeffs: 0.5{byte}0.5\n", encoding="utf-8")
        message = f"{path}:3: cannot parse number {f'0.5{byte}0.5'!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_filter_file(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("name: x\n\nstart: 0\ncoeffs: 0.25 0.25 0.25 0.26\n",
         "4: filter 'x' is flagged normalized but sum(h) = 1.01"),
        ("name: x\nstart: 0\ncoeffs: 0.5+0.5i 0.5\n",
         "3: filter 'x' is flagged normalized but sum(h) = (1+0.5j)"),
        ("name: x\nstart: 0\ncoeffs: 0 0\n", "3: filter coefficients must not be identically zero"),
        ("name: x\nstart: 99999999999999999999\ncoeffs: 0.5 0.5\n",
         "2: filter start 99999999999999999999 is past the 2^52 limit"),
    ],
    ids=["sum", "complex-sum", "zero", "start"],
)
def test_refused_filter_coefficients_name_path_and_line(tmp_path, text, message):
    """FilterSpec's DomainError comes back naming the file and the coeffs
    line, with the sum as a plain number; a refused start names its own line."""
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(DomainError, match="^" + re.escape(f"{path}:{message}") + "$"):
        read_filter_file(str(path))


@pytest.mark.parametrize(
    "data, lineno",
    [(b"1.0\n2\xff\n", 2), (b"1.0\r\n\r\n2\r3\xc3\x28\n", 4), (b"\x80", 1)],
    ids=["lf", "crlf-and-cr", "first-byte"],
)
def test_text_that_is_not_utf8_names_path_and_line(tmp_path, data, lineno):
    """Line numbers count LF, CRLF and CR line ends, as the readers split."""
    path = tmp_path / "sig.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}:{lineno}: not UTF-8 text")):
        read_signal_csv(str(path))


_PYR = "magic: wavekit-pyr1\nfilter: haar\n"

#: A file per site of a number or an integer header field, with ``{d}``
#: where digit d goes; the reader; the line named, None for the PGM header.
_NUMBER_SITES = {
    "signal": ("0.5\n{1}\n", read_signal_csv, 2),
    "block": (_PYR + "levels: 1\nlen: 2\n[detail-1]\n{1}\n[approx]\n1\n", read_pyramid_container, 6),
    "coeffs": ("name: x\nstart: 0\ncoeffs: 0.5 0.{5}\n", read_filter_file, 3),
    "start": ("name: x\n\nstart: {1}\ncoeffs: 0.5 0.5\n", read_filter_file, 3),
    "levels": (_PYR + "levels: {1}\nlen: 2\n[detail-1]\n1\n[approx]\n1\n", read_pyramid_container, 3),
    "len": (_PYR + "levels: 1\nlen: {2}\n[detail-1]\n1\n[approx]\n1\n", read_pyramid_container, 4),
    "dims": (_PYR + "levels: 1\ndims: {2}x2\n[h-1]\n1\n[v-1]\n1\n[d-1]\n1\n[a]\n1\n",
             read_pyramid_container, 4),
    "pgm": ("P2\n1 1\n{2}55\n7\n", read_pgm, None),
}


@pytest.mark.parametrize(
    "form",
    [lambda d: f"0_{d}", lambda d: chr(0x660 + d), lambda d: chr(0xFF10 + d)],
    ids=["separator", "arabic-indic", "fullwidth"],
)
@pytest.mark.parametrize("site", list(_NUMBER_SITES))
def test_number_forms_outside_ascii_decimals_are_refused(tmp_path, site, form):
    """Numbers are ASCII decimals at every site: the same file with ASCII
    digits reads, and with a digit separator or a non-ASCII digit (which
    float() and int() take) raises FormatError naming the path and line."""
    template, read, lineno = _NUMBER_SITES[site]
    path = tmp_path / "f"
    path.write_text(template.format(*map(str, range(10))), encoding="utf-8")
    read(str(path))
    path.write_text(template.format(*map(form, range(10))), encoding="utf-8")
    where = f"{path}:" if lineno is None else f"{path}:{lineno}: "
    with pytest.raises(FormatError, match="^" + re.escape(where)):
        read(str(path))


@pytest.mark.parametrize(
    "byte", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_line_break_bytes_stay_inside_their_cell(tmp_path, byte):
    """Lines end at LF, CRLF and CR only: in a container block and in a
    signal CSV, a byte that str.splitlines would break at stays inside its
    cell, so a cell holding it inside fails on its own line and one holding
    it at the end reads as the number."""
    files = [
        (_PYR + "levels: 1\nlen: 2\n[detail-1]\n{}\n[approx]\n1\n", read_pyramid_container, 6),
        ("1\n{}\n", read_signal_csv, 2),
    ]
    path = tmp_path / "f"
    for template, read, lineno in files:
        path.write_text(template.format(f"2.5{byte}3"), encoding="utf-8")
        message = f"{path}:{lineno}: cannot parse number {f'2.5{byte}3'!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            read(str(path))
        path.write_text(template.format(f"2.5{byte}"), encoding="utf-8")
        result = read(str(path))
        values = result[0].details[0] if read is read_pyramid_container else result
        assert values[-1] == 2.5


@pytest.mark.parametrize(
    "text, read, message",
    [
        (_PYR.replace("filter: haar", "filter") + "levels: 1\nlen: 2\n", read_pyramid_container,
         "2: expected 'filter: ...', got 'filter'"),
        ("name: x\n\nstart 0\ncoeffs: 1.0\n", read_filter_file, "3: expected 'start: ...', got 'start 0'"),
        (_PYR + f"levels: {'9' * 5000}\nlen: 2\n", read_pyramid_container, "3: levels must be an integer"),
        (_PYR + f"levels: 1\ndims: {'9' * 5000}x2\n", read_pyramid_container, "4: dims must be an integer"),
    ],
    ids=["container-colon", "filter-colon", "levels-digits", "dims-digits"],
)
def test_bad_header_line_names_path_and_line(tmp_path, text, read, message):
    """A header line without its key and colon, or an integer field with
    more digits than int() converts, is refused naming path and line."""
    path = tmp_path / "f"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}:{message}")):
        read(str(path))


@pytest.fixture(scope="module")
def mutation_sources(tmp_path_factory):
    """The bytes of one valid file per reader, and that reader."""
    d = tmp_path_factory.mktemp("sources")
    image = RNG.integers(0, 256, size=(4, 6)).astype(float)
    write_pgm(str(d / "p5.pgm"), image)
    write_pgm(str(d / "p2.pgm"), image, binary=False)
    (d / "f.txt").write_text("name: db4ish\nstart: -1\ncoeffs: 0.25 0.25+0i 0.25 0.25\n")
    files = {k: (_container(d, k), read_pyramid_container) for k in ("1d", "2d", "complex")}
    files.update(p5=(d / "p5.pgm", read_pgm), p2=(d / "p2.pgm", read_pgm))
    files.update(filter=(d / "f.txt", read_filter_file))
    write_signal_csv(str(d / "s.csv"), RNG.standard_normal(8))
    files.update(csv=(d / "s.csv", read_signal_csv))
    return d, {kind: (path.read_bytes(), read) for kind, (path, read) in files.items()}


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, 1 << 16),
        st.one_of(st.integers(0, 255), st.sampled_from(b"\n\r ,:.+-ei0123456789_")),
    ),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("kind", ["1d", "2d", "complex", "p5", "p2", "filter", "csv"])
@settings(max_examples=40)
@given(edits=_EDITS)
def test_mutated_files_raise_only_wavekit_errors(mutation_sources, kind, edits):
    """One to three bytes replaced, inserted or deleted anywhere in a valid
    container, PGM, filter file or signal CSV: reading it succeeds or raises a
    WavekitError, every FormatError names the path, and so does every error
    of the filter reader."""
    d, sources = mutation_sources
    data, read = sources[kind]
    buf = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(buf) + (op == "insert")
        if op == "replace":
            buf[pos] = byte
        elif op == "insert":
            buf.insert(pos, byte)
        else:
            del buf[pos]
    path = d / f"mutant-{kind}"
    path.write_bytes(bytes(buf))
    try:
        read(str(path))
    except WavekitError as exc:
        if isinstance(exc, FormatError) or read is read_filter_file:
            assert str(exc).startswith(f"{path}:"), str(exc)


# --- analysis exports ---------------------------------------------------------------


def test_scalogram_csv_layout(tmp_path):
    from wavekit.cwt import CwtCoefficients, CwtGrid

    grid = CwtGrid(scales=np.array([1.0, 2.0]), shifts=np.array([0.0, 1.0, 2.0]))
    c = CwtCoefficients(
        matrix=np.arange(6.0).reshape(2, 3),
        grid=grid,
        x_min=0.0,
        dx=1.0,
        n_samples=3,
    )
    path = tmp_path / "s.csv"
    write_scalogram_csv(str(path), c)
    lines = path.read_text().splitlines()
    assert lines[0] == "scales,1,2"
    assert lines[1] == "shifts,0,1,2"
    assert lines[2] == "0,1,2"
    assert len(lines) == 4
    assert path.read_bytes() == b"scales,1,2\nshifts,0,1,2\n0,1,2\n3,4,5\n"


@pytest.mark.parametrize(
    "write, expected",
    [
        (lambda p: write_signal_csv(p, [0.1, -2.5, 1e-300]), b"0.10000000000000001\n-2.5\n1e-300\n"),
        (lambda p: write_signal_csv(p, [1 + 2j, -0.5j, 1 / 3]), b"1+2i\n-0-0.5i\n0.33333333333333331+0i\n"),
        (lambda p: write_dyadic_csv(p, scaling_function(builtin_filter("haar"), 1)), b"0,1\n0.5,1\n1,0\n"),
        (
            lambda p: write_pgm(p, np.array([[0, 1.5, 255], [300, -4, 17.49]]), binary=False),
            b"P2\n3 2\n255\n0 2 255\n255 0 17\n",
        ),
    ],
    ids=["signal-real", "signal-complex", "dyadic", "p2"],
)
def test_text_writers_write_these_bytes(tmp_path, write, expected):
    path = tmp_path / "out"
    write(str(path))
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "start, distinct", [(2**50 - 1, 9), (-(2**50), 9), (2**50, 5), (-(2**50) - 1, 5), (2**52, 2)]
)
def test_dyadic_csv_refuses_an_x_column_it_would_round(tmp_path, start, distinct):
    """haar at J = 3 has 9 samples, x = start + k/8, all doubles while every
    |x| 2^3 is at most 2^53. Past that, where only 5 (start 2^50) or 2
    (start 2^52) of them are distinct, DomainError names the path and no
    file is written."""
    d = scaling_function(FilterSpec("haar", np.array([0.5, 0.5]), start), 3)
    assert np.unique(d.xs).size == distinct
    path = tmp_path / "phi.csv"
    if distinct == 9:
        write_dyadic_csv(str(path), d)
        xs = [Fraction(float(row.split(",")[0])) for row in path.read_text().splitlines()]
        assert xs == [start + Fraction(k, 8) for k in range(9)]
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: x from .* would round past 2\\^53"):
            write_dyadic_csv(str(path), d)
        assert not path.exists()


@pytest.mark.parametrize(
    "x0, level, count, why",
    [
        (0.0, 1100, 1, "collapse"),
        (0.0, 1080, 2, "collapse"),
        (0.0, 1075, 2, "collapse"),
        (1.0, 1024, 1, "round past 2\\^53"),
        (-1.5, 2000, 3, "collapse"),
        (2.0**-1000, 1060, 1, "round past 2\\^53"),
    ],
)
def test_dyadic_csv_refuses_grids_past_the_doubles(tmp_path, x0, level, count, why):
    """A grid whose x0 2^level is past the largest double is refused as a
    DomainError naming the path, not an OverflowError, and past level 1074,
    where the step 2^-level is 0.0, so is every grid, whatever its x0 and
    sample count."""
    path = tmp_path / "f.csv"
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: x from .* would {why}"):
        write_dyadic_csv(str(path), DyadicFunction(x0, level, np.ones(count)))
    assert not path.exists()


@pytest.mark.parametrize("x0, level", [(0.0, 1074), (2.0**-1000, 1050), (-(2.0**-1000), 1030)])
def test_dyadic_csv_writes_grids_of_subnormal_steps(tmp_path, x0, level):
    """Down to level 1074 the step is a double, subnormal past 1022, and
    every x of a grid within 2^53 steps of 0 is written exactly."""
    path = tmp_path / "f.csv"
    write_dyadic_csv(str(path), DyadicFunction(x0, level, np.ones(3)))
    xs = [Fraction(float(row.split(",")[0])) for row in path.read_text().splitlines()]
    assert xs == [Fraction(x0) + Fraction(k, 2**level) for k in range(3)]
    assert len(set(xs)) == 3


def test_heatmap_constant_matrix_mid_gray(tmp_path):
    from wavekit.cwt import CwtCoefficients, CwtGrid

    grid = CwtGrid(scales=np.array([1.0, 2.0]), shifts=np.array([0.0, 1.0]))
    c = CwtCoefficients(
        matrix=np.ones((2, 2)), grid=grid, x_min=0.0, dx=1.0, n_samples=2
    )
    path = str(tmp_path / "h.pgm")
    write_heatmap_pgm(path, c)
    assert np.array_equal(read_pgm(path), np.full((2, 2), 128.0))


def test_require_file(tmp_path):
    real = tmp_path / "x"
    real.write_text("ok")
    assert _require_file(str(real)) == str(real)
    with pytest.raises(FormatError):
        _require_file(str(tmp_path / "missing"))
    with pytest.raises(FormatError):
        _require_file(str(tmp_path))  # a directory is not a file
