from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekit.errors import FormatError
from wavekit.filters import builtin_filter
from wavekit.image2d import dwt2d
from wavekit.io import (
    CONTAINER_MAGIC,
    format_value,
    parse_value,
    read_filter_file,
    read_pgm,
    read_pyramid_container,
    read_signal_csv,
    require_file,
    write_heatmap_pgm,
    write_pgm,
    write_pyramid_container,
    write_scalogram_csv,
    write_signal_csv,
)
from wavekit.subband import dwt1d

RNG = np.random.default_rng(57721566)


# --- scalar round trips ------------------------------------------------------


@pytest.mark.parametrize(
    "x",
    [0.0, 1.0, -1.5, 1 / 3, np.pi, 1e-300, -2.2250738585072014e-308, 12345.6789],
)
def test_float_roundtrip_bit_identical(x):
    assert parse_value(format_value(x)) == x


def test_seventeen_digits_survive():
    x = 0.1 + 0.2  # 0.30000000000000004
    assert parse_value(format_value(x)) == x


def test_complex_roundtrip():
    z = complex(1 / 3, -2 / 7)
    token = format_value(z)
    assert token.endswith("i")
    assert parse_value(token) == z


def test_parse_rejects_garbage():
    for bad in ("", "  ", "abc", "1+2", "nan", "inf", "1e999"):
        with pytest.raises(FormatError):
            parse_value(bad)


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


def test_pgm_rejects_pixel_above_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n1 1\n10\n11\n")
    with pytest.raises(FormatError):
        read_pgm(str(path))


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
    assert lines[0] == f"magic: {CONTAINER_MAGIC}"
    assert lines[1] == "filter: haar"
    assert lines[2] == "levels: 1"
    assert lines[3] == "len: 8"
    assert lines[4] == "[detail-1]"


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
    with pytest.raises(FormatError):
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
    assert require_file(str(real)) == str(real)
    with pytest.raises(FormatError):
        require_file(str(tmp_path / "missing"))
    with pytest.raises(FormatError):
        require_file(str(tmp_path))  # a directory is not a file
