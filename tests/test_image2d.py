import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekit.errors import LevelError, ParameterError, ShapeError, SizeError
from wavekit.filters import FilterSpec, builtin_filter
from wavekit.image2d import (
    ImagePyramid,
    LevelDetail,
    Quantizer,
    dequantize,
    dwt2d,
    dwt2d_step,
    idwt2d,
    max_levels_2d,
    preview_layout,
    quantize,
    snap_to_lattice,
)
from wavekit.subband import subband_matrices

RNG = np.random.default_rng(7041776)


def test_two_by_two_haar_worked_example():
    """[[1, 2], [3, 4]] splits into a=5, h=-1, v=-2, d=0, exactly.

    The step applies its two axis normalizations as a single factor 2, so
    integer inputs with the haar filter stay exact in floating point.
    """
    q = dwt2d_step(np.array([[1.0, 2.0], [3.0, 4.0]]), builtin_filter("haar"))
    assert q.a[0, 0] == 5.0
    assert q.h[0, 0] == -1.0
    assert q.v[0, 0] == -2.0
    assert q.d[0, 0] == 0.0


def test_step_energy_exact_on_integers():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    q = dwt2d_step(img, builtin_filter("haar"))
    quads = (q.a**2 + q.h**2 + q.v**2 + q.d**2).sum()
    assert quads == (img**2).sum() == 30.0


def test_step_energy_random():
    img = RNG.standard_normal((16, 12))
    q = dwt2d_step(img, builtin_filter("db4"))
    total = sum((np.abs(p) ** 2).sum() for p in (q.a, q.h, q.v, q.d))
    assert total == pytest.approx((img**2).sum(), rel=1e-12)


def test_step_shapes_rectangular():
    q = dwt2d_step(RNG.standard_normal((8, 12)), builtin_filter("haar"))
    for p in (q.a, q.h, q.v, q.d):
        assert p.shape == (4, 6)


def test_constant_image_all_detail_free():
    f = builtin_filter("db4")
    q = dwt2d_step(np.full((8, 8), 7.0), f)
    assert_allclose(q.h, 0, atol=1e-13)
    assert_allclose(q.v, 0, atol=1e-13)
    assert_allclose(q.d, 0, atol=1e-13)
    assert_allclose(q.a, 14.0, atol=1e-13)  # 7 * 2


@pytest.mark.parametrize("name", ("haar", "db4"))
def test_roundtrip_multilevel(name):
    f = builtin_filter(name)
    img = RNG.standard_normal((32, 16))
    for lev in range(1, max_levels_2d((32, 16), f) + 1):
        p = dwt2d(img, f, lev)
        assert_allclose(idwt2d(p, f), img, atol=1e-12)


def test_roundtrip_integer_image_exact_haar():
    img = RNG.integers(0, 256, size=(16, 16)).astype(float)
    f = builtin_filter("haar")
    p = dwt2d(img, f, 4)
    back = idwt2d(p, f)
    assert np.array_equal(back, img)


def test_coefficient_count_matches_pixels():
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((32, 32)), f, 3)
    assert p.coefficient_count() == 32 * 32
    assert p.image_shape == (32, 32)
    assert p.levels == 3
    assert p.details[2].h.shape == (4, 4)
    assert p.approx.shape == (4, 4)


@pytest.mark.parametrize(
    "shape,name,expected",
    [
        ((2, 2), "haar", 1),    # one halving lands on 1x1 averages
        ((16, 16), "haar", 4),
        ((16, 16), "db4", 3),   # 16 -> 8 -> 4 -> 2; the 4x4 plane is still
        # wide enough to halve, the 2x2 result is not
        ((8, 4), "haar", 2),
        ((6, 6), "db4", 1),     # 6x6 is even and >= 4, its 3x3 child is done
        ((3, 8), "haar", 0),
    ],
)
def test_max_levels_2d_table(shape, name, expected):
    assert max_levels_2d(shape, builtin_filter(name)) == expected


def test_dwt2d_level_validation():
    f = builtin_filter("haar")
    img = np.ones((8, 8))
    with pytest.raises(LevelError):
        dwt2d(img, f, 4)
    with pytest.raises(LevelError):
        dwt2d(img, f, 0)
    with pytest.raises(SizeError):
        dwt2d(np.ones((7, 8)), f, 1)
    with pytest.raises(SizeError):
        dwt2d(np.ones(8), f, 1)


def test_idwt2d_plane_chain_checked():
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((8, 8)), f, 2)
    broken = ImagePyramid(details=(p.details[0], p.details[0]), approx=p.approx)
    with pytest.raises(ShapeError):
        idwt2d(broken, f)


def test_quantizer_validation():
    with pytest.raises(ParameterError):
        Quantizer(step=0.0)
    with pytest.raises(ParameterError):
        Quantizer(step=-1.0)


def test_quantize_dequantize_roundtrip_on_lattice():
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((8, 8)), f, 1)
    q = Quantizer(step=0.25)
    snapped = snap_to_lattice(p, q)
    # idempotent: already on the lattice
    again = snap_to_lattice(snapped, q)
    for a, b in zip(
        (snapped.approx, *[t.h for t in snapped.details]),
        (again.approx, *[t.h for t in again.details]),
    ):
        assert np.array_equal(a, b)
    # indices recovered exactly from lattice values
    idx = quantize(snapped, q)
    assert np.array_equal(dequantize(idx, q).approx, snapped.approx)


def test_quantize_rounds_half_away_from_zero():
    f = builtin_filter("haar")
    base = dwt2d(np.zeros((2, 2)), f, 1)
    p = ImagePyramid(
        details=base.details, approx=np.array([[0.5]])
    )
    q = quantize(p, Quantizer(step=1.0))
    assert q.approx[0, 0] == 1.0
    p_neg = ImagePyramid(details=base.details, approx=np.array([[-0.5]]))
    assert quantize(p_neg, Quantizer(step=1.0)).approx[0, 0] == -1.0


def test_quantization_error_bounded_by_half_step():
    f = builtin_filter("db4")
    img = RNG.standard_normal((16, 16))
    p = dwt2d(img, f, 2)
    step = 0.1
    snapped = snap_to_lattice(p, Quantizer(step=step))
    err = np.abs(idwt2d(snapped, f) - img).max()
    # coefficient-domain error <= step/2, and synthesis is an isometry
    # (unitary up to the exact factor handling), so pixel error stays small
    assert err <= step


def test_preview_layout_geometry():
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((16, 16)), f, 2)
    mosaic = preview_layout(p)
    assert mosaic.shape == (16, 16)
    assert mosaic.dtype == np.uint8


def test_preview_layout_constant_plane_is_mid_gray():
    f = builtin_filter("haar")
    p = dwt2d(np.full((4, 4), 9.0), f, 1)
    mosaic = preview_layout(p)
    # detail planes are constant zero -> rendered 128
    assert np.all(mosaic[:2, 2:] == 128)
    assert np.all(mosaic[2:, :2] == 128)
    assert np.all(mosaic[2:, 2:] == 128)


def test_step_matches_kronecker_form_complex_rectangular():
    """Each quadrant is A_y X A_x^T with the 1-d analysis matrices for the
    column (y) and row (x) lengths, for a complex filter and image."""
    h = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
    f = FilterSpec("complex", h, -1, normalized=False)
    img = RNG.standard_normal((10, 6)) + 1j * RNG.standard_normal((10, 6))
    my, mx = subband_matrices(f, 10), subband_matrices(f, 6)
    q = dwt2d_step(img, f)
    for plane, ay, ax in (
        (q.a, my.analysis_low, mx.analysis_low),
        (q.h, my.analysis_low, mx.analysis_high),
        (q.v, my.analysis_high, mx.analysis_low),
        (q.d, my.analysis_high, mx.analysis_high),
    ):
        assert_allclose(plane, ay @ img @ ax.T, rtol=0, atol=1e-12)


def test_step_and_synthesis_are_adjoint():
    """<step(X), Q> = <X, synthesis(Q)> for random complex X and quadrants."""
    h = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
    f = FilterSpec("complex", h, 3, normalized=False)
    img = RNG.standard_normal((12, 8)) + 1j * RNG.standard_normal((12, 8))
    planes = [RNG.standard_normal((6, 4)) + 1j * RNG.standard_normal((6, 4)) for _ in range(4)]
    q = dwt2d_step(img, f)
    forward = sum(np.vdot(b, a) for a, b in zip((q.a, q.h, q.v, q.d), planes))
    a, hh, v, d = planes
    back = idwt2d(ImagePyramid(details=(LevelDetail(h=hh, v=v, d=d),), approx=a), f)
    assert forward == pytest.approx(np.vdot(back, img), rel=1e-12)


def test_level_error_exactly_past_max_levels_2d(lattice_filters):
    """dwt2d accepts a depth iff it is at most max_levels_2d, and
    max_levels_2d agrees with the closed form: both sides divisible by 2^lev
    and no shorter than max(L, 2) before the last halving."""
    filters = [builtin_filter(name) for name in ("haar", "db4", "stretched_haar")]
    filters += [FilterSpec("lattice", h, 0) for h in lattice_filters]
    for f in filters:
        floor = max(f.length, 2)
        for n in range(floor + floor % 2, 33, 2):
            for shape in ((n, n + 2), (n + 2, n), (n, 2 * n), (2 * n, n)):
                img = RNG.standard_normal(shape)
                top = max_levels_2d(shape, f)
                for lev in range(1, 9):
                    closed = all(
                        m % (1 << lev) == 0 and m >> (lev - 1) >= floor for m in shape
                    )
                    assert (lev <= top) == closed
                    if lev <= top:
                        assert dwt2d(img, f, lev).levels == lev
                    else:
                        with pytest.raises(LevelError):
                            dwt2d(img, f, lev)
