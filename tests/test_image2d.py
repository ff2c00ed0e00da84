import numpy as np
import pytest
from conftest import kernel_blocks, peak_bytes
from numpy.testing import assert_allclose

from wavekit.errors import DomainError, LevelError, ParameterError, ShapeError, SizeError
from wavekit.filters import FilterSpec, builtin_filter
from wavekit.image2d import (
    ImagePyramid,
    LevelDetail,
    QuadDecomp,
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
from wavekit.io import write_pyramid_container
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


@pytest.mark.parametrize(
    "planes",
    [
        (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))),
        (np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4)),
    ],
    ids=["unequal", "1-d"],
)
def test_quad_decomp_refuses_unequal_planes(planes):
    with pytest.raises(ShapeError, match="equal shape"):
        QuadDecomp(*planes)


def test_image_pyramid_needs_a_level():
    with pytest.raises(ShapeError, match="at least one detail level"):
        ImagePyramid(details=(), approx=np.zeros((2, 2)))


def test_image_containers_compare_by_value_and_stay_unhashable():
    """Two image pyramids, level triples or step outputs from separate calls
    on equal input compare equal, and unequal when a plane's values or shape
    differ, or to another type; hash() raises TypeError, since the planes are
    mutable arrays."""
    f = builtin_filter("db4")
    image = RNG.standard_normal((16, 16))
    p, q = dwt2d(image, f, 1), dwt2d(image.copy(), f, 1)
    step = dwt2d_step(image, f)
    pairs = [
        (p, q, dwt2d(image + 1.0, f, 1)),
        (p.details[0], q.details[0], LevelDetail(p.details[0].h[:4], p.details[0].v, p.details[0].d)),
        (step, dwt2d_step(image.copy(), f), QuadDecomp(step.a, step.h, step.v, -step.d)),
    ]
    for one, same, other in pairs:
        assert one == same and not one != same
        assert one != other and one != object()
        with pytest.raises(TypeError, match="unhashable"):
            hash(one)


def test_idwt2d_plane_chain_checked():
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((8, 8)), f, 2)
    with pytest.raises(ShapeError):
        ImagePyramid(details=(p.details[0], p.details[0]), approx=p.approx)


def test_idwt2d_accepts_planes_given_as_lists(tmp_path):
    """A pyramid built from nested lists inverts, counts and serializes like
    the one built from the arrays they came from."""
    f = builtin_filter("db4")
    p = dwt2d(RNG.standard_normal((16, 8)), f, 2)
    listed = ImagePyramid(
        details=tuple(
            LevelDetail(h=t.h.tolist(), v=t.v.tolist(), d=t.d.tolist()) for t in p.details
        ),
        approx=p.approx.tolist(),
    )
    assert np.array_equal(idwt2d(listed, f), idwt2d(p, f))
    assert listed.image_shape == (16, 8)
    assert listed.coefficient_count() == 128
    paths = [tmp_path / "arrays.pyr", tmp_path / "lists.pyr"]
    for path, pyramid in zip(paths, (p, listed)):
        write_pyramid_container(str(path), pyramid, f.name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("shape", ((0, 0), (0, 4)))
def test_idwt2d_refuses_empty_planes(shape):
    plane = np.zeros(shape)
    with pytest.raises(ShapeError, match="nonempty 2-d"):
        ImagePyramid(details=(LevelDetail(h=plane, v=plane, d=plane),), approx=plane)


@pytest.mark.parametrize(
    "plane",
    (
        np.full((8, 8), "a"),
        np.full((8, 8), None, dtype=object),
        np.ones((8, 8), dtype=object),
    ),
    ids=("str", "object-none", "object-float"),
)
def test_non_numeric_images_and_planes_are_refused(plane):
    f = builtin_filter("haar")
    with pytest.raises(DomainError):
        dwt2d(plane, f, 1)
    p = dwt2d(np.ones((8, 8)), f, 1)
    t = p.details[0]
    quarter = plane[:4, :4]
    with pytest.raises(DomainError):
        ImagePyramid(details=(LevelDetail(h=quarter, v=t.v, d=t.d),), approx=p.approx)
    with pytest.raises(DomainError):
        ImagePyramid(details=p.details, approx=quarter)


def test_rebuilt_pyramids_rerun_the_chain_rule(monkeypatch):
    """map_planes, quantize and dataclasses.replace rebuild through the
    constructor, so each runs the chain rule once, and planes that no longer
    chain, or are no longer numeric, raise there."""
    import dataclasses

    import wavekit.image2d as image2d

    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((8, 8)), f, 2)
    for error, rebuild in (
        (ShapeError, lambda: ImagePyramid(details=p.details, approx=p.approx.ravel())),
        (ShapeError, lambda: dataclasses.replace(p, approx=np.ones((1, 1)))),
        (ShapeError, lambda: p.map_planes(lambda a: a[:1])),
        (DomainError, lambda: p.map_planes(lambda a: a.astype(object))),
    ):
        with pytest.raises(error):
            rebuild()
    check, calls = image2d._check_chain, []
    monkeypatch.setattr(image2d, "_check_chain", lambda *args: calls.append(args) or check(*args))
    for rebuild in (
        lambda: p.map_planes(np.negative),
        lambda: quantize(p, Quantizer(0.5)),
        lambda: dataclasses.replace(p),
    ):
        calls.clear()
        rebuild()
        assert len(calls) == 1


def test_a_step_too_small_for_the_coefficients_is_refused():
    """A step whose quotients overflow raises DomainError naming the step,
    with no RuntimeWarning; a step whose quotients stay finite, even at
    1e-300, snaps every coefficient to round(c / step) * step exactly."""
    f = builtin_filter("haar")
    p = dwt2d(RNG.standard_normal((8, 8)) * 4.0, f, 2)
    complex_p = p.map_planes(lambda a: a - 1j * a[::-1])
    for pyramid in (p, complex_p):
        with pytest.raises(DomainError, match=r"quantizer step 1e-320 is too small"):
            quantize(pyramid, Quantizer(1e-320))
        for step in (1e-300, 0.25):
            snapped = snap_to_lattice(pyramid, Quantizer(step))
            for got, c in zip(
                (snapped.approx, *(b for t in snapped.details for b in (t.h, t.v, t.d))),
                (pyramid.approx, *(b for t in pyramid.details for b in (t.h, t.v, t.d))),
            ):
                parts = (c.real, c.imag) if np.iscomplexobj(c) else (c,)
                k = [np.sign(a / step) * np.floor(np.abs(a / step) + 0.5) for a in parts]
                want = (k[0] + 1j * k[1] if len(k) == 2 else k[0]) * step
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def test_complex_planes_quantize_componentwise_and_preview_by_magnitude():
    """quantize rounds the real and imaginary parts of a complex plane each
    half away from zero; preview_layout renders a complex plane by its
    magnitude."""
    plane = np.array([[0.5 - 1.5j, -0.5 + 0.25j], [2.4 + 0.0j, -2.5j]])
    p = ImagePyramid(details=(LevelDetail(h=plane, v=plane, d=plane),), approx=plane)
    q = quantize(p, Quantizer(step=1.0))
    for got in (q.approx, q.details[0].h):
        assert np.array_equal(got, [[1.0 - 2.0j, -1.0 + 0.0j], [2.0 + 0.0j, -3.0j]])
    mosaic = preview_layout(p)
    magnitude = preview_layout(p.map_planes(np.abs))
    assert mosaic.dtype == np.uint8 and np.array_equal(mosaic, magnitude)


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


def _one_level(q: QuadDecomp) -> ImagePyramid:
    return ImagePyramid((LevelDetail(h=q.h, v=q.v, d=q.d),), q.a)


@pytest.mark.parametrize("block", (1, 2, 3))
def test_steps_do_not_depend_on_the_block_size(monkeypatch, lattice_filters, block):
    """2-d steps on (6, 34) and (34, 6) images whose passes run in blocks of
    one to three outputs, with ragged last blocks and, for the 8-tap filter
    on six samples, windows that wrap more than once, equal the unsplit
    steps."""
    import wavekit.image2d as image2d

    for f in (builtin_filter("db4"), FilterSpec("lattice", lattice_filters[17], 1)):
        for shape in ((6, 34), (34, 6)):
            img = RNG.standard_normal(shape)
            ref = image2d._split2d(img, f)
            ref_back = image2d._merge2d(ref, f)
            with monkeypatch.context() as patch:
                seen = kernel_blocks(patch, block)
                bands = image2d._split2d(img, f)
                back = image2d._merge2d(bands, f)
            assert seen and set(seen) == {block}
            for got, want in zip((*bands, back), (*ref, ref_back)):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _assert_steps_match_dense(f: FilterSpec, images) -> None:
    """The four planes of a step of each image, and their inverse, are within
    1e-15 ||img||_2 of the dense operators, in the image's result dtype."""
    shape = images[0].shape
    my, mx = subband_matrices(f, shape[0]), subband_matrices(f, shape[1])
    ay, ax = (my.analysis_low, my.analysis_high), (mx.analysis_low, mx.analysis_high)
    sy, sx = (my.synthesis_low, my.synthesis_high), (mx.synthesis_low, mx.synthesis_high)
    for img in images:
        dtype = np.result_type(img, f.h, np.float64)
        wide = img.astype(dtype)
        q = dwt2d_step(img, f)
        tol = 1e-15 * np.linalg.norm(wide)
        planes = {(0, 0): q.a, (1, 0): q.h, (0, 1): q.v, (1, 1): q.d}
        for (bx, by), plane in planes.items():
            assert plane.dtype == dtype
            assert np.abs(plane - ay[by] @ wide @ ax[bx].T).max() <= tol
        back = idwt2d(_one_level(q), f)
        dense = sum(sy[by] @ plane @ sx[bx].T for (bx, by), plane in planes.items())
        assert back.dtype == dtype
        assert np.abs(back - dense).max() <= tol


@pytest.mark.parametrize("shape, block", [((6, 2046), None), ((12, 40), 24), ((12, 40), 7)])
def test_row_pass_rows_match_dense_operators(monkeypatch, lattice_filters, shape, block):
    """The row pass makes several outputs a BLAS row. On rows of 2046
    samples (half 1023, so every row leaves outputs over) and on rows that
    blocks of 24 or 7 outputs split, for float64, float32, integer and
    complex images: the four planes of a step and their inverse are within
    1e-15 ||img||_2 of the dense operators, in the images' result dtype."""
    import wavekit.subband as subband

    seen = kernel_blocks(monkeypatch, block)
    for f in (builtin_filter("db4"), FilterSpec("lattice", lattice_filters[11], -5)):
        x = RNG.standard_normal(shape)
        images = (x, x.astype(np.float32), RNG.integers(-99, 99, shape), x + 1j * x[::-1])
        _assert_steps_match_dense(f, images)
    assert seen and set(seen) == {block or subband._BLOCK}


@pytest.mark.parametrize("rows", (None, 1, 3))
@pytest.mark.parametrize("shape", ((2, 2048), (2048, 2), (6, 2046), (34, 12)))
def test_strips_match_dense_operators(monkeypatch, lattice_filters, shape, rows):
    """A step runs strip by strip. In strips of one or three rows, which do
    not divide the half-heights 1024 and 17, and at the default strip size,
    where each of these images is shorter than one strip; for lattice
    filters starting at odd, negative and +-(10^12 + small) samples, whose
    band offsets wrap mod half; for float64, float32, integer, bool and
    complex images: the planes and their inverse are within 1e-15 ||img||_2
    of the dense operators, in the image's result dtype, and a float32
    image gives the bits of its float64 copy."""
    import wavekit.image2d as image2d

    if rows is not None:
        monkeypatch.setattr(image2d, "_STRIP", rows * shape[1])
    h = {2: lattice_filters[1], 6: lattice_filters[11], 12: lattice_filters[17]}[min(shape)]
    for start in (3, -5, 10**12 + 3, -(10**12) - 2):
        f = FilterSpec("lattice", h, start)
        x, y = RNG.standard_normal((2, *shape))
        narrow = x.astype(np.float32)
        _assert_steps_match_dense(f, (x, narrow, RNG.integers(-99, 99, shape), x < 0, x + 1j * y))
        q32, q64 = dwt2d_step(narrow, f), dwt2d_step(narrow.astype(np.float64), f)
        for name in "ahvd":
            assert np.array_equal(getattr(q32, name), getattr(q64, name))


def test_round_trip_peak_memory_2d():
    """The tracemalloc peak of a 6-level db4 round trip of a 512 x 512 image
    stays within 2.9 image sizes: the pyramid, the image it inverts to and
    strips, with no plane-sized intermediate in either direction."""
    f = builtin_filter("db4")
    img = RNG.standard_normal((512, 512))
    assert peak_bytes(lambda: idwt2d(dwt2d(img, f, 6), f)) <= 2.9 * img.nbytes


def test_dwt2d_peak_memory():
    """A 6-level db4 dwt2d of a 512 x 512 image peaks within 1.6 image
    sizes: each step's four planes and its strip temporaries. A step with a
    plane-sized intermediate takes it past 2."""
    f = builtin_filter("db4")
    img = RNG.standard_normal((512, 512))
    assert peak_bytes(lambda: dwt2d(img, f, 6)) <= 1.6 * img.nbytes


def test_dwt2d_peak_memory_with_the_larger_block():
    """On a 1024 x 1024 image the passes of the top step run in blocks of
    2^15 outputs, four times the 1-d kernel's, and a 6-level db4 dwt2d still
    peaks within 1.45 image sizes (1.39 at this commit)."""
    import wavekit.subband as subband

    f = builtin_filter("db4")
    img = RNG.standard_normal((1024, 1024))
    assert subband._block(img.size, img.itemsize) == 4 * subband._BLOCK
    assert peak_bytes(lambda: dwt2d(img, f, 6)) <= 1.45 * img.nbytes


@pytest.mark.parametrize(
    "side, dtype, block",
    [(64, np.float64, 1 << 13), (512, np.float64, 1 << 13), (512, np.complex128, 1 << 13),
     (724, np.float64, 16380), (1024, np.float64, 1 << 15), (2048, np.float64, 1 << 15),
     (2048, np.complex128, 1 << 14)],
)
def test_pass_block_scales_with_the_image_up_to_a_byte_count(side, dtype, block):
    """The one block rule gives a 2-d pass a 32nd of its image, at least
    2^13 outputs and at most 256 KiB of outputs: images up to 512^2 keep
    the floor, and complex data gets half as many outputs."""
    import wavekit.subband as subband

    assert subband._block(side * side, np.dtype(dtype).itemsize) == block


@pytest.mark.parametrize("side, block", [(512, 1 << 13), (1024, 1 << 15), (2048, 1 << 15)])
def test_every_pass_runs_at_the_block_of_its_image(side, block):
    """Every pass over every strip of a step of a side x side image, and of
    its inverse, runs at the block the rule gives the whole image, not the
    strip: 2^13 outputs at 512^2 and 2^15 at 1024^2 and 2048^2, whose
    strips of 2^16 samples alone would get 2^13."""
    f = builtin_filter("db4")
    img = RNG.standard_normal((side, side))
    with pytest.MonkeyPatch.context() as patch:
        seen = kernel_blocks(patch)
        idwt2d(_one_level(dwt2d_step(img, f)), f)
    assert len(seen) >= 6 and set(seen) == {block}


def _kernel_callers(patch: pytest.MonkeyPatch, workers: int | None = None) -> list[bool]:
    """Whether each filter-bank kernel call made while ``patch`` is active
    ran in the main thread, in the list returned; with ``workers``, every
    2-d step runs on that many workers."""
    import threading

    import wavekit.image2d as image2d
    import wavekit.subband as subband

    if workers is not None:
        patch.setattr(image2d, "_workers", lambda *args: workers)
    seen, rule = [], subband._block
    main = threading.main_thread()
    patch.setattr(subband, "_block", lambda *args: seen.append(threading.current_thread() is main) or rule(*args))
    return seen


@pytest.mark.parametrize("rows", (None, 3))
@pytest.mark.parametrize("shape", ((1024, 1024), (2048, 1024), (1024, 2048)))
def test_two_workers_give_the_one_worker_bits(shape, rows):
    """The steps of a float64, float32 and complex128 image, and their
    inverses, on two workers (the caller and one helper) are bit-identical
    to one worker's, in strips of the default size, which split these
    images evenly, and of three rows, which leave a short last strip and,
    on 1024 rows, an odd count of them (171); the kernel runs as often, so
    no strip runs twice, and both workers run strips."""
    import wavekit.image2d as image2d

    f = builtin_filter("db4")
    x = RNG.standard_normal(shape)
    for img in (x, x.astype(np.float32), x + 1j * x[::-1]):
        results, callers = [], []
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                if rows is not None:
                    patch.setattr(image2d, "_STRIP", rows * shape[1])
                seen = _kernel_callers(patch, workers)
                planes = image2d._split2d(img, f)
                results.append((*planes, image2d._merge2d(planes, f)))
            callers.append(seen)
        assert [set(seen) for seen in callers] == [{True}, {True, False}]
        assert len(callers[0]) == len(callers[1])
        for one, two in zip(*results):
            assert one.dtype == two.dtype and np.array_equal(one, two)


def test_an_error_in_the_helper_is_raised_in_the_caller(monkeypatch):
    """A strip that raises in the helper thread raises in the caller of
    dwt2d and of idwt2d, after the join, and no thread outlives a call,
    whether it returns or raises."""
    import threading

    import wavekit.image2d as image2d

    class HelperFailed(Exception):
        pass

    def failing(fn):
        def run(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise HelperFailed(fn.__name__)
            return fn(*args, **kwargs)

        return run

    f = builtin_filter("db4")
    img = RNG.standard_normal((1024, 1024))
    before = threading.active_count()
    monkeypatch.setattr(image2d, "_workers", lambda *args: 2)
    p = dwt2d(img, f, 2)
    back = idwt2d(p, f)
    assert threading.active_count() == before
    for name, call in (("_split", lambda: dwt2d(img, f, 2)), ("_merge", lambda: idwt2d(p, f))):
        with monkeypatch.context() as patch:
            patch.setattr(image2d, name, failing(getattr(image2d, name)))
            with pytest.raises(HelperFailed, match=name):
                call()
        assert threading.active_count() == before
    assert np.abs(back - img).max() <= 1e-12


def test_round_trip_peak_memory_2d_on_two_workers(monkeypatch):
    """On a machine of two CPUs or more, a 6-level db4 round trip of a
    1024 x 1024 image runs its top steps on two workers, each with its own
    strip temporaries and gather buffer, and still peaks within 2.9 image
    sizes (2.63 at this commit)."""
    import os

    f = builtin_filter("db4")
    img = RNG.standard_normal((1024, 1024))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = _kernel_callers(monkeypatch)
    assert peak_bytes(lambda: idwt2d(dwt2d(img, f, 6), f)) <= 2.9 * img.nbytes
    assert False in seen


@pytest.mark.parametrize("side, dtype, workers", [
    (512, np.float64, 1), (960, np.float64, 1), (976, np.float64, 2), (1024, np.float64, 2),
    (900, np.complex128, 1), (902, np.complex128, 2), (2048, np.complex128, 2),
])
def test_the_helper_starts_where_its_bytes_are_a_fifth_of_the_step(monkeypatch, side, dtype, workers):
    """On two CPUs, a step of a side x side image takes the helper where its
    strip temporaries and gather buffer take at most a fifth of the output:
    float64 squares from 976^2, complex ones from 902^2. On one CPU no step
    does."""
    import os

    import wavekit.image2d as image2d

    k = min(side // 2, image2d._STRIP // side)
    rule = lambda: image2d._workers(2 * k * side, side * side, np.dtype(dtype).itemsize)  # noqa: E731
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert rule() == workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert rule() == 1


def test_threads_sharing_a_filter_get_the_one_thread_bits(monkeypatch):
    """Four threads share one filter whose caches start empty, each running
    five rounds of 2-d round trips whose steps take a helper of their own (ten workers on
    two cores or fewer) and short 1-d round trips on the cached operators,
    with the interpreter switching threads every microsecond. Every thread
    ends within its timeout and every result is the one thread's, bit for
    bit."""
    import dataclasses
    import sys
    import threading

    import wavekit.image2d as image2d
    from wavekit.subband import dwt1d, idwt1d

    monkeypatch.setattr(image2d, "_workers", lambda *args: 2)
    monkeypatch.setattr(image2d, "_STRIP", 16 * 256)  # eight strips at 256^2
    img, x = RNG.standard_normal((256, 256)), RNG.standard_normal(64)

    def work(f):
        p = dwt2d(img, f, 3)
        short = [dwt1d(x, f, lev) for lev in (1, 2, 3)]
        return [p.approx, *(b for t in p.details for b in (t.h, t.v, t.d)), idwt2d(p, f),
                *(q.approx for q in short), *(idwt1d(q, f) for q in short)]

    want = work(dataclasses.replace(builtin_filter("db4")))
    shared = dataclasses.replace(builtin_filter("db4"))
    results = [None] * 4

    def run(i):
        results[i] = [work(shared) for _ in range(5)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for rounds in results:
        assert rounds is not None
        for got in rounds:
            assert len(got) == len(want)
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
