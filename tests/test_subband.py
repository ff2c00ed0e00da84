import copy
import dataclasses
import inspect
import pickle
import tracemalloc

import numpy as np
import pytest
from conftest import kernel_blocks, lattice_lowpass, peak_bytes
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import wavekit.errors
import wavekit.subband as subband
from wavekit.errors import DomainError, LevelError, ParameterError, ShapeError, SizeError
from wavekit.filters import FilterSpec, builtin_filter
from wavekit.image2d import dwt2d, idwt2d, max_levels_2d
from wavekit.io import write_pyramid_container
from wavekit.subband import (
    _SQRT2,
    Pyramid1D,
    SubbandPair,
    _merge,
    _split,
    analysis_step,
    cuntz_check,
    dwt1d,
    idwt1d,
    max_levels,
    subband_matrices,
    synthesis_step,
)

RNG = np.random.default_rng(20260819)


def test_analysis_step_haar_by_hand():
    """With h = (1/2, 1/2) the averages are (x_{2i}+x_{2i+1})/sqrt(2) and the
    details (x_{2i}-x_{2i+1})/sqrt(2)."""
    x = np.array([4.0, 2.0, 1.0, 7.0])
    p = analysis_step(x, builtin_filter("haar"))
    s = np.sqrt(2.0)
    assert_allclose(p.y, [6.0 / s, 8.0 / s], atol=1e-15)
    assert_allclose(p.z, [2.0 / s, -6.0 / s], atol=1e-15)


def test_analysis_energy_split():
    x = RNG.standard_normal(64)
    p = analysis_step(x, builtin_filter("db4"))
    total = (np.abs(p.y) ** 2).sum() + (np.abs(p.z) ** 2).sum()
    assert total == pytest.approx((x**2).sum(), rel=1e-12)


def test_step_roundtrip_all_builtins():
    x = RNG.standard_normal(32)
    for name in ("haar", "db4", "stretched_haar"):
        f = builtin_filter(name)
        back = synthesis_step(analysis_step(x, f), f)
        assert_allclose(back, x, atol=1e-13)


def test_step_roundtrip_complex_signal():
    x = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
    f = builtin_filter("db4")
    back = synthesis_step(analysis_step(x, f), f)
    assert_allclose(back, x, atol=1e-13)


def test_odd_or_short_signals_rejected():
    f = builtin_filter("db4")
    with pytest.raises(SizeError):
        analysis_step(np.ones(7), f)
    with pytest.raises(SizeError):
        analysis_step(np.ones(2), f)  # shorter than the filter
    with pytest.raises(SizeError):
        analysis_step(np.ones((4, 4)), f)


def test_constant_signal_concentrates_in_averages():
    f = builtin_filter("db4")
    p = analysis_step(np.full(16, 3.0), f)
    assert_allclose(p.z, np.zeros(8), atol=1e-14)
    assert_allclose(p.y, np.full(8, 3.0 * np.sqrt(2.0)), atol=1e-14)


@pytest.mark.parametrize(
    "n,name,expected",
    [
        (16, "haar", 3),   # 16 -> 8 -> 4 -> 2, floor max(2,2)=2
        (16, "db4", 2),    # floor 4: 16 -> 8 -> 4, stop (4 < 8)
        (6, "db4", 0),     # 6/2 = 3 is below the four-tap floor
        (12, "haar", 2),   # 12 -> 6 -> 3; the odd 3 blocks a third level
        (48, "db4", 3),    # 48 -> 24 -> 12 -> 6; 6/2 = 3 < 4 stops there
        (2, "haar", 0),    # 2/2 = 1 < 2
    ],
)
def test_max_levels_table(n, name, expected):
    assert max_levels(n, builtin_filter(name)) == expected


def test_dwt1d_shapes_and_counts():
    f = builtin_filter("haar")
    x = RNG.standard_normal(64)
    p = dwt1d(x, f, 4)
    assert p.levels == 4
    assert [d.size for d in p.details] == [32, 16, 8, 4]
    assert p.approx.size == 4
    assert p.coefficient_count() == 64
    assert p.signal_length == 64


def test_dwt1d_idwt1d_roundtrip():
    for name in ("haar", "db4"):
        f = builtin_filter(name)
        x = RNG.standard_normal(128)
        for lev in range(1, max_levels(128, f) + 1):
            assert_allclose(idwt1d(dwt1d(x, f, lev), f), x, atol=1e-12)


def test_dwt1d_energy_preserved():
    f = builtin_filter("db4")
    x = RNG.standard_normal(256) + 1j * RNG.standard_normal(256)
    p = dwt1d(x, f, 3)
    total = (np.abs(p.approx) ** 2).sum() + sum(
        (np.abs(d) ** 2).sum() for d in p.details
    )
    assert total == pytest.approx(float((np.abs(x) ** 2).sum()), rel=1e-12)


def test_dwt1d_level_validation():
    f = builtin_filter("db4")
    x = np.ones(16)
    with pytest.raises(LevelError):
        dwt1d(x, f, 3)  # 16 >> 3 = 2 < 4
    with pytest.raises(LevelError):
        dwt1d(x, f, 0)
    with pytest.raises(LevelError):
        dwt1d(x, f, -1)
    # length six admits no level at all for a four-tap filter
    with pytest.raises(LevelError):
        dwt1d(np.ones(6), f, 1)


def test_idwt1d_shape_chain_checked():
    f = builtin_filter("haar")
    p = dwt1d(RNG.standard_normal(16), f, 2)
    broken = Pyramid1D(details=(p.details[0], p.details[0]), approx=p.approx)
    with pytest.raises(ShapeError):
        idwt1d(broken, f)


def test_pyramid_needs_a_level():
    with pytest.raises(ShapeError, match="at least one detail level"):
        Pyramid1D(details=(), approx=np.ones(4))


def test_idwt1d_accepts_bands_given_as_lists(tmp_path):
    """A pyramid built from lists inverts, counts and serializes like the one
    built from the arrays they came from."""
    f = builtin_filter("db4")
    p = dwt1d(RNG.standard_normal(64), f, 3)
    listed = Pyramid1D(details=tuple(z.tolist() for z in p.details), approx=p.approx.tolist())
    assert np.array_equal(idwt1d(listed, f), idwt1d(p, f))
    assert listed.signal_length == 64
    assert listed.coefficient_count() == 64
    paths = [tmp_path / "arrays.pyr", tmp_path / "lists.pyr"]
    for path, pyramid in zip(paths, (p, listed)):
        write_pyramid_container(str(path), pyramid, f.name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_empty_bands_are_refused():
    f = builtin_filter("haar")
    with pytest.raises(ShapeError, match="nonempty 1-d"):
        synthesis_step(SubbandPair(y=np.ones(0), z=np.ones(0)), f)
    with pytest.raises(ShapeError, match="nonempty 1-d"):
        idwt1d(Pyramid1D(details=(np.ones(0),), approx=np.ones(0)), f)


@pytest.mark.parametrize(
    "x",
    (
        np.full(8, "a"),
        np.full(8, None, dtype=object),
        np.ones(8, dtype=object),
    ),
    ids=("str", "object-none", "object-float"),
)
def test_non_numeric_signals_and_bands_are_refused(x):
    """Only bool, integer, float and complex data pass the gate: strings and
    object arrays, even of floats, raise DomainError before any filtering."""
    f = builtin_filter("haar")
    for call in (lambda: dwt1d(x, f, 1), lambda: analysis_step(x, f)):
        with pytest.raises(DomainError):
            call()
    p = dwt1d(np.ones(8), f, 1)
    for broken in (
        Pyramid1D(details=(x[:4],), approx=p.approx),
        Pyramid1D(details=p.details, approx=x[:4]),
    ):
        with pytest.raises(DomainError):
            idwt1d(broken, f)


@pytest.mark.parametrize("where", ("detail", "approx"))
def test_datetime_band_has_no_common_dtype_with_numbers(where):
    """numpy promotes no datetime64 with a float (a TypeError, where strings
    among numbers promote to a string dtype); the chain rule reports that as
    a non-numeric band."""
    f = builtin_filter("haar")
    dates = np.arange(4).astype("datetime64[D]")
    p = dwt1d(np.ones(8), f, 1)
    broken = (
        Pyramid1D(details=(dates,), approx=p.approx)
        if where == "detail"
        else Pyramid1D(details=p.details, approx=dates)
    )
    with pytest.raises(DomainError, match="bands must be numeric"):
        idwt1d(broken, f)


def test_bool_and_integer_signals_pass_the_gate():
    f = builtin_filter("haar")
    for x in (np.array([True, False] * 4), np.arange(8, dtype=np.uint8)):
        p = dwt1d(x, f, 2)
        assert p.approx.dtype == np.float64
        assert_allclose(idwt1d(p, f), x.astype(float), atol=1e-14)


def test_subband_pair_validates():
    with pytest.raises(ShapeError):
        SubbandPair(y=np.ones(3), z=np.ones(2))


def test_matrices_slanted_structure():
    """Each synthesis column is the previous column rolled down by two."""
    m = subband_matrices(builtin_filter("db4"), 16)
    for mat in (m.synthesis_low, m.synthesis_high):
        for j in range(1, 8):
            assert_allclose(mat[:, j], np.roll(mat[:, j - 1], 2), atol=0)
    s = np.sqrt(2.0)
    f = builtin_filter("db4")
    # first column carries sqrt(2) h_k at rows k mod 16
    expected = np.zeros(16)
    expected[:4] = s * f.h
    assert_allclose(m.synthesis_low[:, 0], expected, atol=0)


def test_matrices_are_adjoint_pairs():
    """Analysis matrices equal the conjugate transposes of the synthesis
    matrices bit for bit (both are built from the same periodized taps)."""
    for name in ("haar", "db4"):
        m = subband_matrices(builtin_filter(name), 16)
        assert np.array_equal(m.analysis_low, np.conj(m.synthesis_low).T)
        assert np.array_equal(m.analysis_high, np.conj(m.synthesis_high).T)


def test_matrices_match_step_operators():
    f = builtin_filter("db4")
    x = RNG.standard_normal(16)
    p = analysis_step(x, f)
    m = subband_matrices(f, 16)
    assert_allclose(m.analysis_low @ x, p.y, atol=1e-13)
    assert_allclose(m.analysis_high @ x, p.z, atol=1e-13)
    assert_allclose(
        m.synthesis_low @ p.y + m.synthesis_high @ p.z, x, atol=1e-13
    )


def test_matrices_size_validation():
    with pytest.raises(SizeError):
        subband_matrices(builtin_filter("haar"), 7)


@pytest.mark.parametrize("name", ("haar", "db4", "stretched_haar"))
@pytest.mark.parametrize("n", (8, 16, 32))
def test_cuntz_identities_builtins(name, n):
    f = builtin_filter(name)
    if n < 2 * f.length:
        pytest.skip("window too small for this filter")
    rep = cuntz_check(f, n=n, tol=1e-10)
    assert rep.passed
    assert rep.max_deviation <= 1e-10
    assert rep.max_deviation == max(
        rep.isometry_low,
        rep.isometry_high,
        rep.cross_low_high,
        rep.cross_high_low,
        rep.completeness,
    )


def test_cuntz_detects_non_isometry():
    f = FilterSpec("delta", np.array([1.0, 0.0]), 0)
    rep = cuntz_check(f, n=8, tol=1e-10)
    assert not rep.passed
    assert rep.max_deviation >= 0.5


@pytest.mark.parametrize("tol", (-1e-10, np.nan, np.inf))
def test_cuntz_bad_tol(tol):
    with pytest.raises(ParameterError, match="tol"):
        cuntz_check(builtin_filter("haar"), n=8, tol=tol)


def test_cuntz_window_floor():
    with pytest.raises(SizeError):
        cuntz_check(builtin_filter("db4"), n=6)


def test_cuntz_byte_budget_refuses_before_allocating(monkeypatch):
    """With the budget at 4 KiB a float64 check fits at n = 32 (ten 32-point
    vectors, 2.5 KiB) and is refused at n = 64 (5 KiB) before any kernel
    call."""
    monkeypatch.setattr(wavekit.errors, "_BYTE_BUDGET", 1 << 12)
    assert cuntz_check(builtin_filter("db4"), n=32).passed
    for name in ("_split", "_merge"):
        monkeypatch.setattr(subband, name, lambda *a: pytest.fail("kernel ran"))
    with pytest.raises(SizeError, match="budget"):
        cuntz_check(builtin_filter("db4"), n=64)


def _dense_cuntz(f: FilterSpec, n: int) -> dict:
    """The five Cuntz deviations from the materialized operators."""
    m = subband_matrices(f, n)
    a0, a1, s0, s1 = m.analysis_low, m.analysis_high, m.synthesis_low, m.synthesis_high
    return {
        "isometry_low": np.abs(a0 @ s0 - np.eye(n // 2)).max(),
        "isometry_high": np.abs(a1 @ s1 - np.eye(n // 2)).max(),
        "cross_low_high": np.abs(a0 @ s1).max(),
        "cross_high_low": np.abs(a1 @ s0).max(),
        "completeness": np.abs(s0 @ a0 + s1 @ a1 - np.eye(n)).max(),
    }


def test_cuntz_check_matches_dense_products(lattice_filters):
    """Every deviation read off the kernel's impulse responses equals the one
    of the dense n x n products, on QMF filters at two starts, their
    3-fold upsamplings (QMF, not ONB), and non-QMF filters."""
    filters = [FilterSpec("hat", np.array([0.25, 0.5, 0.25]))]
    filters.append(FilterSpec("delta", np.array([1.0, 0.0])))
    cplx = np.array([0.3 + 0.2j, 0.5, -0.1j, 0.2, 0.1 - 0.1j])
    filters.append(FilterSpec("cplx", cplx, 1, normalized=False))
    for h in lattice_filters:
        up = np.zeros(3 * h.size - 2)
        up[::3] = h
        filters += [FilterSpec("lat", h, s) for s in (0, -3)]
        filters += [FilterSpec("up3", up, s) for s in (0, -3)]
    for f in filters:
        for n in (2 * f.length, 2 * f.length + 6):
            rep = cuntz_check(f, n)
            dense = _dense_cuntz(f, n)
            for field, value in dense.items():
                assert abs(getattr(rep, field) - value) <= 1e-14, (f.name, n, field)
            assert abs(rep.max_deviation - max(dense.values())) <= 1e-14
            assert rep.passed == (rep.max_deviation <= rep.tolerance)


def test_cuntz_check_builds_no_matrices(monkeypatch):
    import wavekit.subband as subband

    monkeypatch.setattr(
        subband, "subband_matrices", lambda f, n: pytest.fail("matrices built")
    )
    assert cuntz_check(builtin_filter("db4"), n=64).passed
    assert not cuntz_check(FilterSpec("delta", np.array([1.0, 0.0])), n=8).passed


@pytest.mark.parametrize("n", (2**10, 2**16))
def test_cuntz_check_peak_memory_within_budget_formula(n):
    """The tracemalloc peak stays under the ten n-vectors that the byte
    budget charges for a float64 filter."""
    import tracemalloc

    f = builtin_filter("db4")
    cuntz_check(f, n)
    tracemalloc.start()
    try:
        cuntz_check(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n * 8


def test_shift_by_two_commutes_through_analysis():
    """Periodization makes the pyramid shift covariant: rolling the input by
    two rolls each first-level band by one."""
    f = builtin_filter("db4")
    x = RNG.standard_normal(32)
    p0 = analysis_step(x, f)
    p1 = analysis_step(np.roll(x, 2), f)
    assert_allclose(p1.y, np.roll(p0.y, 1), atol=1e-13)
    assert_allclose(p1.z, np.roll(p0.z, 1), atol=1e-13)


def _check_steps_against_matrices(f: FilterSpec, n: int):
    """analysis_step and synthesis_step equal the materialized operators,
    which subband_matrices builds from its own index formula."""
    m = subband_matrices(f, n)
    x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    p = analysis_step(x, f)
    assert_allclose(p.y, m.analysis_low @ x, rtol=0, atol=1e-13)
    assert_allclose(p.z, m.analysis_high @ x, rtol=0, atol=1e-13)
    y = RNG.standard_normal(n // 2) + 1j * RNG.standard_normal(n // 2)
    z = RNG.standard_normal(n // 2) + 1j * RNG.standard_normal(n // 2)
    assert_allclose(
        synthesis_step(SubbandPair(y=y, z=z), f),
        m.synthesis_low @ y + m.synthesis_high @ z,
        rtol=0,
        atol=1e-13,
    )


@pytest.mark.parametrize("start", (-3, 0, 5))
def test_steps_match_matrices_on_lattice_filters(lattice_filters, start):
    """n = L, the shortest signal allowed, is where the most taps wrap."""
    for h in lattice_filters:
        f = FilterSpec("lattice", h, start)
        for n in (h.size, 2 * h.size, 2 * h.size + 6):
            _check_steps_against_matrices(f, n)


def test_steps_match_matrices_odd_length_filter():
    f = FilterSpec("odd", np.array([0.3, -0.2, 0.7]), start=1, normalized=False)
    for n in (4, 6, 10):
        _check_steps_against_matrices(f, n)


def test_steps_match_matrices_complex_filter():
    h = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
    for start in (-2, 0, 3):
        f = FilterSpec("complex", h, start, normalized=False)
        for n in (6, 8, 14):
            _check_steps_against_matrices(f, n)


def test_single_precision_signal_is_filtered_in_double():
    f = builtin_filter("db4")
    x = RNG.standard_normal(32).astype(np.float32)
    p, ref = analysis_step(x, f), analysis_step(x.astype(np.float64), f)
    assert p.y.dtype == p.z.dtype == np.float64
    assert np.array_equal(p.y, ref.y) and np.array_equal(p.z, ref.z)
    pair = SubbandPair(y=p.y.astype(np.float32), z=p.z.astype(np.float32))
    back = synthesis_step(pair, f)
    assert back.dtype == np.float64
    wide = SubbandPair(y=pair.y.astype(np.float64), z=pair.z.astype(np.float64))
    assert np.array_equal(back, synthesis_step(wide, f))


def test_level_error_exactly_past_max_levels(lattice_filters):
    """dwt1d accepts a depth iff it is at most max_levels, and max_levels
    agrees with the closed form: n divisible by 2^lev with n/2^lev >= max(L, 2)."""
    filters = [builtin_filter(name) for name in ("haar", "db4", "stretched_haar")]
    filters += [FilterSpec("lattice", h, 0) for h in lattice_filters]
    for f in filters:
        floor = max(f.length, 2)
        for n in range(2 * f.length, 97, 2):
            x = RNG.standard_normal(n)
            top = max_levels(n, f)
            for lev in range(1, 9):
                assert (lev <= top) == (n % (1 << lev) == 0 and n >> lev >= floor)
                if lev <= top:
                    assert dwt1d(x, f, lev).levels == lev
                else:
                    with pytest.raises(LevelError):
                        dwt1d(x, f, lev)


@settings(max_examples=100)
@given(
    free=st.lists(st.floats(0.0, 2.0 * np.pi), max_size=5),
    upsample=st.booleans(),
    start=st.sampled_from((0, 1, 3, -1, -4)),
    extra=st.integers(0, 10),
    kind=st.sampled_from(("real", "complex", "float32")),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_against_dense_operators(free, upsample, start, extra, kind, seed):
    """Over lattice filters with K = 1..6 stages and their 3-fold
    upsamplings, at starts 0, odd and negative, and lengths from
    2 ceil(L/2) up (where the taps wrap round the signal more than once):
    the bands equal the dense operators of subband_matrices, synthesis
    inverts analysis, keeps the energy and is its adjoint, and both keep the
    dtype result_type(x, h, float64)."""
    h = lattice_lowpass(free + [np.pi / 4 - sum(free)])
    if upsample:
        h = np.concatenate([np.kron(h[:-1], [1.0, 0.0, 0.0]), h[-1:]])
    f = FilterSpec("lattice", h, start)
    n = 2 * -(-h.size // 2) + 2 * extra
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(n)
    elif kind == "float32":
        x = x.astype(np.float32)
    dtype = np.result_type(x, h, np.float64)
    wide = x.astype(dtype)

    y, z = _split(x, f, 0, _SQRT2)
    m = subband_matrices(f, n)
    assert y.dtype == z.dtype == dtype
    assert_allclose(y, m.analysis_low @ wide, rtol=0, atol=1e-12)
    assert_allclose(z, m.analysis_high @ wide, rtol=0, atol=1e-12)
    back = _merge((y, z), f, 0, _SQRT2)
    assert back.dtype == dtype
    assert_allclose(back, wide, rtol=0, atol=1e-10)
    energy = np.vdot(y, y).real + np.vdot(z, z).real
    assert energy == pytest.approx(np.vdot(wide, wide).real, rel=1e-12)
    u, w = (rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2) for _ in "uw")
    inner = np.vdot(y, u) + np.vdot(z, w)
    assert abs(inner - np.vdot(wide, _merge((u, w), f, 0, _SQRT2))) <= 1e-12 * n


def _band_energy(*bands) -> float:
    """Sum of |b|^2 over the bands, in double precision (float32 bands too)."""
    return sum(np.vdot(b, b).real for b in (b.astype(complex) for b in bands))


@settings(max_examples=60)
@given(
    free=st.lists(st.floats(0.0, 2.0 * np.pi), max_size=5),
    start=st.sampled_from((0, 1, 3, -1, -4)),
    kind=st.sampled_from(("real", "complex", "float32")),
    # Both sides of _OPERATOR_MAX_N = 256: the operator path and the kernel.
    n=st.sampled_from((24, 96, 160, 256, 264, 384, 640, 1024)),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_pyramids_on_lattice_filters(free, start, kind, n, seed):
    """Over lattice filters with K = 1..6 stages at starts 0, odd and
    negative: at every admissible depth the 1-d pyramid of an n-sample signal
    and the 2-d pyramid of a 4L x 8L image invert within 1e-10 of max|x| and
    keep the energy across their bands within 1e-12; cuntz_check passes at
    n = 2L and at 2n."""
    f = FilterSpec("lattice", lattice_lowpass(free + [np.pi / 4 - sum(free)]), start)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        if kind == "complex":
            return x + 1j * rng.standard_normal(shape)
        return x.astype(np.float32) if kind == "float32" else x

    x, img = draw(n), draw(4 * f.length, 8 * f.length)
    for lev in range(1, max_levels(n, f) + 1):
        p = dwt1d(x, f, lev)
        assert np.abs(idwt1d(p, f) - x).max() <= 1e-10 * np.abs(x).max()
        assert _band_energy(*p.details, p.approx) == pytest.approx(_band_energy(x), rel=1e-12)
    for lev in range(1, max_levels_2d(img.shape, f) + 1):
        p = dwt2d(img, f, lev)
        assert np.abs(idwt2d(p, f) - img).max() <= 1e-10 * np.abs(img).max()
        planes = [b for t in p.details for b in (t.h, t.v, t.d)]
        assert _band_energy(*planes, p.approx) == pytest.approx(_band_energy(img), rel=1e-12)
    assert cuntz_check(f, 2 * f.length).passed and cuntz_check(f, 2 * n).passed


def _assert_close_relative(got, ref):
    assert got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("block", (7, 8, 100, subband._BLOCK))
def test_batched_rows_match_the_row_loop(monkeypatch, lattice_filters, block):
    """Splitting and merging a (1000, 64) stack along axis 1 gives each
    row's 1-d result, whether a block covers part of a row (7, or 8, a
    multiple of every filter's phase count), a ragged group of rows (100) or
    the whole stack. The rule alone would give the stack blocks of 2000."""
    rows = RNG.standard_normal((1000, 64))
    assert subband._block(rows.size, rows.itemsize) == subband._BLOCK
    for f in (builtin_filter("db4"), FilterSpec("lattice", lattice_filters[17], -3)):
        loop = [_split(r, f, 0, _SQRT2) for r in rows]
        merged = np.stack([_merge(b, f, 0, _SQRT2) for b in loop])
        with monkeypatch.context() as patch:
            seen = kernel_blocks(patch, block)
            bands = _split(rows, f, 1, _SQRT2)
            back = _merge(bands, f, 1, _SQRT2)
        assert seen == [block, block]
        for j, band in enumerate(bands):
            _assert_close_relative(band, np.stack([b[j] for b in loop]))
        _assert_close_relative(back, merged)


@pytest.mark.parametrize("block", (5, 8))
def test_blocked_steps_match_matrices(monkeypatch, lattice_filters, block):
    """With several blocks per signal, half lengths that are and are not
    multiples of the phase count, and blocks that are (8) and are not (5),
    each block's phases and its leftover outputs land where the dense
    operators put them."""
    seen = kernel_blocks(monkeypatch, block)
    for f in (builtin_filter("db4"), FilterSpec("lattice", lattice_filters[17], -3)):
        for n in (34, 40, 46, 64):
            _check_steps_against_matrices(f, n)
    assert seen and set(seen) == {block}


@pytest.mark.parametrize(
    "n, dtype, block",
    [(1 << 16, np.float64, 1 << 13), (1 << 19, np.float64, 1 << 14),
     (1 << 20, np.float64, 1 << 15), (1 << 20, np.complex128, 1 << 14)],
)
def test_one_rule_sizes_the_blocks_of_a_1d_step(n, dtype, block):
    """A step of n samples and its inverse run in blocks of a 32nd of n
    outputs, at least ``_BLOCK`` = 2^13 and at most 256 KiB of outputs."""
    x = RNG.standard_normal(n).astype(dtype)
    with pytest.MonkeyPatch.context() as patch:
        seen = kernel_blocks(patch)
        synthesis_step(analysis_step(x, builtin_filter("db4")), builtin_filter("db4"))
    assert seen == [block, block]


def test_kernel_taps_are_cached_per_direction_scale_and_dtype():
    """Offsets and taps come as one cached pair: h (db4) starts at pair 0 and
    its companion g, on -2..1, at pair -1. Float64 taps come as the banded
    block of ``_ROWS`` outputs a row, complex ones as its corners, the
    (2Q, 2) taps of one output a row."""
    f = builtin_filter("db4")
    offsets, a = subband._kernel_taps(f, False, _SQRT2, np.float64)
    assert offsets == (0, -1)
    assert subband._kernel_taps(f, False, _SQRT2, np.float64)[1] is a
    assert not a.flags.writeable
    assert subband._kernel_taps(f, True, _SQRT2, np.float64)[1] is not a
    assert subband._kernel_taps(f, False, 2.0, np.float64)[1] is not a
    c = subband._kernel_taps(f, False, _SQRT2, np.complex128)[1]
    assert c is not a and c.dtype == np.complex128
    r = subband._ROWS
    assert a.shape == (4 + 2 * r - 2, 2 * r) and c.shape == (4, 2)
    assert_allclose(c, a[:4, [0, r]], atol=0)
    fresh = dataclasses.replace(f)
    assert fresh._tap_cache == {}
    b = subband._kernel_taps(fresh, False, _SQRT2, np.float64)[1]
    assert b is not a
    assert_allclose(b, a, atol=0)


@settings(max_examples=40)
@given(
    stages=st.integers(1, 10),
    start=st.sampled_from((0, 1, -3, 7, 10**12 + 5, -(10**12) - 1)),
    rows=st.sampled_from((1, 2, 3, subband._ROWS)),
    extra=st.integers(0, 70),
    kind=st.sampled_from(("float64", "float32", "int", "complex")),
    seed=st.integers(0, 2**32 - 1),
)
def test_r_output_rows_match_dense_operators(stages, start, rows, extra, kind, seed):
    """With r = 1, 2, 3 or ``_ROWS`` outputs a row, over lattice filters of
    length 2 to 20 at starts 0, odd, negative and past 10^12, and halves of
    L/2 + 0..70 samples, most leaving k mod rp outputs over a block of k:
    the bands of x and the merge of those bands are within 1e-15 ||x||_2 of
    the dense operators, in the result dtype of x and the filter."""
    rng = np.random.default_rng(seed)
    free = rng.uniform(0.0, 2.0 * np.pi, stages - 1)
    f = FilterSpec("lattice", lattice_lowpass(np.append(free, np.pi / 4 - free.sum())), start)
    n = f.length + 2 * extra
    x = {
        "float64": rng.standard_normal(n),
        "float32": rng.standard_normal(n).astype(np.float32),
        "int": rng.integers(-1000, 1000, n),
        "complex": rng.standard_normal(n) + 1j * rng.standard_normal(n),
    }[kind]
    dtype = np.result_type(x, f.h, np.float64)
    wide = x.astype(dtype)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subband, "_ROWS", rows)
        y, z = _split(x, f, 0, _SQRT2)
        back = _merge((y, z), f, 0, _SQRT2)
    m = subband_matrices(f, n)
    tol = 1e-15 * np.linalg.norm(wide)
    assert y.dtype == z.dtype == back.dtype == dtype
    assert np.abs(y - m.analysis_low @ wide).max() <= tol
    assert np.abs(z - m.analysis_high @ wide).max() <= tol
    assert np.abs(back - (m.synthesis_low @ y + m.synthesis_high @ z)).max() <= tol


@pytest.mark.parametrize("name", ("db4", "lattice"))
def test_long_double_data_round_trips_in_long_double(lattice_filters, name):
    """Long-double signals of 64 and 1024 samples and a 64 x 64 image stay
    long double through every level of the 1-d and 2-d pyramids and come
    back within 1e-14 max|x|: the kernel runs them one output a row, and
    the short signal, which no pyramid operator holds, runs it too."""
    f = builtin_filter("db4") if name == "db4" else FilterSpec("lattice", lattice_filters[17], -3)
    for x in (np.arange(64) % 10, np.arange(1024) * 7 % 147):
        x = x.astype(np.longdouble)
        p = dwt1d(x, f, max_levels(x.size, f))
        assert {b.dtype for b in (*p.details, p.approx)} == {np.dtype(np.longdouble)}
        back = idwt1d(p, f)
        assert back.dtype == np.longdouble
        assert np.abs(back - x).max() <= 1e-14 * np.abs(x).max()
    img = np.arange(4096, dtype=np.longdouble).reshape(64, 64)
    q = dwt2d(img, f, max_levels_2d(img.shape, f))
    planes = [b for t in q.details for b in (t.h, t.v, t.d)]
    assert {b.dtype for b in (*planes, q.approx)} == {np.dtype(np.longdouble)}
    back = idwt2d(q, f)
    assert back.dtype == np.longdouble
    assert np.abs(back - img).max() <= 1e-14 * np.abs(img).max()


def test_round_trip_peak_memory_1d():
    """The tracemalloc peak of a 10-level db4 round trip of 2^16 samples
    stays within 3.01 signal sizes, the figure of the per-tap kernel this
    one replaced: blocking keeps every temporary cache-sized."""
    f, x = builtin_filter("db4"), RNG.standard_normal(1 << 16)
    assert peak_bytes(lambda: idwt1d(dwt1d(x, f, 10), f)) <= 3.01 * x.nbytes


def test_round_trip_peak_memory_1d_in_the_largest_blocks():
    """A full-depth db4 round trip of 2^20 samples, whose top levels run in
    blocks of 2^15 and 2^14 outputs, stays within 3.01 signal sizes too."""
    f, x = builtin_filter("db4"), RNG.standard_normal(1 << 20)
    assert subband._block(x.size, x.itemsize) == 4 * subband._BLOCK
    assert peak_bytes(lambda: idwt1d(dwt1d(x, f, 18), f)) <= 3.01 * x.nbytes


def _signal(rng, n: int, kind: str) -> np.ndarray:
    if kind == "complex":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "int64":
        return rng.integers(-9, 10, n)
    if kind == "bool":
        return rng.random(n) < 0.5
    return rng.standard_normal(n).astype(kind)


def _coefficients(p: Pyramid1D) -> np.ndarray:
    return np.concatenate([*p.details, p.approx])


def _as_pyramid(c: np.ndarray, depth: int) -> Pyramid1D:
    """The bands of a depth-level pyramid, laid out in c as dwt1d lays them."""
    ends = [c.size - (c.size >> lev) for lev in range(depth + 1)]
    return Pyramid1D(details=tuple(c[a:b] for a, b in zip(ends, ends[1:])), approx=c[ends[-1] :])


def _on_the_kernel(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(subband, "_OPERATOR_MAX_N", 0)
        return call()


def _operator_bytes(f: FilterSpec) -> int:
    return sum(v.nbytes for k, v in f._tap_cache.items() if k[0] == "pyramid")


def test_operator_path_matches_the_kernel(monkeypatch, lattice_filters):
    """Up to the threshold, dwt1d is x @ M and idwt1d the adjoint product:
    both give the kernel's dtype and its values within 1e-15 relative. Every
    even n up to the threshold is tried at every depth some filter admits,
    the filters taking turns, and every filter (the lattice filters at starts
    0, odd and negative, and two complex filters) once at n = threshold and
    full depth; the input is float64, complex, float32, int64 and bool in
    turn, and each inverse gets coefficients of that dtype."""
    rng = np.random.default_rng(20261018)
    pool = [FilterSpec("lattice", h, s) for h in lattice_filters for s in (0, 3, -3)]
    cplx = np.array([0.3 + 0.2j, 0.5, -0.1j, 0.2, 0.1 - 0.1j])
    pool += [FilterSpec("cplx", cplx, s, normalized=False) for s in (-2, 1)]
    top = subband._OPERATOR_MAX_N
    haar = builtin_filter("haar")
    cases = [(n, lev) for n in range(2, top + 1, 2) for lev in range(1, max_levels(n, haar) + 1)]
    for k, (n, lev) in enumerate(cases):
        admits = [f for f in pool if max_levels(n, f) >= lev and n >= f.length]
        cases[k] = (admits[k % len(admits)], n, lev)
    cases += [(f, top, max_levels(top, f)) for f in pool]
    kinds = ("float64", "complex", "float32", "int64", "bool")
    for k, (f, n, lev) in enumerate(cases):
        f = dataclasses.replace(f)  # an empty cache, so the cap never intervenes
        x = _signal(rng, n, kinds[k % len(kinds)])
        p = _as_pyramid(x, lev)
        bands, back = _on_the_kernel(monkeypatch, lambda: (dwt1d(x, f, lev), idwt1d(p, f)))
        assert subband._pyramid_operator(f, n, lev, x.dtype) is not None
        _assert_close_relative(_coefficients(dwt1d(x, f, lev)), _coefficients(bands))
        _assert_close_relative(idwt1d(p, f), back)


def test_operator_cache_stays_within_its_byte_cap():
    """A sweep over every length up to the threshold and every depth fills
    the cache of a fresh db4 and of a complex filter up to the cap and no
    further; each cached operator is read-only, and the calls past the cap
    still invert."""
    cplx = np.array([0.3 + 0.2j, 0.5, -0.1j, 0.2, 0.1 - 0.1j])
    for f in (dataclasses.replace(builtin_filter("db4")), FilterSpec("cplx", cplx, 1, False)):
        assert _operator_bytes(f) == 0
        for n in range(2 * f.length, subband._OPERATOR_MAX_N + 1, 2):
            x = RNG.standard_normal(n)
            for lev in range(1, max_levels(n, f) + 1):
                back = idwt1d(dwt1d(x, f, lev), f)
                assert _operator_bytes(f) <= subband._OPERATOR_BYTES
        assert _operator_bytes(f) > subband._OPERATOR_BYTES // 2
        ops = [v for k, v in f._tap_cache.items() if k[0] == "pyramid"]
        assert ops and not any(op.flags.writeable for op in ops)
        if f.name == "db4":
            assert_allclose(back, x, atol=1e-12)


def test_threshold_zero_runs_the_kernel_bit_for_bit(monkeypatch, lattice_filters):
    """With the threshold at 0 no operator is built, and dwt1d and idwt1d
    equal a per-level _split and _merge loop bit for bit."""
    monkeypatch.setattr(subband, "_OPERATOR_MAX_N", 0)
    for f in (dataclasses.replace(builtin_filter("db4")), FilterSpec("lat", lattice_filters[17], -3)):
        for x in (RNG.standard_normal(64), RNG.standard_normal(64) + 1j * RNG.standard_normal(64)):
            p = dwt1d(x, f, 2)
            low, details = x, []
            for _ in range(2):
                low, z = _split(low, f, 0, _SQRT2)
                details.append(z)
            for got, ref in zip((*p.details, p.approx), (*details, low)):
                assert np.array_equal(got, ref)
            merged = _merge((p.approx, p.details[1]), f, 0, _SQRT2)
            merged = _merge((merged, p.details[0]), f, 0, _SQRT2)
            assert np.array_equal(idwt1d(p, f), merged)
        assert _operator_bytes(f) == 0


def test_short_pyramid_bands_share_one_buffer():
    """Below the threshold the bands of dwt1d are views of one array, the
    operator's product; a dataclasses.replace copy of the filter starts with
    no operator and builds its own."""
    f = dataclasses.replace(builtin_filter("db4"))
    x = RNG.standard_normal(64)
    p = dwt1d(x, f, 3)
    assert p.approx.base is not None
    assert all(b.base is p.approx.base for b in p.details)
    op = subband._pyramid_operator(f, 64, 3, x.dtype)
    assert op is f._tap_cache["pyramid", 64, 3]
    fresh = dataclasses.replace(f)
    assert fresh._tap_cache == {}
    assert np.array_equal(_coefficients(dwt1d(x, fresh, 3)), _coefficients(p))
    assert fresh._tap_cache["pyramid", 64, 3] is not op


def test_operator_bytes_are_summed_over_a_snapshot_of_the_cache():
    """The bytes of the operators cached on a filter are summed over a
    snapshot of its cache, so another thread sharing the filter may insert
    while they are summed: here a cache whose item view inserts an entry at
    each step. Each depth's operator is built and cached all the same."""

    class Inserting(dict):
        def items(self):
            for item in super().items():
                self["taps", len(self)] = None  # as a thread sharing the filter might
                yield item

    f = dataclasses.replace(builtin_filter("db4"))
    f.__dict__["_tap_cache"] = Inserting()
    x = RNG.standard_normal(64)
    for lev in (1, 2, 3):
        assert subband._pyramid_operator(f, 64, lev, x.dtype) is not None
        assert_allclose(idwt1d(dwt1d(x, f, lev), f), x, atol=1e-13)
    assert sorted(k for k in f._tap_cache if k[0] == "pyramid") == [("pyramid", 64, lev) for lev in (1, 2, 3)]


@pytest.mark.parametrize("n", (16, 64, subband._OPERATOR_MAX_N))
def test_gates_hold_below_the_operator_threshold(n):
    """The operator path runs every gate of the kernel path: depth past
    max_levels, non-numeric signals and bands, a broken chain and empty
    averages raise as before, and a pyramid built from lists inverts like
    the one built from arrays."""
    f = dataclasses.replace(builtin_filter("haar"))  # no operators cached by earlier tests
    top = max_levels(n, f)
    x = RNG.standard_normal(n)
    p = dwt1d(x, f, top)
    assert subband._pyramid_operator(f, n, top, x.dtype) is not None
    with pytest.raises(LevelError):
        dwt1d(x, f, top + 1)
    with pytest.raises(DomainError):
        dwt1d(np.full(n, "a"), f, 1)
    with pytest.raises(DomainError):
        idwt1d(Pyramid1D(details=p.details, approx=np.full(p.approx.size, None, dtype=object)), f)
    with pytest.raises(ShapeError, match="detail level 2"):
        idwt1d(Pyramid1D(details=(p.details[0], p.details[0], *p.details[2:]), approx=p.approx), f)
    with pytest.raises(ShapeError, match="nonempty 1-d"):
        idwt1d(Pyramid1D(details=p.details, approx=np.ones(0)), f)
    listed = Pyramid1D(details=tuple(z.tolist() for z in p.details), approx=p.approx.tolist())
    assert np.array_equal(idwt1d(listed, f), idwt1d(p, f))
    assert_allclose(idwt1d(p, f), x, atol=1e-13)


def _refusal(call):
    """The class and message of what ``call`` raises, or None if it returns."""
    try:
        call()
    except Exception as e:  # any refusal is compared
        return type(e), str(e)
    return None


@pytest.mark.parametrize("n", (16, 64, subband._OPERATOR_MAX_N))
def test_operator_path_refuses_like_the_kernel(monkeypatch, n):
    """With the operators of the admissible depths cached, and an over-deep
    and a too-short pyramid inverted first (they may leave no operator for
    dwt1d to find), every bad input raises the class and message it raises
    with the threshold at 0. Depths 2.0 and "2" miss a cached key that 2
    would hit; np.int64 and True depths are accepted, on the operator path."""
    f = dataclasses.replace(builtin_filter("db4"))
    top = max_levels(n, f)
    x = RNG.standard_normal(n)
    good = {lev: dwt1d(x, f, lev) for lev in range(1, top + 1)}
    assert subband._pyramid_operator(f, n, 2, x.dtype) is not None
    idwt1d(_as_pyramid(RNG.standard_normal(n), top + 1), f)
    idwt1d(_as_pyramid(RNG.standard_normal(2), 1), f)
    p = good[top]
    dates = np.arange(p.approx.size).astype("datetime64[D]")
    bad_level = (p.details[0][:-1], *p.details[1:])
    listed = Pyramid1D(details=[z.tolist() for z in bad_level], approx=list(p.approx))
    calls = [
        *(lambda lev=lev: dwt1d(x, f, lev) for lev in (2.0, "2", 0, -1, top + 1)),
        lambda: dwt1d(x.reshape(2, -1), f, 1),
        lambda: dwt1d(x[:-1], f, 1),
        lambda: dwt1d(x[:2], f, 1),
        lambda: dwt1d(np.full(n, "a"), f, 1),
        lambda: dwt1d(x.astype(object), f, 1),
        lambda: idwt1d(Pyramid1D(details=bad_level, approx=p.approx), f),
        lambda: idwt1d(Pyramid1D(details=(*p.details[:-1], dates), approx=p.approx), f),
        lambda: idwt1d(Pyramid1D(details=p.details, approx=np.ones(0)), f),
        lambda: idwt1d(listed, f),
    ]
    refusals = [_refusal(call) for call in calls]
    assert None not in refusals
    assert refusals == _on_the_kernel(monkeypatch, lambda: [_refusal(call) for call in calls])
    for lev, ref in ((np.int64(2), good[2]), (True, good[1])):
        q = dwt1d(x, f, lev)
        assert q.approx.base is not None and q.approx.base is q.details[0].base
        bands = zip((*q.details, q.approx), (*ref.details, ref.approx))
        assert all(_same_bits(a, b) for a, b in bands)


def _chain_rules(monkeypatch) -> list:
    """The arguments of every chain-rule run, in subband, image2d and io,
    while ``monkeypatch`` is active."""
    import wavekit.image2d as image2d
    import wavekit.io as io

    check, calls = subband._check_chain, []

    def counted(*args):
        calls.append(args)
        return check(*args)

    for module in (subband, image2d, io):
        monkeypatch.setattr(module, "_check_chain", counted)
    return calls


def test_each_inverse_and_container_write_checks_the_chain_once(monkeypatch, tmp_path):
    """idwt1d of a pyramid dwt1d made as one product runs no chain rule: the
    layout of that product implies it. Every other inverse runs it exactly
    once: idwt1d of a pyramid off the kernel (n = 512), of the same short
    pyramid with the operator path off, of a user-built copy and of a
    dataclasses.replace copy, and synthesis_step, idwt2d and the container
    writer, of the short pyramid too."""
    import wavekit.image2d as image2d
    import wavekit.io as io

    calls = _chain_rules(monkeypatch)
    f = builtin_filter("db4")
    x = RNG.standard_normal(64)
    p, long = dwt1d(x, f, 2), dwt1d(RNG.standard_normal(512), f, 2)
    assert p._flat is not None and long._flat is None
    q = image2d.dwt2d(RNG.standard_normal((16, 16)), f, 2)
    runs = {
        0: [lambda: idwt1d(p, f)],
        1: [
            lambda: synthesis_step(analysis_step(x, f), f),
            lambda: idwt1d(long, f),
            lambda: _on_the_kernel(monkeypatch, lambda: idwt1d(p, f)),
            lambda: idwt1d(Pyramid1D(details=p.details, approx=p.approx), f),
            lambda: idwt1d(dataclasses.replace(p), f),
            lambda: image2d.idwt2d(q, f),
            lambda: io.write_pyramid_container(str(tmp_path / "q.pyr"), q, "db4"),
            lambda: io.write_pyramid_container(str(tmp_path / "p.pyr"), p, "db4"),
        ],
    }
    for count, calls_of in runs.items():
        for run in calls_of:
            calls.clear()
            run()
            assert len(calls) == count


@pytest.mark.parametrize("kind", ("float64", "complex", "float32", "int64", "bool"))
def test_vouched_inverse_matches_the_concatenating_path(monkeypatch, lattice_filters, kind):
    """idwt1d of dwt1d's own pyramid inverts the held product without the
    chain rule, and equals bit for bit the inverse of the same bands taken
    through the chain rule and concatenated (a user-built pyramid), for
    haar, db4, two lattice filters (starts 0 and -3) and a complex filter,
    at every depth up to max_levels of n = 16, 64 and the threshold."""
    rng = np.random.default_rng(20261020)
    cplx = np.array([0.3 + 0.2j, 0.5, -0.1j, 0.2, 0.1 - 0.1j])
    filters = [
        builtin_filter("haar"),
        builtin_filter("db4"),
        FilterSpec("lat", lattice_filters[17], 0),
        FilterSpec("lat8", lattice_filters[19], -3),
        FilterSpec("cplx", cplx, 1, normalized=False),
    ]
    calls = _chain_rules(monkeypatch)
    for f in filters:
        for n in (16, 64, subband._OPERATOR_MAX_N):
            x = _signal(rng, n, kind)
            for lev in range(1, max_levels(n, f) + 1):
                f = dataclasses.replace(f)  # an empty cache, so the cap never intervenes
                p = dwt1d(x, f, lev)
                assert p._flat is not None and p._flat[2].base is None
                calls.clear()
                back = idwt1d(p, f)
                assert calls == []
                user = Pyramid1D(details=p.details, approx=p.approx)
                assert _same_bits(back, idwt1d(user, f))
                assert len(calls) == 1
                ref = _on_the_kernel(monkeypatch, lambda: idwt1d(user, f))
                _assert_close_relative(back, ref)


def test_vouched_inverse_honours_in_place_edits():
    """The bands of dwt1d's pyramid are views of the held product, so a value
    written into a band in place reaches the inverse."""
    f = builtin_filter("db4")
    x = RNG.standard_normal(64)
    p = dwt1d(x, f, 3)
    before = idwt1d(p, f)
    p.details[0][5] += 1.0
    p.details[2][:] = 0.0
    p.approx[:] *= 2.0
    after = idwt1d(p, f)
    assert not np.array_equal(after, before)
    assert _same_bits(after, idwt1d(Pyramid1D(details=p.details, approx=p.approx), f))


def test_copies_and_swapped_fields_take_the_concatenating_path(monkeypatch):
    """dataclasses.replace, copy.copy, copy.deepcopy, a pickle round trip, a
    user-built pyramid and a field swapped with object.__setattr__ hold no
    product idwt1d can vouch for: each runs the chain rule once and gives
    its result, or its error for a broken chain. The held product is no
    parameter of Pyramid1D and not in its repr."""
    calls = _chain_rules(monkeypatch)
    f = builtin_filter("db4")
    x = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
    p = dwt1d(x, f, 3)
    assert list(inspect.signature(Pyramid1D).parameters) == ["details", "approx"]
    assert "_flat" not in repr(p)
    ref = idwt1d(Pyramid1D(details=p.details, approx=p.approx), f)
    copies = {
        "replace": dataclasses.replace(p),
        "copy": copy.copy(p),
        "deepcopy": copy.deepcopy(p),
        "pickle": pickle.loads(pickle.dumps(p)),
        "user-built": Pyramid1D(details=p.details, approx=p.approx),
    }
    for name, q in copies.items():
        assert q._flat is None and "_flat" not in q.__dict__, name
        calls.clear()
        assert _same_bits(idwt1d(q, f), ref), name
        assert len(calls) == 1, name

    def swapped(field, value):
        q = dwt1d(x, f, 3)
        object.__setattr__(q, field, value)
        return q

    same = [swapped("details", p.details), swapped("approx", p.approx.copy())]
    broken = [
        swapped("details", (p.details[0][:-1], *p.details[1:])),
        swapped("approx", np.ones(0)),
        swapped("approx", p.approx.astype(object)),
        swapped("details", (*p.details[:2], np.arange(p.approx.size).astype("datetime64[D]"))),
    ]
    for q in same:
        calls.clear()
        assert _same_bits(idwt1d(q, f), ref)
        assert len(calls) == 1
    for q in broken:
        user = Pyramid1D(details=q.details, approx=q.approx)
        calls.clear()
        assert _refusal(lambda: idwt1d(q, f)) == _refusal(lambda: idwt1d(user, f)) is not None
        assert len(calls) == 2


def test_pickle_of_a_short_pyramid_carries_its_bands_once():
    """A pickle of dwt1d's pyramid is the size of the same bands' user-built
    pyramid, under the coefficients' bytes plus 1 KiB: the held product does
    not travel with it, and the copy comes back without it."""
    f = builtin_filter("db4")
    for x in (RNG.standard_normal(256), RNG.standard_normal(64) + 1j * RNG.standard_normal(64)):
        p = dwt1d(x, f, 3)
        blob = pickle.dumps(p)
        assert len(blob) == len(pickle.dumps(Pyramid1D(details=p.details, approx=p.approx)))
        assert len(blob) < sum(b.nbytes for b in (*p.details, p.approx)) + 1024
        back = pickle.loads(blob)
        assert "_flat" not in back.__dict__
        assert all(_same_bits(a, b) for a, b in zip((*back.details, back.approx), (*p.details, p.approx)))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("start", (0, 3, -5))
@pytest.mark.parametrize("k", (1, -7, 10**6))
def test_kernel_depends_on_start_mod_n_only(monkeypatch, lattice_filters, start, k):
    """Shifting a filter's start by k n shifts every window by whole periods:
    analysis_step, dwt1d on the operator path (n = 64) and on the kernel
    (n = 512), idwt1d and cuntz_check give the same bits."""
    h = lattice_filters[5]
    x = {n: RNG.standard_normal(n) + 1j * RNG.standard_normal(n) for n in (64, 512)}
    for n, signal in x.items():
        near, far = FilterSpec("h", h, start), FilterSpec("h", h, start + k * n)
        depth = max_levels(n, near)
        pairs = [(analysis_step(signal, f), dwt1d(signal, f, depth)) for f in (near, far)]
        (p0, d0), (p1, d1) = pairs
        assert _same_bits(p0.y, p1.y) and _same_bits(p0.z, p1.z)
        assert all(_same_bits(a, b) for a, b in zip(d0.details + (d0.approx,), d1.details + (d1.approx,)))
        assert _same_bits(idwt1d(d0, near), idwt1d(d1, far))
        r0, r1 = cuntz_check(near, n), cuntz_check(far, n)
        assert dataclasses.astuple(r0) == dataclasses.astuple(r1)
    near, far = FilterSpec("h", h, start), FilterSpec("h", h, start + k * 64)
    on_kernel = [_on_the_kernel(monkeypatch, lambda f=f: dwt1d(x[64], f, 3)) for f in (near, far)]
    assert all(_same_bits(a, b) for a, b in zip(on_kernel[0].details, on_kernel[1].details))


def test_short_dwt1d_peak_does_not_depend_on_start():
    """The gather buffer spans less than half a period whatever the start: a
    64-sample db4 dwt1d (which builds its operator) peaks alike at start 0
    and at start 10^12."""
    x = RNG.standard_normal(64)
    peaks = []
    for start in (0, 10**12):
        f = FilterSpec("db4", builtin_filter("db4").h, start)
        tracemalloc.start()
        try:
            dwt1d(x, f, 4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_subband_matrices_byte_budget(monkeypatch):
    """subband_matrices is charged four n^2 entries of its dtype (tracemalloc
    peaks 3.5 float64 and 3.0 complex128), refused past the budget before
    anything is built."""
    f = builtin_filter("db4")
    for h in (f.h, f.h * (1 + 0j)):
        g = FilterSpec("g", h)
        tracemalloc.start()
        try:
            subband_matrices(g, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 256**2 * h.itemsize
    monkeypatch.setattr(wavekit.errors, "_BYTE_BUDGET", 4 * 16**2 * 8)
    assert subband_matrices(f, 16).n == 16
    monkeypatch.setattr(subband, "_periodized", lambda *a: pytest.fail("built"))
    with pytest.raises(SizeError, match="^subband_matrices at n = 18 .*budget"):
        subband_matrices(f, 18)
