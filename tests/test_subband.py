import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekit.errors import LevelError, ShapeError, SizeError
from wavekit.filters import FilterSpec, builtin_filter
from wavekit.subband import (
    Pyramid1D,
    SubbandPair,
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


def test_cuntz_window_floor():
    with pytest.raises(SizeError):
        cuntz_check(builtin_filter("db4"), n=6)


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
