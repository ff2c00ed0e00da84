import dataclasses

import numpy as np
import pytest
from conftest import complex_lattice_lowpass, lattice_lowpass, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavekit.cascade import scaling_function
from wavekit.errors import CatalogError, DomainError, ParameterError
from wavekit.filters import (
    BUILTIN_NAMES,
    FilterSpec,
    builtin_filter,
    derive_highpass,
    qmf_check,
    symbol_eval,
)
from wavekit.subband import analysis_step, subband_matrices
from wavekit.transfer import autocorrelation, build_transfer_matrix, lawton_test

SQRT3 = np.sqrt(3.0)


def test_builtin_names():
    assert BUILTIN_NAMES == ("db4", "haar", "stretched_haar")
    for name in BUILTIN_NAMES:
        f = builtin_filter(name)
        assert f.name == name
        assert f.start == 0


def test_builtin_unknown_raises():
    with pytest.raises(CatalogError):
        builtin_filter("nosuch")


def test_haar_coefficients():
    f = builtin_filter("haar")
    assert_allclose(f.h, [0.5, 0.5], rtol=0, atol=0)
    assert f.length == 2
    assert f.stop == 2
    assert list(f.indices) == [0, 1]


def test_db4_closed_form():
    """The four-tap filter is ((1+s)/8, (3+s)/8, (3-s)/8, (1-s)/8), s = sqrt(3),
    minimum phase (h_0 > h_3)."""
    f = builtin_filter("db4")
    expected = np.array([1 + SQRT3, 3 + SQRT3, 3 - SQRT3, 1 - SQRT3]) / 8.0
    assert_allclose(f.h, expected, rtol=0, atol=0)
    assert f.h[0] > f.h[3]
    assert abs(f.h.sum() - 1.0) < 1e-15
    # the symbol vanishes at z = -1 (one vanishing moment)
    assert abs(symbol_eval(f, "low", -1.0)) < 1e-15


def test_normalization_enforced():
    with pytest.raises(DomainError):
        FilterSpec("bad", np.array([0.5, 0.6]), 0)
    # opting out is allowed
    f = FilterSpec("loose", np.array([0.5, 0.6]), 0, normalized=False)
    assert f.h[1] == 0.6


@pytest.mark.parametrize(
    "h",
    [np.full((2, 2), 0.25), np.array([]), np.array([0.5, np.nan]), np.array([np.inf, 0.5])],
    ids=["2-d", "empty", "nan", "inf"],
)
def test_filterspec_refuses_bad_taps(h):
    with pytest.raises(DomainError, match="coefficients"):
        FilterSpec("bad", h, normalized=False)


def test_filterspec_integer_taps_become_float64():
    f = FilterSpec("ints", np.array([1, 0]))
    assert f.h.dtype == np.float64
    assert f.h.tolist() == [1.0, 0.0]


def test_start_past_two_to_the_52_is_refused():
    """Past 2^52 the cascade's integer lattice points stop being exact floats."""
    h = np.array([0.5, 0.5])
    for start in (2**52, -(2**52)):
        assert FilterSpec("edge", h, start).start == start
    for start in (2**52 + 1, -(2**52) - 1, 2**63 - 1, 10**20):
        with pytest.raises(DomainError, match="2\\^52"):
            FilterSpec("far", h, start)


def test_filterspec_is_frozen():
    f = builtin_filter("haar")
    with pytest.raises(Exception):
        f.start = 3
    assert not f.h.flags.writeable


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_qmf_check_builtins(name):
    rep = qmf_check(builtin_filter(name), tol=1e-12)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    # lag 0 residual is sum |h|^2 - 1/2
    mid = np.where(rep.lags == 0)[0][0]
    f = builtin_filter(name)
    assert_allclose(rep.residuals[mid], (np.abs(f.h) ** 2).sum() - 0.5,
                    atol=1e-15)


def test_qmf_check_failure():
    f = FilterSpec("delta", np.array([1.0, 0.0]), 0)
    rep = qmf_check(f, tol=1e-12)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(0.5)


def test_qmf_lag_window():
    rep = qmf_check(builtin_filter("db4"))
    assert list(rep.lags) == [-1, 0, 1]
    rep2 = qmf_check(builtin_filter("haar"))
    assert list(rep2.lags) == [0]


@settings(max_examples=40)
@given(
    free=st.lists(st.floats(0.0, 2.0 * np.pi), max_size=9),
    complex_seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_qmf_residual_on_lattice_filters(free, complex_seed):
    """Over real lattice filters with K = 1..10 stages and complex ones with
    K - 1 seeded unitary stages, qmf_check passes and the residual stays at
    rounding level: at most 2 L eps (20,000 random filters of each kind
    reached 0.25 and 0.375 L eps)."""
    if complex_seed is None:
        h = lattice_lowpass(free + [np.pi / 4 - sum(free)])
    else:
        rng = np.random.default_rng(complex_seed)
        h = complex_lattice_lowpass([random_unitary(rng) for _ in free])
    report = qmf_check(FilterSpec("lattice", h))
    assert report.passed
    assert report.max_residual <= 2 * h.size * np.finfo(float).eps


def test_qmf_bad_tol():
    with pytest.raises(ParameterError):
        qmf_check(builtin_filter("haar"), tol=-1.0)


def test_highpass_haar():
    g = derive_highpass(builtin_filter("haar"))
    assert g.start == 0
    assert_allclose(g.h, [0.5, -0.5], rtol=0, atol=0)


def test_highpass_db4():
    """g_k = (-1)^k conj(h_{1-k}) on support -2..1."""
    f = builtin_filter("db4")
    g = derive_highpass(f)
    assert g.start == -2
    assert_allclose(g.h, [f.h[3], -f.h[2], f.h[1], -f.h[0]], rtol=0, atol=0)
    assert abs(g.h.sum()) < 1e-15


def test_highpass_delta():
    g = derive_highpass(FilterSpec("delta", np.array([1.0, 0.0]), 0))
    assert g.start == 0
    assert_allclose(g.h, [0.0, -1.0], rtol=0, atol=0)


def test_highpass_is_involution_up_to_sign():
    f = builtin_filter("db4")
    gg = derive_highpass(derive_highpass(f))
    assert gg.start == f.start
    assert_allclose(gg.h, -f.h, rtol=0, atol=0)


def test_highpass_complex_conjugates():
    h = np.array([0.5 + 0.25j, 0.5 - 0.25j])
    f = FilterSpec("cplx", h, 0)
    g = derive_highpass(f)
    assert_allclose(g.h, [np.conj(h[1]), -np.conj(h[0])], rtol=0, atol=0)


def test_highpass_identities_on_lattice_filters(lattice_filters):
    """On generated orthogonal filters the companion passes qmf_check, the
    reflection is an involution up to sign, and the cross-channel lags
    sum_i conj(h_i) g_{i+2k} vanish for every k."""
    for h in lattice_filters:
        f = FilterSpec("lattice", h, 0)
        g = derive_highpass(f)
        assert qmf_check(g).passed
        gg = derive_highpass(g)
        assert gg.start == f.start
        assert_allclose(gg.h, -f.h, rtol=0, atol=0)
        # cross[j] = sum_i conj(h_i) g_{i+m}, m = j - (L-1) + (g.start - f.start)
        cross = np.correlate(g.h, h, mode="full")
        lags = np.arange(cross.size) - (h.size - 1) + (g.start - f.start)
        assert np.abs(cross[lags % 2 == 0]).max() <= 1e-12


def test_symbol_at_one_and_minus_one():
    # sum h = 1 puts the low symbol at 1 for z=1; the high symbol then
    # vanishes there and has modulus 1 at z=-1
    for name in ("haar", "db4"):
        f = builtin_filter(name)
        assert symbol_eval(f, "low", 1.0) == pytest.approx(1.0)
        assert symbol_eval(f, "high", 1.0) == pytest.approx(0.0, abs=1e-15)
        assert abs(symbol_eval(f, "high", -1.0)) == pytest.approx(1.0)


def test_symbol_quadrature_identity():
    """|m0(z)|^2 + |m0(-z)|^2 = 1 on the unit circle for a QMF filter,
    with m0 normalized so m0(1) = 1; same for the high-pass symbol."""
    f = builtin_filter("db4")
    z = np.exp(1j * np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
    low = symbol_eval(f, "low", z)
    high = symbol_eval(f, "high", z)
    assert_allclose(np.abs(low) ** 2 + np.abs(symbol_eval(f, "low", -z)) ** 2,
                    np.ones(z.size), atol=1e-14)
    assert_allclose(np.abs(low) ** 2 + np.abs(high) ** 2,
                    np.ones(z.size), atol=1e-14)


def test_symbol_array_and_scalar_forms():
    f = builtin_filter("haar")
    one = symbol_eval(f, "low", 1.0)
    assert isinstance(one, complex)
    arr = symbol_eval(f, "low", np.array([1.0, -1.0]))
    assert arr.shape == (2,)
    assert_allclose(arr, [1.0, 0.0], atol=1e-15)


def test_symbol_off_circle_rejected():
    with pytest.raises(DomainError):
        symbol_eval(builtin_filter("haar"), "low", 2.0)
    with pytest.raises(ParameterError):
        symbol_eval(builtin_filter("haar"), "sideways", 1.0)


def test_symbol_respects_start_index():
    shifted = FilterSpec("sh", np.array([0.5, 0.5]), start=-1)
    z = np.exp(0.7j)
    # sum h_k z^k with k in {-1, 0}
    assert symbol_eval(shifted, "low", z) == pytest.approx(0.5 / z + 0.5)


def test_derive_highpass_returns_cached_spec():
    f = builtin_filter("db4")
    g = derive_highpass(f)
    assert isinstance(g, FilterSpec)
    assert g.name == "db4:highpass"
    assert g.normalized is False
    assert g.length == 4 and g.stop == 2
    assert not g.h.flags.writeable
    assert derive_highpass(f) is g


#: Each container of arrays, built from a fresh db4 spec by the call that
#: returns it.
ARRAY_CONTAINERS = {
    "FilterSpec": lambda f: FilterSpec(f.name, f.h.copy(), f.start),
    "QmfReport": qmf_check,
    "SubbandPair": lambda f: analysis_step(np.arange(16.0), f),
    "SubbandMatrices": lambda f: subband_matrices(f, 8),
    "DyadicFunction": lambda f: scaling_function(f, 3),
    "Autocorrelation": autocorrelation,
    "TransferMatrix": build_transfer_matrix,
    "OnbVerdict": lawton_test,
}


def one_ulp_up(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` whose first real component is one ulp larger."""
    b = np.array(a)
    parts = b.reshape(-1).view(b.real.dtype)
    parts[0] = np.nextafter(parts[0], np.inf)
    return b


@pytest.mark.parametrize("kind", ARRAY_CONTAINERS)
def test_array_containers_compare_by_value_and_stay_unhashable(kind):
    """Two separately built equal values compare equal, one ulp in one array
    makes them unequal, and hash() raises TypeError, since the arrays are
    mutable."""
    db4 = builtin_filter("db4")
    build = ARRAY_CONTAINERS[kind]
    one, same = (build(FilterSpec("db4", db4.h, db4.start)) for _ in range(2))
    assert type(one).__name__ == kind and one is not same
    assert one == same and not one != same
    name = next(
        fld.name for fld in dataclasses.fields(one)
        if isinstance(a := getattr(one, fld.name), np.ndarray) and np.issubdtype(a.dtype, np.inexact)
    )
    off = dataclasses.replace(same, **{name: one_ulp_up(getattr(same, name))})
    assert one != off and not one == off and one != object()
    with pytest.raises(TypeError, match="unhashable"):
        hash(one)
