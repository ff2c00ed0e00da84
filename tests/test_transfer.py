import numpy as np
import pytest
from conftest import lattice_lowpass
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavekit.cascade import integer_values
from wavekit.errors import ParameterError, PreconditionError
from wavekit.filters import FilterSpec, builtin_filter
from wavekit.transfer import (
    autocorrelation,
    build_transfer_matrix,
    format_verdict,
    lawton_test,
)


def test_autocorrelation_haar():
    w = autocorrelation(builtin_filter("haar"))
    assert w.min_lag == -1
    assert_allclose(w.w, [0.25, 0.5, 0.25], atol=1e-15)
    assert list(w.lags) == [-1, 0, 1]
    assert w.lag(0) == pytest.approx(0.5)
    assert w.lag(5) == 0.0
    assert w.lag(-5) == 0.0


def test_autocorrelation_symmetry_db4():
    w = autocorrelation(builtin_filter("db4"))
    assert w.w.size == 7
    assert_allclose(w.w, w.w[::-1], atol=1e-15)
    # QMF filters have vanishing even autocorrelation lags except 0
    assert abs(w.lag(2)) < 1e-15
    assert abs(w.lag(-2)) < 1e-15
    assert w.lag(0) == pytest.approx(0.5)


def test_transfer_matrix_haar_by_hand():
    """R[n, m] = 2 w_{2n-m} on modes -1..1 gives rows (1/2,0,0),
    (1/2,1,1/2), (0,0,1/2) for the haar pair."""
    tm = build_transfer_matrix(builtin_filter("haar"))
    assert list(tm.modes) == [-1, 0, 1]
    expected = np.array([
        [0.5, 0.0, 0.0],
        [0.5, 1.0, 0.5],
        [0.0, 0.0, 0.5],
    ])
    assert_allclose(tm.matrix, expected, atol=1e-15)


def test_transfer_matrix_dimension_db4():
    tm = build_transfer_matrix(builtin_filter("db4"))
    assert tm.matrix.shape == (7, 7)
    assert tm.half_order == 3


def test_transfer_matrix_column_sums():
    """Every column sums to one: the even and odd autocorrelation lags each
    sum to 1/2 for a QMF filter, and a column collects one parity class."""
    for name in ("haar", "db4", "stretched_haar"):
        tm = build_transfer_matrix(builtin_filter(name))
        assert_allclose(tm.matrix.sum(axis=0), 1.0, atol=1e-12)


def test_lawton_haar_eigenvalues_and_verdict():
    v = lawton_test(builtin_filter("haar"))
    assert v.verdict == "ONB"
    assert v.is_onb
    assert v.multiplicity == 1
    assert v.bucket_multiplicity == 1
    assert_allclose(np.sort(v.eigenvalues.real), [0.5, 0.5, 1.0], atol=1e-8)
    assert_allclose(v.eigenvalues.imag, 0.0, atol=1e-10)


def test_lawton_db4_is_onb():
    v = lawton_test(builtin_filter("db4"))
    assert v.verdict == "ONB"
    assert v.multiplicity == 1
    # eigenvalue 1 is present
    assert np.min(np.abs(v.eigenvalues - 1.0)) < 1e-10


def test_lawton_stretched_haar_not_onb():
    """The classical counterexample: QMF relations hold but the eigenvalue-1
    eigenspace of the transfer operator is two dimensional."""
    v = lawton_test(builtin_filter("stretched_haar"))
    assert v.verdict == "NOT_ONB"
    assert not v.is_onb
    assert v.multiplicity >= 2
    assert v.bucket_multiplicity >= 2


def test_lawton_rejects_non_qmf_filter():
    hat = FilterSpec("hat", np.array([0.25, 0.5, 0.25]), 0)
    with pytest.raises(PreconditionError):
        lawton_test(hat)


def test_lawton_tolerance_validation():
    with pytest.raises(ParameterError):
        lawton_test(builtin_filter("haar"), tol=0.0)
    with pytest.raises(ParameterError):
        lawton_test(builtin_filter("haar"), tol=float("nan"))


def test_rank_and_bucket_counts_agree_on_builtins():
    for name in ("haar", "db4", "stretched_haar"):
        v = lawton_test(builtin_filter(name))
        assert v.multiplicity == v.bucket_multiplicity


def test_format_verdict_lines():
    text = format_verdict(lawton_test(builtin_filter("haar")))
    lines = text.splitlines()
    assert lines[0] == "verdict=ONB"
    assert lines[1] == "mult1=1"
    assert lines[2].startswith("eigs=")
    # three eigenvalues for the 3x3 haar operator
    assert len(lines[2][len("eigs="):].split(";")) == 3


def _upsampled(h: np.ndarray, factor: int) -> np.ndarray:
    out = np.zeros(factor * (h.size - 1) + 1)
    out[::factor] = h
    return out


def test_svd_rank_matches_pivoted_qr_rank(lattice_filters):
    """The singular-value rank that decides lawton_test agrees with a
    column-pivoted QR rank at the same threshold. Lattice filters keep their
    ONB verdict; upsampling by an odd factor (stretched_haar is haar
    upsampled by 3) leaves the QMF relations intact but makes eigenvalue 1
    of the transfer operator degenerate."""
    linalg = pytest.importorskip("scipy.linalg")
    cases = [(FilterSpec("lattice", h), "ONB") for h in lattice_filters]
    cases += [
        (FilterSpec(f"up{factor}", _upsampled(h, factor)), "NOT_ONB")
        for h in lattice_filters[:20]
        for factor in (3, 5)
    ]
    cases.append((builtin_filter("stretched_haar"), "NOT_ONB"))
    for f, verdict in cases:
        v = lawton_test(f)
        r_minus_i = build_transfer_matrix(f).matrix - np.eye(2 * f.length - 1)
        _, r, _ = linalg.qr(r_minus_i, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        qr_rank = np.count_nonzero(diag > v.tolerance * max(1.0, diag.max()))
        assert v.multiplicity == r_minus_i.shape[0] - qr_rank
        assert v.multiplicity == v.bucket_multiplicity
        assert v.verdict == verdict
        if verdict == "NOT_ONB":
            assert v.multiplicity >= 2


@settings(max_examples=50)
@given(st.lists(st.floats(0.0, 2.0 * np.pi), max_size=5))
def test_lattice_filters_are_onb_with_unit_integer_sum(free):
    """Any lattice angles with K = 1..6 stages give an orthogonal filter whose
    transfer operator has a simple eigenvalue 1 by both counts, and whose
    cascade integer values sum to 1 up to rounding in the terms summed, also
    when angles such as (0, pi/4) collapse the filter to haar padded with
    zero taps."""
    f = FilterSpec("lattice", lattice_lowpass(free + [np.pi / 4 - sum(free)]))
    v = lawton_test(f)
    assert (v.verdict, v.multiplicity, v.bucket_multiplicity) == ("ONB", 1, 1)
    values = integer_values(f)
    assert abs(values.sum() - 1.0) <= 1e-12 * np.abs(values).sum()
