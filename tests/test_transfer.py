import numpy as np
import pytest
from conftest import lattice_lowpass
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import wavekit.errors
import wavekit.transfer
from wavekit.cascade import integer_values
from wavekit.errors import ParameterError, PreconditionError
from wavekit.filters import BUILTIN_NAMES, FilterSpec, builtin_filter
from wavekit.transfer import (
    EIGENVALUE_BUCKET,
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


def whole_matrix_lawton(f: FilterSpec, tol: float = EIGENVALUE_BUCKET):
    """Reference Lawton count on the whole (2L-1)-square R: a full SVD of
    R - I (U and Vh included) and eigvals(R). Returns (verdict,
    multiplicity, bucket multiplicity, sorted eigenvalues)."""
    R = build_transfer_matrix(f).matrix
    _, sigma, _ = np.linalg.svd(R - np.eye(R.shape[0]))
    multiplicity = int(np.count_nonzero(sigma <= tol * max(1.0, float(sigma.max()))))
    eigenvalues = np.sort_complex(np.linalg.eigvals(R))
    bucket = int(np.count_nonzero(np.abs(eigenvalues - 1.0) <= tol))
    return ("ONB" if multiplicity == 1 else "NOT_ONB"), multiplicity, bucket, eigenvalues


def assert_matches_whole_matrix(f: FilterSpec):
    """lawton_test gives the reference's verdict and both counts, and its
    eigenvalues equal the reference's as multisets within 1e-7: every point
    of each set lies that close to a point of the other. Sorted order is not
    compared, since a defective eigenvalue (db4's double 0.25) moves by
    about the square root of the rounding."""
    v = lawton_test(f)
    verdict, multiplicity, bucket, eigenvalues = whole_matrix_lawton(f)
    assert (v.verdict, v.multiplicity, v.bucket_multiplicity) == (verdict, multiplicity, bucket)
    assert v.eigenvalues.shape == eigenvalues.shape
    distance = np.abs(v.eigenvalues[:, None] - eigenvalues[None, :])
    assert distance.min(axis=0).max() <= 1e-7
    assert distance.min(axis=1).max() <= 1e-7
    return v


def test_reflection_blocks_are_r_in_the_even_odd_basis():
    """Q R Q^T, for Q the orthonormal basis e_0, (e_m + e_-m)/sqrt 2 (even)
    then (e_m - e_-m)/sqrt 2 (odd), is block diagonal with the two blocks."""
    R = build_transfer_matrix(FilterSpec("lattice", lattice_lowpass([0.3, -1.1, np.pi / 4 + 0.8]))).matrix
    K = R.shape[0] // 2
    Q = np.zeros_like(R)
    Q[0, K] = 1.0
    for m in range(1, K + 1):
        Q[m, [K + m, K - m]] = np.sqrt(0.5)
        Q[K + m, [K + m, K - m]] = np.sqrt(0.5), -np.sqrt(0.5)
    even, odd = wavekit.transfer._reflection_blocks(R)
    assert (even.shape, odd.shape) == ((K + 1, K + 1), (K, K))
    expected = np.zeros_like(R)
    expected[: K + 1, : K + 1], expected[K + 1 :, K + 1 :] = even, odd
    assert_allclose(Q @ R @ Q.T, expected, atol=1e-15)


def test_lawton_matches_whole_matrix_on_fixed_families(lattice_filters, complex_lattice_filters):
    """The 40 lattice filters and their x3 and x5 upsamplings, the builtins
    and the complex lattice filters."""
    for h in lattice_filters:
        assert assert_matches_whole_matrix(FilterSpec("lattice", h)).is_onb
        for factor in (3, 5):
            assert not assert_matches_whole_matrix(FilterSpec("up", _upsampled(h, factor))).is_onb
    for name in BUILTIN_NAMES:
        assert_matches_whole_matrix(builtin_filter(name))
    for h in complex_lattice_filters:
        assert_matches_whole_matrix(FilterSpec("complex", h))


def test_complex_filter_takes_the_whole_matrix(monkeypatch, complex_lattice_filters):
    """A complex filter has J R J = conj(R), not R, so its R does not split:
    lawton_test never folds it, and still finds a simple eigenvalue 1, which
    becomes degenerate when the filter is upsampled by 3."""
    def no_fold(R):
        raise AssertionError("a complex R was folded")

    monkeypatch.setattr(wavekit.transfer, "_reflection_blocks", no_fold)
    for h in complex_lattice_filters:
        f = FilterSpec("complex", h)
        R = build_transfer_matrix(f).matrix
        assert_allclose(R[::-1, ::-1], R.conj(), atol=1e-15)
        assert np.abs(R[::-1, ::-1] - R).max() > 1e-2
        v = lawton_test(f)
        assert (v.verdict, v.multiplicity, v.bucket_multiplicity) == ("ONB", 1, 1)
        up = np.zeros(3 * (h.size - 1) + 1, dtype=complex)
        up[::3] = h
        assert not lawton_test(FilterSpec("complex up3", up)).is_onb


def test_real_filter_takes_the_reflection_blocks(monkeypatch):
    sizes = []
    fold = wavekit.transfer._reflection_blocks

    def spy(R):
        sizes.append(R.shape[0])
        return fold(R)

    monkeypatch.setattr(wavekit.transfer, "_reflection_blocks", spy)
    lawton_test(builtin_filter("db4"))
    assert sizes == [7]


def test_one_threshold_over_both_blocks():
    """The rank threshold scales with sigma_max over both blocks, as on the
    whole R: with a tol that puts a singular value of the block with the
    smaller sigma_max between its own threshold and the common one, the
    count follows the common one."""
    f = builtin_filter("stretched_haar")
    blocks = wavekit.transfer._reflection_blocks(build_transfer_matrix(f).matrix)
    small, big = sorted(
        (np.linalg.svd(B - np.eye(B.shape[0]), compute_uv=False) for B in blocks), key=np.max
    )
    floor = max(1.0, small.max())
    assert floor < big.max() / 1.2
    tol = small[small > 1e-6].min() / np.sqrt(big.max() * floor)
    per_block = sum(int(np.count_nonzero(s <= tol * max(1.0, s.max()))) for s in (small, big))
    v = lawton_test(f, tol)
    assert v.multiplicity == whole_matrix_lawton(f, tol)[1] > per_block


@settings(max_examples=40)
@given(st.lists(st.floats(0.0, 2.0 * np.pi), max_size=4), st.sampled_from([1, 3, 5]))
def test_lawton_matches_whole_matrix_on_lattice_upsamplings(free, factor):
    """Generated lattice filters (K = 1..5) and their x3 and x5 upsamplings
    get the whole-matrix verdict, counts and eigenvalues; an odd upsampling
    keeps the QMF relations but is never ONB."""
    h = _upsampled(lattice_lowpass(free + [np.pi / 4 - sum(free)]), factor)
    v = assert_matches_whole_matrix(FilterSpec("lattice", h))
    if factor > 1:
        assert v.verdict == "NOT_ONB"
        assert v.multiplicity >= 2


@pytest.mark.parametrize("kind", ("real", "complex"))
def test_two_scale_matrix_charge_covers_its_callers(monkeypatch, kind):
    """A dense two-scale matrix is charged five entries of its dtype per
    entry before it is built. The tracemalloc peaks of lawton_test,
    build_transfer_matrix, refinement_matrix and integer_values stay under
    that charge, and a budget one byte short of it refuses each of them."""
    import tracemalloc

    from conftest import complex_lattice_lowpass, random_unitary

    from wavekit.cascade import refinement_matrix
    from wavekit.errors import SizeError

    rng = np.random.default_rng(64)
    if kind == "real":
        free = rng.uniform(0.0, 2.0 * np.pi, size=31)
        f = FilterSpec("lattice64", lattice_lowpass(np.append(free, np.pi / 4 - free.sum())))
    else:
        f = FilterSpec("clattice64", complex_lattice_lowpass([random_unitary(rng) for _ in range(31)]))
    L, itemsize = f.length, 16 if kind == "complex" else 8
    calls = {
        lawton_test: (2 * L - 1) ** 2,
        build_transfer_matrix: (2 * L - 1) ** 2,
        refinement_matrix: (L - 1) ** 2,
        integer_values: (L - 1) ** 2,
    }
    for call, entries in calls.items():
        charge = 5 * itemsize * entries
        tracemalloc.start()
        try:
            call(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charge, call.__name__
        with monkeypatch.context() as patch:
            patch.setattr(wavekit.errors, "_BYTE_BUDGET", charge)
            call(f)
            patch.setattr(wavekit.errors, "_BYTE_BUDGET", charge - 1)
            with pytest.raises(SizeError, match="two-scale matrix needs about .* budget"):
                call(f)
