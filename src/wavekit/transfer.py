"""Orthonormality testing through the filter's transfer operator.

The squared modulus of the low-pass symbol acts on trigonometric polynomials
by summing over the two square roots of each circle point:

    (R p)(z) = sum_{u^2 = z} |m(u)|^2 p(u).

On coefficient sequences this is the matrix R[n, m] = 2 w_{2n-m} built from
the filter autocorrelation w_k = sum_i conj(h_i) h_{i+k}, acting on the mode
window |n| <= L-1 (which R leaves invariant). For a filter that passes
``qmf_check``, the translates of its scaling function form an orthonormal
system exactly when the eigenvalue 1 of R is simple (Lawton 1991). R and the
cascade lattice matrix are both two-scale matrices M[i, j] = 2 c_{2p_i - p_j}
(``_two_scale_matrix``, which also builds the cascade's refinement rows on
separate row and column points), and ``_unit_count`` counts the eigenvalue-1
dimension of both from the singular values of M - I; ``lawton_test``
cross-checks that count against direct eigenvalue bucketing.

For a real filter w_{-k} = w_k, so R commutes with the reflection J: n -> -n
and splits in the orthonormal basis e_0, (e_m +- e_{-m})/sqrt 2 into an even
block of size L and an odd block of size L - 1 (Cantoni & Butler 1976), which
``lawton_test`` takes instead; a complex filter, J R J = conj(R), keeps R whole.
"""
from __future__ import annotations

__all__ = [
    "EIGENVALUE_BUCKET",
    "Autocorrelation",
    "OnbVerdict",
    "TransferMatrix",
    "autocorrelation",
    "build_transfer_matrix",
    "format_verdict",
    "lawton_test",
]

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError, _charge
from .filters import FilterSpec, _value_eq, qmf_check


@dataclass(frozen=True)
class Autocorrelation:
    """Filter autocorrelation on lags -(L-1) .. L-1.

    ``w[i]`` holds lag ``min_lag + i``; lags are Hermitian, w_{-k} = conj(w_k),
    and w_0 = sum |h_i|^2 (1/2 for a filter passing ``qmf_check``).
    """

    w: np.ndarray
    min_lag: int

    __eq__ = _value_eq

    @property
    def lags(self) -> np.ndarray:
        return np.arange(self.min_lag, self.min_lag + self.w.size)

    def lag(self, k: int):
        """w_k, zero outside the stored window."""
        i = k - self.min_lag
        if 0 <= i < self.w.size:
            return self.w[i]
        return np.zeros((), dtype=self.w.dtype)[()]


@dataclass(frozen=True)
class TransferMatrix:
    """R[n, m] = 2 w_{2n-m} on the (2L-1)-mode window n, m in [-(L-1), L-1]."""

    matrix: np.ndarray
    half_order: int

    __eq__ = _value_eq

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.half_order, self.half_order + 1)


@dataclass(frozen=True)
class OnbVerdict:
    """Outcome of ``lawton_test``.

    ``multiplicity`` is the eigenvalue-1 dimension counted from the singular
    values of R - I (the deciding route); ``bucket_multiplicity`` counts
    eigenvalues within tolerance of 1 as a cross-check. ``eigenvalues`` are
    sorted for deterministic reporting. For a real filter both come from the
    even and odd blocks of R, so against the whole matrix the last digits of
    near-tied or defective eigenvalues, and hence their order, may differ.
    """

    verdict: str
    multiplicity: int
    bucket_multiplicity: int
    eigenvalues: np.ndarray
    tolerance: float

    __eq__ = _value_eq

    @property
    def is_onb(self) -> bool:
        return self.verdict == "ONB"


def autocorrelation(f: FilterSpec) -> Autocorrelation:
    """w_k = sum_i conj(h_i) h_{i+k} for |k| <= L-1 (start-independent)."""
    h = f.h
    # numpy cross-correlation: correlate(a, v, "full")[N-1+k] = sum a_{n+k} conj(v_n)
    w = np.correlate(h, h, mode="full")
    return Autocorrelation(w=w, min_lag=-(h.size - 1))


def build_transfer_matrix(f: FilterSpec) -> TransferMatrix:
    """Materialize R on the invariant mode window."""
    K = f.length - 1
    ac = autocorrelation(f)
    return TransferMatrix(
        matrix=_two_scale_matrix(ac.w, ac.min_lag, np.arange(-K, K + 1)),
        half_order=K,
    )


def _two_scale_matrix(
    c: np.ndarray, c_start: int, points: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """M[i, j] = 2 c[2 p_i - q_j - c_start] on the row points p and the
    column points q (q = p unless given), zero where the index leaves c
    (coefficient k of c sits at c_start + k). Row points may be half
    integers; each 2 p_i - q_j must be an integer. M is charged five entries
    of its dtype per entry, for the SVD of M - I its eigenvalue-1 callers take
    (tracemalloc peaks, L = 64 to 400: 3.2 entries to build M or to run
    ``lawton_test``, 4.2 for ``integer_values``)."""
    cols = points if cols is None else cols
    dtype = np.result_type(c.dtype, np.float64)
    _charge(f"a {len(points)} x {len(cols)} two-scale matrix",
            5 * dtype.itemsize * len(points) * len(cols))
    idx = np.rint(np.subtract.outer(2 * points, cols) - c_start).astype(np.intp)
    valid = (idx >= 0) & (idx < c.size)
    M = np.zeros(idx.shape, dtype=dtype)
    M[valid] = 2.0 * c[idx[valid]]
    return M


#: Relative threshold of ``_unit_eigenspace``: each singular value of M - I
#: at most EIGENVALUE_BUCKET * max(1, sigma_max) adds one dimension to the
#: eigenvalue-1 eigenspace of M.
EIGENVALUE_BUCKET = 1e-8


def _unit_count(sigma: np.ndarray, tol: float) -> int:
    """Number of singular values of M - I at most ``tol * max(1, sigma_max)``."""
    return int(np.count_nonzero(sigma <= tol * max(1.0, float(sigma.max()))))


def _unit_eigenspace(M: np.ndarray, tol: float) -> tuple[int, np.ndarray | None]:
    """Dimension of the eigenvalue-1 eigenspace of M (``_unit_count``) and, when
    it is 1, the last right singular vector, a unit vector spanning it (else None)."""
    _, sigma, vh = np.linalg.svd(M - np.eye(M.shape[0]))
    nullity = _unit_count(sigma, tol)
    return nullity, (vh[-1].conj() if nullity == 1 else None)


def _reflection_blocks(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a real R with R[-n, -m] = R[n, m], folded from
    rows n >= 0: E[n, m] = R[n, m] + R[n, -m] on modes 0..K, row and column 0
    scaled by 1/sqrt 2, and O[n, m] = R[n, m] - R[n, -m] on modes 1..K."""
    K = R.shape[0] // 2
    right, left = R[K:, K:], R[K:, K::-1]
    even = right + left
    even[0] *= np.sqrt(0.5)
    even[:, 0] *= np.sqrt(0.5)
    return even, (right - left)[1:, 1:]


def lawton_test(f: FilterSpec, tol: float = EIGENVALUE_BUCKET) -> OnbVerdict:
    """Decide whether the filter generates an orthonormal translate system.

    Precondition: ``f`` passes ``qmf_check`` (raises PreconditionError
    otherwise, since the verdict is meaningless for non-orthogonal filters).
    The verdict is ONB exactly when the eigenvalue-1 multiplicity, the number
    of singular values of R - I at most ``tol * max(1, sigma_max)``, is 1;
    for a real filter, those of both reflection blocks under one threshold.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterError("tol must be a positive finite float")
    if not qmf_check(f).passed:
        raise PreconditionError(
            f"filter {f.name!r} fails qmf_check; lawton_test requires an "
            "orthogonality-satisfying filter"
        )
    R = build_transfer_matrix(f).matrix
    blocks = _reflection_blocks(R) if np.isrealobj(R) else (R,)
    sigma = [np.linalg.svd(B - np.eye(B.shape[0]), compute_uv=False) for B in blocks]
    multiplicity = _unit_count(np.concatenate(sigma), tol)
    eigenvalues = np.sort_complex(np.concatenate([np.linalg.eigvals(B) for B in blocks]))
    bucket = int(np.count_nonzero(np.abs(eigenvalues - 1.0) <= tol))
    return OnbVerdict(
        verdict="ONB" if multiplicity == 1 else "NOT_ONB",
        multiplicity=multiplicity,
        bucket_multiplicity=bucket,
        eigenvalues=eigenvalues,
        tolerance=float(tol),
    )


def format_verdict(v: OnbVerdict) -> str:
    """Machine-readable key-value lines for CLI and logs."""
    eigs = ";".join(
        f"{ev.real:.12g}" if abs(ev.imag) < 1e-12 else f"{ev.real:.12g}{ev.imag:+.12g}i"
        for ev in v.eigenvalues
    )
    return f"verdict={v.verdict}\nmult1={v.multiplicity}\neigs={eigs}"
