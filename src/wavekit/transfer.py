"""Orthonormality testing through the filter's transfer operator.

The squared modulus of the low-pass symbol acts on trigonometric polynomials
by summing over the two square roots of each circle point:

    (R p)(z) = sum_{u^2 = z} |m(u)|^2 p(u).

On coefficient sequences this is the matrix R[n, m] = 2 w_{2n-m} built from
the filter autocorrelation w_k = sum_i conj(h_i) h_{i+k}, acting on the mode
window |n| <= L-1 (which R leaves invariant). For a filter that passes
``qmf_check``, the translates of its scaling function form an orthonormal
system exactly when the eigenvalue 1 of R is simple; ``lawton_test`` decides
that by the rank of R - I, counted from its singular values, cross-checked
against direct eigenvalue bucketing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .filters import FilterSpec, qmf_check


@dataclass(frozen=True)
class Autocorrelation:
    """Filter autocorrelation on lags -(L-1) .. L-1.

    ``w[i]`` holds lag ``min_lag + i``; lags are Hermitian, w_{-k} = conj(w_k),
    and w_0 = sum |h_i|^2 (1/2 for a filter passing ``qmf_check``).
    """

    w: np.ndarray
    min_lag: int

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

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.half_order, self.half_order + 1)


@dataclass(frozen=True)
class OnbVerdict:
    """Outcome of ``lawton_test``.

    ``multiplicity`` is the rank-based dimension of the eigenvalue-1
    eigenspace (the deciding route); ``bucket_multiplicity`` counts
    eigenvalues within tolerance of 1 as a cross-check. ``eigenvalues`` are
    sorted for deterministic reporting.
    """

    verdict: str
    multiplicity: int
    bucket_multiplicity: int
    eigenvalues: np.ndarray
    tolerance: float

    @property
    def is_onb(self) -> bool:
        return self.verdict == "ONB"


def autocorrelation(f: FilterSpec) -> Autocorrelation:
    """w_k = sum_i conj(h_i) h_{i+k} for |k| <= L-1 (start-independent)."""
    h = f.h
    # numpy cross-correlation: correlate(a, v, "full")[N-1+k] = sum a_{n+k} conj(v_n)
    w = np.correlate(h, h, mode="full")
    if np.isrealobj(h):
        w = w.real if np.iscomplexobj(w) else w
    return Autocorrelation(w=w, min_lag=-(h.size - 1))


def build_transfer_matrix(f: FilterSpec) -> TransferMatrix:
    """Materialize R on the invariant mode window."""
    K = f.length - 1
    ac = autocorrelation(f)
    modes = np.arange(-K, K + 1)
    lag = 2 * modes[:, None] - modes[None, :]
    idx = lag - ac.min_lag
    valid = (idx >= 0) & (idx < ac.w.size)
    R = np.zeros((modes.size, modes.size), dtype=ac.w.dtype)
    R[valid] = 2.0 * ac.w[idx[valid]]
    return TransferMatrix(matrix=R, half_order=K)


def _rank_by_svd(a: np.ndarray, tol: float) -> int:
    sigma = np.linalg.svd(a, compute_uv=False)
    threshold = tol * max(1.0, float(sigma.max()))
    return int(np.count_nonzero(sigma > threshold))


def lawton_test(f: FilterSpec, tol: float = 1e-8) -> OnbVerdict:
    """Decide whether the filter generates an orthonormal translate system.

    Precondition: ``f`` passes ``qmf_check`` (raises PreconditionError
    otherwise, since the verdict is meaningless for non-orthogonal filters).
    The verdict is ONB exactly when the eigenvalue-1 multiplicity, computed
    as (2L-1) - rank(R - I) from the singular values of R - I above
    ``tol * max(1, sigma_max)``, is 1.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterError("tol must be a positive finite float")
    if not qmf_check(f).passed:
        raise PreconditionError(
            f"filter {f.name!r} fails qmf_check; lawton_test requires an "
            "orthogonality-satisfying filter"
        )
    R = build_transfer_matrix(f).matrix
    size = R.shape[0]
    rank = _rank_by_svd(R - np.eye(size), tol)
    multiplicity = size - rank
    eigenvalues = np.sort_complex(np.linalg.eigvals(R))
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
    return "\n".join(
        [
            f"verdict={v.verdict}",
            f"mult1={v.multiplicity}",
            f"eigs={eigs}",
        ]
    )
