"""Scaling and wavelet functions by cascade refinement.

A filter with taps on ``start .. start+L-1`` determines a scaling function
supported on [start, start+L-1] through the two-scale identity

    phi(x) = 2 * sum_i h_i phi(2x - i).

Values at the integers come from the eigenvalue-1 eigenvector of the lattice
matrix T[i, j] = 2 h_{2i-j}; the lattice is the half-open integer support
{start, ..., start+L-2} with the right endpoint fixed at zero, so the haar
filter yields the half-open box phi = 1 on [0, 1). When the eigenvalue-1
eigenspace is not one dimensional (stretched_haar, whose true solution is
discontinuous) a DegeneracyError reports the dimension instead of silently
picking a vector. Each refinement doubles the grid by evaluating the identity
at the new midpoints, so computed values satisfy it exactly at every level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    NumericError,
    ParameterError,
    PreconditionError,
    SizeError,
)
from .filters import FilterSpec, derive_highpass, qmf_check

#: |eigenvalue - 1| bucket width used to identify the distinguished eigenspace.
EIGENVALUE_BUCKET = 1e-8


@dataclass(frozen=True)
class DyadicFunction:
    """Samples of a compactly supported function on a dyadic grid.

    ``values[k]`` is the value at ``x0 + k / 2**level``; the grid spans the
    closed support, so a width-W support at level J carries W * 2^J + 1
    samples, with the rightmost one equal to zero by the half-open endpoint
    convention.
    """

    x0: float
    level: int
    values: np.ndarray
    kind: str = "phi"

    def __post_init__(self):
        object.__setattr__(self, "values", np.atleast_1d(np.asarray(self.values)))
        if self.level < 0:
            raise ParameterError("dyadic level must be nonnegative")

    @property
    def step(self) -> float:
        return 2.0 ** -self.level

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.step * np.arange(self.values.size)

    def riemann_integral(self) -> complex | float:
        """Left-rule Riemann sum of the samples (exact-in-the-limit for the
        cascade outputs, whose right endpoint vanishes)."""
        total = self.values.sum() * self.step
        return float(total.real) if np.isrealobj(self.values) else complex(total)


def _require_usable(f: FilterSpec, experimental: bool):
    if f.length < 2:
        raise SizeError("cascade refinement needs a filter with at least two taps")
    if not experimental and not qmf_check(f, tol=1e-8).passed:
        raise PreconditionError(
            f"filter {f.name!r} fails the orthogonality check; pass "
            "experimental=True to cascade it anyway"
        )


def refinement_matrix(f: FilterSpec) -> np.ndarray:
    """Lattice matrix T[i, j] = 2 h_{2i - j} over the half-open integer
    support {start, ..., start + L - 2}."""
    if f.length < 2:
        raise SizeError("refinement matrix needs a filter with at least two taps")
    pts = np.arange(f.start, f.start + f.length - 1)
    lag = 2 * pts[:, None] - pts[None, :] - f.start
    valid = (lag >= 0) & (lag < f.length)
    T = np.zeros((pts.size, pts.size), dtype=np.result_type(f.h.dtype, np.float64))
    T[valid] = 2.0 * f.h[lag[valid]]
    return T


def integer_values(f: FilterSpec, experimental: bool = False) -> np.ndarray:
    """Values of the scaling function at the L integer support points.

    Solves the lattice eigenproblem for eigenvalue 1, normalizes the
    eigenvector so the values sum to 1, and appends the zero right endpoint.
    Raises DegeneracyError when the eigenvalue-1 eigenspace dimension is not
    1, and NumericError when the eigenvector cannot be normalized.
    """
    _require_usable(f, experimental)
    T = refinement_matrix(f)
    eigenvalues, vectors = np.linalg.eig(T)
    hits = np.where(np.abs(eigenvalues - 1.0) <= EIGENVALUE_BUCKET)[0]
    if hits.size != 1:
        raise DegeneracyError(hits.size)
    v = vectors[:, hits[0]]
    total = v.sum()
    if abs(total) < 1e-12 * np.abs(v).max():
        raise NumericError(
            "eigenvalue-1 eigenvector has (numerically) zero sum and cannot "
            "be normalized to integral one"
        )
    v = v / total
    if np.isrealobj(f.h):
        v = np.real_if_close(v, tol=1e6)
        if np.iscomplexobj(v):
            raise NumericError("eigenvector for a real filter came out complex")
        v = v + 0.0  # clear negative zeros
    return np.concatenate([v, np.zeros(1, dtype=v.dtype)])


def refine(phi: DyadicFunction, f: FilterSpec) -> DyadicFunction:
    """One dyadic refinement: keep existing samples, fill midpoints through
    the two-scale identity."""
    L = f.length
    J = phi.level
    expected = (L - 1) * (1 << J) + 1
    if phi.values.size != expected:
        raise SizeError(
            f"level-{J} grid for this filter needs {expected} samples, got "
            f"{phi.values.size}"
        )
    n_new = (L - 1) * (1 << (J + 1)) + 1
    out = np.zeros(n_new, dtype=np.result_type(phi.values.dtype, f.h.dtype))
    out[0::2] = phi.values
    # Midpoint x = x0 + p/2^{J+1} (p odd) needs phi at 2x - i, which sits at
    # level-J index p - t*2^J for tap offset t.
    p = np.arange(1, n_new, 2)
    mids = np.zeros(p.size, dtype=out.dtype)
    for t in range(L):
        q = p - t * (1 << J)
        ok = (q >= 0) & (q < expected)
        if np.any(ok):
            mids[ok] += 2.0 * f.h[t] * phi.values[q[ok]]
    out[1::2] = mids
    return DyadicFunction(x0=phi.x0, level=J + 1, values=out, kind=phi.kind)


def scaling_function(f: FilterSpec, resolution: int, experimental: bool = False) -> DyadicFunction:
    """Scaling function sampled at spacing 2^-resolution over its support."""
    if not isinstance(resolution, (int, np.integer)) or resolution < 0:
        raise ParameterError(
            f"resolution must be a nonnegative integer, got {resolution!r}"
        )
    phi = DyadicFunction(
        x0=float(f.start), level=0, values=integer_values(f, experimental), kind="phi"
    )
    for _ in range(resolution):
        phi = refine(phi, f)
    return phi


def wavelet_function(f: FilterSpec, resolution: int, experimental: bool = False) -> DyadicFunction:
    """Wavelet sampled at spacing 2^-resolution over its support.

    Uses psi(x) = 2 * sum_i g_i phi(2x - i) with the derived high-pass g;
    the support is [(2-L)/2, L/2], the same width as the scaling function.
    """
    if not isinstance(resolution, (int, np.integer)) or resolution < 0:
        raise ParameterError(
            f"resolution must be a nonnegative integer, got {resolution!r}"
        )
    phi = scaling_function(f, resolution, experimental)
    g = derive_highpass(f)
    L = f.length
    J = resolution
    x0 = (2.0 - L) / 2.0
    n_vals = (L - 1) * (1 << J) + 1
    values = np.zeros(n_vals, dtype=np.result_type(phi.values.dtype, g.h.dtype))
    m = np.arange(n_vals)
    # psi sample m sits at x = x0 + m/2^J; the argument 2x - i lands on phi's
    # level-J grid at index (2*x0 - i - start)*2^J + 2m.
    for t in range(L):
        i = g.start + t
        base = round((2.0 * x0 - i - f.start) * (1 << J))
        q = base + 2 * m
        ok = (q >= 0) & (q < phi.values.size)
        if np.any(ok):
            values[ok] += 2.0 * g.h[t] * phi.values[q[ok]]
    return DyadicFunction(x0=x0, level=J, values=values, kind="psi")
