"""Scaling and wavelet functions by cascade refinement.

A filter with taps on ``start .. start+L-1`` determines a scaling function
supported on [start, start+L-1] through the two-scale identity

    phi(x) = 2 * sum_i h_i phi(2x - i).

Values at the integers span the eigenvalue-1 eigenspace of the lattice matrix
T[i, j] = 2 h_{2i-j}, found like the transfer operator's in
:mod:`wavekit.transfer` (one two-scale matrix builder, one SVD rule); the
lattice is the half-open integer support {start, ..., start+L-2} with the
right endpoint fixed at zero, so the haar filter yields the half-open box
phi = 1 on [0, 1). A degenerate lattice is retried without its zero end
taps; when the eigenspace is still not one dimensional (stretched_haar,
whose true solution is discontinuous) a DegeneracyError reports the
dimension instead of silently picking a vector. Each refinement doubles the
grid by evaluating the identity at the new midpoints (``_two_scale_eval``,
which also turns phi into the wavelet), so computed values satisfy it at
every level.
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
from .transfer import EIGENVALUE_BUCKET, _two_scale_matrix, _unit_eigenspace


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


def refinement_matrix(f: FilterSpec) -> np.ndarray:
    """Lattice matrix T[i, j] = 2 h_{2i - j} over the half-open integer
    support {start, ..., start + L - 2}."""
    if f.length < 2:
        raise SizeError("cascade refinement needs a filter with at least two taps")
    return _two_scale_matrix(f.h, f.start, np.arange(f.start, f.start + f.length - 1))


def integer_values(f: FilterSpec, experimental: bool = False) -> np.ndarray:
    """Values of the scaling function at the L integer support points.

    Takes the eigenvalue-1 eigenvector of the lattice matrix (retried without
    end taps below 1e-6 max |h| if degenerate), normalizes it to sum 1, and
    zero-fills the other points. Raises DegeneracyError when that eigenspace
    (singular values of T - I at most EIGENVALUE_BUCKET * max(1, sigma_max))
    is not one dimensional, and NumericError when the eigenvector sums to zero.
    """
    T = refinement_matrix(f)
    if not experimental and not qmf_check(f, tol=1e-8).passed:
        raise PreconditionError(
            f"filter {f.name!r} fails the orthogonality check; pass "
            "experimental=True to cascade it anyway"
        )
    dimension, v = _unit_eigenspace(T, EIGENVALUE_BUCKET)
    first = 0
    if dimension != 1:
        # Haar padded to (1/2, 1/2, 0, 0) jumps at an interior lattice point;
        # without the zero taps, or ones like it below the rule's resolution
        # (lattice angles near multiples of pi/2 leave ~1e-16), it is the box.
        mag = np.abs(f.h)
        first, last = np.flatnonzero(mag > 1e-6 * mag.max())[[0, -1]]
        points = np.arange(f.start + first, f.start + max(last, first + 1))
        T = _two_scale_matrix(f.h, f.start, points)
        dimension, v = _unit_eigenspace(T, EIGENVALUE_BUCKET)
    if dimension != 1:
        raise DegeneracyError(dimension)
    total = v.sum()
    if abs(total) < 1e-12 * np.abs(v).max():
        raise NumericError(
            "eigenvalue-1 eigenvector has (numerically) zero sum and cannot "
            "be normalized to integral one"
        )
    v = v / total + 0.0  # clear negative zeros
    return np.pad(v, (first, f.length - first - v.size))


def _two_scale_eval(
    c: np.ndarray, c_start: int, phi: DyadicFunction, x_first: float, count: int
) -> np.ndarray:
    """out[m] = 2 sum_t c_t phi(2 x_m - c_start - t) at x_m = x_first + m/2^J,
    J = phi.level: each argument is phi's grid point base + 2m - t 2^J, and
    phi reads as zero off its grid."""
    per_unit = 1 << phi.level
    base = round((2.0 * x_first - c_start - phi.x0) * per_unit)
    q0 = base + 2 * np.arange(count)
    out = np.zeros(count, dtype=np.result_type(phi.values.dtype, c.dtype))
    for t in range(c.size):
        q = q0 - t * per_unit
        ok = (q >= 0) & (q < phi.values.size)
        if np.any(ok):
            out[ok] += 2.0 * c[t] * phi.values[q[ok]]
    return out


def refine(phi: DyadicFunction, f: FilterSpec) -> DyadicFunction:
    """One dyadic refinement: keep existing samples, fill midpoints through
    the two-scale identity."""
    J = phi.level
    expected = (f.length - 1) * (1 << J) + 1
    if phi.values.size != expected:
        raise SizeError(
            f"level-{J} grid for this filter needs {expected} samples, got "
            f"{phi.values.size}"
        )
    out = np.zeros(2 * expected - 1, dtype=np.result_type(phi.values.dtype, f.h.dtype))
    out[0::2] = phi.values
    out[1::2] = _two_scale_eval(f.h, f.start, phi, phi.x0 + phi.step / 2, expected - 1)
    return DyadicFunction(x0=phi.x0, level=J + 1, values=out, kind=phi.kind)


def scaling_function(f: FilterSpec, resolution: int, experimental: bool = False) -> DyadicFunction:
    """Scaling function sampled at spacing 2^-resolution over its support."""
    if not isinstance(resolution, (int, np.integer)) or resolution < 0:
        raise ParameterError(
            f"resolution must be a nonnegative integer, got {resolution!r}"
        )
    phi = DyadicFunction(float(f.start), 0, integer_values(f, experimental))
    for _ in range(resolution):
        phi = refine(phi, f)
    return phi


def wavelet_function(f: FilterSpec, resolution: int, experimental: bool = False) -> DyadicFunction:
    """Wavelet sampled at spacing 2^-resolution over its support.

    Uses psi(x) = 2 * sum_i g_i phi(2x - i) with the derived high-pass g;
    the support is [(2-L)/2, L/2], the same width as the scaling function.
    """
    phi = scaling_function(f, resolution, experimental)
    g = derive_highpass(f)
    x0 = (2.0 - f.length) / 2.0
    values = _two_scale_eval(g.h, g.start, phi, x0, phi.values.size)
    return DyadicFunction(x0=x0, level=resolution, values=values, kind="psi")
