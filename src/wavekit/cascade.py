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
dimension instead of silently picking a vector.

Each refinement doubles the grid by evaluating the identity at the new
midpoints, so computed values satisfy it at every level. One step does this
on bare arrays (values, level, x0): ``refine`` checks its input's grid and
takes it once, and the cascade takes it J times from the integer values and
wraps only the result. A level-J midpoint reads phi only at odd level-J
samples, which fill their rows exactly, and a level-J wavelet sample reads
it only at even ones, which are phi at level J - 1. Cut into rows of 2^(J-1)
samples, one row per unit of x, those samples give every row of outputs,
half a unit apart, as one product with a small banded two-scale matrix
M[b, a] = 2 c_{b-a} of the taps c (``_two_scale_eval``; the matrix comes
from the transfer operator's builder and is cached on the filter). At J = 0
the same rule reads the integer samples. The samples of a level-J grid are
charged against the byte budget once, before anything is allocated.
"""
from __future__ import annotations

__all__ = [
    "DyadicFunction",
    "integer_values",
    "refine",
    "refinement_matrix",
    "scaling_function",
    "wavelet_function",
]

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    NumericError,
    ParameterError,
    PreconditionError,
    SizeError,
    _charge,
)
from .filters import FilterSpec, _value_eq, derive_highpass, qmf_check
from .transfer import EIGENVALUE_BUCKET, _two_scale_matrix, _unit_eigenspace

#: Samples of the grid's dtype charged per sample of the (L-1) 2^J + 1 grid
#: of ``scaling_function`` and ``wavelet_function`` (tracemalloc peaks at
#: J >= 12: 2.25 grids for phi, 2.05 to 2.34 for psi, and 3.0 for the haar
#: psi, whose zero-padded last row of phi is a third of its input).
_CASCADE_CHARGE = 4


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

    __eq__ = _value_eq

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
    out = np.zeros(f.length, dtype=v.dtype)
    out[first : first + v.size] = v / total + 0.0  # clear negative zeros
    return out


def _two_scale_eval(
    c: FilterSpec, values: np.ndarray, level: int, x0: float, x_first: float, count: int, out_level: int
) -> np.ndarray:
    """out[m] = 2 sum_t c_t phi(2 x_m - c.start - t) at x_m = x_first + m/2^out_level,
    phi(x0 + k/2^level) = values[k] and zero off that grid, for out_level =
    level + 1, or out_level 0 on a level-0 phi (every other output of level 1).

    Cut into rows of R = 2^level samples, phi's row a starts at x0 + a and
    output row b at x_first + b/2. Sample r of output row b reads sample r of
    the phi rows that start at 2 (x_first + b/2) - c.start - t, so the output
    rows are M @ (phi's rows), with M the two-scale matrix of c on those row
    starts, cached on c. 2 x_first - c.start - x0 must be an integer.
    """
    stride = 1 << (level + 1 - out_level)
    count = stride * (count - 1) + 1
    per_row = 1 << level
    n_in = -(-values.size // per_row)
    n_out = -(-count // per_row)
    key = ("cascade", round(2 * x_first - c.start - x0), n_out, n_in)
    M = c._tap_cache.get(key)
    if M is None:
        M = _two_scale_matrix(c.h, c.start, x_first + np.arange(n_out) / 2, x0 + np.arange(n_in))
        M.setflags(write=False)
        c._tap_cache[key] = M
    pad = n_in * per_row - values.size  # 0 in a refinement step; a wavelet may need zeros
    rows = np.concatenate((values, np.zeros(pad, values.dtype))) if pad else np.ascontiguousarray(values)
    return (M @ rows.reshape(n_in, per_row)).reshape(-1)[:count:stride]


def _refine_step(f: FilterSpec, values: np.ndarray, level: int, x0: float) -> np.ndarray:
    """phi's level + 1 samples from its level samples ``values`` from x0: each
    one kept, the midpoints filled from the odd ones (all of them at level 0)."""
    out = np.empty(2 * values.size - 1, dtype=np.promote_types(values.dtype, f.h.dtype))
    out[0::2] = values
    step = 2.0 ** -level
    src = (values, 0, x0) if level == 0 else (values[1::2], level - 1, x0 + step)
    out[1::2] = _two_scale_eval(f, *src, x0 + step / 2, values.size - 1, level)
    return out


def _level_grid(f: FilterSpec, J: int, kind: str = "phi") -> tuple[float, int]:
    """x0 and sample count of the level-J grid of phi, on [start, start + L - 1],
    or of psi, on [(2 - L)/2, L/2]: (L - 1) 2^J + 1 samples each."""
    x0 = f.start if kind == "phi" else (2.0 - f.length) / 2.0
    return x0, (f.length - 1) * (1 << J) + 1


def refine(phi: DyadicFunction, f: FilterSpec) -> DyadicFunction:
    """One dyadic refinement: keep existing samples, fill midpoints through
    the two-scale identity. ``phi`` must be a scaling function (``kind``
    "phi", the default of a user-built ``DyadicFunction``) starting at the
    filter's ``start``; a psi obeys another identity and is refused."""
    if phi.kind != "phi":
        raise ParameterError(
            f"refine fills midpoints of a scaling function, got kind {phi.kind!r}"
        )
    J = phi.level
    x0, expected = _level_grid(f, J)
    if phi.x0 != x0:
        raise ParameterError(
            f"refine needs phi on the filter's lattice, starting at {x0}; "
            f"got x0 = {phi.x0!r}"
        )
    if phi.values.size != expected:
        raise SizeError(
            f"level-{J} grid for this filter needs {expected} samples, got "
            f"{phi.values.size}"
        )
    return DyadicFunction(phi.x0, J + 1, _refine_step(f, phi.values, J, phi.x0))


def _checked_grid(f: FilterSpec, resolution) -> int:
    """The resolution as an int, after refusing a bad one and a grid of
    (L-1) 2^resolution + 1 samples over the byte budget."""
    if not isinstance(resolution, (int, np.integer)) or resolution < 0:
        raise ParameterError(
            f"resolution must be a nonnegative integer, got {resolution!r}"
        )
    resolution = int(resolution)
    samples = (f.length - 1) * 2.0 ** min(resolution, 1023) + 1  # a float, inf past 2^1023
    need = _CASCADE_CHARGE * np.result_type(f.h.dtype, np.float64).itemsize * samples
    _charge(f"cascade at resolution {resolution}", need)
    return resolution


def _refined(f: FilterSpec, resolution: int, experimental: bool) -> DyadicFunction:
    """phi at level ``resolution``: the integer values refined on bare arrays."""
    x0, values = float(f.start), integer_values(f, experimental)
    for level in range(resolution):
        values = _refine_step(f, values, level, x0)
    return DyadicFunction(x0, resolution, values)


def scaling_function(f: FilterSpec, resolution: int, experimental: bool = False) -> DyadicFunction:
    """Scaling function sampled at spacing 2^-resolution over its support."""
    return _refined(f, _checked_grid(f, resolution), experimental)


def wavelet_function(f: FilterSpec, resolution: int, experimental: bool = False) -> DyadicFunction:
    """Wavelet sampled at spacing 2^-resolution over its support.

    Uses psi(x) = 2 * sum_i g_i phi(2x - i) with the derived high-pass g;
    the support is [(2-L)/2, L/2], the same width as the scaling function.
    At resolution J it reads phi's even level-J samples, so phi is refined to
    J - 1 only.
    """
    J = _checked_grid(f, resolution)
    phi = _refined(f, max(J - 1, 0), experimental)
    x0, count = _level_grid(f, J, "psi")
    values = _two_scale_eval(derive_highpass(f), phi.values, phi.level, phi.x0, x0, count, J)
    return DyadicFunction(x0=x0, level=J, values=values, kind="psi")
