"""Finite low-pass/high-pass filter pairs and their orthogonality checks.

A filter is a finitely supported coefficient sequence ``h`` starting at an
explicit integer index. The builtin catalog normalizes coefficients so they
sum to 1, which puts the low-pass frequency symbol at m(1) = 1 and makes the
downsampling operators built in :mod:`wavekit.subband` isometries once the
lag-orthogonality conditions

    sum_i conj(h_i) h_{i+2k} = 1/2 * delta_{k,0}

hold. ``qmf_check`` measures exactly those residuals.

The high-pass companion g_k = (-1)^k conj(h_{1-k}) is another finite filter,
so ``derive_highpass`` returns it as a ``FilterSpec`` (``normalized=False``,
since its coefficients sum to 0 for an orthogonal pair). Each spec computes
its companion once and keeps it, so repeated filter-bank steps on one filter
share one companion. The kernel of :mod:`wavekit.subband` caches its taps on
the spec too; only that module knows their layout.
"""
from __future__ import annotations

__all__ = [
    "BUILTIN_NAMES",
    "FilterSpec",
    "QmfReport",
    "builtin_filter",
    "derive_highpass",
    "qmf_check",
    "symbol_eval",
]

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CatalogError, DomainError, ParameterError

#: |sum(h) - 1| tolerance enforced when a spec is flagged ``normalized``.
_SUM_TOLERANCE = 1e-12

#: How far |z| may sit from 1 in ``symbol_eval``.
_UNIT_CIRCLE_TOLERANCE = 1e-9

#: Largest |start| of a filter: past it the cascade's lattice is inexact in floats.
_START_LIMIT = 1 << 52


@dataclass(frozen=True)
class FilterSpec:
    """A named low-pass filter: coefficients ``h`` supported on
    ``start .. start + len(h) - 1``.

    ``normalized=True`` asserts sum(h) = 1 (checked to 1e-12 at construction);
    pass ``normalized=False`` for experimental filters with other sums.
    """

    name: str
    h: np.ndarray
    start: int = 0
    normalized: bool = True

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.h))
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("filter coefficients must be a nonempty 1-d sequence")
        if not np.issubdtype(arr.dtype, np.inexact):
            arr = arr.astype(np.float64)
        else:
            arr = arr.copy()
        if not np.all(np.isfinite(arr)):
            raise DomainError("filter coefficients must be finite")
        if not np.any(arr != 0):
            raise DomainError("filter coefficients must not be identically zero")
        arr.setflags(write=False)
        object.__setattr__(self, "h", arr)
        object.__setattr__(self, "start", int(self.start))
        if abs(self.start) > _START_LIMIT:
            raise DomainError(f"filter start {self.start} is past the 2^52 limit")
        if self.normalized and abs(arr.sum() - 1.0) > _SUM_TOLERANCE:
            raise DomainError(
                f"filter {self.name!r} is flagged normalized but sum(h) = "
                f"{arr.sum().item()!r}"
            )

    @property
    def length(self) -> int:
        return self.h.size

    @property
    def stop(self) -> int:
        """One past the last support index."""
        return self.start + self.h.size

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop)

    @cached_property
    def _highpass(self) -> FilterSpec:
        # Filled on first use by derive_highpass; not a field, so it stays out
        # of __init__, equality and repr, and dataclasses.replace recomputes it.
        gstart = 2 - self.start - self.length
        ks = np.arange(gstart, gstart + self.length)
        # h_{1-k} runs through h in reverse as k increases.
        g = np.where(ks % 2 == 0, 1.0, -1.0) * np.conj(self.h[::-1])
        return FilterSpec(f"{self.name}:highpass", g, gstart, normalized=False)

    @cached_property
    def _tap_cache(self) -> dict:
        # The filter-bank kernel's offsets and scaled taps, filled by
        # wavekit.subband._kernel_taps, which alone knows their layout, the
        # pyramid operators of wavekit.subband._pyramid_operator and the
        # cascade's two-scale row matrices (wavekit.cascade._two_scale_eval);
        # not a field, so a dataclasses.replace copy starts empty.
        return {}


@dataclass(frozen=True)
class QmfReport:
    """Residuals of the lag-orthogonality conditions.

    Attributes:
        lags: Lags k with support overlap (symmetric around 0).
        residuals: sum_i conj(h_i) h_{i+2k} - delta_{k,0}/2 per lag.
        max_residual: Largest residual magnitude.
        tolerance: Threshold the verdict was taken against.
        passed: True when max_residual <= tolerance.
    """

    lags: np.ndarray
    residuals: np.ndarray
    max_residual: float
    tolerance: float
    passed: bool


def _builtin_catalog() -> dict[str, FilterSpec]:
    s3 = np.sqrt(3.0)
    return {
        "haar": FilterSpec("haar", np.array([0.5, 0.5]), 0),
        "stretched_haar": FilterSpec(
            "stretched_haar", np.array([0.5, 0.0, 0.0, 0.5]), 0
        ),
        "db4": FilterSpec(
            "db4",
            np.array([(1 + s3) / 8, (3 + s3) / 8, (3 - s3) / 8, (1 - s3) / 8]),
            0,
        ),
    }


_BUILTINS = _builtin_catalog()

#: Names available through :func:`builtin_filter`.
BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_filter(name: str) -> FilterSpec:
    """Return a catalog filter by name.

    haar is the two-tap averaging pair, db4 the four-tap minimum-phase filter
    with h_0 > h_3, and stretched_haar the classical orthogonality
    counterexample (0.5, 0, 0, 0.5).
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        raise CatalogError(
            f"unknown filter {name!r}; builtins are {', '.join(BUILTIN_NAMES)}"
        ) from None


def derive_highpass(f: FilterSpec) -> FilterSpec:
    """High-pass companion g_k = (-1)^k conj(h_{1-k}), as a ``FilterSpec``.

    The companion is named ``"<name>:highpass"``, has ``normalized=False``
    and is supported on ``2 - start - L .. 1 - start``. It is computed once
    per spec: every call on the same spec returns the same object. Applying
    the reflection twice returns the negated input (the convention is an
    involution up to sign), which is exercised in the tests.
    """
    return f._highpass


def qmf_check(f: FilterSpec, tol: float = 1e-12) -> QmfReport:
    """Evaluate the lag-orthogonality residuals of ``f``.

    Residuals are reported for every lag k with support overlap, i.e.
    |k| <= (L-1)//2; other lags vanish structurally. They are the even lags
    of the autocorrelation w_k = sum_i conj(h_i) h_{i+k}, the one correlation
    ``transfer.autocorrelation`` also takes, less 1/2 at lag 0.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError("tol must be a nonneg finite float")
    h = f.h
    kmax = (h.size - 1) // 2
    lags = np.arange(-kmax, kmax + 1)
    # correlate(h, h, "full")[L-1+k] = w_k, so lag 2j sits at L-1+2j
    residuals = np.correlate(h, h, mode="full")[h.size - 1 - 2 * kmax : h.size + 2 * kmax : 2]
    residuals[kmax] -= 0.5
    max_residual = float(np.abs(residuals).max())
    return QmfReport(
        lags=lags,
        residuals=residuals,
        max_residual=max_residual,
        tolerance=float(tol),
        passed=max_residual <= tol,
    )


def symbol_eval(f: FilterSpec, which: str, z):
    """Evaluate the frequency symbol sum_k c_k z^k on the unit circle.

    ``which`` selects the coefficient set: "low" uses the filter itself,
    "high" its derived high-pass companion. ``z`` may be a complex scalar or
    array; every entry must satisfy ||z| - 1| <= 1e-9.
    """
    if which == "high":
        f = derive_highpass(f)
    elif which != "low":
        raise ParameterError(f"which must be 'low' or 'high', got {which!r}")
    zarr = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(np.abs(zarr) - 1.0) > _UNIT_CIRCLE_TOLERANCE):
        raise DomainError("symbol_eval is defined on the unit circle only")
    # Horner on descending powers, then shift by the starting index.
    acc = np.zeros_like(zarr)
    for coeff in f.h[::-1]:
        acc = acc * zarr + coeff
    acc = acc * zarr**f.start
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(acc)
    return acc
