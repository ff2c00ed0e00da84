"""Exception types shared across wavekit modules.

Input-shaped problems (bad values, sizes, unknown names, unparseable files)
derive from ValueError so they stay catchable the usual way; failures that
arise mid-computation (degenerate eigenproblems, inadmissible wavelets,
under-resolved grids) derive from ArithmeticError. The CLI maps the two
families to distinct exit statuses.
"""
from __future__ import annotations

__all__ = [
    "AdmissibilityError",
    "CatalogError",
    "DegeneracyError",
    "DomainError",
    "FormatError",
    "LevelError",
    "NumericError",
    "ParameterError",
    "PreconditionError",
    "ResolutionError",
    "ShapeError",
    "SizeError",
    "WavekitError",
]

#: Most bytes one wavekit call may allocate: each gate charges its measured
#: peak against it, through ``_charge``, before allocating anything.
_BYTE_BUDGET = 1 << 30


class WavekitError(Exception):
    """Base class for every error raised by wavekit."""


class CatalogError(WavekitError, LookupError):
    """A requested name is not in the relevant catalog."""


class FormatError(WavekitError, ValueError):
    """A file or string does not follow the expected format."""


class DomainError(WavekitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(WavekitError, ValueError):
    """A signal or image is too short, odd-length, or otherwise missized."""


def _charge(what: str, need) -> None:
    """Raise SizeError naming ``what`` when ``need`` bytes pass ``_BYTE_BUDGET``."""
    if need > _BYTE_BUDGET:
        need = need if need < 1e308 else float("inf")  # no float holds more
        raise SizeError(f"{what} needs about {need / 2**20:.4g} MiB, over the "
                        f"{_BYTE_BUDGET / 2**20:.4g} MiB budget")


class LevelError(WavekitError, ValueError):
    """A requested pyramid depth is not admissible for the given data."""


class ShapeError(WavekitError, ValueError):
    """Pyramid pieces have mutually inconsistent shapes."""


class ParameterError(WavekitError, ValueError):
    """A parameter value is syntactically fine but semantically invalid."""


class PreconditionError(WavekitError, ValueError):
    """An operation's documented precondition does not hold."""


class NumericError(WavekitError, ArithmeticError):
    """A computation failed for numerical reasons."""


class DegeneracyError(NumericError):
    """The eigenvalue-1 eigenspace of a refinement problem is not one dimensional.

    Attributes:
        dimension: Computed dimension of the offending eigenspace.
    """

    def __init__(self, dimension: int, message: str | None = None):
        self.dimension = int(dimension)
        if message is None:
            message = (
                "refinement eigenproblem is degenerate: eigenvalue-1 "
                f"eigenspace has dimension {self.dimension}, expected 1"
            )
        super().__init__(message)


class AdmissibilityError(NumericError):
    """The analyzing wavelet fails the admissibility requirements."""


class ResolutionError(NumericError):
    """A requested scale is too small for the sampling step in use."""
