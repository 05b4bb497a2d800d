"""Exception hierarchy for the qcomb package, and the finiteness check of its specs."""

import dataclasses
import math


class QcombError(Exception):
    """Base class for all qcomb errors."""


class ValidationError(QcombError):
    """A spec or parameter violates its invariants."""


def require_finite(spec) -> None:
    """Reject a spec dataclass holding NaN or an infinity in a float field."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{type(spec).__name__}.{f.name} must be finite, got {value!r}")


class DeltaPumpError(QcombError):
    """A monochromatic (delta) pump was point-evaluated.

    Delta pumps are never sampled; use the 1D reduction
    (``biphoton.assemble_jsa_mono``) instead.
    """


class ResolutionError(QcombError):
    """A grid or delay axis is too coarse to resolve a feature."""


class DegenerateStateError(QcombError):
    """An assembled state has zero norm."""


class GridSymmetryError(QcombError):
    """A 1D grid is not symmetric about w- = 0 with an odd point count."""


class OverFilteredError(QcombError):
    """A spectral filter removed essentially all of the state."""


class UndefinedVisibilityError(QcombError):
    """Visibility is undefined (zero baseline)."""


class NonConvergenceError(QcombError):
    """The best optimizer start did not converge. Carries its result."""

    def __init__(self, message, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class ConfigError(QcombError):
    """A configuration document is malformed or inconsistent."""


class DataFormatError(QcombError):
    """An input data file has a malformed row."""
