"""Exception hierarchy for qgraph.

All anticipated failure modes raise a subclass of :class:`QGraphError`, so
callers (in particular the CLI) can distinguish bad input from genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "QGraphError",
    "InputError",
    "StructuralError",
    "NonNormalizableError",
    "SingularDError",
    "DegenerateArgumentError",
    "ConditioningError",
    "ResonantKError",
    "NearSingularZError",
    "ScanRangeError",
]


class QGraphError(Exception):
    """Base class for all qgraph-specific errors."""


class InputError(QGraphError):
    """Invalid input values: non-finite entries, out-of-range parameters."""


class StructuralError(QGraphError):
    """Inconsistent structure: dimension mismatches, broken incidence."""


class NonNormalizableError(QGraphError):
    """No admissible edge renumbering brings the coupling to ST form.

    For a valid self-adjoint coupling such a renumbering always exists, so
    this error signals either a violated admissibility precondition or an
    internal consistency failure.
    """


class SingularDError(QGraphError):
    """A half-length d at which an inner-edge strength is undefined.

    The defining relation for the strength on the inner edge joining the
    pair ``(j, k)`` degenerates because the bracket argument cancels exactly
    at this d.  Callers should skip this d rather than perturb it.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class DegenerateArgumentError(QGraphError):
    """The magnetic-phase argument is zero, so its phase is undefined."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class ConditioningError(QGraphError):
    """A linear system that should be regular is numerically singular, or
    a sum cancels below its rounding error."""


class ResonantKError(QGraphError):
    """The scattering system is singular at this momentum (a bound state
    embedded in the continuum): the 1-norm condition of the vertex-reduced
    matrix exceeds 1e12."""

    def __init__(self, message: str, k: float | None = None):
        super().__init__(message)
        self.k = k


class NearSingularZError(QGraphError):
    """The spectral parameter z lies too close to an eigenvalue: the 1-norm
    condition of the vertex-reduced matrix exceeds 1e12."""


class ScanRangeError(QGraphError):
    """No finite eigenvalue bracket holds the requested count; ``window``
    is the (lo, hi) range that was scanned."""

    def __init__(self, message: str, window: tuple[float, float]):
        super().__init__(message)
        self.window = window
