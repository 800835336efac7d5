"""Small shared numeric helpers: coercion, Hermiticity, ranks and subspaces."""

from __future__ import annotations

import math
import numbers
import os
import warnings

import numpy as np

from .errors import InputError, StructuralError


def _default_tol() -> float:
    """The baseline tolerance, overridable through QGRAPH_TOL.

    The variable is read once at import; an unusable value falls back to
    1e-10 with a warning instead of breaking every import site.
    """
    raw = os.environ.get("QGRAPH_TOL")
    if raw is None:
        return 1.0e-10
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        warnings.warn(f"ignoring invalid QGRAPH_TOL={raw!r}; using 1e-10")
        return 1.0e-10
    return value


#: Default tolerance used across validation and rank decisions.
DEFAULT_TOL = _default_tol()


def as_complex_matrix(value, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce ``value`` to a 2-D complex ndarray, checking shape and finiteness."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2:
        raise StructuralError(f"{name} must be a 2-D matrix, got ndim={mat.ndim}")
    if shape is not None and mat.shape != shape:
        raise StructuralError(f"{name} must have shape {shape}, got {mat.shape}")
    if mat.size and not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise InputError(f"{name} contains non-finite entries")
    return mat


def hermiticity_violation(mat: np.ndarray, tol: float) -> tuple[float, float] | None:
    """None when ``mat`` is Hermitian within ``tol``: ||mat - mat*|| <= tol
    max(1, ||mat||) in the spectral norm.  Otherwise that defect and scale.

    Where the largest real or imaginary part of ``mat`` is 1/2 or more, both
    norms are taken of ``mat`` scaled down by the power of two that brings
    that part into [1/2, 1): an exact scaling, under which no norm
    overflows.  A non-finite entry, such as a product that overflowed,
    fails the check, with defect and scale inf."""
    if mat.size == 0:
        return None
    if not np.isfinite(mat).all():
        return math.inf, math.inf
    largest = max(np.abs(mat.real).max(), np.abs(mat.imag).max())
    unit = 2.0 ** -max(0, math.frexp(largest)[1])
    scaled = mat * unit
    defect = float(np.linalg.norm(scaled - scaled.conj().T, 2))
    norm = float(np.linalg.norm(scaled, 2))
    if defect <= tol * max(unit, norm):
        return None
    return defect / unit, max(1.0, norm / unit)


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (M + M*)/2."""
    return (mat + mat.conj().T) / 2.0


def numerical_rank(mat: np.ndarray) -> int:
    """Number of singular values above ``DEFAULT_TOL`` times the largest one."""
    if mat.size == 0:
        return 0
    sigma = np.linalg.svd(mat, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > DEFAULT_TOL * sigma[0]))


def row_space_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of ``mat``."""
    # Rows conjugated so the basis spans the same space the rows do under
    # the standard inner product.
    u, sigma, _ = np.linalg.svd(mat.conj().T, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return u[:, :0]
    rank = int(np.count_nonzero(sigma > DEFAULT_TOL * sigma[0]))
    return u[:, :rank]


def subspace_distance(basis1: np.ndarray, basis2: np.ndarray) -> float:
    """Distance between equi-dimensional subspaces with orthonormal bases.

    Returns the spectral norm of the difference of orthogonal projectors.
    For equal dimensions this equals the largest principal-angle sine,
    computed as the norm of the residual (I - P1) basis2 — a form that does
    not amplify rounding the way sqrt(1 - sigma_min^2) would.  Subspaces of
    different dimension are maximally distant (returns 1.0).
    """
    if basis1.shape[1] != basis2.shape[1]:
        return 1.0
    if basis1.shape[1] == 0:
        return 0.0
    residual = basis2 - basis1 @ (basis1.conj().T @ basis2)
    return float(np.linalg.norm(residual, 2))


def require_finite_real(value: float, name: str) -> float:
    """Coerce to float, rejecting NaN/inf and complex residue."""
    val = complex(value)
    if abs(val.imag) > 0:
        raise InputError(f"{name} must be real, got {value!r}")
    out = float(val.real)
    if not math.isfinite(out):
        raise InputError(f"{name} must be finite, got {value!r}")
    return out


def require_finite_complex(value: complex, name: str) -> complex:
    """Coerce to complex, rejecting NaN/inf in either part."""
    out = complex(value)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise InputError(f"{name} must be finite, got {out!r}")
    return out


def require_positive_real(value: float, name: str) -> float:
    """Coerce to a finite real float > 0."""
    out = require_finite_real(value, name)
    if not out > 0.0:
        raise InputError(f"{name} must be positive, got {out}")
    return out


def require_nonnegative_real(value: float, name: str) -> float:
    """Coerce to a finite real float >= 0."""
    out = require_finite_real(value, name)
    if not out >= 0.0:
        raise InputError(f"{name} must be nonnegative, got {out}")
    return out


def require_half_length(value: float, name: str = "d") -> float:
    """Coerce a half-length to a finite real float in (0, 1]."""
    d = require_finite_real(value, name)
    if not 0.0 < d <= 1.0:
        raise InputError(f"half-length {name} must lie in (0, 1], got {d}")
    return d


def require_positive_int(value, name: str) -> int:
    """Coerce an integral real >= 1 to int, rejecting bools, non-numbers,
    NaN/inf and fractional values.  Integers of any size are accepted (a
    float conversion of one beyond 1e308 would overflow)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or (
            not isinstance(value, numbers.Integral)
            and (not math.isfinite(value) or int(value) != value)
        )
        or value < 1
    ):
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
