"""Small shared numeric helpers: coercion, Hermiticity, ranks, subspaces, gated solves."""

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


def as_complex_matrix(value, name: str, shape: tuple[int, int]) -> np.ndarray:
    """Coerce ``value`` to a 2-D complex ndarray, checking shape and finiteness."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2:
        raise StructuralError(f"{name} must be a 2-D matrix, got ndim={mat.ndim}")
    if mat.shape != shape:
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


def _number(value, name: str) -> complex:
    """``value`` as a complex, refusing bools, strings, anything else
    complex() cannot take, and integers beyond the float range."""
    if isinstance(value, (bool, np.bool_, str)):
        raise InputError(f"{name} must be a number, got {value!r}")
    try:
        return complex(value)
    except OverflowError:
        raise InputError(f"{name} must be finite, got a number beyond the float range") from None
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a number, got {value!r}") from None


def require_finite_real(value: float, name: str) -> float:
    """Coerce a number to float, rejecting NaN/inf and complex residue."""
    if type(value) is float and math.isfinite(value):
        return value
    val = _number(value, name)
    if abs(val.imag) > 0:
        raise InputError(f"{name} must be real, got {value!r}")
    if not math.isfinite(val.real):
        raise InputError(f"{name} must be finite, got {value!r}")
    return val.real


def require_finite_complex(value: complex, name: str) -> complex:
    """Coerce a number to complex, rejecting NaN/inf in either part."""
    out = _number(value, name)
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


def require_positive_int(value, name: str, low: int = 1) -> int:
    """Coerce an integral real >= ``low`` (1 unless given) to int, rejecting
    bools, non-numbers, NaN/inf and fractional values.  Integers of any size
    are accepted (a float conversion of one beyond 1e308 would overflow)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or (
            not isinstance(value, numbers.Integral)
            and (not math.isfinite(value) or int(value) != value)
        )
        or value < low
    ):
        bound = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise InputError(f"{name} must be {bound}, got {value!r}")
    return int(value)


# Ceiling on the 1-norm condition of a gated solve's matrix: beyond it a
# scattering momentum is resonant, a resolvent point on the spectrum.
_COND_LIMIT = 1e12


def gated_solve(mats, rhs, solve=np.linalg.solve):
    """Per matrix of the stack ``mats`` (points, n, n), the solution of
    ``mat x = rhs`` (rhs (points, n, m)) and the exact 1-norm condition
    ||mat||_1 ||mat^-1||_1, which :func:`gate_error` compares with
    _COND_LIMIT.  One stacked ``solve`` (the solver passes its
    ``np.linalg.solve``, the name a tracer rebinds) of [rhs | I] gives each
    solution and inverse from one factorization per matrix; the extra
    columns leave the solution's bits as a solve of rhs alone gives them,
    and every matrix of a stack is factored as it would be alone.  The norm
    is floored at 1, the scale of a border diagonal, so that a border row
    tied to no vertex value (an edge between Dirichlet ends) fails the gate
    when its diagonal vanishes.  An exactly singular or NaN matrix has
    condition inf (a singular one a solution of zeros), an empty one (no
    free vertex values) condition 0."""
    npts, n, m = len(mats), mats.shape[-1], rhs.shape[-1]
    if not n:
        return rhs[:, :0], np.zeros(npts)
    try:
        sol = solve(mats, np.concatenate([rhs, np.eye(n)[np.newaxis].repeat(npts, axis=0)], axis=-1))
    except np.linalg.LinAlgError:
        if npts == 1:
            return np.zeros_like(rhs, dtype=complex), np.array([math.inf])
        # A singular matrix stops the whole stacked solve: each is solved
        # alone, as in a stack of one.
        alone = [gated_solve(mats[i : i + 1], rhs[i : i + 1], solve) for i in range(npts)]
        return np.concatenate([x for x, _ in alone]), np.concatenate([c for _, c in alone])
    # The 1-norms, as np.linalg.norm(mat, 1) sums them: the largest column sum.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(mats).sum(axis=-2).max(axis=-1)
        cond = np.maximum(norm, 1.0) * np.abs(sol[..., m:]).sum(axis=-2).max(axis=-1)
    return sol[..., :m], np.where(np.isnan(cond), math.inf, cond)


def gate_error(cond: float, error: type, message: str, **info):
    """``error(message, **info)``, with the condition appended, when the
    condition ``cond`` of a :func:`gated_solve` exceeds _COND_LIMIT (beyond
    it a scattering momentum is resonant, a resolvent point on the
    spectrum); None otherwise."""
    if cond <= _COND_LIMIT:
        return None
    return error(f"{message} (condition estimate {cond:.2e})", **info)


def format_float(value: float | None) -> str:
    """A number as the CSV files and printed results write it, in 17
    significant digits so that it reads back to the same float; ``nan``
    for a missing value."""
    return "nan" if value is None else format(float(value), ".17e")
