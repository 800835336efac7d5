"""Self-adjoint vertex couplings of a star graph and their ST normal form.

A vertex coupling of degree ``n`` is the boundary condition

    A f(0) + B f'(0) = 0

with complex ``n x n`` matrices ``A``, ``B`` such that ``(A|B)`` has maximal
rank and ``A B*`` is Hermitian; these conditions characterise exactly the
self-adjoint vertex couplings.  Every such coupling can be rewritten, after
renumbering the edges, in the normal form

    [[I_m, T], [0, 0]] f'(0) = [[S, 0], [-T*, I_{n-m}]] f(0)

with ``m = rank B``, a Hermitian ``m x m`` matrix ``S`` and an arbitrary
``m x (n-m)`` matrix ``T``.  This module converts between the two
parametrisations, decides equivalence of couplings through
:func:`coupling_distance` (zero exactly when two couplings define the same
condition), and evaluates the on-shell scattering matrix of the star graph,

    S(k) = -(A + ikB)^{-1} (A - ikB),

which is unitary for every k > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from ._util import (
    DEFAULT_TOL,
    as_complex_matrix,
    gate_error,
    gated_solve,
    hermiticity_violation,
    hermitize,
    numerical_rank,
    require_finite_real,
    require_positive_int,
    require_positive_real,
    row_space_basis,
    subspace_distance,
)
from .errors import ConditioningError, InputError, NonNormalizableError, StructuralError

__all__ = [
    "DEFAULT_TOL",
    "VertexCoupling",
    "STForm",
    "CouplingKind",
    "NamedCoupling",
    "ValidationResult",
    "validate_coupling",
    "st_from_ab",
    "ab_from_st",
    "coupling_distance",
    "star_scattering",
    "named_to_st",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexCoupling:
    """Boundary condition A f(0) + B f'(0) = 0 at a degree-n vertex."""

    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", require_positive_int(self.n, "vertex degree n"))
        object.__setattr__(self, "A", as_complex_matrix(self.A, "A", (self.n, self.n)))
        object.__setattr__(self, "B", as_complex_matrix(self.B, "B", (self.n, self.n)))


@dataclass(frozen=True)
class STForm:
    """Normal form of a coupling: integer m, edge renumbering, S = S*, T.

    ``perm`` maps new edge labels to old ones: the i-th edge of the normal
    form (1-based) is the original edge ``perm[i-1]``.
    """

    n: int
    m: int
    perm: tuple[int, ...]
    S: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        n = require_positive_int(self.n, "vertex degree n")
        m = require_positive_int(self.m, "m", low=0)
        if m > n:
            raise StructuralError(f"m must satisfy 0 <= m <= n, got m={m}, n={n}")
        perm = tuple(require_positive_int(p, "perm entry") for p in self.perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise StructuralError(f"perm must be a permutation of 1..{n}, got {perm}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "S", as_complex_matrix(self.S, "S", (m, m)))
        object.__setattr__(self, "T", as_complex_matrix(self.T, "T", (m, n - m)))
        if hermiticity_violation(self.S, DEFAULT_TOL) is not None:
            raise StructuralError("S must be Hermitian")


class CouplingKind(Enum):
    """Named coupling families with standard ST parametrisations."""

    KIRCHHOFF = "kirchhoff"
    DELTA = "delta"
    DELTA_PRIME_S = "delta_prime_s"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class NamedCoupling:
    """A coupling given by family name and strength parameter."""

    kind: CouplingKind
    n: int
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", require_positive_int(self.n, "vertex degree n"))
        if self.kind is CouplingKind.DELTA:
            if self.alpha is None:
                raise InputError("delta coupling requires a strength alpha")
            object.__setattr__(self, "alpha", require_finite_real(self.alpha, "alpha"))
        if self.kind is CouplingKind.DELTA_PRIME_S:
            if self.beta is None:
                raise InputError("delta_prime_s coupling requires a strength beta")
            beta = require_finite_real(self.beta, "beta")
            if beta == 0.0:
                raise InputError("delta_prime_s strength beta must be nonzero")
            object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_coupling: ok flag plus the list of violations."""

    ok: bool
    violations: tuple[str, ...] = field(default=())


def _norm_or_zero(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


# ---------------------------------------------------------------------------
# Validation and equivalence
# ---------------------------------------------------------------------------

def validate_coupling(c: VertexCoupling) -> ValidationResult:
    """Check the two admissibility conditions of a vertex coupling.

    The coupling is valid iff the ``n x 2n`` block matrix ``(A|B)`` has rank
    ``n`` (singular values below ``DEFAULT_TOL`` times the largest are
    treated as zero) and ``A B*`` is Hermitian within ``DEFAULT_TOL``; an
    ``A B*`` that overflows counts as not Hermitian.
    """
    stacked = np.hstack([c.A, c.B])
    violations: list[str] = []
    if numerical_rank(stacked) < c.n:
        violations.append(f"rank deficient: rank(A|B) < n = {c.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        ab_star = c.A @ c.B.conj().T
    excess = hermiticity_violation(ab_star, DEFAULT_TOL)
    if excess is not None:
        defect, scale = excess
        violations.append(
            f"A B* is not Hermitian: defect {defect:.3e} "
            f"exceeds {DEFAULT_TOL:.1e} * {scale:.3e}"
        )
    return ValidationResult(ok=not violations, violations=tuple(violations))


def coupling_distance(c1: VertexCoupling, c2: VertexCoupling) -> float:
    """Projection distance between the (A|B) row spaces of two couplings.

    Two pairs (A, B) describe the same self-adjoint condition exactly when
    these row spaces coincide, so the distance is zero exactly on equivalent
    couplings.
    """
    if c1.n != c2.n:
        raise StructuralError(f"degree mismatch: {c1.n} != {c2.n}")
    basis1 = row_space_basis(np.hstack([c1.A, c1.B]))
    basis2 = row_space_basis(np.hstack([c2.A, c2.B]))
    return subspace_distance(basis1, basis2)


# ---------------------------------------------------------------------------
# ST normal form
# ---------------------------------------------------------------------------

def ab_from_st(st: STForm) -> VertexCoupling:
    """Matrices (A, B) of the normal form, in the renumbered edge order.

    The fixed convention is ``B = [[I_m, T], [0, 0]]`` and
    ``A = [[-S, 0], [T*, -I]]``, which reproduces the defining conditions
    ``[[I,T],[0,0]] f'(0) = [[S,0],[-T*,I]] f(0)``.
    """
    n, m = st.n, st.m
    a_mat = np.zeros((n, n), dtype=complex)
    b_mat = np.zeros((n, n), dtype=complex)
    a_mat[:m, :m] = -st.S
    a_mat[m:, :m] = st.T.conj().T
    a_mat[m:, m:] = -np.eye(n - m)
    b_mat[:m, :m] = np.eye(m)
    b_mat[:m, m:] = st.T
    return VertexCoupling(n=n, A=a_mat, B=b_mat)


def st_from_ab(c: VertexCoupling) -> STForm:
    """Reduce a valid coupling to its ST normal form.

    Sets ``m`` to the numerical rank of ``B`` and scans candidate edge
    renumberings in lexicographic order, keeping the first one for which

    * the m selected columns of B are linearly independent, and
    * after the row operation that brings B to ``[[I, T], [0, 0]]``, the
      trailing (n-m) x (n-m) block of the transformed A is invertible.

    For any admissible renumbering of a self-adjoint coupling the remaining
    structure is automatic: the lower-left block of the transformed A equals
    ``T*`` up to sign and the upper block yields a Hermitian S.  Both facts
    are still verified numerically and a failure aborts the candidate.
    """
    result = validate_coupling(c)
    if not result.ok:
        raise InputError("coupling is not admissible: " + "; ".join(result.violations))
    return _st_from_valid(c)


def _st_from_valid(c: VertexCoupling) -> STForm:
    """:func:`st_from_ab` of a coupling that :func:`validate_coupling` has
    passed, without validating it again."""
    n = c.n
    sigma_b = np.linalg.svd(c.B, compute_uv=False)
    m = int(np.count_nonzero(sigma_b > DEFAULT_TOL * sigma_b[0])) if sigma_b[0] > 0 else 0
    scale = max(1.0, float(sigma_b[0]), _norm_or_zero(c.A))
    # tolerance for the consistency residuals, looser than the rank cutoff
    # to absorb roundoff from the row operations
    check_tol = max(1.0e-8, DEFAULT_TOL)

    for subset in combinations(range(n), m):
        rest = [idx for idx in range(n) if idx not in subset]
        order = list(subset) + rest
        a_perm = c.A[:, order]
        b_perm = c.B[:, order]
        st = _try_reduce(a_perm, b_perm, n, m, check_tol, scale)
        if st is not None:
            s_mat, t_mat = st
            return STForm(
                n=n,
                m=m,
                perm=tuple(idx + 1 for idx in order),
                S=hermitize(s_mat),
                T=t_mat,
            )
    raise NonNormalizableError(
        f"no admissible edge renumbering found for n={n}, m={m}: "
        "input violates the self-adjointness preconditions"
    )


def _try_reduce(a_perm, b_perm, n, m, check_tol, scale):
    """Attempt the ST reduction for one candidate column order."""
    if m == 0:
        # B = 0; the rank condition makes A invertible and the conditions
        # reduce to f(0) = 0 regardless of A, so S and T are empty.
        return np.zeros((0, 0), dtype=complex), np.zeros((0, n), dtype=complex)
    b_lead = b_perm[:, :m]
    sigma = np.linalg.svd(b_lead, compute_uv=False)
    if sigma[-1] <= DEFAULT_TOL * max(1.0, scale):
        return None
    # Row operation R with R @ b_lead = [[I], [0]]: complete b_lead by an
    # orthonormal basis of its orthogonal complement, the null space of
    # b_lead* (the right singular vectors past its rank, with the rank rule
    # of scipy.linalg.null_space), and invert.
    b_adj = b_lead.conj().T
    _, s_adj, vh = np.linalg.svd(b_adj, full_matrices=True)
    tol = s_adj.max() * (np.finfo(s_adj.dtype).eps * max(b_adj.shape))
    completion = vh[np.count_nonzero(s_adj > tol) :].conj().T
    row_op = np.linalg.inv(np.hstack([b_lead, completion]))
    b_new = row_op @ b_perm
    a_new = row_op @ a_perm
    t_mat = b_new[:m, m:]
    if n > m and np.linalg.norm(b_new[m:, :], ord=np.inf) > check_tol * max(1.0, scale):
        return None
    a_lower_right = a_new[m:, m:]
    if n > m:
        sigma_a = np.linalg.svd(a_lower_right, compute_uv=False)
        if sigma_a[-1] <= DEFAULT_TOL * max(1.0, sigma_a[0]):
            return None
        lower_solve = np.linalg.solve(a_lower_right, a_new[m:, :m])
        # Self-adjointness forces the lower-left block to match -A22 T*.
        if np.linalg.norm(-lower_solve - t_mat.conj().T, ord=np.inf) > check_tol * max(
            1.0, np.linalg.norm(t_mat, ord=np.inf) if t_mat.size else 0.0
        ):
            return None
        s_mat = -(a_new[:m, :m] - a_new[:m, m:] @ lower_solve)
    else:
        s_mat = -a_new[:m, :m]
    if hermiticity_violation(s_mat, check_tol) is not None:
        return None
    return s_mat, t_mat


# ---------------------------------------------------------------------------
# Scattering and named couplings
# ---------------------------------------------------------------------------

def star_scattering(c: VertexCoupling, k: float) -> np.ndarray:
    """On-shell scattering matrix S(k) = -(A + ikB)^{-1} (A - ikB).

    For an admissible coupling and k > 0 the matrix A + ikB is invertible
    and the result is unitary; where it is numerically singular, by the
    solver's gate, :class:`ConditioningError` is raised.
    """
    k = require_positive_real(k, "momentum k")
    plus = c.A + 1j * k * c.B
    minus = c.A - 1j * k * c.B
    # The gate floors ||A + ikB||_1 at 1 (see gated_solve), so a pair scaled
    # down far is first scaled up, by a power of two, which changes no bit
    # of S(k), until ||A + ikB||_1 >= 1.  A norm that overflows needs no
    # scaling: the gate refuses that pair.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(plus, 1)
    if 0.0 < norm < 1.0:
        scale = 2.0 ** (1 - math.frexp(norm)[1])
        plus, minus = plus * scale, minus * scale
    (sol,), (cond,) = gated_solve(plus[np.newaxis], minus[np.newaxis])
    failure = gate_error(cond, ConditioningError, f"A + ikB ill-conditioned at k={k}")
    if failure:
        raise failure
    return -sol


def named_to_st(nc: NamedCoupling) -> STForm:
    """ST parametrisation of a named coupling family (identity renumbering)."""
    n = nc.n
    identity = tuple(range(1, n + 1))
    if nc.kind is CouplingKind.KIRCHHOFF:
        return STForm(n=n, m=1, perm=identity, S=np.zeros((1, 1)), T=np.ones((1, n - 1)))
    if nc.kind is CouplingKind.DELTA:
        return STForm(
            n=n, m=1, perm=identity, S=np.array([[nc.alpha]]), T=np.ones((1, n - 1))
        )
    if nc.kind is CouplingKind.DELTA_PRIME_S:
        return STForm(
            n=n,
            m=n,
            perm=identity,
            S=np.full((n, n), 1.0 / nc.beta),
            T=np.zeros((n, 0)),
        )
    if nc.kind is CouplingKind.DIRICHLET:
        return STForm(
            n=n, m=0, perm=identity, S=np.zeros((0, 0)), T=np.zeros((0, n))
        )
    raise InputError(f"unknown coupling kind {nc.kind!r}")
