"""Spectra, resolvents, and scattering matrices of metric-graph systems.

Every solver path works on one vertex-reduced matrix.  Eliminating each
finite edge through its Dirichlet-to-Neumann map, and each half-line
through its outgoing (or decaying) wave, leaves a matrix on the free vertex
values of the ST forms (Berkolaiko & Kuchment, *Introduction to Quantum
Graphs*):

    B(z) = S + sum_e (c_+ w_+ w_+* + c_- w_- w_-*) - i k sum_h J_h* J_h,

with k = sqrt(z), c_+ = -k tan(kl/2) and c_- = k cot(kl/2) (see
:class:`_Reduction`).

* Eigenvalues of compact systems are counted, not searched for: the
  number of eigenvalues below lambda is the number of edge Dirichlet
  levels below lambda plus the number of negative eigenvalues of the
  Hermitian B(lambda) (Friedlander's count).  Bisection on that integer
  finds every level, and a level's multiplicity is the jump of the count
  across it, so degenerate and nearly degenerate levels are resolved by
  construction.  The count is evaluated on arrays of lambda (stacked
  matmuls and stacked eigvalsh calls, with each point's arithmetic
  unchanged).  On the small reduced matrices of approximating graphs a
  count's cost is mostly per call, not per point, so the bracket counts its
  doubling sequence in batches, and each bisection round counts in one
  call at every midpoint of a few levels of the subtree below each live
  interval, then takes those levels' decisions (a matrix wider than 6,
  whose points cost more, is counted one point at a time).  Every decision
  reads the count at the lambda a one-point bisection would, so the bits
  are that bisection's.
* A scattering matrix solves B(k^2) x = -2ik J_h* for an incoming wave on
  each channel h; then S = J_h x - I.
* A resolvent kernel is the free-line kernel on the source edge plus the
  homogeneous solution on every edge whose vertex values solve B(z) x =
  (the source's trace terms).  Those terms are linear in the two end modes
  of the source, so one solve with a unit right-hand side per edge mode
  gives every source's amplitudes (:class:`GreensFunction`).

A coefficient that diverges next to an edge Dirichlet level moves into a
border row, so every entry stays O(|k|); at real lambda > 0 by the count's
own rule, elsewhere with the coefficients written through exp(ikl), which
cannot overflow for Im k >= 0.  Scattering and resolvents factor the (bordered) matrix once and
gate on LAPACK's 1-norm condition estimate from the LU factors (Hager;
Higham), O(N^2) on top of the factorization: beyond 1e12 the point is
numerically on the spectrum, and scattering raises :class:`ResonantKError`,
the resolvent :class:`NearSingularZError`.

Those LU factorizations are the only use of scipy: ``lu_factor`` and
``lu_solve`` are module globals that import scipy.linalg on their first
call, and ``_gated_lu`` takes ``zgecon`` from it at call time.  The count
reads inertia through numpy's eigvalsh, so a spectrum, an eig sweep, or any
command that factors nothing, loads numpy alone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._util import (
    lu_factor,
    lu_solve,
    numerical_rank,
    require_finite_real,
    require_positive_int,
    require_positive_real,
)
from .builder import ApproxGraph
from .couplings import st_from_ab
from .errors import (
    InputError,
    NearSingularZError,
    ResonantKError,
    ScanRangeError,
    StructuralError,
)
from .graphs import DeltaCondition, MetricGraphSystem, system_from_approx

__all__ = [
    "eigenvalues_compact",
    "GreensFunction",
    "greens_function",
    "scattering_matrix",
    "effective_scattering",
]


def __getattr__(name):
    # perfbench/tracing.py rebinds solver.brentq and solver.minimize_scalar,
    # which nothing here calls.  The names resolve on first access, so only
    # a traced run imports scipy.optimize.  They go once the tracer stops
    # rebinding them.
    if name in ("brentq", "minimize_scalar"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Ceiling on the condition estimate of a reduced matrix: beyond it a
# scattering momentum is resonant and a resolvent point lies on the spectrum.
_COND_LIMIT = 1e12

# Points per batched count in the eigenvalue search, on a reduced matrix up
# to _ROUND_SIZE wide: a bisection round counts at most max(_ROUND_POINTS,
# live intervals) speculative midpoints, and the bracket counts its doubling
# sequence in batches of _ROUND_POINTS.  On a 6 x 6 reduction a count costs
# about 0.1 ms per call and 31 points about 3 times one (2-CPU Xeon), so
# fewer, wider calls are faster.  A point's own cost grows with the width
# (some 4 ms at 136 wide, where 32 points per round solved 7-10 times
# slower), and batches have been measured only up to 6 wide, so a wider
# matrix is counted one point at a time: plain bisection.
_ROUND_POINTS = 32
_ROUND_SIZE = 6


def _principal_k(z) -> np.ndarray:
    """sqrt(z) on the branch with Im k >= 0 (and k >= 0 for z >= 0)."""
    k = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(k.imag < 0, -k, k)


def _gated_lu(mat: np.ndarray, error: type, message: str, **info):
    """LU factors of the complex matrix ``mat``; ``error(message, **info)``,
    with the estimate appended, when its 1-norm condition estimate exceeds
    _COND_LIMIT.  The norm is taken before the factors are allocated, and
    floored at 1, the scale of a border diagonal, so that a border row tied
    to no vertex value (an edge between Dirichlet ends) fails the gate when
    its diagonal vanishes.  An exactly singular or NaN matrix fails the
    gate, which reports it in place of a LinAlgWarning; an empty one (no
    free vertex values) passes."""
    from scipy.linalg import LinAlgWarning
    from scipy.linalg.lapack import zgecon

    if not mat.size:
        return lu_factor(mat)
    anorm = max(np.linalg.norm(mat, 1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(mat, check_finite=False)
    rcond = zgecon(lu[0], anorm)[0]
    if not rcond * _COND_LIMIT >= 1.0:
        cond = 1.0 / rcond if rcond > 0 else math.inf
        raise error(f"{message} (condition estimate {cond:.2e})", **info)
    return lu


def _group_by_edge(points) -> dict[object, tuple[np.ndarray, np.ndarray]]:
    """``(edge_id, s)`` points grouped by edge, in first-seen order: per
    edge, the points' indices and their coordinates, as arrays."""
    groups: dict[object, list[int]] = {}
    for i, (eid, _) in enumerate(points):
        groups.setdefault(eid, []).append(i)
    return {
        eid: (np.array(idx), np.array([points[i][1] for i in idx]))
        for eid, idx in groups.items()
    }


# ---------------------------------------------------------------------------
# The vertex reduction
# ---------------------------------------------------------------------------


class _Reduction:
    """A system reduced to the free values of its vertices' ST forms.

    The unknowns of a vertex are the m_v free values of its ST form: the
    values at its ends are J_v x_v with J_v = [I; T*] in the original end
    order, and S_v is its block of B (a delta vertex has J = ones, S = [w];
    a coupling with B = 0, such as a Dirichlet end, has m_v = 0).
    Finite edge e adds c_+ w_+ w_+* + c_- w_- w_-*, where w_+- = J* (1,
    +-e^{-ial}) / sqrt(2) over its two ends are its symmetric and
    antisymmetric modes, c_+ = -k tan(kl/2) and c_- = k cot(kl/2); half-line
    h adds -ik J_h* J_h, J_h the row of its end.

    Near an edge Dirichlet level one coefficient c diverges.  Away from
    kl ~ 0, a term with |c| > |k| moves into an extra row and column with
    off-diagonal sqrt(k) w and diagonal b = -k/c; its Schur complement is
    the term itself, and every entry stays O(|k|), so nothing cancels when a
    solution sits on or next to a Dirichlet level.
    """

    def __init__(self, sys: MetricGraphSystem):
        rows: dict[tuple, tuple[int, np.ndarray]] = {}
        blocks: list[np.ndarray] = []
        size = 0
        for vertex in sys.vertices:
            cond = vertex.condition
            if isinstance(cond, DeltaCondition):
                j_mat, s_mat = np.ones((len(vertex.ends), 1)), np.array([[cond.w]])
            elif not cond.coupling.B.any():
                # B = 0: every end is Dirichlet and there are no free values,
                # so no normal form is needed; A must still be invertible.
                n = cond.coupling.n
                if numerical_rank(cond.coupling.A) < n:
                    raise InputError(
                        f"coupling is not admissible: rank deficient: rank(A|B) < n = {n}"
                    )
                j_mat, s_mat = np.empty((n, 0), dtype=complex), np.empty((0, 0), dtype=complex)
            else:
                st = st_from_ab(cond.coupling)
                j_mat = np.empty((st.n, st.m), dtype=complex)
                j_mat[np.array(st.perm) - 1] = np.vstack([np.eye(st.m), st.T.conj().T])
                s_mat = st.S
            for end, j_row in zip(vertex.ends, j_mat):
                rows[end] = (size, j_row)
            blocks.append(s_mat)
            size += len(s_mat)
        self.size = size
        # The vertex blocks on the diagonal; float or complex, as the blocks.
        self.s_mat = np.zeros((size, size), dtype=np.result_type(float, *blocks))
        at = 0
        for block in blocks:
            self.s_mat[at : at + len(block), at : at + len(block)] = block
            at += len(block)
        self.edge_map = sys.edge_map
        finite = [e for e in sys.edges if not e.is_half_line]
        half = [e for e in sys.edges if e.is_half_line]
        self.finite_index = {e.id: i for i, e in enumerate(finite)}
        self.half_index = {e.id: i for i, e in enumerate(half)}
        self.length = np.array([e.length for e in finite], dtype=float)
        # A coefficient that is not bordered is at most max(|k|, 2/l), and a
        # mode vector's entries are at most sqrt(2) on delta vertices, so on
        # an approximating graph this bounds the entries of B(z) next to
        # kl = 0; edges too short for it to be finite would overflow B.
        with np.errstate(over="ignore"):
            bound = np.abs(self.s_mat).max(initial=0.0) + np.sum(4.0 / self.length)
        if not math.isfinite(bound):
            raise InputError(
                f"edges as short as {self.length.min():.3g} overflow the reduced matrix"
            )
        # Columns w_+ and w_- of every finite edge.
        self.w = np.zeros((2, size, len(finite)), dtype=complex)
        for col, edge in enumerate(finite):
            phase = np.exp(-1j * edge.a * edge.length)
            for end, factor in ((0, np.array([1.0, 1.0])), (1, np.array([phase, -phase]))):
                at, j_row = rows[(edge.id, end)]
                self.w[:, at : at + len(j_row), col] += np.outer(factor, j_row.conj())
        self.w /= math.sqrt(2.0)
        self.w_adj = self.w.conj().transpose(0, 2, 1)
        # w_+ and w_- side by side: column e is w_+ of edge e, column E + e
        # its w_-.
        self.w_cols = np.concatenate(list(self.w), axis=1)
        # Rows J_h of the half-line ends.
        self.j_half = np.zeros((len(half), size), dtype=complex)
        for row, edge in enumerate(half):
            at, j_row = rows[(edge.id, 0)]
            self.j_half[row, at : at + len(j_row)] = j_row

    def real_coefficients(self, lam: np.ndarray):
        """Edge coefficients and border rows at every point of the 1-d float
        array ``lam``.

        Returns ``coef`` (2, points, edges), c_+ and c_- with every bordered
        one set to 0; the border diagonal ``b`` (points, edges), NaN where
        the edge is not bordered; ``pick``, the column of ``w_cols`` each
        bordered edge borders; and the per-point sum of edge Dirichlet
        levels below lambda, as floats (exact below 2^53).  For lambda <= 0
        the coefficients are kappa tanh(kappa l/2) and kappa coth(kappa l/2).
        """
        npts, ne = len(lam), len(self.length)
        coef = np.empty((2, npts, ne))
        b = np.full((npts, ne), np.nan)
        pick = np.zeros((npts, ne), dtype=int)
        level_sum = np.zeros(npts)
        below = lam <= 0.0
        if below.any():
            kappa = np.sqrt(-lam[below])[:, np.newaxis]
            t = np.tanh(0.5 * kappa * self.length)
            coef[0, below] = kappa * t
            coef[1, below] = np.divide(
                kappa, t, out=np.tile(2.0 / self.length, (len(kappa), 1)), where=t > 0
            )
        above = ~below
        if above.any():
            k = np.sqrt(lam[above])[:, np.newaxis]
            q = k * self.length / math.pi
            levels = np.ceil(q) - 1.0
            # kl/2 = (levels + x) pi/2 with x in (0, 1]: with tau = tan(x pi/2),
            # -k tan(kl/2) is -k tau on w_+ and k/tau on w_- for an even level
            # count, swapped for an odd one.  Computing both from x keeps the
            # sign of every border b consistent with the level count.
            tau = np.tan(0.5 * math.pi * (q - levels))
            small = tau < 1.0
            # k/tau is at most max(k, 2/l) below the first level; elsewhere the
            # larger of -k tau and k/tau is bordered, with b = -tau or 1/tau.
            border = ~small | (levels > 0)
            neg = np.where(small, -k * tau, 0.0)
            pos = np.divide(k, tau, out=np.zeros_like(tau), where=~(small & border))
            odd = levels % 2 == 1
            coef[0, above] = np.where(odd, pos, neg)
            coef[1, above] = np.where(odd, neg, pos)
            b[above] = np.where(border, np.where(small, -tau, 1.0 / np.maximum(tau, 1.0)), np.nan)
            # The bordered vector is w_+ exactly when small == odd.
            pick[above] = np.arange(ne) + ne * (small != odd)
            level_sum[above] = levels.sum(axis=1)
        return coef, b, pick, level_sum

    def complex_coefficients(self, k: complex):
        """Edge coefficients and border rows at one momentum with Im k >= 0,
        in the layout of :meth:`real_coefficients` with one point.

        With E = exp(ikl) and r = (E - 1)/(E + 1) = i tan(kl/2), c_+ = ik r
        and c_- = ik / r (kappa tanh(kappa l/2) and kappa coth(kappa l/2) at
        k = i kappa), and neither exp overflows.  As in the count, the larger
        coefficient is bordered, with b = -k/c = i/r or i r, except c_- next
        to kl = 0, where it stays near 2/l.
        """
        ne = len(self.length)
        em1 = np.expm1(1j * k * self.length)
        ratio = em1 / (2.0 + em1)
        coef = np.stack([1j * k * ratio, 1j * k / ratio])[:, np.newaxis, :]
        plus = np.abs(ratio) >= 1.0
        border = plus | (abs(k.real) * self.length > math.pi)
        coef[0, 0, border & plus] = 0.0
        coef[1, 0, border & ~plus] = 0.0
        b = np.where(border, np.where(plus, 1j / ratio, 1j * ratio), np.nan)[np.newaxis, :]
        pick = (np.arange(ne) + ne * ~plus)[np.newaxis, :]
        return coef, b, pick

    def edge_terms(self, coef: np.ndarray) -> np.ndarray:
        """sum_e (coef[0, p, e] w_+ w_+* + coef[1, p, e] w_- w_-*) per point p."""
        return sum((w * c[:, np.newaxis, :]) @ w_adj for w, c, w_adj in zip(self.w, coef, self.w_adj))

    def bordered(self, mats: np.ndarray, root_k: np.ndarray, b: np.ndarray, pick: np.ndarray):
        """The stacked matrices ``mats`` with their border rows and columns,
        [[B, sqrt(k) W], [sqrt(k) W*, diag(b)]], for points that all border
        the same number of edges, in edge order; ``root_k`` is sqrt(k) per
        point."""
        inside = ~np.isnan(b)
        nb = int(np.count_nonzero(inside[0]))
        if not nb:
            return mats
        vecs = self.w_cols[:, pick[inside].reshape(-1, nb)].transpose(1, 0, 2)
        root_k = root_k[:, np.newaxis, np.newaxis]
        size = mats.shape[1]
        diag = np.arange(size, size + nb)
        out = np.zeros((len(mats), size + nb, size + nb), dtype=complex)
        out[:, :size, :size] = mats
        out[:, :size, size:] = root_k * vecs
        out[:, size:, :size] = root_k * vecs.conj().transpose(0, 2, 1)
        out[:, diag, diag] = b[inside].reshape(-1, nb)
        return out

    def one_point(self, k: complex, lam: float | None = None):
        """The reduced matrix at one momentum k, bordered by the count's rule
        when ``lam`` = k^2 is given (real, > 0) and through
        :meth:`complex_coefficients` otherwise.  Also returns the
        coefficients ``coef`` (2, edges) it used, per mode (sign, edge) its
        border row or -1, and the sqrt(k) of its border columns."""
        if lam is None:
            coef, b, pick = self.complex_coefficients(k)
            root_k = np.sqrt(k)
        else:
            coef, b, pick, _ = self.real_coefficients(np.array([lam]))
            root_k = math.sqrt(math.sqrt(lam))
        mat = self.bordered(self.s_mat + self.edge_terms(coef), np.array([root_k]), b, pick)[0]
        mat[: self.size, : self.size] -= 1j * k * (self.j_half.conj().T @ self.j_half)
        border = np.full((2, len(self.length)), -1)
        cols = np.flatnonzero(~np.isnan(b[0]))
        border[pick[0, cols] // len(self.length), cols] = np.arange(len(cols))
        return mat, coef[:, 0, :], border, root_k


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------


class _EigenvalueCount(_Reduction):
    """N(lambda), the number of eigenvalues below lambda of a compact system.

    The edges' Dirichlet-to-Neumann maps split the form h - lambda into the
    edges' Dirichlet parts and the Hermitian reduced matrix B(lambda), so
    that

        N(lambda) = sum_e #{(pi m / l_e)^2 < lambda} + n_-(B(lambda)).

    Each border row with b < 0 adds one negative eigenvalue to the bordered
    matrix, which is subtracted.
    """

    def many(self, lams) -> list[int]:
        """N(lambda) at every point of the 1-d array ``lams``.

        Edge coefficients are computed as (points, edges) arrays, the edge
        terms of all points as one stacked matmul per sign, and the inertia
        as one stacked eigvalsh per bordered size.  Every slice goes through
        the same operations, in the same order, as a single point would.
        """
        lam = np.asarray(lams, dtype=float).reshape(-1)
        coef, b, pick, level_sum = self.real_coefficients(lam)
        # N = level count + negative eigenvalues of the bordered matrix -
        # negative b's.
        inertia = -np.count_nonzero(b < 0, axis=1)
        mat = self.s_mat + self.edge_terms(coef)
        sizes = np.count_nonzero(~np.isnan(b), axis=1)
        for nb in set(sizes.tolist()):
            at = np.flatnonzero(sizes == nb)
            part = mat if len(at) == len(lam) else mat[at]
            if nb:
                part = self.bordered(part, np.sqrt(np.sqrt(lam[at])), b[at], pick[at])
            inertia[at] += _negative_counts(part)
        return [int(s) + int(n) for s, n in zip(level_sum, inertia)]


def _negative_counts(mats: np.ndarray) -> np.ndarray:
    """Negative eigenvalues of each Hermitian matrix in a stack, counted
    after a symmetric diagonal scaling (which keeps the inertia) that brings
    every row's largest entry to 1."""
    if not mats.shape[-1]:
        return np.zeros(len(mats), dtype=int)
    row_max = np.abs(mats).max(axis=-1)
    scale = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
    scaled = mats * (scale[:, :, np.newaxis] * scale[:, np.newaxis, :])
    return np.count_nonzero(np.linalg.eigvalsh(scaled) < 0, axis=-1)


def _batch_points(size: int) -> int:
    """Points per batched count of the eigenvalue search on a reduced matrix
    ``size`` wide."""
    return _ROUND_POINTS if size <= _ROUND_SIZE else 1


def _doubling(lam: float, points: int) -> list[float]:
    """lam, 2 lam, 4 lam, ...: ``points`` values, fewer if a double
    overflows."""
    chunk = [lam]
    while len(chunk) < points and math.isfinite(2.0 * chunk[-1]):
        chunk.append(2.0 * chunk[-1])
    return chunk


def _bracket(count_below, chunk: list[float], counts, done, other_end: float) -> tuple[float, int]:
    """The first lambda of the doubling sequence that begins with ``chunk``
    whose count passes ``done``, and that count.  ``counts`` are the counts
    at ``chunk``, taken by the caller; the rest of the sequence is counted
    in batches (see :func:`_batch_points`).  It ends, with
    :class:`ScanRangeError`, at the last lambda whose double is still
    finite."""
    points = _batch_points(count_below.size)
    while True:
        for lam, n in zip(chunk, counts):
            if done(n):
                return lam, n
        if not math.isfinite(2.0 * lam):
            raise ScanRangeError(
                f"eigenvalue count not reached by lambda = {lam:.3g}",
                window=(min(lam, other_end), max(lam, other_end)),
            )
        chunk = _doubling(2.0 * lam, points)
        counts = count_below.many(chunk)


def _is_leaf(a: float, b: float) -> bool:
    """Whether bisection stops at [a, b]: width at most 1e-13 max(1, |lambda|)."""
    return b - a <= 1e-13 * max(1.0, abs(a), abs(b))


def _subtree_counts(count_below, live, depth: int) -> dict[float, int]:
    """N at the midpoint of every interval of the depth-``depth`` bisection
    subtree of each live interval, in one batched count, keyed by the
    midpoint; an interval at leaf width is not split, so neither it nor
    anything below it is counted."""
    mids = []
    level = [(a, b) for a, b, _, _ in live]
    for _ in range(depth):
        children = []
        for a, b in level:
            if not _is_leaf(a, b):
                mid = 0.5 * (a + b)
                mids.append(mid)
                children += [(a, mid), (mid, b)]
        level = children
    return dict(zip(mids, count_below.many(mids)))


def eigenvalues_compact(
    sys: MetricGraphSystem,
    count: int,
    *,
    lam_min: float | None = None,
) -> np.ndarray:
    """The lowest `count` eigenvalues (with multiplicity), sorted.

    The system must be compact (see :func:`~qgraph.graphs.truncate`).  The
    eigenvalue count N(lambda) brackets the spectrum (doubling -lambda until
    N = 0, then lambda until N covers `count`; the doubling sequence is
    counted in batches, and the first upward batch also counts
    ``lam_min``), and bisection refines every level to 1e-13 max(1,
    |lambda|); a level's multiplicity is the jump of N across it.  The
    bisection runs in rounds: a round counts, in one batched call, at every
    midpoint of the depth-r subtree of each live interval (r as deep as a
    batch of 32 points allows on a reduced matrix up to 6 wide, and at
    least 1; a wider matrix is counted one point per round, which is plain
    bisection), then takes r levels of interval decisions from those
    counts.  Every decision reads the count at the same lambda as a
    depth-first bisection would, so the values and their order are that
    search's.  With ``lam_min``, which must be finite, only eigenvalues
    above that floor are returned.
    """
    count = require_positive_int(count, "count")
    if lam_min is not None:
        lam_min = require_finite_real(lam_min, "lam_min")
    if not sys.is_compact:
        raise StructuralError("system has half-lines; call truncate() first")
    count_below = _EigenvalueCount(sys)
    points = _batch_points(count_below.size)
    if lam_min is None:
        down = _doubling(-1.0, points)
        lo, n_lo = _bracket(count_below, down, count_below.many(down), lambda n: n == 0, 0.0)
        up = _doubling(max(1.0, 2.0 * lo), points)
        counts = count_below.many(up)
    else:
        # lam_min is counted in one call with the first upward batch.
        lo = lam_min
        up = _doubling(max(1.0, 2.0 * lo), max(1, points - 1))
        n_lo, *counts = count_below.many([lam_min] + up)
    target = n_lo + count
    hi, n_hi = _bracket(count_below, up, counts, lambda n: n >= target, lo)
    # An interval's fate depends on its own ends alone, so bisecting level
    # by level builds the tree of a depth-first search; sorting the leaves
    # restores its left-to-right output order.
    leaves: list[tuple[float, float, int]] = []

    def settle(intervals):
        """The intervals still to split; leaves are recorded, and intervals
        without a wanted level dropped."""
        live = []
        for a, b, n_a, n_b in intervals:
            if n_b <= n_a or n_a >= target:
                continue
            if _is_leaf(a, b):
                leaves.append((a, 0.5 * (a + b), n_b - n_a))
            else:
                live.append((a, b, n_a, n_b))
        return live

    live = settle([(lo, hi, n_lo, n_hi)])
    while live:
        # The deepest r with len(live) * (2^r - 1) <= points, at least 1.
        depth = max(1, (points // len(live) + 1).bit_length() - 1)
        n_at = _subtree_counts(count_below, live, depth)
        for _ in range(depth):
            children = []
            for a, b, n_a, n_b in live:
                mid = 0.5 * (a + b)
                # Clamped so that roundoff next to a level cannot break monotonicity.
                n_mid = min(max(n_at[mid], n_a), n_b)
                children += [(a, mid, n_a, n_mid), (mid, b, n_mid, n_b)]
            live = settle(children)
    leaves.sort()
    values = [mid for _, mid, mult in leaves for _ in range(mult)]
    return np.array(values[:count])


# ---------------------------------------------------------------------------
# Resolvent kernels
# ---------------------------------------------------------------------------


class GreensFunction:
    """The resolvent kernel G_z(x, y) of a metric-graph system.

    Points are ``(edge_id, s)`` pairs in local edge coordinates.  For a
    point on edge e and a source on edge f the kernel is

        G(x, y) = U_e(x) A[e, f] P_f(y)^T + delta_ef F_e(x, y).

    F_e is the free-line kernel i exp(ik|s - s'|)/(2k) (covariantly
    phased).  P_f(y) holds the modes of its end values: p_+- = (p_0 +- p_1)
    / sqrt(2) on a finite edge, p_0 on a half-line.  U_e(x) holds the
    edge's mode functions: E_+(s) = e^{iks} + e^{ik(l-s)} and E_-(s) =
    e^{ik(l-s)} - e^{iks} (over sqrt(2)) on a finite edge, which stay
    bounded for Im k >= 0, and e^{iks} on a half-line.  A is the mode
    amplitude matrix, with rows and columns in the mode order (sign, finite
    edge) then half-line.

    A is linear in the source's modes, so it is solved for once, at
    construction: the reduced matrix B(z) is factored, and one ``lu_solve``
    takes a unit right-hand side per mode, w_+- (c_+- - ik) (with sqrt(k)
    in a bordered mode's border row) for mode p_+- of a finite edge and
    -2ik J_h* for a half-line h.  The mode values of each solution, minus
    the unit mode itself on its own edge, are divided by 1 + e^{ikl} and
    e^{ikl} - 1.  For a bordered mode the border unknown y = c h / sqrt(k)
    gives the amplitude -i y / (sqrt(k) (e^{ikl} -+ 1)) instead, which is
    regular on the edge's Dirichlet level.
    """

    def __init__(self, sys: MetricGraphSystem, z: complex):
        z = complex(z)
        z = complex(require_finite_real(z.real, "z"), require_finite_real(z.imag, "z"))
        k = complex(_principal_k(z))
        if k == 0:
            raise InputError("z = 0 is not a valid resolvent point here")
        self.system = sys
        self.z = z
        self.k = k
        red = self._red = _Reduction(sys)
        if len(red.j_half) and k.imag <= 0:
            raise InputError(
                "resolvent of a non-compact system needs z off [0, inf)"
            )
        positive = z.imag == 0 and z.real > 0
        mat, coef, border, root_k = red.one_point(k, z.real if positive else None)
        lu = _gated_lu(mat, NearSingularZError, f"z = {z} is numerically on the spectrum")
        ne = len(red.length)
        # Mode indices of every edge: sign * ne + e on finite edge e, 2 ne + h
        # on half-line h.
        self._modes = {eid: [e, ne + e] for eid, e in red.finite_index.items()}
        self._modes.update({eid: [2 * ne + h] for eid, h in red.half_index.items()})
        n_modes = 2 * ne + len(red.j_half)
        # One unit right-hand side per source mode, in mode order.
        rhs = np.zeros((len(mat), n_modes), dtype=complex)
        rhs[: red.size, : 2 * ne] = red.w_cols * (coef - 1j * k).reshape(-1)
        rhs[: red.size, 2 * ne :] = -2j * k * red.j_half.conj().T
        sign, cols = np.nonzero(border >= 0)
        rows = red.size + border[sign, cols]
        rhs[rows, sign * ne + cols] = root_k
        sol = lu_solve(lu, rhs)
        x = sol[: red.size]
        amp = np.concatenate([(red.w_adj @ x).reshape(2 * ne, n_modes), red.j_half @ x])
        amp[np.diag_indices(len(amp))] -= 1.0
        amp[sign * ne + cols] = sol[rows]
        # The factor that turns a mode value, or a border unknown, into an
        # amplitude.
        em1 = np.expm1(1j * k * red.length)
        divisor = np.stack([2.0 + em1, em1])
        scale = 1.0 / divisor
        scale[sign, cols] = -1j / (root_k * divisor[1 - sign, cols])
        amp[: 2 * ne] *= scale.reshape(-1, 1)
        self._amp = amp

    # -- internals --------------------------------------------------------

    def _free_end(self, edge, sy: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Gauged value of the free kernel of sources at ``sy`` at an end of
        their edge, ``dist`` away."""
        return np.exp(1j * edge.a * sy) * (0.5j / self.k) * np.exp(1j * self.k * dist)

    def _point_modes(self, edge, s: np.ndarray) -> np.ndarray:
        """U_e at the coordinates ``s``: one row per point, one column per
        mode of the edge."""
        ph = np.exp(-1j * edge.a * s)
        if edge.is_half_line:
            return (ph * np.exp(1j * self.k * s))[:, np.newaxis]
        near = np.expm1(1j * self.k * s)
        far = np.expm1(1j * self.k * (edge.length - s))
        modes = np.stack([2.0 + near + far, far - near], axis=1)
        return (ph / math.sqrt(2.0))[:, np.newaxis] * modes

    def _source_modes(self, edge, s: np.ndarray) -> np.ndarray:
        """P_f for sources at the coordinates ``s``, laid out as U_e."""
        pv0 = self._free_end(edge, s, s)
        if edge.is_half_line:
            return pv0[:, np.newaxis]
        pv1 = self._free_end(edge, s, edge.length - s)
        return np.stack([pv0 + pv1, pv0 - pv1], axis=1) / math.sqrt(2.0)

    def _free_kernel(self, edge, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
        """F_e(x, y) on the grid ``sx`` x ``sy`` of one edge."""
        diff = sx[:, np.newaxis] - sy[np.newaxis, :]
        out = np.abs(diff) * self.k
        out -= edge.a * diff
        out *= 1j
        np.exp(out, out=out)
        out *= 0.5j / self.k
        return out

    def _check_point(self, point) -> tuple:
        eid, s = point
        edge = self._red.edge_map.get(eid)
        if edge is None:
            raise InputError(f"unknown edge id {eid!r}")
        s = require_finite_real(s, "coordinate")
        if s < 0 or (not edge.is_half_line and s > edge.length):
            raise InputError(f"coordinate {s} outside edge {eid!r}")
        return eid, s

    # -- public -----------------------------------------------------------

    def __call__(self, x, y) -> complex:
        return complex(self.kernel_matrix([self._check_point(x)], [self._check_point(y)])[0, 0])

    def kernel_matrix(self, points, sources=None) -> np.ndarray:
        """G_z(p, q) for p in `points` and q in `sources` (default: points)."""
        points = [self._check_point(p) for p in points]
        sources = points if sources is None else [self._check_point(p) for p in sources]
        source_groups = _group_by_edge(sources)
        edge_map = self._red.edge_map
        # Per source column, the amplitude of every mode: A[:, f] P_f(y)^T.
        amp = np.empty((len(self._amp), len(sources)), dtype=complex)
        for eid, (jdx, sy) in source_groups.items():
            amp[:, jdx] = self._amp[:, self._modes[eid]] @ self._source_modes(edge_map[eid], sy).T
        out = np.empty((len(points), len(sources)), dtype=complex)
        for eid, (idx, sx) in _group_by_edge(points).items():
            edge = edge_map[eid]
            out[idx, :] = self._point_modes(edge, sx) @ amp[self._modes[eid]]
            if eid in source_groups:
                jdx, sy = source_groups[eid]
                out[np.ix_(idx, jdx)] += self._free_kernel(edge, sx, sy)
        return out


def greens_function(sys: MetricGraphSystem, z: complex) -> GreensFunction:
    """Resolvent kernel of the system at spectral parameter z."""
    return GreensFunction(sys, z)


# ---------------------------------------------------------------------------
# Scattering
# ---------------------------------------------------------------------------


class _ScatteringSolver(_Reduction):
    """On-shell scattering matrices of one system, at any momentum; the
    reduction is built once, at construction."""

    def __init__(self, sys: MetricGraphSystem):
        super().__init__(sys)
        if not len(self.j_half):
            raise StructuralError("system has no half-lines, hence no channels")

    def __call__(self, k: float) -> np.ndarray:
        """S(k) for a validated momentum k > 0."""
        mat = self.one_point(k, k * k)[0]
        lu = _gated_lu(mat, ResonantKError, f"vertex system ill-conditioned at k = {k}", k=k)
        # An incoming wave exp(-iks) on each channel in turn, with the border
        # rows' right-hand sides zero.
        rhs = np.zeros((len(mat), len(self.j_half)), dtype=complex)
        rhs[: self.size] = -2j * k * self.j_half.conj().T
        x = lu_solve(lu, rhs)
        # One step of iterative refinement: at small k on short edges the
        # condition reaches ~5e4, and the plain solve's error alone then
        # shows as a unitarity defect above 1e-12.
        x += lu_solve(lu, rhs - mat @ x)
        return self.j_half @ x[: self.size] - np.eye(len(self.j_half))


def scattering_matrix(sys: MetricGraphSystem, k: float) -> np.ndarray:
    """On-shell scattering matrix at momentum k > 0.

    Channel j is the j-th half-line in the system's edge order.  The wave
    ansatz on channel l for an incoming wave on channel j is
    delta_{lj} exp(-iks) + S_{lj} exp(iks), so a decoupled Neumann half-line
    has S = +1 and a Dirichlet one S = -1.
    """
    k = require_positive_real(k, "momentum k")
    return _ScatteringSolver(sys)(k)


def effective_scattering(g: ApproxGraph, k: float) -> np.ndarray:
    """Scattering matrix of an approximating graph, outer channels in order."""
    return scattering_matrix(system_from_approx(g), k)
