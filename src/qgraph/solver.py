"""Spectra, resolvents, and scattering matrices of metric-graph systems.

Every solver path works on one vertex-reduced matrix.  Eliminating each
finite edge through its Dirichlet-to-Neumann map, and each half-line
through its outgoing (or decaying) wave, leaves a matrix on the free vertex
values of the ST forms (Berkolaiko & Kuchment, *Introduction to Quantum
Graphs*):

    B(z) = S + sum_e (c_+ w_+ w_+* + c_- w_- w_-*) - i k sum_h J_h* J_h,

with k = sqrt(z), c_+ = -k tan(kl/2) and c_- = k cot(kl/2) (see
:class:`_Reduction`).  A degree-2 delta vertex between two finite edges,
such as the midpoint of every inner edge of an approximating graph, is
eliminated per point: its row of that matrix is a scalar pivot and one
column, so the matrix is formed directly on the remaining vertex values as
a Schur complement (Haynsworth inertia additivity keeps the count exact).
An approximating graph with n outer edges thus reduces to n values, not n
plus its number of inner edges.

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
  are that bisection's.  The search is a generator that yields the lambdas
  it needs counted, so the searches of several systems of one reduction
  shape, such as an eig sweep's approximating graphs, advance in lockstep:
  each round counts all their batches in one call of their stacked
  reduction, where every point reads the arrays of its own graph.
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
cannot overflow for Im k >= 0.  A midpoint next to a bordered edge, or
whose pivot is small next to its own terms, stays a row at that point.
Scattering and resolvents solve with the (bordered) matrix once, through
numpy's LAPACK ``gesv``, with the identity stacked next to the right-hand
sides, and gate on the exact 1-norm condition ||B||_1 ||B^-1||_1 from the
inverse those extra columns give: beyond 1e12 the point is numerically
on the spectrum, and scattering raises :class:`ResonantKError`, the
resolvent :class:`NearSingularZError`.  The gate is never laxer than
LAPACK's estimate from the LU factors (Hager; Higham), a lower bound on
the same condition.  Every factorization and count goes through numpy,
so no command loads scipy.
"""

from __future__ import annotations

import importlib
import math
from typing import NamedTuple

import numpy as np

from ._util import (
    numerical_rank,
    require_finite_complex,
    require_finite_real,
    require_positive_int,
    require_positive_real,
)
from .builder import ApproxGraph
from .couplings import st_from_ab
from .errors import (
    InputError,
    NearSingularZError,
    QGraphError,
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


# perfbench/tracing.py rebinds these names, which nothing here calls: name ->
# the scipy module that defines it.  They resolve on first access, so only a
# traced run imports scipy.  They go once the tracer stops rebinding them.
_TRACER_NAMES = {
    "lu_factor": "scipy.linalg",
    "lu_solve": "scipy.linalg",
    "brentq": "scipy.optimize",
    "minimize_scalar": "scipy.optimize",
}


def __getattr__(name):
    if name in _TRACER_NAMES:
        return getattr(importlib.import_module(_TRACER_NAMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Ceiling on the 1-norm condition of a reduced matrix: beyond it a
# scattering momentum is resonant and a resolvent point lies on the spectrum.
_COND_LIMIT = 1e12

# Points per graph per batched count in the eigenvalue search, on a reduced
# matrix up to _ROUND_SIZE wide: a bisection round of one graph counts at
# most max(_ROUND_POINTS, live intervals) speculative midpoints, and the
# bracket counts its doubling sequence in batches of _ROUND_POINTS; a
# lockstep round counts the batches of all the graphs of a family in one
# call.  On the 3-wide reductions of n = 3 approximating graphs a count
# costs about 0.1-0.2 ms per call and 32 points about 3 times one (2-CPU
# Xeon), so fewer, wider calls are faster.  A point's own cost grows with
# the width: on delta' graphs at d = 2^-4, 32 points cost 9 times one at 8
# wide and 21 times at 16 wide, and 5 eigenvalues took 2.2 and 30 times as
# long in batched rounds as in plain bisection.  So a matrix wider than
# _ROUND_SIZE is counted one point at a time, plain bisection, and its
# graph alone.
_ROUND_POINTS = 32
_ROUND_SIZE = 6

# A midpoint whose pivot p is below this fraction of its terms' magnitudes,
# T = |w| + (1/2) sum_halves (|c_+| + |c_-|), stays a row (see _Reduction).
# An entry of its column b is at most T on delta ends, so eliminating it
# adds entries b b*/p of at most T/_PIVOT_RATIO: the element growth of one
# Gaussian elimination step, which makes the complement exact for a matrix
# within ~1,000 ulps of T of the full one, inside the count's own noise near
# a level (up to ~4,000 ulps).  On delta' graphs |p| is 0.2-1 times T; the
# random dense couplings of the benchmark reach 3e-4 (|p| ~ 1/(d |c|) next
# to T ~ 4/d for a large T-column overlap c), so a few of their midpoints
# stay rows.
_PIVOT_RATIO = 2.0**-10

# The arrays of a reduction that belong to one graph: they carry a leading
# graph axis, along which _Reduction.stack joins reductions of one shape.
_PER_GRAPH = ("s_mat", "mid_w", "length", "two_over_l", "w", "w_adj", "wm", "w_mid")


def _principal_k(z) -> np.ndarray:
    """sqrt(z) on the branch with Im k >= 0 (and k >= 0 for z >= 0)."""
    k = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(k.imag < 0, -k, k)


def _gated_solve(mat: np.ndarray, rhs: np.ndarray, error: type, message: str, **info):
    """The solution of ``mat x = rhs``; ``error(message, **info)``, with
    the condition appended, when the 1-norm condition ||mat||_1
    ||mat^-1||_1 exceeds _COND_LIMIT.  One ``np.linalg.solve`` of [rhs | I]
    gives the solution and the inverse from one factorization; the extra
    columns leave the solution's bits as a solve of rhs alone gives them.
    The norm is floored at 1, the scale of a border diagonal, so that a
    border row tied to no vertex value (an edge between Dirichlet ends)
    fails the gate when its diagonal vanishes.  An exactly singular or NaN
    matrix fails the gate with condition inf; an empty one (no free vertex
    values) passes."""
    n, m = len(mat), rhs.shape[1]
    try:
        sol = np.linalg.solve(mat, np.concatenate([rhs, np.eye(n)], axis=1))
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        with np.errstate(over="ignore"):
            cond = max(np.linalg.norm(mat, 1), 1.0) * np.linalg.norm(sol[:, m:], 1) if n else 0.0
    if not cond <= _COND_LIMIT:
        cond = math.inf if math.isnan(cond) else cond
        raise error(f"{message} (condition estimate {cond:.2e})", **info)
    return sol[:, :m]


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


def _at(g, points: np.ndarray):
    """The graph index ``g`` of a reduction's points restricted to
    ``points``: an int, every point's graph, stays as it is; an array, one
    graph per point, is read at ``points``."""
    return g[points] if isinstance(g, np.ndarray) else g


# ---------------------------------------------------------------------------
# The vertex reduction
# ---------------------------------------------------------------------------


class _Reduction:
    """A system reduced to the free values of its kept vertices' ST forms.

    The unknowns of a vertex are the m_v free values of its ST form: the
    values at its ends are J_v x_v with J_v = [I; T*] in the original end
    order, and S_v is its block of B (a delta vertex has J = ones, S = [w];
    a coupling with B = 0, such as a Dirichlet end, has m_v = 0).
    Finite edge e adds c_+ w_+ w_+* + c_- w_- w_-*, where w_+- = J* (1,
    +-e^{-ial}) / sqrt(2) over its two ends are its symmetric and
    antisymmetric modes, c_+ = -k tan(kl/2) and c_- = k cot(kl/2); half-line
    h adds -ik J_h* J_h, J_h the row of its end.

    A midpoint, a degree-2 delta vertex whose two ends lie on two finite
    edges (its halves) that no other midpoint touches, is eliminated per
    point.  Its value x_m couples only to the far ends of its halves, so its
    row of the full matrix is a scalar pivot p = w + (1/2) sum_halves (c_+ +
    c_-) and a column b over the kept values, and the kept values see the
    Schur complement

        B = S + sum_e (edge terms on the kept rows) - sum_m b_m b_m* / p_m.

    The count adds the eliminated pivots' signs (Haynsworth inertia
    additivity: n_-(full) = n_-(B) + #{p < 0}), and a solve recovers x_m =
    (r_m - b_m* x) / p_m.  Every inner edge of an approximating graph is two
    halves around such a midpoint, so an n-edge approximating graph reduces
    to n kept values, not n + pairs.

    Near an edge Dirichlet level one coefficient c diverges.  Away from
    kl ~ 0, a term with |c| > |k| moves into an extra row and column with
    off-diagonal sqrt(k) w and diagonal b = -k/c; its Schur complement is
    the term itself, and every entry stays O(|k|), so nothing cancels when a
    solution sits on or next to a Dirichlet level.  A midpoint stays a row
    at a point where one of its halves is bordered, or where |p| is below
    _PIVOT_RATIO times its terms' magnitudes; such rows and the border rows
    are the extra rows of :meth:`bordered`.

    A reduction is a stack of graphs that share a :attr:`shape`, such as the
    approximating graphs of one ST form at several d (see :meth:`stack`):
    the arrays named in _PER_GRAPH carry a leading graph axis, and a
    system's own reduction is a stack of one.  The methods that evaluate
    points take a graph index g: an int when all the points are on one
    graph, whose arrays then broadcast over them, or an array of one graph
    per point, which reads each point's arrays.
    """

    def __init__(self, sys: MetricGraphSystem):
        finite = [e for e in sys.edges if not e.is_half_line]
        half = [e for e in sys.edges if e.is_half_line]
        self.edge_map = sys.edge_map
        self.finite_index = finite_index = {e.id: i for i, e in enumerate(finite)}
        self.half_index = {e.id: i for i, e in enumerate(half)}
        self.length = np.array([e.length for e in finite], dtype=float)
        ne = len(finite)
        # Midpoints, in vertex order: each claims its two halves.
        claimed: set = set()
        mid_w, mid_ends = [], []
        # The row and J row of each half-line's end.
        half_rows: dict = {}
        # The rows and strengths of the kept delta vertices, and the first
        # row and S block of every other kept vertex.
        delta_rows, delta_w, blocks = [], [], []
        # Per finite edge end and free value of the kept vertices: edge, end
        # index, row and conj(J) entry.
        edge, side, row, value = [], [], [], []
        size = 0
        for vertex in sys.vertices:
            cond = vertex.condition
            ends = vertex.ends
            if isinstance(cond, DeltaCondition):
                if len(ends) == 2:
                    (first, first_side), (second, second_side) = ends
                    if (
                        first != second
                        and first in finite_index
                        and second in finite_index
                        and first not in claimed
                        and second not in claimed
                    ):
                        claimed.update((first, second))
                        mid_w.append(cond.w)
                        mid_ends += (finite_index[first], first_side)
                        mid_ends += (finite_index[second], second_side)
                        continue
                # J = ones and S = [w]: every end reads the one value with
                # entry 1, and no numpy call is needed.
                delta_rows.append(size)
                delta_w.append(cond.w)
                free, j_rows = 1, [(1.0,)] * len(ends)
                entries = j_rows
            else:
                if not cond.coupling.B.any():
                    # B = 0: every end is Dirichlet and there are no free
                    # values, so no normal form is needed; A must still be
                    # invertible.
                    n = cond.coupling.n
                    if numerical_rank(cond.coupling.A) < n:
                        raise InputError(
                            f"coupling is not admissible: rank deficient: rank(A|B) < n = {n}"
                        )
                    j_mat = np.empty((n, 0), dtype=complex)
                    s_mat = np.empty((0, 0), dtype=complex)
                else:
                    st = st_from_ab(cond.coupling)
                    j_mat = np.empty((st.n, st.m), dtype=complex)
                    j_mat[np.array(st.perm) - 1] = np.vstack([np.eye(st.m), st.T.conj().T])
                    s_mat = st.S
                blocks.append((size, s_mat))
                free, j_rows, entries = j_mat.shape[1], j_mat, j_mat.conj().tolist()
            for (eid, end), j_row, entry in zip(ends, j_rows, entries):
                e = finite_index.get(eid)
                if e is None:
                    half_rows[eid] = (size, j_row)
                else:
                    edge += [e] * free
                    side += [end] * free
                    row += range(size, size + free)
                    value += entry
            size += free
        self.size = size
        # The kept vertex blocks on the diagonal; float or complex, as the
        # blocks.
        self.s_mat = np.zeros((size, size), dtype=np.result_type(float, *(b for _, b in blocks)))
        self.s_mat[delta_rows, delta_rows] = delta_w
        for at, block in blocks:
            self.s_mat[at : at + len(block), at : at + len(block)] = block
        self.mid_w = np.array(mid_w, dtype=float)
        # A coefficient that is not bordered is at most max(|k|, 2/l), and a
        # mode vector's entries are at most sqrt(2) on delta vertices, so on
        # an approximating graph this bounds the entries of the full matrix
        # next to kl = 0, and with 1/_PIVOT_RATIO those of the complement of
        # its midpoints; edges too short for it to be finite would overflow B.
        with np.errstate(over="ignore"):
            bound = max(
                np.abs(self.s_mat).max(initial=0.0), np.abs(self.mid_w).max(initial=0.0)
            ) + np.sum(4.0 / self.length)
            if mid_w:
                bound /= _PIVOT_RATIO
        if not math.isfinite(bound):
            raise InputError(
                f"edges as short as {self.length.min():.3g} overflow the reduced matrix"
            )
        self.two_over_l = 2.0 / self.length
        # The modes w_+ and w_- of every finite edge on the kept rows, side by
        # side (column e is w_+ of edge e, column E + e its w_-), and their
        # entries at the midpoints, built per end index: end 0 adds (1, 1)
        # conj(J), end 1 adds (e^{-ial}, -e^{-ial}) conj(J).
        phase = np.exp(-1j * np.array([e.a for e in finite]) * self.length)
        factors = (np.ones(2 * ne), np.concatenate([phase, -phase]))
        edge, side, row = (np.array(x, dtype=int) for x in (edge, side, row))
        value = np.array(value, dtype=complex)
        halves = np.array(mid_ends, dtype=int).reshape(-1, 2, 2)
        self.w = np.zeros((size, 2 * ne), dtype=complex)
        self.wm = np.zeros(2 * ne, dtype=complex)
        for end in (0, 1):
            at = side == end
            for modes in (edge[at], edge[at] + ne):
                self.w[row[at], modes] += factors[end][modes] * value[at]
            mid = halves[halves[:, :, 1] == end][:, 0]
            for modes in (mid, mid + ne):
                self.wm[modes] += factors[end][modes]
        # Only the entries set above are divided; every other entry is +0.0,
        # as dividing the whole dense matrix would leave it.
        self.w[np.tile(row, 2), np.concatenate([edge, edge + ne])] /= math.sqrt(2.0)
        self.wm /= math.sqrt(2.0)
        self.w_adj = self.w.conj().T
        self.halves = halves[:, :, 0]
        # The midpoint of each mode's edge, or -1.
        self.mode_mid = np.full(2 * ne, -1)
        mids = np.arange(len(halves))[:, np.newaxis]
        self.mode_mid[self.halves] = self.mode_mid[self.halves + ne] = mids
        # Per midpoint, the modes of its halves (w_+ of each half, then w_-),
        # and those modes on the kept rows times the conjugate of their
        # midpoint entry, so that b_m = sum_modes c w conj(w_m).
        self.half_modes = np.concatenate([self.halves, self.halves + ne], axis=1)
        self.w_mid = np.take(self.w, self.half_modes, axis=1)
        self.w_mid *= self.wm[self.half_modes].conj()
        # Rows J_h of the half-line ends.
        self.j_half = np.zeros((len(half), size), dtype=complex)
        for r, edge in enumerate(half):
            at, j_row = half_rows[edge.id]
            self.j_half[r, at : at + len(j_row)] = j_row
        for name in _PER_GRAPH:
            setattr(self, name, getattr(self, name)[np.newaxis])

    @property
    def shape(self) -> tuple:
        """What reductions must share to be stacked: the kept values, the
        finite edges, and the midpoints with their halves."""
        return (self.s_mat.shape[1:], self.s_mat.dtype, self.length.shape[1:], self.halves.shape,
                self.halves.tobytes())

    @classmethod
    def stack(cls, reductions: list["_Reduction"]) -> "_Reduction":
        """One reduction of the graphs of ``reductions``, which share a
        shape; graph g of the stack is the graph of ``reductions[g]``."""
        if len(reductions) == 1:
            return reductions[0]
        out = cls.__new__(cls)
        out.__dict__ = vars(reductions[0]) | {
            name: np.concatenate([getattr(r, name) for r in reductions]) for name in _PER_GRAPH
        }
        return out

    def real_coefficients(self, lam: np.ndarray, g):
        """Edge coefficients and border rows at every point of the 1-d float
        array ``lam``, on the graphs ``g``.

        Returns ``coef`` (points, 2 edges), c_+ of every edge and then c_-
        of every edge, with each bordered one set to 0; the border diagonal
        ``b`` (points, edges), NaN where the edge is not bordered; ``minus``
        (points, edges), True where the bordered vector is w_- and not w_+;
        and the per-point sum of edge Dirichlet levels below lambda, as
        floats (exact below 2^53).  For lambda <= 0 the coefficients are
        kappa tanh(kappa l/2) and kappa coth(kappa l/2).
        """
        npts, ne = len(lam), self.length.shape[-1]
        coef = np.empty((npts, 2 * ne))
        b = np.full((npts, ne), np.nan)
        minus = np.zeros((npts, ne), dtype=bool)
        level_sum = np.zeros(npts)
        below = lam <= 0.0
        if below.any():
            kappa = np.sqrt(-lam[below])[:, np.newaxis]
            at = _at(g, below)
            t = np.tanh(0.5 * kappa * self.length[at])
            coef[below, :ne] = kappa * t
            # kappa coth(kappa l/2) is 2/l where the tanh underflows to 0.
            limit = np.empty_like(t)
            limit[:] = self.two_over_l[at]
            coef[below, ne:] = np.divide(kappa, t, out=limit, where=t > 0)
        above = ~below
        if above.any():
            k = np.sqrt(lam[above])[:, np.newaxis]
            q = k * self.length[_at(g, above)] / math.pi
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
            coef[above, :ne] = np.where(odd, pos, neg)
            coef[above, ne:] = np.where(odd, neg, pos)
            b[above] = np.where(border, np.where(small, -tau, 1.0 / np.maximum(tau, 1.0)), np.nan)
            # The bordered vector is w_+ exactly when small == odd.
            minus[above] = small != odd
            level_sum[above] = levels.sum(axis=1)
        return coef, b, minus, level_sum

    def complex_coefficients(self, k: complex):
        """Edge coefficients and border rows at one momentum with Im k >= 0,
        in the layout of :meth:`real_coefficients` with one point of graph 0.

        With E = exp(ikl) and r = (E - 1)/(E + 1) = i tan(kl/2), c_+ = ik r
        and c_- = ik / r (kappa tanh(kappa l/2) and kappa coth(kappa l/2) at
        k = i kappa), and neither exp overflows.  As in the count, the larger
        coefficient is bordered, with b = -k/c = i/r or i r, except c_- next
        to kl = 0, where it stays near 2/l.
        """
        length = self.length[0]
        em1 = np.expm1(1j * k * length)
        ratio = em1 / (2.0 + em1)
        plus = np.abs(ratio) >= 1.0
        border = plus | (abs(k.real) * length > math.pi)
        c_plus = np.where(border & plus, 0.0, 1j * k * ratio)
        c_minus = np.where(border & ~plus, 0.0, 1j * k / ratio)
        coef = np.concatenate([c_plus, c_minus])[np.newaxis, :]
        b = np.where(border, np.where(plus, 1j / ratio, 1j * ratio), np.nan)[np.newaxis, :]
        return coef, b, ~plus[np.newaxis, :]

    def complement(self, coef: np.ndarray, inside: np.ndarray, g, row: bool = False):
        """The matrix on the kept rows at every point, on the graphs ``g``,
        with each midpoint eliminated where its pivot allows.

        ``coef`` is laid out as by :meth:`real_coefficients`, and ``inside``
        (points, edges) is True where an edge is bordered.  Returns the
        complement (points, size, size); each midpoint's column b_m (points,
        size, midpoints) and pivot p_m (points, midpoints); and ``keep``,
        True where a midpoint stays a row.  With ``row``, also the
        midpoints' rows (points, midpoints, size), which differ from b_m* at
        complex coefficients; the complement then subtracts b_m (row) / p_m.
        """
        mat = self.s_mat[g] + (self.w[g] * coef[:, np.newaxis, :]) @ self.w_adj[g]
        if not self.mid_w.shape[-1]:
            # Nothing to eliminate: no columns, pivots or rows.
            none = coef[:, :0]
            return (mat, mat[:, :, :0], none, none != 0) + ((mat[:, :0],) if row else ())
        c_mid = coef[:, self.half_modes]
        w_mid, mid_w = self.w_mid[g], self.mid_w[g]
        col = (w_mid * c_mid[:, np.newaxis]).sum(axis=-1)
        # |w_+-| is 1/sqrt(2) at a midpoint, so p = w + (1/2) sum_halves (c_+ +
        # c_-), next to |w| + (1/2) sum_halves (|c_+| + |c_-|).
        piv = mid_w + 0.5 * c_mid.sum(axis=-1)
        terms = abs(mid_w) + 0.5 * abs(c_mid).sum(axis=-1)
        keep = inside[:, self.halves].any(axis=-1) | ~(abs(piv) >= _PIVOT_RATIO * terms)
        # b_m / p_m, and 0 for a kept midpoint.
        scaled = col / np.where(keep, np.inf, piv)[:, np.newaxis, :]
        if not row:
            mat -= scaled @ col.conj().transpose(0, 2, 1)
            return mat, col, piv, keep
        rows = (w_mid.conj() * c_mid[:, np.newaxis]).sum(axis=-1).transpose(0, 2, 1)
        mat -= scaled @ rows
        return mat, col, piv, keep, rows

    def bordered(self, mats, root_k, b, minus, col, piv, keep, g, rows=None):
        """The stacked matrices ``mats`` with their extra rows and columns,
        for points on the graphs ``g`` that all keep the same number of
        midpoints and border the same number of edges: first the kept
        midpoints, in midpoint order, with column b_m, row b_m* (or
        ``rows``) and diagonal p_m; then the border rows, in edge order,
        [[B, sqrt(k) W], [sqrt(k) W*, diag(b)]], whose vectors reach a kept
        midpoint of their edge.  ``root_k`` is sqrt(k) per point."""
        inside = ~np.isnan(b)
        nb = int(np.count_nonzero(inside[0]))
        nk = int(np.count_nonzero(keep[0]))
        if not nb + nk:
            return mats
        npts, size = mats.shape[:2]
        out = np.zeros((npts, size + nk + nb, size + nk + nb), dtype=complex)
        out[:, :size, :size] = mats
        kept = slice(size, size + nk)
        border = slice(size + nk, size + nk + nb)
        root_k = root_k[:, np.newaxis, np.newaxis]
        # The graph of each point, against its (points, borders) modes.
        g = np.asarray(g)[..., np.newaxis]
        if nk:
            mids = np.nonzero(keep)[1].reshape(npts, nk)
            mid_col = np.take_along_axis(col, mids[:, np.newaxis, :], axis=2)
            out[:, :size, kept] = mid_col
            if rows is None:
                out[:, kept, :size] = mid_col.conj().transpose(0, 2, 1)
            else:
                out[:, kept, :size] = np.take_along_axis(rows, mids[:, :, np.newaxis], axis=1)
            diag = np.arange(size, size + nk)
            out[:, diag, diag] = np.take_along_axis(piv, mids, axis=1)
        if nb:
            edge = np.nonzero(inside)[1].reshape(npts, nb)
            mode = edge + self.length.shape[-1] * minus[inside].reshape(npts, nb)
            vecs = self.w[g, :, mode].transpose(0, 2, 1)
            out[:, :size, border] = root_k * vecs
            out[:, border, :size] = root_k * vecs.conj().transpose(0, 2, 1)
            diag = np.arange(size + nk, size + nk + nb)
            out[:, diag, diag] = b[inside].reshape(npts, nb)
        if nk and nb:
            # A border vector's entry at the kept midpoint of its edge.
            at_mid = self.mode_mid[edge][:, np.newaxis, :] == mids[:, :, np.newaxis]
            entry = self.wm[g, mode][:, np.newaxis, :]
            out[:, kept, border] = root_k * np.where(at_mid, entry, 0.0)
            out[:, border, kept] = (root_k * np.where(at_mid, entry.conj(), 0.0)).transpose(0, 2, 1)
        return out

    def one_point(self, k: complex, lam: float | None = None) -> "_Point":
        """The reduced matrix at one momentum k, bordered by the count's rule
        when ``lam`` = k^2 is given (real, > 0) and through
        :meth:`complex_coefficients` otherwise, with the half-lines' -ik J*
        J; and what a solve needs besides (see :class:`_Point`).  The point
        is on graph 0."""
        if lam is None:
            coef, b, minus = self.complex_coefficients(k)
            root_k = np.sqrt(k)
        else:
            coef, b, minus, _ = self.real_coefficients(np.array([lam]), 0)
            root_k = math.sqrt(math.sqrt(lam))
        mat, col, piv, keep, rows = self.complement(coef, ~np.isnan(b), 0, row=True)
        mat -= 1j * k * (self.j_half.conj().T @ self.j_half)
        mat = self.bordered(mat, np.array([root_k]), b, minus, col, piv, keep, 0, rows)[0]
        border = np.full((2, self.length.shape[1]), -1)
        cols = np.flatnonzero(~np.isnan(b[0]))
        border[minus[0, cols].astype(int), cols] = np.arange(len(cols))
        inv = 1.0 / np.where(keep[0], np.inf, piv[0])
        return _Point(mat, coef[0], border, root_k, col[0], rows[0], inv, np.flatnonzero(keep[0]))


class _Point(NamedTuple):
    """One point of a :class:`_Reduction`: the bordered matrix ``mat``; the
    coefficients ``coef`` (2 edges) it used; per mode (sign, edge) its
    border row, counted after the kept midpoints' rows, or -1; the sqrt(k)
    of its border columns; each midpoint's column ``col`` and row ``rows``;
    ``inv``, 1/p for an eliminated midpoint and 0 for a kept one; and the
    kept midpoints, in the order of their rows."""

    mat: np.ndarray
    coef: np.ndarray
    border: np.ndarray
    root_k: complex
    col: np.ndarray
    rows: np.ndarray
    inv: np.ndarray
    kept: np.ndarray


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------


class _EigenvalueCount(_Reduction):
    """N(lambda), the number of eigenvalues below lambda of a compact system.

    The edges' Dirichlet-to-Neumann maps split the form h - lambda into the
    edges' Dirichlet parts and the Hermitian reduced matrix B(lambda), so
    that

        N(lambda) = sum_e #{(pi m / l_e)^2 < lambda} + n_-(B(lambda)).

    B(lambda) is counted on the kept values: each eliminated midpoint adds
    its pivot's sign, n_-(B) = n_-(complement) + #{p_m < 0} (Haynsworth).
    Each border row with b < 0 adds one negative eigenvalue to the bordered
    matrix, which is subtracted.  A stacked count (see
    :meth:`~_Reduction.stack`) counts the points of several systems in one
    call.
    """

    def many(self, lams, g: int | np.ndarray = 0) -> list[int]:
        """N(lambda) at every point of the 1-d array ``lams``, of the graph
        ``g`` of the stack, or of one graph per point when ``g`` is an
        array.

        Edge coefficients are computed as (points, edges) arrays, the
        complement of all points as stacked matmuls, and the inertia as one
        stacked eigvalsh per number of kept midpoints and border rows.  Every
        slice goes through the same operations, in the same order, as a
        single point of its graph would.
        """
        lam = np.asarray(lams, dtype=float).reshape(-1)
        coef, b, minus, level_sum = self.real_coefficients(lam, g)
        inside = ~np.isnan(b)
        mat, col, piv, keep = self.complement(coef, inside, g)
        # N = level count + negative eigenvalues of the bordered complement
        # + negative eliminated pivots - negative b's.
        inertia = (~keep & (piv < 0)).sum(axis=1) - (b < 0).sum(axis=1)
        # Points are grouped by their numbers of kept midpoints and borders.
        extra = keep.sum(axis=1) * (inside.shape[1] + 1) + inside.sum(axis=1)
        for key in set(extra.tolist()):
            at = np.flatnonzero(extra == key)
            part = mat if len(at) == len(lam) else mat[at]
            if key:
                # Border rows come only at lambda > 0; a kept midpoint's row
                # needs no sqrt(k).
                root_k = np.sqrt(np.sqrt(np.maximum(lam[at], 0.0)))
                part = self.bordered(
                    part, root_k, b[at], minus[at], col[at], piv[at], keep[at], _at(g, at)
                )
            inertia[at] += _negative_counts(part)
        return [int(s) + n for s, n in zip(level_sum.tolist(), inertia.tolist())]


def _negative_counts(mats: np.ndarray) -> np.ndarray:
    """Negative eigenvalues of each Hermitian matrix in a stack, counted
    after a symmetric diagonal scaling (which keeps the inertia) that brings
    every row's largest entry to 1; the scaling overwrites ``mats``."""
    if not mats.shape[-1]:
        return np.zeros(len(mats), dtype=int)
    row_max = np.abs(mats).max(axis=-1)
    scale = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
    mats *= scale[:, :, np.newaxis] * scale[:, np.newaxis, :]
    return (np.linalg.eigvalsh(mats) < 0).sum(axis=-1)


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


def _bracket(chunk: list[float], counts, done, other_end: float, points: int):
    """The first lambda of the doubling sequence that begins with ``chunk``
    whose count passes ``done``, and that count, as a generator (see
    :func:`_search`).  ``counts`` are the counts at ``chunk``, taken by the
    caller; the rest of the sequence is yielded in chunks of ``points``.  It
    ends, with :class:`ScanRangeError`, at the last lambda whose double is
    still finite."""
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
        counts = yield chunk


def _is_leaf(a: float, b: float) -> bool:
    """Whether bisection stops at [a, b]: width at most 1e-13 max(1, |lambda|)."""
    return b - a <= 1e-13 * max(1.0, abs(a), abs(b))


def _subtree_midpoints(live, depth: int) -> list[float]:
    """The midpoint of every interval of the depth-``depth`` bisection
    subtree of each live interval; an interval at leaf width is not split,
    so neither it nor anything below it is listed."""
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
    return mids


def _search(points: int, count: int, lam_min: float | None):
    """The eigenvalue search of :func:`eigenvalues_compact` on one system,
    as a generator: it yields every list of lambda it needs counted, is sent
    their counts, and returns the eigenvalues.  ``points`` is the batch size
    (see :func:`_batch_points`)."""
    if lam_min is None:
        down = _doubling(-1.0, points)
        lo, n_lo = yield from _bracket(down, (yield down), lambda n: n == 0, 0.0, points)
        up = _doubling(max(1.0, 2.0 * lo), points)
        counts = yield up
    else:
        # lam_min is counted in one batch with the first upward chunk.
        lo = lam_min
        up = _doubling(max(1.0, 2.0 * lo), max(1, points - 1))
        n_lo, *counts = yield [lam_min] + up
    target = n_lo + count
    hi, n_hi = yield from _bracket(up, counts, lambda n: n >= target, lo, points)
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
        mids = _subtree_midpoints(live, depth)
        n_at = dict(zip(mids, (yield mids)))
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


def _eigenvalues_lockstep(systems, count: int, lam_min: float | None = None) -> list:
    """Per system of ``systems``, the result of :func:`eigenvalues_compact`
    or the :class:`QGraphError` it raises; ``count`` and ``lam_min`` are
    validated for all.

    Systems whose reductions share a shape and are up to _ROUND_SIZE wide,
    such as the approximating graphs of one ST form, are searched in
    lockstep (see :func:`_search_family`).  A wider count is point-bound:
    stacking it would gather its arrays per point, and at delta' n = 24 a
    stacked eig sweep was slower and larger than the solo searches.  So
    each wider system is searched alone, as soon as it is reduced, and only
    one such reduction is held at a time.
    """
    count = require_positive_int(count, "count")
    if lam_min is not None:
        lam_min = require_finite_real(lam_min, "lam_min")
    results: list = [None] * len(systems)
    families: dict[tuple, list[tuple[int, _EigenvalueCount]]] = {}
    for i, sys in enumerate(systems):
        try:
            if not sys.is_compact:
                raise StructuralError("system has half-lines; call truncate() first")
            one = _EigenvalueCount(sys)
        except QGraphError as exc:
            results[i] = exc
            continue
        if one.size <= _ROUND_SIZE:
            families.setdefault(one.shape, []).append((i, one))
        else:
            _search_family([(i, one)], count, lam_min, results)
            del one
    for members in families.values():
        _search_family(members, count, lam_min, results)
    return results


def _search_family(members, count: int, lam_min: float | None, results: list) -> None:
    """Run the searches of ``members``, (index, one-system count) pairs of
    one shape, to their ends, and put each one's eigenvalues, or the
    QGraphError it raises, at its index of ``results``.

    The searches advance in lockstep rounds: a round takes the batch each
    search waits on and counts them all in one call of the members' stacked
    count, so a family makes as many calls as its slowest search alone.
    Each point is counted as its system alone would count it, so every
    search reads the same counts and takes the same decisions.
    """
    stacked = _EigenvalueCount.stack([one for _, one in members])
    points = _batch_points(stacked.size)
    searches = [_search(points, count, lam_min) for _ in members]
    # The batch each search waits on, by its graph of the stack.
    waiting: dict[int, list[float]] = {}

    def resume(g, counts):
        try:
            waiting[g] = searches[g].send(counts)
        except StopIteration as stop:
            results[members[g][0]] = stop.value
        except QGraphError as exc:
            results[members[g][0]] = exc

    for g in range(len(members)):
        resume(g, None)
    while waiting:
        asked = list(waiting.items())
        waiting.clear()
        if len(asked) == 1:
            ((graph, lams),) = asked
        else:
            graph = np.repeat([g for g, _ in asked], [len(batch) for _, batch in asked])
            lams = [lam for _, batch in asked for lam in batch]
        counts = stacked.many(lams, graph)
        at = 0
        for g, batch in asked:
            resume(g, counts[at : at + len(batch)])
            at += len(batch)


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
    |lambda|); a level's multiplicity is the jump of N across it.  N is
    read from the reduced matrix on the kept vertex values, which for an
    approximating graph with n outer edges is n wide: every inner edge's
    midpoint is eliminated (see :class:`_Reduction`).  The bisection runs in
    rounds: a round counts, in one batched call, at every midpoint of the
    depth-r subtree of each live interval (r as deep as a batch of 32 points
    allows on a reduced matrix up to 6 wide, and at least 1; a wider matrix
    is counted one point per round, which is plain bisection), then takes r
    levels of interval decisions from those counts.  Every decision reads
    the count at the same lambda as a depth-first bisection would, so the
    values and their order are that search's.  With ``lam_min``, which must
    be finite, only eigenvalues above that floor are returned.

    This is :func:`_eigenvalues_lockstep` on one system; an eig sweep runs
    it on all its approximating graphs at once, with the same result for
    each.
    """
    (result,) = _eigenvalues_lockstep([sys], count, lam_min)
    if isinstance(result, QGraphError):
        raise result
    return result


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
    construction: one gated solve with the reduced matrix B(z) takes a
    unit right-hand side per mode, w_+- (c_+- - ik) (with sqrt(k)
    in a bordered mode's border row) for mode p_+- of a finite edge and
    -2ik J_h* for a half-line h.  An eliminated midpoint's entries r_m of
    those right-hand sides enter the kept rows as -b_m r_m / p_m, and its
    value follows from the solution x as x_m = (r_m - b_m* x) / p_m, with
    b_m* its row.  The mode values of each solution, minus the unit mode
    itself on its own edge, are divided by 1 + e^{ikl} and e^{ikl} - 1.
    For a bordered mode the border unknown y = c h / sqrt(k) gives the
    amplitude -i y / (sqrt(k) (e^{ikl} -+ 1)) instead, which is regular on
    the edge's Dirichlet level.
    """

    def __init__(self, sys: MetricGraphSystem, z: complex):
        z = require_finite_complex(z, "z")
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
        pt = red.one_point(k, z.real if positive else None)
        # The point is on graph 0 of the reduction (see _Reduction.one_point).
        w, wm, length = red.w[0], red.wm[0], red.length[0]
        ne, size, n_kept = len(length), red.size, len(pt.kept)
        # Mode indices of every edge: sign * ne + e on finite edge e, 2 ne + h
        # on half-line h.
        self._modes = {eid: [e, ne + e] for eid, e in red.finite_index.items()}
        self._modes.update({eid: [2 * ne + h] for eid, h in red.half_index.items()})
        n_modes = 2 * ne + len(red.j_half)
        # One unit right-hand side per source mode, in mode order: on the
        # kept rows, on the midpoints (a mode of a half enters its midpoint's
        # row), and on the border rows.
        unit = pt.coef - 1j * k
        rhs = np.zeros((len(pt.mat), n_modes), dtype=complex)
        rhs[:size, : 2 * ne] = w * unit
        rhs[:size, 2 * ne :] = -2j * k * red.j_half.conj().T
        mode = np.flatnonzero(red.mode_mid >= 0)
        mid = red.mode_mid[mode]
        rhs_mid = np.zeros((red.mid_w.shape[1], n_modes), dtype=complex)
        rhs_mid[mid, mode] = wm[mode] * unit[mode]
        rhs[:size] -= pt.col @ (pt.inv[:, np.newaxis] * rhs_mid)
        rhs[size : size + n_kept] = rhs_mid[pt.kept]
        sign, cols = np.nonzero(pt.border >= 0)
        rows = size + n_kept + pt.border[sign, cols]
        rhs[rows, sign * ne + cols] = pt.root_k
        sol = _gated_solve(
            pt.mat, rhs, NearSingularZError, f"z = {z} is numerically on the spectrum"
        )
        x = sol[:size]
        # The midpoints' values: x_m = (r_m - b_m* x) / p_m where eliminated.
        x_mid = pt.inv[:, np.newaxis] * (rhs_mid - pt.rows @ x)
        x_mid[pt.kept] = sol[size : size + n_kept]
        amp = np.concatenate([red.w_adj[0] @ x, red.j_half @ x])
        amp[mode] += wm[mode, np.newaxis].conj() * x_mid[mid]
        amp[np.diag_indices(len(amp))] -= 1.0
        amp[sign * ne + cols] = sol[rows]
        # The factor that turns a mode value, or a border unknown, into an
        # amplitude.
        em1 = np.expm1(1j * k * length)
        divisor = np.stack([2.0 + em1, em1])
        scale = 1.0 / divisor
        scale[sign, cols] = -1j / (pt.root_k * divisor[1 - sign, cols])
        amp[: 2 * ne] *= scale.reshape(-1, 1)
        self._amp = amp

    # -- internals --------------------------------------------------------

    def _free_end(self, a, sy: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Gauged value of the free kernel of sources at ``sy`` at an end of
        their edge, ``dist`` away, under the potential ``a``."""
        return np.exp(1j * a * sy) * (0.5j / self.k) * np.exp(1j * self.k * dist)

    def _point_modes(self, length, a, s: np.ndarray) -> np.ndarray:
        """U at the coordinates ``s`` on edges of length ``length`` and
        potential ``a``, all three broadcast together: the modes on a new
        last axis, two on a finite edge.  A half-line (``length`` inf) has
        one mode and is evaluated on its own."""
        ph = np.exp(-1j * a * s)
        if np.isinf(length).any():
            return (ph * np.exp(1j * self.k * s))[..., np.newaxis]
        near = np.expm1(1j * self.k * s)
        far = np.expm1(1j * self.k * (length - s))
        modes = np.stack([2.0 + near + far, far - near], axis=-1)
        return (ph / math.sqrt(2.0))[..., np.newaxis] * modes

    def _source_modes(self, length, a, s: np.ndarray) -> np.ndarray:
        """P for sources at the coordinates ``s``, laid out as
        :meth:`_point_modes`."""
        pv0 = self._free_end(a, s, s)
        if np.isinf(length).any():
            return pv0[..., np.newaxis]
        pv1 = self._free_end(a, s, length - s)
        return np.stack([pv0 + pv1, pv0 - pv1], axis=-1) / math.sqrt(2.0)

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
            edge = edge_map[eid]
            modes = self._source_modes(edge.length, edge.a, sy)
            amp[:, jdx] = self._amp[:, self._modes[eid]] @ modes.T
        out = np.empty((len(points), len(sources)), dtype=complex)
        for eid, (idx, sx) in _group_by_edge(points).items():
            edge = edge_map[eid]
            out[idx, :] = self._point_modes(edge.length, edge.a, sx) @ amp[self._modes[eid]]
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
        mat = self.one_point(k, k * k).mat
        # An incoming wave exp(-iks) on each channel in turn, with the border
        # rows' right-hand sides zero.
        rhs = np.zeros((len(mat), len(self.j_half)), dtype=complex)
        rhs[: self.size] = -2j * k * self.j_half.conj().T
        x = _gated_solve(mat, rhs, ResonantKError, f"vertex system ill-conditioned at k = {k}", k=k)
        # One step of iterative refinement: at small k on short edges the
        # condition reaches ~5e4, and the plain solve's error alone then
        # shows as a unitarity defect above 1e-12.
        x += np.linalg.solve(mat, rhs - mat @ x)
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
