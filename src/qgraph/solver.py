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
plus its number of inner edges.  One reduction, :class:`_Reduction`, has
three evaluations of that matrix: the eigenvalue count
(:meth:`_Reduction.counts`), S(k) (:meth:`_Reduction.scattering`) and the
resolvent's amplitudes (:meth:`_Reduction.amplitudes`).

* Eigenvalues of compact systems are counted, not searched for: the
  number of eigenvalues below lambda is the number of edge Dirichlet
  levels below lambda plus the number of negative eigenvalues of the
  Hermitian B(lambda) (Friedlander's count), and a level's multiplicity is
  the jump of the count across it, so degenerate and nearly degenerate
  levels are resolved by construction.  The count brackets the wanted
  levels (a doubling sequence, counted in chunks) and separates them (a
  few bisection rounds, each counting at every midpoint of a few levels of
  the subtree below each live interval; a midpoint is a/2 + b/2, which
  stays finite for any finite ends).  An interval then holding one
  level is refined by a safeguarded root step, as for a Hermitian
  nonlinear eigenproblem (Voss & Werner's minimax principle, whose
  enumeration the count supplies): the eigenvalues of the bordered reduced
  matrix, which the count computes anyway, are continuous in lambda
  between points of one matrix structure, and the one that crosses 0 at
  the level gives a weighted regula falsi step (Anderson & Bjorck).  Each
  step counts the pair x -+ h, a bisection leaf's width apart, so a step
  that lands within h of the level certifies it by the count: the pair
  holds the whole jump.  Otherwise the pair shrinks the bracket.  A level
  whose ends differ in structure, or whose steps stall, is bisected, and
  clamping keeps every count monotone, so each value is a certified point
  or a bisection leaf.  The count is evaluated on arrays of lambda
  (stacked matmuls and stacked eigvalsh calls, with each point's
  arithmetic unchanged); on the small reduced matrices of approximating
  graphs a count's cost is mostly per call, so a round counts all its
  points in one call (a matrix wider than 6, whose points cost more,
  counts one midpoint per interval).  The search is a generator that
  yields the lambdas it needs counted, so the searches of several systems
  of one reduction shape, such as an eig sweep's approximating graphs,
  advance in lockstep: each round counts all their batches in one call of
  their stacked reduction, where every point reads the arrays of its own
  graph, with the bits a search alone reads.  An eig sweep reduces its
  approximating graphs through :func:`_each_family`, as the scattering and
  HS sweeps do, and searches each family in lockstep.
* A scattering matrix solves B(k^2) x = -2ik J_h* for an incoming wave on
  each channel h; then S = J_h x - I.
* A resolvent kernel is the free-line kernel on the source edge plus the
  homogeneous solution on every edge whose vertex values solve B(z) x =
  (the source's trace terms).  Those terms are linear in the two end modes
  of the source, so one solve with a unit right-hand side per edge mode
  gives every source's amplitudes (:class:`GreensFunction`).
* Both are evaluated on arrays of points, as the count is: S(k) at arrays
  of momenta and graphs (:meth:`_Reduction.scattering`), the amplitudes
  at one z on an array of graphs (:meth:`_Reduction.amplitudes`).  A
  sweep's family of approximating graphs is stacked, and all its points
  are solved in one call, one batched solve per number of kept midpoints
  and border rows, each point with the bits it has alone; a reduction
  wider than 6 solves one point per call.  A single S(k)
  (:func:`scattering_matrix`) or resolvent (:class:`GreensFunction`) is
  the stack of one.

A coefficient that diverges next to an edge Dirichlet level moves into a
border row, so every entry stays O(|k|); at real lambda > 0 by the count's
own rule, elsewhere with the coefficients written through exp(ikl), which
cannot overflow for Im k >= 0.  A midpoint next to a bordered edge, or
whose pivot is small next to its own terms, stays a row at that point.
Scattering and resolvents solve with each point's (bordered) matrix once,
through numpy's LAPACK ``gesv`` on the stack of a group's matrices, with
the identity stacked next to the right-hand sides, and gate each point on
the exact 1-norm condition ||B||_1 ||B^-1||_1 from the inverse those extra
columns give: beyond 1e12 the point is numerically on the spectrum, and
its scattering matrix is a :class:`ResonantKError`, its resolvent a
:class:`NearSingularZError`.  The gate is never laxer than
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
    gate_error,
    gated_solve,
    require_finite_complex,
    require_finite_real,
    require_positive_int,
    require_positive_real,
)
from .builder import ApproxGraph
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


# Points per graph per batched count in the eigenvalue search, on a reduced
# matrix up to _ROUND_SIZE wide: a round of one graph counts the step pair
# of each stepped level and at most max(_ROUND_POINTS - those, intervals
# bisected) speculative midpoints, and the bracket's doubling chunks grow
# to _ROUND_POINTS; a lockstep round counts the batches of all the graphs
# of a family in one call.  On the 3-wide reductions of n = 3 approximating
# graphs at d = 2^-4 one call costs 0.07 ms for 1 point, 0.30 ms for 32 and
# 1.56 ms for 288 (2-CPU Xeon), so fewer calls, and fewer points in them,
# are faster.  A point's own cost grows with the width: on delta' graphs at
# d = 2^-4, 32 points cost 9 times one at 8 wide and 21 times at 16 wide,
# and 5 eigenvalues took 2.2 and 30 times as long in batched rounds as in
# plain bisection.  So a matrix wider than _ROUND_SIZE is counted with one
# midpoint per bisected interval, and its graph alone.  _ROUND_SIZE governs
# the scattering and resolvent stacks of a sweep's family too (see
# _each_family): a wider reduction solves one point per call.  Stacked,
# the default-grid sweeps of delta' n = 16 peaked at 8.3 (scattering) and
# 8.9 (HS) times the memory of one d, and stacking only the three momenta
# of each graph doubled a delta' n = 24 scattering sweep's peak (2.8 to
# 6.1 MiB, tracemalloc).
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
_PER_GRAPH = ("s_mat", "mid_w", "length", "two_over_l", "wm", "w_mid")


def _principal_k(z) -> np.ndarray:
    """sqrt(z) on the branch with Im k >= 0 (and k >= 0 for z >= 0)."""
    k = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(k.imag < 0, -k, k)


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


def _groups(keep: np.ndarray, inside: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The points of a reduction, with ``keep`` (points, midpoints) and
    ``inside`` (points, edges) from :meth:`_Reduction.complement`, grouped by
    their numbers of kept midpoints and border rows, in the order of their
    first point: per group, its key, 0 for points with neither, and its
    points' indices."""
    extra = keep.sum(axis=1) * (inside.shape[1] + 1) + inside.sum(axis=1)
    return [(key, np.flatnonzero(extra == key)) for key in dict.fromkeys(extra.tolist())]


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
    a coupling vertex reads both from the normal form its condition holds,
    where B = 0, such as a Dirichlet end, gives m_v = 0).
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
                st = cond.st
                j_mat = np.vstack([np.eye(st.m), st.T.conj().T])[np.argsort(st.perm)]
                blocks.append((size, st.S))
                free, j_rows, entries = st.m, j_mat, j_mat.conj().tolist()
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
        finite edges, the midpoints with their halves, and the modes w on the
        kept rows, which a stack keeps one copy of."""
        return (self.s_mat.shape[1:], self.s_mat.dtype, self.length.shape[1:], self.halves.shape,
                self.halves.tobytes(), self.w.tobytes())

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

    def complex_coefficients(self, k: np.ndarray, g):
        """Edge coefficients and border rows at every momentum of the 1-d
        complex array ``k``, all with Im k >= 0, on the graphs ``g``, in the
        layout of :meth:`real_coefficients`.

        With E = exp(ikl) and r = (E - 1)/(E + 1) = i tan(kl/2), c_+ = ik r
        and c_- = ik / r (kappa tanh(kappa l/2) and kappa coth(kappa l/2) at
        k = i kappa), and neither exp overflows.  As in the count, the larger
        coefficient is bordered, with b = -k/c = i/r or i r, except c_- next
        to kl = 0, where it stays near 2/l.
        """
        length = self.length[g]
        ik = 1j * k[:, np.newaxis]
        em1 = np.expm1(ik * length)
        ratio = em1 / (2.0 + em1)
        plus = np.abs(ratio) >= 1.0
        border = plus | (np.abs(k.real)[:, np.newaxis] * length > math.pi)
        c_plus = np.where(border & plus, 0.0, ik * ratio)
        c_minus = np.where(border & ~plus, 0.0, ik / ratio)
        coef = np.concatenate([c_plus, c_minus], axis=1)
        b = np.where(border, np.where(plus, 1j / ratio, 1j * ratio), np.nan)
        return coef, b, ~plus

    def complement(self, coef: np.ndarray, inside: np.ndarray, g):
        """The matrix on the kept rows at every point, on the graphs ``g``,
        with each midpoint eliminated where its pivot allows.

        ``coef`` is laid out as by :meth:`real_coefficients`, and ``inside``
        (points, edges) is True where an edge is bordered.  Returns the
        complement (points, size, size); each midpoint's column b_m (points,
        size, midpoints) and row (points, midpoints, size); its pivot p_m
        (points, midpoints); and ``keep``, True where a midpoint stays a
        row.  The complement subtracts b_m (row) / p_m.  At real
        coefficients (a Hermitian B: the count, S(k) and a real z > 0) the
        row is b_m*, a view; at complex ones it differs from b_m* and is
        summed on its own.
        """
        mat = self.s_mat[g] + (self.w * coef[:, np.newaxis, :]) @ self.w_adj
        if not self.mid_w.shape[-1]:
            # Nothing to eliminate: no columns, rows or pivots.
            none = coef[:, :0]
            return mat, mat[:, :, :0], mat[:, :0], none, none != 0
        # Taken point-major, so that each point's sums below read its terms
        # in the order a point alone reads them (a fancy index of several
        # points lays the point axis out innermost).
        c_mid = np.take(coef, self.half_modes, axis=1)
        w_mid, mid_w = self.w_mid[g], self.mid_w[g]
        col = (w_mid * c_mid[:, np.newaxis]).sum(axis=-1)
        if np.isrealobj(coef):
            rows = col.conj().transpose(0, 2, 1)
        else:
            rows = (w_mid.conj() * c_mid[:, np.newaxis]).sum(axis=-1).transpose(0, 2, 1)
        # |w_+-| is 1/sqrt(2) at a midpoint, so p = w + (1/2) sum_halves (c_+ +
        # c_-), next to |w| + (1/2) sum_halves (|c_+| + |c_-|).
        piv = mid_w + 0.5 * c_mid.sum(axis=-1)
        terms = abs(mid_w) + 0.5 * abs(c_mid).sum(axis=-1)
        keep = inside[:, self.halves].any(axis=-1) | ~(abs(piv) >= _PIVOT_RATIO * terms)
        # b_m / p_m, and 0 for a kept midpoint.
        scaled = col / np.where(keep, np.inf, piv)[:, np.newaxis, :]
        mat -= scaled @ rows
        return mat, col, rows, piv, keep

    def bordered(self, mats, root_k, b, minus, col, rows, piv, keep, g):
        """The stacked matrices ``mats`` with their extra rows and columns,
        for points on the graphs ``g`` that all keep the same number of
        midpoints and border the same number of edges: first the kept
        midpoints, in midpoint order, with column b_m, its row and diagonal
        p_m (see :meth:`complement`); then the border rows, in edge order,
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
            pick = np.arange(npts)[:, np.newaxis]
            mids = np.nonzero(keep)[1].reshape(npts, nk)
            out[:, :size, kept] = col[pick, :, mids].transpose(0, 2, 1)
            out[:, kept, :size] = rows[pick, mids]
            diag = np.arange(size, size + nk)
            out[:, diag, diag] = piv[pick, mids]
        if nb:
            edge = np.nonzero(inside)[1].reshape(npts, nb)
            mode = edge + self.length.shape[-1] * minus[inside].reshape(npts, nb)
            vecs = self.w.T[mode].transpose(0, 2, 1)
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

    def counts(self, lams, g: int | np.ndarray = 0):
        """N(lambda), the number of eigenvalues below lambda of a compact
        system, at every point of the 1-d array ``lams``, of the graph ``g``
        of the stack, or of one graph per point when ``g`` is an array, and
        each point's :class:`_Branches`.

        The edges' Dirichlet-to-Neumann maps split the form h - lambda into
        the edges' Dirichlet parts and the Hermitian reduced matrix
        B(lambda), so that

            N(lambda) = sum_e #{(pi m / l_e)^2 < lambda} + n_-(B(lambda)).

        B(lambda) is counted on the kept values: each eliminated midpoint
        adds its pivot's sign, n_-(B) = n_-(complement) + #{p_m < 0}
        (Haynsworth).  Each border row with b < 0 adds one negative
        eigenvalue to the bordered matrix, which is subtracted.  The inertia
        is read from one stacked eigvalsh per number of kept midpoints and
        border rows, and every point goes through the same operations, in
        the same order, as a single point of its graph would.
        """
        lam = np.asarray(lams, dtype=float).reshape(-1)
        coef, b, minus, level_sum = self.real_coefficients(lam, g)
        inside = ~np.isnan(b)
        mat, col, rows, piv, keep = self.complement(coef, inside, g)
        # N = level count + negative eigenvalues of the bordered complement
        # + negative eliminated pivots - negative b's.
        negative = ~keep & (piv < 0)
        signs = negative.sum(axis=1) - (b < 0).sum(axis=1)
        inertia = np.zeros_like(signs)
        values: list = [None] * len(lam)
        for key, at in _groups(keep, inside):
            part = mat if len(at) == len(lam) else mat[at]
            if key:
                # Border rows come only at lambda > 0; a kept midpoint's row
                # needs no sqrt(k).
                root_k = np.sqrt(np.sqrt(np.maximum(lam[at], 0.0)))
                part = self.bordered(
                    part, root_k, b[at], minus[at], col[at], rows[at], piv[at], keep[at], _at(g, at)
                )
            eigs = _scaled_eigenvalues(part)
            inertia[at] = (eigs < 0).sum(axis=-1)
            for i, row in zip(at.tolist(), eigs):
                values[i] = row
        offsets = [int(s) + n for s, n in zip(level_sum.tolist(), signs.tolist())]
        counts = [n + m for n, m in zip(offsets, inertia.tolist())]
        # The rows the bordered matrix has, the vectors it borders, and the
        # eliminated pivots' signs: points that share them, and their offset,
        # read one continuous matrix.  A border diagonal b changes sign
        # continuously, through 0, at its edge's Dirichlet level, where the
        # level sum gains what #{b < 0} does, so the offset stays.
        pattern = np.concatenate([keep, inside, minus & inside, negative], axis=1)
        structures = np.packbits(pattern, axis=1)
        found = zip(structures, offsets, values)
        return counts, [_Branches(s.tobytes(), n, row) for s, n, row in found]

    def points(self, k: np.ndarray, g, lam: np.ndarray | None = None):
        """The reduced matrices at the momenta of the 1-d array ``k`` (Im k
        >= 0) on the graphs ``g``, with the half-lines' -ik J* J, bordered
        by the count's rule when ``lam`` = k^2 is given (real, > 0) and
        through :meth:`complex_coefficients` otherwise: one
        :class:`_Points` per number of kept midpoints and border rows, in
        the order of their first point.  Every point's matrix goes through
        the same operations, in the same order, as it would alone."""
        if lam is None:
            coef, b, minus = self.complex_coefficients(k, g)
            root_k = np.sqrt(k)
        else:
            coef, b, minus, _ = self.real_coefficients(lam, g)
            root_k = np.sqrt(np.sqrt(lam))
        inside = ~np.isnan(b)
        mat, col, rows, piv, keep = self.complement(coef, inside, g)
        mat -= (1j * k)[:, np.newaxis, np.newaxis] * (self.j_half.conj().T @ self.j_half)
        inv = 1.0 / np.where(keep, np.inf, piv)
        ne = inside.shape[1]
        for _, at in _groups(keep, inside):
            # A group of all the points reads views, not copies: a wide
            # point's columns and rows are most of its bytes.
            sel = at if len(at) < len(k) else slice(None)
            part = self.bordered(
                mat[sel], root_k[sel], b[sel], minus[sel], col[sel], rows[sel], piv[sel], keep[sel],
                _at(g, sel),
            )
            border = np.nonzero(inside[sel])[1] + ne * minus[sel][inside[sel]]
            border = border.reshape(len(at), -1)
            kept = np.nonzero(keep[sel])[1].reshape(len(at), -1)
            yield _Points(at, part, coef[sel], root_k[sel], col[sel], rows[sel], inv[sel], kept, border)

    def amplitudes(self, z: complex, g: np.ndarray) -> list:
        """The mode amplitude matrix of :class:`GreensFunction` at z (finite,
        not 0) on each graph of the 1-d int array ``g``, or the
        NearSingularZError of its gate.  A real z > 0 is bordered by the
        count's rule."""
        k = complex(_principal_k(z))
        lam = np.full(len(g), z.real) if z.imag == 0 and z.real > 0 else None
        ne, size = self.length.shape[-1], self.size
        n_modes = 2 * ne + len(self.j_half)
        # The modes of the midpoints' halves, and their midpoints.
        mode = np.flatnonzero(self.mode_mid >= 0)
        mid = self.mode_mid[mode]
        diag = np.arange(n_modes)
        message = f"z = {z} is numerically on the spectrum"
        out: list = [None] * len(g)
        for pts in self.points(np.full(len(g), k), g, lam):
            graphs = g[pts.at]
            npts, nk, nb = len(graphs), pts.kept.shape[1], pts.border.shape[1]
            pick = np.arange(npts)[:, np.newaxis]
            # One unit right-hand side per source mode, in mode order: on the
            # kept rows, on the midpoints (a mode of a half enters its
            # midpoint's row), and on the border rows.
            unit = pts.coef - 1j * k
            rhs = np.zeros((npts, pts.mat.shape[-1], n_modes), dtype=complex)
            rhs[:, :size, : 2 * ne] = self.w * unit[:, np.newaxis, :]
            rhs[:, :size, 2 * ne :] = -2j * k * self.j_half.conj().T
            wm = self.wm[graphs]
            rhs_mid = np.zeros((npts, self.mid_w.shape[-1], n_modes), dtype=complex)
            rhs_mid[:, mid, mode] = wm[:, mode] * unit[:, mode]
            rhs[:, :size] -= pts.col @ (pts.inv[:, :, np.newaxis] * rhs_mid)
            rhs[:, size : size + nk] = rhs_mid[pick, pts.kept]
            rows = size + nk + np.arange(nb)
            rhs[pick, rows, pts.border] = pts.root_k[:, np.newaxis]
            sol, cond = gated_solve(pts.mat, rhs, solve=np.linalg.solve)
            errors = [gate_error(c, NearSingularZError, message) for c in cond.tolist()]
            # A point that failed the gate goes on with a zero solution, and
            # its amplitudes are dropped.
            sol[[error is not None for error in errors]] = 0.0
            x = sol[:, :size]
            # The midpoints' values: x_m = (r_m - b_m* x) / p_m where eliminated.
            x_mid = pts.inv[:, :, np.newaxis] * (rhs_mid - pts.rows @ x)
            x_mid[pick, pts.kept] = sol[:, size : size + nk]
            amp = np.concatenate([self.w_adj @ x, self.j_half @ x], axis=1)
            amp[:, mode] += wm[:, mode, np.newaxis].conj() * x_mid[:, mid]
            amp[:, diag, diag] -= 1.0
            amp[pick, pts.border] = sol[:, rows]
            # The factor that turns a mode value, or a border unknown, into an
            # amplitude.
            em1 = np.expm1(1j * k * self.length[graphs])
            divisor = np.stack([2.0 + em1, em1], axis=1)
            scale = 1.0 / divisor
            sign, edge = np.divmod(pts.border, ne)
            scale[pick, sign, edge] = -1j / (pts.root_k[:, np.newaxis] * divisor[pick, 1 - sign, edge])
            amp[:, : 2 * ne] *= scale.reshape(npts, -1, 1)
            for i, one, error in zip(pts.at.tolist(), amp, errors):
                out[i] = one if error is None else error
        return out

    def scattering(self, k: np.ndarray, g) -> list:
        """S(k) at every momentum of the 1-d float array ``k`` (validated, >
        0) on the graphs ``g`` of a system with half-lines, or the
        ResonantKError of its gate, per point.  A reduction wider than
        _ROUND_SIZE is point-bound and solves one point per call (see
        :func:`_each_family`)."""
        if self.size > _ROUND_SIZE and len(k) > 1:
            return [s for i in range(len(k)) for s in self.scattering(k[i : i + 1], _at(g, i))]
        nh = len(self.j_half)
        out: list = [None] * len(k)
        for pts in self.points(k, g, k * k):
            ks = k[pts.at]
            # An incoming wave exp(-iks) on each channel in turn, with the
            # border rows' right-hand sides zero.
            rhs = np.zeros(pts.mat.shape[:2] + (nh,), dtype=complex)
            rhs[:, : self.size] = (-2j * ks)[:, np.newaxis, np.newaxis] * self.j_half.conj().T
            x, cond = gated_solve(pts.mat, rhs, solve=np.linalg.solve)
            errors = [
                gate_error(c, ResonantKError, f"vertex system ill-conditioned at k = {kp}", k=kp)
                for c, kp in zip(cond.tolist(), ks.tolist())
            ]
            good = np.array([error is None for error in errors])
            mat, rhs, x = pts.mat[good], rhs[good], x[good]
            # One step of iterative refinement: at small k on short edges the
            # condition reaches ~5e4, and the plain solve's error alone then
            # shows as a unitarity defect above 1e-12.
            x += np.linalg.solve(mat, rhs - mat @ x)
            s_mats = iter(self.j_half @ x[:, : self.size] - np.eye(nh))
            for i, error in zip(pts.at.tolist(), errors):
                out[i] = next(s_mats) if error is None else error
        return out


class _Points(NamedTuple):
    """Points of a :class:`_Reduction` that keep the same number of
    midpoints and border the same number of edges: ``at``, their indices
    among the points asked for; the bordered matrices ``mat``; the
    coefficients ``coef`` (points, 2 edges) they used; the sqrt(k)
    ``root_k`` of their border columns; each midpoint's column ``col`` and
    row ``rows``; ``inv``, 1/p for an eliminated midpoint and 0 for a kept
    one; ``kept`` (points, kept midpoints), in the order of their rows; and
    ``border`` (points, border rows), the mode (sign * edges + edge) of
    each border row, counted after the kept midpoints' rows."""

    at: np.ndarray
    mat: np.ndarray
    coef: np.ndarray
    root_k: np.ndarray
    col: np.ndarray
    rows: np.ndarray
    inv: np.ndarray
    kept: np.ndarray
    border: np.ndarray


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------


class _Branches(NamedTuple):
    """The eigenvalues of one point's scaled bordered matrix, ascending, as
    functions of lambda: N(lambda) = ``offset`` + #{negative ``values``}, so
    values[n - offset] is negative exactly when N(lambda) > n.  Points of
    one ``structure`` and offset read one matrix, continuous in lambda: over
    an interval that keeps it, each branch is continuous and changes sign
    at most once, where N passes n.  The search reads a structure only at
    the points it counts, so its brackets move by the count alone."""

    structure: bytes
    offset: int
    values: np.ndarray

    def at(self, n: int) -> float | None:
        """The branch that changes sign where N passes n, or None."""
        j = n - self.offset
        return float(self.values[j]) if 0 <= j < len(self.values) else None


def _scaled_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of each Hermitian matrix in a stack after
    a symmetric diagonal scaling (which keeps the inertia) that brings every
    row's largest entry to 1; the scaling overwrites ``mats``."""
    if not mats.shape[-1]:
        return np.zeros(mats.shape[:2])
    row_max = np.abs(mats).max(axis=-1)
    scale = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
    mats *= scale[:, :, np.newaxis] * scale[:, np.newaxis, :]
    return np.linalg.eigvalsh(mats)


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


def _bracket(chunk: list[float], counts, done, other_end: float, points: int, ask):
    """The first lambda of the doubling sequence that begins with ``chunk``
    whose count passes ``done``, and that count, as a generator (see
    :func:`_search`).  ``counts`` are the counts at ``chunk``, taken by the
    caller; the rest of the sequence is counted through ``yield from
    ask(chunk)``, in chunks twice as long as the one before, up to
    ``points``.  It ends, with :class:`ScanRangeError`, at the last lambda
    whose double is still finite."""
    while True:
        for lam, n in zip(chunk, counts):
            if done(n):
                return lam, n
        if not math.isfinite(2.0 * lam):
            raise ScanRangeError(
                f"eigenvalue count not reached by lambda = {lam:.3g}",
                window=(min(lam, other_end), max(lam, other_end)),
            )
        chunk = _doubling(2.0 * lam, min(points, 2 * len(chunk)))
        counts = yield from ask(chunk)


def _is_leaf(a: float, b: float, floor: float) -> bool:
    """Whether bisection stops at [a, b]: width at most 1e-13 max(floor,
    |lambda|), with ``floor`` from :func:`_leaf_floor`."""
    return b - a <= 1e-13 * max(floor, abs(a), abs(b))


def _leaf_floor(count: _Reduction) -> float:
    """The scale below which a level's leaf width stops shrinking with it:
    min(1, (pi / l)^2), l the longest edge of the (one-graph) ``count``,
    about the level spacing of a long edge, so that levels below 1 stay
    apart on a long truncation (and the floor is 1 wherever l <= pi).  A
    floor that underflows is the smallest normal float."""
    longest = float(count.length.max(initial=0.0))
    if longest <= math.pi:
        return 1.0
    return max((math.pi / longest) ** 2, float(np.finfo(float).tiny))


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2 without overflow: 0.5 a + 0.5 b has the bits of 0.5 (a +
    b) wherever a + b is finite and neither half is subnormal."""
    return 0.5 * a + 0.5 * b


def _subtree_midpoints(live, depth: int, floor: float) -> list[float]:
    """The midpoint of every interval of the depth-``depth`` bisection
    subtree of each live interval; an interval at leaf width is not split,
    so neither it nor anything below it is listed."""
    mids = []
    level = [(iv.a, iv.b) for iv in live]
    for _ in range(depth):
        children = []
        for a, b in level:
            if not _is_leaf(a, b, floor):
                mid = _midpoint(a, b)
                mids.append(mid)
                children += [(a, mid), (mid, b)]
        level = children
    return mids


class _Interval(NamedTuple):
    """A live interval of the search: its ends and their counts; the
    weights of its ends' branch values in the regula falsi step; and the
    steps in a row that failed to halve the branch value at the end they
    moved (_STALL of them send its level to subtree rounds for good)."""

    a: float
    b: float
    n_a: int
    n_b: int
    weights: tuple[float, float] = (1.0, 1.0)
    steps: int = 0


def _step(iv: _Interval, branches: dict, floor: float) -> tuple[float, float] | None:
    """The certificate pair x -+ h of the next step in ``iv``, as (x, h), or
    None when ``iv`` is bisected instead.

    A step needs both ends to read one continuous matrix (see
    :class:`_Branches`), and the branches of the first and the last level
    in ``iv`` to put their weighted regula falsi roots within h of each
    other: one level, of the multiplicity of the count's jump."""
    left, right = branches[iv.a], branches[iv.b]
    if iv.steps >= _STALL or (left.structure, left.offset) != (right.structure, right.offset):
        return None
    roots = []
    for n in (iv.n_a, iv.n_b - 1):
        f_a, f_b = left.at(n), right.at(n)
        if f_a is None or not f_a >= 0.0 > f_b:
            return None
        f_a, f_b = iv.weights[0] * f_a, iv.weights[1] * f_b
        roots.append(iv.a + (iv.b - iv.a) * (f_a / (f_a - f_b)))
    x = roots[0]
    h = _HALF_CERTIFICATE * max(floor, abs(x))
    if abs(roots[1] - x) > h or iv.b - iv.a <= 8.0 * h:
        return None
    return min(max(x, iv.a + 2.0 * h), iv.b - 2.0 * h), h


# A stepped level's certificate is the pair x -+ h with h = _HALF_CERTIFICATE
# max(floor, |x|): a leaf, 2h <= 1e-13 max(floor, |lambda|) (see _is_leaf).
_HALF_CERTIFICATE = 0.4e-13

# Steps in a row that leave the branch value at the moved end above half its
# value before send a level to subtree rounds for good.  Some levels' scaled
# branch reads +-1 up to the level itself (a delta' graph's parasitic level
# at d = 2^-10, below -2e11), where a step learns no more than a bisection.
_STALL = 2


def _search(points: int, count: int, lam_min: float | None, floor: float):
    """The eigenvalue search of :func:`eigenvalues_compact` on one system,
    as a generator: it yields every list of lambda it needs counted, is sent
    their counts and :class:`_Branches`, and returns the eigenvalues.
    ``points`` is the batch size (see :func:`_batch_points`), and ``floor``
    the leaf width's (see :func:`_leaf_floor`)."""
    branches: dict[float, _Branches] = {}

    def ask(lams):
        counts, found = yield lams
        branches.update(zip(lams, found))
        return counts

    # The upward doubling starts with one point: most searches need a few of
    # its points, and those far up border every edge.
    if lam_min is None:
        down = _doubling(-1.0, points)
        counts = yield from ask(down)
        lo, n_lo = yield from _bracket(down, counts, lambda n: n == 0, 0.0, points, ask)
        up = [max(1.0, 2.0 * lo)]
        counts = yield from ask(up)
    else:
        # lam_min is counted in one batch with the first upward point.
        lo = lam_min
        up = [max(1.0, 2.0 * lo)]
        if not math.isfinite(up[0]):
            raise ScanRangeError(
                f"eigenvalue count not reached above lam_min = {lo:.3g}", window=(lo, lo)
            )
        n_lo, *counts = yield from ask([lam_min] + up)
    target = n_lo + count
    hi, n_hi = yield from _bracket(up, counts, lambda n: n >= target, lo, points, ask)
    leaves: list[tuple[float, float, int]] = []

    def settle(intervals):
        """The intervals still to refine; leaves are recorded, and intervals
        without a wanted level dropped."""
        live = []
        for iv in intervals:
            if iv.n_b <= iv.n_a or iv.n_a >= target:
                continue
            if _is_leaf(iv.a, iv.b, floor):
                leaves.append((iv.a, _midpoint(iv.a, iv.b), iv.n_b - iv.n_a))
            else:
                live.append(iv)
        return live

    def stepped(iv, x, h, n_at):
        """``iv`` split at the pair x -+ h: the pair is a leaf, and when the
        whole jump of ``iv`` lies on one side of it, that side continues
        the iteration."""
        p, q = x - h, x + h
        # Clamped so that roundoff next to a level cannot break monotonicity.
        n_p = min(max(n_at[p], iv.n_a), iv.n_b)
        n_q = min(max(n_at[q], n_p), iv.n_b)
        # Counts that clamping moved show the count's flicker: the level is
        # finished in subtree rounds, inside the brackets the pair leaves.
        flicker = (n_p, n_q) != (n_at[p], n_at[q])
        if n_q > n_p or flicker or iv.n_a < n_p < iv.n_b:
            if n_q > n_p:
                leaves.append((p, x, n_q - n_p))
            steps = _STALL if flicker else 0
            return [
                _Interval(iv.a, p, iv.n_a, n_p, steps=steps),
                _Interval(q, iv.b, n_q, iv.n_b, steps=steps),
            ]
        if n_p > iv.n_a:
            moved, kept, child = (iv.b, p), 0, (iv.a, p, iv.n_a, n_p)
        else:
            moved, kept, child = (iv.a, q), 1, (q, iv.b, n_q, iv.n_b)
        f_old, f_new = (branches[lam].at(iv.n_a) for lam in moved)
        weights = [1.0, 1.0]
        weights[kept] = iv.weights[kept]
        if child[1] - child[0] > 0.5 * (iv.b - iv.a):
            # Anderson & Bjorck: a step that leaves the width above half
            # weights the end it kept by 1 - f(new end) / f(old end), or by
            # 1/2 when that is not positive.
            factor = 1.0 - f_new / f_old if f_old and f_new is not None else 0.0
            weights[kept] *= factor if factor > 0.0 else 0.5
        progress = f_old is not None and f_new is not None and abs(f_new) < 0.5 * abs(f_old)
        return [_Interval(*child, tuple(weights), 0 if progress else iv.steps + 1)]

    live = settle([_Interval(lo, hi, n_lo, n_hi)])
    while live:
        pairs = [(iv, _step(iv, branches, floor)) for iv in live]
        stepping = [(iv, pair) for iv, pair in pairs if pair]
        split = [iv for iv, pair in pairs if not pair]
        lams = [lam for _, (x, h) in stepping for lam in (x - h, x + h)]
        depth = 0
        if split:
            # The deepest r with len(split) * (2^r - 1) <= the points the
            # steps leave, at least 1.
            room = max(0, points - len(lams))
            depth = max(1, (room // len(split) + 1).bit_length() - 1)
            lams += _subtree_midpoints(split, depth, floor)
        n_at = dict(zip(lams, (yield from ask(lams))))
        children = [child for iv, (x, h) in stepping for child in stepped(iv, x, h, n_at)]
        for _ in range(depth):
            halves = []
            for iv in split:
                mid = _midpoint(iv.a, iv.b)
                n_mid = min(max(n_at[mid], iv.n_a), iv.n_b)
                # A stalled level's halves stay in subtree rounds.
                steps = iv.steps if iv.steps >= _STALL else 0
                halves += [
                    _Interval(iv.a, mid, iv.n_a, n_mid, steps=steps),
                    _Interval(mid, iv.b, n_mid, iv.n_b, steps=steps),
                ]
            split = settle(halves)
        live = settle(children) + split
    # Leaves come in round order; sorting restores the levels' order.  A
    # leaf's jump can be huge (about sqrt(lambda) L / pi on an edge of length
    # L), so it is expanded to at most ``count`` values.
    leaves.sort()
    values = [x for _, x, mult in leaves for _ in range(min(mult, count))]
    return np.array(values[:count])


def _eigenvalues_lockstep(systems, count: int, lam_min: float | None = None) -> list:
    """Per system of ``systems``, the result of :func:`eigenvalues_compact`
    or the :class:`QGraphError` it raises; ``count`` and ``lam_min`` are
    validated for all.

    Systems whose reductions share a shape and are up to _ROUND_SIZE wide,
    such as the approximating graphs of one ST form, are searched in
    lockstep (see :func:`_search_family`); each wider one is searched alone
    (see :func:`_each_family`).
    """
    count = require_positive_int(count, "count")
    if lam_min is not None:
        lam_min = require_finite_real(lam_min, "lam_min")
    results: list = [None] * len(systems)

    def reduce(sys):
        if not sys.is_compact:
            raise StructuralError("system has half-lines; call truncate() first")
        return _Reduction(sys)

    _each_family(systems, reduce, lambda members: _search_family(members, count, lam_min, results),
                 results)
    return results


def _each_family(items, reduce, evaluate, results: list) -> None:
    """Reduce every item of ``items`` and call ``evaluate`` on lists of
    (index, reduction) pairs of one shape, such as the approximating graphs
    of one ST form at several d, which it evaluates together in stacked
    calls; a QGraphError that ``reduce`` raises goes to the item's index of
    ``results``.

    Only reductions up to _ROUND_SIZE wide are stacked.  A wider one is
    point-bound: stacking would gather its arrays per point.  At delta'
    n = 24 a stacked eig sweep was slower and larger than the solo
    searches, and at n = 16 stacked scattering and HS sweeps peaked at 8 to
    9 times the memory of one d.  So each wider reduction is evaluated
    alone, as soon as it is made, and only one is held at a time.
    """
    families: dict[tuple, list] = {}
    for i, item in enumerate(items):
        try:
            one = reduce(item)
        except QGraphError as exc:
            results[i] = exc
            continue
        if one.size <= _ROUND_SIZE:
            families.setdefault(one.shape, []).append((i, one))
        else:
            evaluate([(i, one)])
            del one
    for members in families.values():
        evaluate(members)


def _search_family(members, count: int, lam_min: float | None, results: list) -> None:
    """Run the searches of ``members``, (index, one-system count) pairs of
    one shape, to their ends, and put each one's eigenvalues, or the
    QGraphError it raises, at its index of ``results``.

    The searches advance in lockstep rounds: a round takes the batch each
    search waits on and counts them all in one call of the members' stacked
    count, so a family makes as many calls as its slowest search alone.
    Each point is counted as its system alone would count it, so every
    search reads the same counts and branch values and takes the same
    decisions.
    """
    stacked = _Reduction.stack([one for _, one in members])
    points = _batch_points(stacked.size)
    searches = [_search(points, count, lam_min, _leaf_floor(one)) for _, one in members]
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
        counts, branches = stacked.counts(lams, graph)
        at = 0
        for g, batch in asked:
            resume(g, (counts[at : at + len(batch)], branches[at : at + len(batch)]))
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
    counted in chunks, the upward one growing from one point, which is
    counted with ``lam_min``), and each level is refined to 1e-13 max(f,
    |lambda|), with f = min(1, (pi / l)^2) for the longest edge l; a
    level's multiplicity is the jump of N across it.  N is
    read from the reduced matrix on the kept vertex values, which for an
    approximating graph with n outer edges is n wide: every inner edge's
    midpoint is eliminated (see :class:`_Reduction`).  The refinement runs
    in rounds, each one batched count: bisection counts at every midpoint
    of the depth-r subtree of each interval that holds several levels (r as
    deep as a batch of 32 points allows on a reduced matrix up to 6 wide,
    and at least 1; 1 on a wider matrix); an interval that holds one level
    takes a weighted regula falsi step on the eigenvalue branch of the
    reduced matrix that crosses 0 there, and counts the pair x -+ h with 2h
    <= 1e-13 max(f, |x|).  A pair that holds the level's whole jump returns
    x; a level that steps cannot take goes on bisecting.  With ``lam_min``,
    which must be finite, only eigenvalues above that floor are returned; a
    floor whose double overflows leaves no upward bracket and raises
    :class:`ScanRangeError`.

    This is :func:`_eigenvalues_lockstep` on one system, which counts
    through :meth:`_Reduction.counts`; an eig sweep searches all its
    approximating graphs at once (:func:`_each_family`, then
    :func:`_search_family` per family), with the same result for each.
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
    construction (:meth:`_Reduction.amplitudes`, on a stack of one graph):
    one gated solve with the reduced matrix B(z) takes a unit right-hand
    side per mode, w_+- (c_+- - ik) (with sqrt(k)
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
        (amp,) = red.amplitudes(z, np.zeros(1, dtype=int))
        if isinstance(amp, QGraphError):
            raise amp
        self._amp = amp
        # Mode indices of every edge: sign * ne + e on finite edge e, 2 ne + h
        # on half-line h.
        ne = red.length.shape[1]
        self._modes = {eid: [e, ne + e] for eid, e in red.finite_index.items()}
        self._modes.update({eid: [2 * ne + h] for eid, h in red.half_index.items()})

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


def scattering_matrix(sys: MetricGraphSystem, k: float) -> np.ndarray:
    """On-shell scattering matrix at momentum k > 0.

    Channel j is the j-th half-line in the system's edge order.  The wave
    ansatz on channel l for an incoming wave on channel j is
    delta_{lj} exp(-iks) + S_{lj} exp(iks), so a decoupled Neumann half-line
    has S = +1 and a Dirichlet one S = -1.
    """
    k = require_positive_real(k, "momentum k")
    red = _Reduction(sys)
    if not len(red.j_half):
        raise StructuralError("system has no half-lines, hence no channels")
    (s,) = red.scattering(np.array([k]), 0)
    if isinstance(s, QGraphError):
        raise s
    return s


def effective_scattering(g: ApproxGraph, k: float) -> np.ndarray:
    """Scattering matrix of an approximating graph, outer channels in order."""
    return scattering_matrix(system_from_approx(g), k)
