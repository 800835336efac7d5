"""Spectra, resolvents, and scattering matrices of metric-graph systems.

Eigenvalues of compact systems are counted, not searched for.  Eliminating
every edge through its Dirichlet-to-Neumann map leaves a Hermitian matrix
B(lambda) on the free vertex values of the ST forms, and the number of
eigenvalues below lambda is the number of edge Dirichlet levels below
lambda plus the number of negative eigenvalues of B(lambda) (Friedlander's
count; see Berkolaiko & Kuchment, *Introduction to Quantum Graphs*).
Bisection on that integer finds every level, and a level's multiplicity is
the jump of the count across it, so degenerate and nearly degenerate
levels are resolved by construction.

Resolvents and scattering matrices use the matching matrix M(z).  On each
finite edge a solution of -(d/ds + i a)^2 f = z f is written as
exp(-i a s) (alpha phi_1 + beta phi_2) in the basis

    phi_1(s) = cos(k s),       phi_2(s) = sin(k s)/k,        k = sqrt(z),

whose traces are entire in z (the k = 0 limit of phi_2 is s, so nothing
blows up crossing z = 0).  On each half-line the ansatz is a single
multiple of exp(-i a s) exp(i k s), which is the decaying solution when
Im k > 0 and the outgoing wave when k is real.  Collecting all vertex
conditions on the coefficient vector gives a square matrix M(z); its
inverse produces resolvent kernels, and with incoming waves moved to the
right-hand side it yields scattering matrices.  Index tables built once
per system turn a 1-d array of spectral points into a stacked
(npts, N, N) array of matching matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, lu_factor, lu_solve
# The benchmark's tracer (perfbench/tracing.py) rebinds these module-level
# names, so they stay importable from here.
from scipy.optimize import brentq, minimize_scalar  # noqa: F401

from ._util import require_positive_int
from .builder import ApproxGraph
from .couplings import st_from_ab
from .errors import (
    InputError,
    NearSingularZError,
    ResonantKError,
    ScanRangeError,
    StructuralError,
)
from .graphs import (
    DeltaCondition,
    MetricGraphSystem,
    system_from_approx,
    truncate,
)

__all__ = [
    "eigenvalues_compact",
    "GreensFunction",
    "greens_function",
    "scattering_matrix",
    "effective_scattering",
]

# Condition-number ceiling beyond which a scattering solve is deemed resonant.
_COND_LIMIT = 1e12
# Relative singular-value floor below which a resolvent point is rejected.
_SINGULAR_RATIO = 1e-12


def _principal_k(z) -> np.ndarray:
    """sqrt(z) on the branch with Im k >= 0 (and k >= 0 for z >= 0)."""
    k = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(k.imag < 0, -k, k)


@dataclass(frozen=True)
class _Entries:
    """Matrix entries: at flat position ``pos`` (row * ncols + col), add
    row_scale[row] * (c_val * traces[val] + c_sd * traces[der])."""

    row: np.ndarray
    pos: np.ndarray
    val: np.ndarray
    der: np.ndarray
    c_val: np.ndarray
    c_sd: np.ndarray

    def values(self, row_scale: np.ndarray, traces: np.ndarray) -> np.ndarray:
        """Entry values at every point, shape (npts, entries)."""
        return row_scale[:, self.row] * (
            self.c_val * traces[:, self.val] + self.c_sd * traces[:, self.der]
        )


@dataclass(frozen=True)
class _Assembled:
    """Scaled matching matrices at a batch of spectral points, stacked along
    the first axis, plus their scalings."""

    k: np.ndarray
    M: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray


class _Assembler:
    """Turns a system's vertex conditions into matching matrices M(z).

    Everything that does not depend on z is laid out once as index tables:
    per finite edge its length, phase e^{-ial} and column offset; per
    half-line its column; per matrix entry its row, flat position, the
    basis traces it reads and their value/derivative coefficients; per
    condition term its row and edge end, for right-hand sides.  An entry
    position hit by more than one term (the delta row's first end, or both
    ends of a loop edge) is written once from the ``first`` table and then
    accumulated in term order from the ``accum`` table.

    Evaluating at a 1-d array of spectral points computes the basis traces
    of every edge end at every point -- eight per finite edge (value and
    inward derivative of both basis functions at both ends), then the
    half-line values and derivatives -- and scatters them into a stacked
    (npts, N, N) array with a handful of array operations.

    Rows and columns are scaled so that entries stay O(1) across the
    spectral window: finite-edge columns carry 1/cosh(|Im k| l) against
    exponential growth, phi_2 columns a factor max(1, |k|) against its 1/k
    decay, and each row is divided by its own coefficient amplitude.
    """

    def __init__(self, sys: MetricGraphSystem):
        self.edge_map = sys.edge_map
        self.cols: dict[object, slice] = {}
        self.slots: dict[tuple, int] = {}
        self.hl_ids = [e.id for e in sys.edges if e.is_half_line]
        finite = [e for e in sys.edges if not e.is_half_line]
        nf, nh = len(finite), len(self.hl_ids)
        # Trace layout per point: 8 per finite edge, ordered (end, value or
        # derivative, basis column); then every half-line value, then every
        # half-line derivative.  Per edge-end slot: the trace of its basis
        # column 0 value, the offset from a value to its derivative, and
        # the edge's first column and column count.
        slot_trace, slot_der, slot_col, slot_width = [], [], [], []
        ncols = f = h = 0
        for edge in sys.edges:
            if edge.is_half_line:
                ends, width, h = [(8 * nf + h, nh)], 1, h + 1
            else:
                ends, width, f = [(8 * f, 2), (8 * f + 4, 2)], 2, f + 1
            for end, (trace, der) in enumerate(ends):
                self.slots[(edge.id, end)] = len(slot_trace)
                slot_trace.append(trace)
                slot_der.append(der)
                slot_col.append(ncols)
                slot_width.append(width)
            self.cols[edge.id] = slice(ncols, ncols + width)
            ncols += width
        self.ncols = ncols
        self.length = np.array([e.length for e in finite], dtype=float)
        self.phase = np.exp(-1j * np.array([e.a for e in finite], dtype=float) * self.length)
        self.finite_cols = np.array(
            [self.cols[e.id].start + c for e in finite for c in (0, 1)], dtype=int
        )
        self.hl_slots = np.array([self.slots[(h, 0)] for h in self.hl_ids], dtype=int)

        terms: list[tuple] = []
        amp_val: list[float] = []
        amp_sd: list[float] = []

        def add_row(items):
            items = [(end, complex(cv), complex(cd)) for end, cv, cd in items]
            terms.extend((len(amp_val), self.slots[end], cv, cd) for end, cv, cd in items)
            amp_val.append(max(abs(cv) for _, cv, _ in items))
            amp_sd.append(max(abs(cd) for _, _, cd in items))

        for vertex in sys.vertices:
            ends = vertex.ends
            cond = vertex.condition
            if isinstance(cond, DeltaCondition):
                for i in range(len(ends) - 1):
                    add_row([(ends[i], 1.0, 0.0), (ends[i + 1], -1.0, 0.0)])
                add_row([(end, 0.0, 1.0) for end in ends] + [(ends[0], -cond.w, 0.0)])
            else:
                a_mat, b_mat = cond.coupling.A, cond.coupling.B
                for r in range(len(ends)):
                    add_row([(ends[i], a_mat[r, i], b_mat[r, i]) for i in range(len(ends))])
        self.nrows = len(amp_val)
        if self.nrows != ncols:
            raise StructuralError(
                f"matching system is not square: {self.nrows} conditions, "
                f"{ncols} coefficients"
            )
        self.amp_val = np.maximum(1.0, np.array(amp_val))
        self.amp_sd = np.array(amp_sd)

        # One entry per condition term and basis column of its edge.  Entries
        # sharing a position share the basis column, so listing column 0
        # before column 1 keeps the term order among them.
        row, slot, c_val, c_sd = (np.array(x) for x in zip(*terms))
        self.term_row, self.term_slot, self.term_c_val, self.term_c_sd = row, slot, c_val, c_sd
        slot_trace, slot_der, slot_col, slot_width = (
            np.array(x) for x in (slot_trace, slot_der, slot_col, slot_width)
        )
        parts = []
        for col in (0, 1):
            t = np.flatnonzero(slot_width[slot] > col)
            s = slot[t]
            val = slot_trace[s] + col
            parts.append(
                (row[t], row[t] * ncols + slot_col[s] + col, val, val + slot_der[s], c_val[t], c_sd[t])
            )
        entries = [np.concatenate(x) for x in zip(*parts)]
        first = np.zeros(len(entries[0]), dtype=bool)
        first[np.unique(entries[1], return_index=True)[1]] = True
        self.first = _Entries(*(x[first] for x in entries))
        self.accum = _Entries(*(x[~first] for x in entries))

    # ----- evaluation at spectral points ---------------------------------

    def assembled(self, zs) -> _Assembled:
        """Matching matrices at every point of the 1-d array ``zs``."""
        z = np.asarray(zs, dtype=complex).reshape(-1)
        k = _principal_k(z)
        kmag = np.maximum(1.0, np.abs(k))
        npts, nf = len(z), len(self.length)
        kb = k[:, np.newaxis]
        base = 1.0 / np.cosh(np.minimum(700.0, np.abs(k.imag)[:, np.newaxis] * self.length))
        scale2 = base * kmag[:, np.newaxis]
        kl = kb * self.length
        # phi_1, phi_2 at s = l; at k = 0 they are 1 and l.
        p1 = np.cos(kl)
        p2 = np.divide(np.sin(kl), kb, out=np.zeros_like(kl) + self.length, where=kb != 0)
        ph = self.phase
        cos_sin = np.zeros((npts, nf, 8), dtype=complex)
        cos_sin[..., 0] = base
        cos_sin[..., 3] = scale2
        cos_sin[..., 4] = ph * p1 * base
        cos_sin[..., 5] = ph * p2 * scale2
        # inward derivative at end 1 is minus the covariant derivative
        cos_sin[..., 6] = ph * z[:, np.newaxis] * p2 * base
        cos_sin[..., 7] = -ph * p1 * scale2
        scales = np.stack([base, scale2], axis=-1)
        ones = np.ones((npts, len(self.hl_ids)))
        traces = np.concatenate(
            [cos_sin.reshape(npts, -1), ones, 1j * kb * ones], axis=1
        )
        col_scale = np.ones((npts, self.ncols))
        col_scale[:, self.finite_cols] = scales.reshape(npts, -1)
        row_scale = 1.0 / np.maximum(self.amp_val, self.amp_sd * kmag[:, np.newaxis])
        mat = np.zeros((npts, self.nrows * self.ncols), dtype=complex)
        mat[:, self.first.pos] = self.first.values(row_scale, traces)
        np.add.at(mat, (slice(None), self.accum.pos), self.accum.values(row_scale, traces))
        return _Assembled(
            k=k,
            M=mat.reshape(npts, self.nrows, self.ncols),
            row_scale=row_scale,
            col_scale=col_scale,
        )

    def rhs(self, row_scale: np.ndarray, slots, vals, ders) -> np.ndarray:
        """Right-hand sides from prescribed (value, inward-derivative) traces.

        ``vals`` and ``ders`` hold one row per edge-end slot in ``slots`` and
        one column per right-hand side; ``row_scale`` is one point's scaling.
        """
        pos = np.full(len(self.slots), -1)
        pos[slots] = np.arange(len(slots))
        hit = pos[self.term_slot] >= 0
        at = (self.term_row[hit], pos[self.term_slot[hit]])
        c_val = np.zeros((self.nrows, len(slots)), dtype=complex)
        c_sd = np.zeros_like(c_val)
        np.add.at(c_val, at, self.term_c_val[hit])
        np.add.at(c_sd, at, self.term_c_sd[hit])
        return -row_scale[:, np.newaxis] * (c_val @ vals + c_sd @ ders)


def _group_by_edge(points) -> dict[object, tuple[list[int], np.ndarray]]:
    """``(edge_id, s)`` points grouped by edge, in first-seen order: per
    edge, the points' indices and their coordinates."""
    groups: dict[object, list[int]] = {}
    for i, (eid, _) in enumerate(points):
        groups.setdefault(eid, []).append(i)
    return {
        eid: (idx, np.array([points[i][1] for i in idx])) for eid, idx in groups.items()
    }


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------


class _EigenvalueCount:
    """N(lambda), the number of eigenvalues below lambda of a compact system.

    Every edge is eliminated through its Dirichlet-to-Neumann map, which
    splits the form h - lambda into the edges' Dirichlet parts and a
    Hermitian matrix B(lambda) on the vertex values, so that

        N(lambda) = sum_e #{(pi m / l_e)^2 < lambda} + n_-(B(lambda)).

    The unknowns of a vertex are the m_v free values of its ST form: the
    values at its ends are J_v x_v with J_v = [I; T*] in the original end
    order, and S_v is its block of B (a delta vertex has J = ones, S = [w]).
    Edge e adds -k tan(kl/2) w_+ w_+* + k cot(kl/2) w_- w_-*, where
    w_+- = J* (1, +-e^{-ial}) / sqrt(2) over its two ends; for lambda < 0
    these are kappa tanh(kappa l/2) and kappa coth(kappa l/2).

    Near an edge Dirichlet level one coefficient c diverges.  Away from
    kl ~ 0, a term with |c| > k moves into an extra row and column with
    off-diagonal sqrt(k) w and diagonal b = -k/c; its Schur complement is
    the term itself, and each border row with b < 0 adds one negative
    eigenvalue, which is subtracted.  Every entry stays O(k), so nothing
    cancels when an eigenvalue sits on a Dirichlet level.
    """

    def __init__(self, sys: MetricGraphSystem):
        rows: dict[tuple, tuple[int, np.ndarray]] = {}
        blocks: list[np.ndarray] = []
        size = 0
        for vertex in sys.vertices:
            cond = vertex.condition
            if isinstance(cond, DeltaCondition):
                j_mat, s_mat = np.ones((len(vertex.ends), 1)), np.array([[cond.w]])
            else:
                st = st_from_ab(cond.coupling)
                j_mat = np.empty((st.n, st.m), dtype=complex)
                j_mat[np.array(st.perm) - 1] = np.vstack([np.eye(st.m), st.T.conj().T])
                s_mat = st.S
            for end, j_row in zip(vertex.ends, j_mat):
                rows[end] = (size, j_row)
            blocks.append(s_mat)
            size += len(s_mat)
        self.s_mat = block_diag(*blocks)
        self.length = np.array([e.length for e in sys.edges], dtype=float)
        # Columns w_+ and w_- of every edge.
        self.w = np.zeros((2, size, len(sys.edges)), dtype=complex)
        for col, edge in enumerate(sys.edges):
            phase = np.exp(-1j * edge.a * edge.length)
            for end, factor in ((0, np.array([1.0, 1.0])), (1, np.array([phase, -phase]))):
                at, j_row = rows[(edge.id, end)]
                self.w[:, at : at + len(j_row), col] += np.outer(factor, j_row.conj())
        self.w /= math.sqrt(2.0)

    def __call__(self, lam: float) -> int:
        if lam <= 0.0:
            kappa = math.sqrt(-lam)
            t = np.tanh(0.5 * kappa * self.length)
            coef = np.stack([kappa * t, np.divide(kappa, t, out=2.0 / self.length, where=t > 0)])
            return _negative_count(self.s_mat + self._edge_terms(coef))
        k = math.sqrt(lam)
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
        coef = np.stack([np.where(odd, pos, neg), np.where(odd, neg, pos)])
        mat = self.s_mat + self._edge_terms(coef)
        if not border.any():
            return int(levels.sum()) + _negative_count(mat)
        # The bordered vector is w_+ exactly when small == odd.
        vecs = math.sqrt(k) * np.where(small == odd, self.w[0], self.w[1])[:, border]
        b = np.where(small, -tau, 1.0 / np.maximum(tau, 1.0))[border]
        mat = np.block([[mat, vecs], [vecs.conj().T, np.diag(b)]])
        return int(levels.sum()) + _negative_count(mat) - int(np.count_nonzero(b < 0))

    def _edge_terms(self, coef: np.ndarray) -> np.ndarray:
        """sum_e (coef[0, e] w_+ w_+* + coef[1, e] w_- w_-*)."""
        return sum((w * c) @ w.conj().T for w, c in zip(self.w, coef))


def _negative_count(mat: np.ndarray) -> int:
    """Negative eigenvalues of a Hermitian matrix, counted after a symmetric
    diagonal scaling (which keeps the inertia) that brings every row's
    largest entry to 1."""
    if not mat.size:
        return 0
    row_max = np.abs(mat).max(axis=1)
    scale = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
    return int(np.count_nonzero(np.linalg.eigvalsh(mat * np.outer(scale, scale)) < 0))


def _bracket(count_below, lam: float, done, other_end: float) -> float:
    """Double ``lam`` until ``done(count_below(lam))``."""
    while not done(count_below(lam)):
        if not math.isfinite(2.0 * lam):
            raise ScanRangeError(
                f"eigenvalue count not reached by lambda = {lam:.3g}",
                window=(min(lam, other_end), max(lam, other_end)),
            )
        lam *= 2.0
    return lam


def eigenvalues_compact(
    sys: MetricGraphSystem,
    count: int,
    *,
    lam_min: float | None = None,
    lam_max: float | None = None,
) -> np.ndarray:
    """The lowest `count` eigenvalues (with multiplicity), sorted.

    The system must be compact, or carry a truncation spec so it can be
    truncated here.  The eigenvalue count N(lambda) brackets the spectrum
    (doubling -lambda until N = 0, then lambda until N covers `count`), and
    bisection refines every level to 1e-13 max(1, |lambda|); a level's
    multiplicity is the jump of N across it.  With ``lam_min`` only
    eigenvalues above that floor are returned; with ``lam_max`` the result
    is whatever lies below it, possibly fewer than `count`.
    """
    count = require_positive_int(count, "count")
    if not sys.is_compact:
        if sys.truncation is None:
            raise StructuralError(
                "system has half-lines and no truncation spec; call truncate()"
            )
        sys = truncate(sys)
    count_below = _EigenvalueCount(sys)
    lo = _bracket(count_below, -1.0, lambda n: n == 0, 0.0) if lam_min is None else lam_min
    n_lo = count_below(lo)
    target = n_lo + count
    if lam_max is None:
        hi = _bracket(count_below, max(1.0, 2.0 * lo), lambda n: n >= target, lo)
    else:
        hi = lam_max
    values: list[float] = []
    stack = [(lo, hi, n_lo, count_below(hi))]
    while stack:
        a, b, n_a, n_b = stack.pop()
        if n_b <= n_a or n_a >= target:
            continue
        mid = 0.5 * (a + b)
        if b - a <= 1e-13 * max(1.0, abs(a), abs(b)):
            values.extend([mid] * (n_b - n_a))
            continue
        # Clamped so that roundoff next to a level cannot break monotonicity.
        n_mid = min(max(count_below(mid), n_a), n_b)
        stack += [(mid, b, n_mid, n_b), (a, mid, n_a, n_mid)]
    return np.array(values[:count])


# ---------------------------------------------------------------------------
# Resolvent kernels
# ---------------------------------------------------------------------------


class GreensFunction:
    """The resolvent kernel G_z(x, y) of a metric-graph system.

    Points are ``(edge_id, s)`` pairs in local edge coordinates.  The
    matching matrix is factored once at construction; every evaluation is a
    pair of triangular solves.  On the source edge the free-line kernel
    i exp(ik|s - s'|)/(2k) (covariantly phased) is corrected by homogeneous
    solutions so that all vertex conditions hold; off the source edge the
    kernel is the homogeneous part alone.
    """

    def __init__(self, sys: MetricGraphSystem, z: complex):
        z = complex(z)
        k = complex(_principal_k(z))
        if k == 0:
            raise InputError("z = 0 is not a valid resolvent point here")
        self.system = sys
        self.z = z
        self.k = k
        self._asm = _Assembler(sys)
        if self._asm.hl_ids and k.imag <= 0:
            raise InputError(
                "resolvent of a non-compact system needs z off [0, inf)"
            )
        assembled = self._asm.assembled([z])
        mat = assembled.M[0]
        self._row_scale = assembled.row_scale[0]
        self._col_scale = assembled.col_scale[0]
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] < _SINGULAR_RATIO * sv[0]:
            raise NearSingularZError(
                f"z = {z} is numerically on the spectrum "
                f"(relative sigma_min {sv[-1] / sv[0]:.2e})"
            )
        self._lu = lu_factor(mat)

    # -- internals --------------------------------------------------------

    def _coefficients(self, source_groups: dict, count: int) -> np.ndarray:
        """Homogeneous coefficients, one column per source point.

        The right-hand sides of the sources on one edge come from the
        (value, inward-derivative) traces of the free kernel at that edge's
        ends, evaluated as arrays.
        """
        asm, k = self._asm, self.k
        b = np.empty((asm.nrows, count), dtype=complex)
        for eid, (idx, sy) in source_groups.items():
            edge = asm.edge_map[eid]
            ph0 = np.exp(1j * edge.a * sy)
            wave0 = np.exp(1j * k * sy)
            slots = [asm.slots[(eid, 0)]]
            vals = [ph0 * 1j * wave0 / (2.0 * k)]
            ders = [ph0 * wave0 / 2.0]
            if not edge.is_half_line:
                rem = edge.length - sy
                ph1 = np.exp(-1j * edge.a * rem)
                wave1 = np.exp(1j * k * rem)
                slots.append(asm.slots[(eid, 1)])
                vals.append(ph1 * 1j * wave1 / (2.0 * k))
                ders.append(ph1 * wave1 / 2.0)
            b[:, idx] = asm.rhs(self._row_scale, slots, np.array(vals), np.array(ders))
        y = lu_solve(self._lu, b)
        return self._col_scale[:, np.newaxis] * y

    def _check_point(self, point) -> tuple:
        eid, s = point
        edge = self._asm.edge_map.get(eid)
        if edge is None:
            raise InputError(f"unknown edge id {eid!r}")
        s = float(s)
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
        coeff = self._coefficients(source_groups, len(sources))
        k = self.k
        out = np.empty((len(points), len(sources)), dtype=complex)
        for eid, (idx, sx) in _group_by_edge(points).items():
            edge = self._asm.edge_map[eid]
            ph = np.exp(-1j * edge.a * sx)
            if edge.is_half_line:
                basis = (ph * np.exp(1j * k * sx))[:, np.newaxis]
            else:
                ks = k * sx
                basis = ph[:, np.newaxis] * np.stack([np.cos(ks), np.sin(ks) / k], axis=1)
            out[idx, :] = basis @ coeff[self._asm.cols[eid], :]
            # Particular part: the free-line kernel, for sources on this edge.
            if eid in source_groups:
                jdx, sy = source_groups[eid]
                diff = sx[:, np.newaxis] - sy[np.newaxis, :]
                out[np.ix_(idx, jdx)] += np.exp(1j * (k * np.abs(diff) - edge.a * diff)) * (
                    0.5j / k
                )
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
    k = float(k)
    if not (k > 0) or not math.isfinite(k):
        raise InputError(f"momentum must be positive and finite, got {k}")
    asm = _Assembler(sys)
    if not asm.hl_ids:
        raise StructuralError("system has no half-lines, hence no channels")
    assembled = asm.assembled([k * k])
    mat = assembled.M[0]
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ResonantKError(
            f"matching system ill-conditioned at k = {k} (cond {cond:.2e})", k=k
        )
    # Incoming wave exp(-iks) on each channel in turn: value 1 and inward
    # derivative -ik at the channel's end.
    eye = np.eye(len(asm.hl_ids))
    rhs = asm.rhs(assembled.row_scale[0], asm.hl_slots, eye, -1j * k * eye)
    coeff = assembled.col_scale[0][:, np.newaxis] * np.linalg.solve(mat, rhs)
    rows = [asm.cols[h].start for h in asm.hl_ids]
    return coeff[rows, :]


def effective_scattering(g: ApproxGraph, k: float) -> np.ndarray:
    """Scattering matrix of an approximating graph, outer channels in order."""
    return scattering_matrix(system_from_approx(g), k)
