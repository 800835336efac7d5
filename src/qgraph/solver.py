"""Spectra, resolvents, and scattering matrices of metric-graph systems.

Everything here reduces to one linear-algebra object: the matching matrix
M(z).  On each finite edge a solution of -(d/ds + i a)^2 f = z f is written
as exp(-i a s) (alpha phi_1 + beta phi_2) in the basis

    phi_1(s) = cos(k s),       phi_2(s) = sin(k s)/k,        k = sqrt(z),

whose traces are entire in z (the k = 0 limit of phi_2 is s, so nothing
blows up crossing z = 0).  On each half-line the ansatz is a single
multiple of exp(-i a s) exp(i k s), which is the decaying solution when
Im k > 0 and the outgoing wave when k is real.  Collecting all vertex
conditions on the coefficient vector gives a square matrix M(z); its
singularities are the eigenvalues, its inverse produces resolvent kernels,
and with incoming waves moved to the right-hand side it yields scattering
matrices.

Evaluation is batched: index tables built once per system turn a 1-d array
of spectral points into a stacked (npts, N, N) array of matching matrices
with a handful of array operations, and a single point is just a batch of
one.  Grid scans run in blocks of 64 points, each block one assembly, one
stacked ``slogdet`` and one stacked SVD.

Eigenvalue location uses a phase-normalised determinant.  For a self-adjoint
system the scaled determinant satisfies det M(lambda) = exp(i theta) r(lambda)
with a lambda-independent phase theta and real r, provided the row and
column scalings are positive and continuous in lambda.  The scan estimates
theta from determinant signs across the grid, tracks sign changes of r for
odd-order eigenvalues, and watches for dips of the smallest singular value
to catch even-order (no sign change) eigenvalues; multiplicities are read
off the singular values at the root.  Sign changes are polished on the
smooth function Re(exp(-i theta) sgn det) exp(log|det| - ref), with ref the
larger grid log-modulus at the bracket ends, so the root finder converges
superlinearly instead of bisecting a sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq, minimize_scalar

from ._util import require_positive_int
from .builder import ApproxGraph
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
    split_components,
    system_from_approx,
    truncate,
)

__all__ = [
    "SecularProblem",
    "secular_problem",
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
# Spectral points per stacked scan evaluation.  Blocks keep the
# (block, N, N) working set small however long the grid is.
_SCAN_BLOCK = 64


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
    decay, and each row is divided by its own coefficient amplitude.  All
    scalings are positive and continuous in lambda, which the
    phase-constancy root finder relies on.

    Deep in the negative spectrum the cos/sin pair degenerates: both grow
    like e^{kappa s}, their difference is lost to roundoff, and the secular
    determinant underflows long before the deepest delta wells are reached.
    Scans therefore request ``scan_basis=True``, which switches any edge
    with |Im k| l >= 1 to the decaying pair e^{iks}, e^{ik(l-s)}; cos and
    sin are evaluated only where an edge keeps its pair.  On the real axis
    the change multiplies the determinant by a positive factor per edge, so
    zeros, multiplicities and the aligned phase are preserved; solve paths
    keep the cos/sin basis, which their trace bookkeeping assumes.
    """

    def __init__(self, sys: MetricGraphSystem, *, need_compact: bool = False):
        self.edge_map = sys.edge_map
        self.cols: dict[object, slice] = {}
        self.slots: dict[tuple, int] = {}
        self.hl_ids = [e.id for e in sys.edges if e.is_half_line]
        if need_compact and self.hl_ids:
            raise StructuralError(
                "system has half-lines; truncate it before an eigenvalue scan"
            )
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

    def assembled(self, zs, *, scan_basis: bool = False) -> _Assembled:
        """Matching matrices at every point of the 1-d array ``zs``."""
        z = np.asarray(zs, dtype=complex).reshape(-1)
        k = _principal_k(z)
        kmag = np.maximum(1.0, np.abs(k))
        npts, nf = len(z), len(self.length)
        kb = k[:, np.newaxis]
        growth = np.abs(k.imag)[:, np.newaxis] * self.length
        decaying = (growth >= 1.0) & scan_basis
        keep = ~decaying
        base = 1.0 / np.cosh(np.minimum(700.0, growth))
        scale2 = base * kmag[:, np.newaxis]
        kl = kb * self.length
        # phi_1, phi_2 at s = l; at k = 0 they are 1 and l.
        p1 = np.cos(kl, out=np.ones_like(kl), where=keep)
        p2 = np.divide(
            np.sin(kl, out=np.zeros_like(kl), where=keep),
            kb,
            out=np.zeros_like(kl) + self.length,
            where=keep & (kb != 0),
        )
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
        if decaying.any():
            # Decaying pair e^{iks}, e^{ik(l-s)}: entries stay O(|k|)
            # however deep the scan goes, and the near-parallel columns of
            # the cos/sin pair are avoided.
            ik = 1j * kb
            decay = np.exp(ik * self.length)
            pair = np.empty_like(cos_sin)
            pair[..., 0] = 1.0
            pair[..., 1] = decay
            pair[..., 2] = ik
            pair[..., 3] = -ik * decay
            pair[..., 4] = ph * decay
            pair[..., 5] = ph
            pair[..., 6] = -ik * ph * decay
            pair[..., 7] = ik * ph
            cos_sin = np.where(decaying[..., np.newaxis], pair, cos_sin)
            scales[decaying] = 1.0
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
# Secular scans and eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecularProblem:
    """A sampled secular determinant: grid, aligned real part, log-moduli.

    ``r[i]`` is Re(exp(-i theta) det M(lam[i]) / |det|): a unit-magnitude,
    sign-carrying samples vector whose zero crossings locate odd-order
    eigenvalues.  ``smin`` holds the smallest singular value relative to the
    largest; its dips mark eigenvalues of even order.
    """

    lam: np.ndarray
    theta: float
    r: np.ndarray
    logabs: np.ndarray
    smin: np.ndarray


def _scan_grid(asm: _Assembler, lams: np.ndarray):
    """Determinant signs, log-moduli and relative sigma_min on a grid, one
    stacked evaluation per block of ``_SCAN_BLOCK`` points."""
    sgn = np.empty(len(lams), dtype=complex)
    logabs = np.empty(len(lams))
    smin = np.empty(len(lams))
    for start in range(0, len(lams), _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        mats = asm.assembled(lams[block], scan_basis=True).M
        sgn[block], logabs[block] = np.linalg.slogdet(mats)
        smin[block] = _relative_smin(np.linalg.svd(mats, compute_uv=False))
    return sgn, logabs, smin


def _relative_smin(sv: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max along the last axis; 0 for a zero matrix."""
    top = sv[..., 0]
    return np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top > 0)


def _estimate_theta(sgn: np.ndarray, logabs: np.ndarray) -> float:
    finite = np.isfinite(logabs) & (sgn != 0)
    if not finite.any():
        raise ScanRangeError("secular determinant vanished on the whole grid")
    cut = logabs[finite].max() - 34.0
    mask = finite & (logabs > cut)
    mean_sq = np.mean(sgn[mask] ** 2)
    if abs(mean_sq) < 0.5:
        raise StructuralError(
            "secular determinant phase drifts along the grid; "
            "the system does not look self-adjoint"
        )
    return 0.5 * cmath.phase(mean_sq)


def secular_problem(sys: MetricGraphSystem, lam_grid) -> SecularProblem:
    """Sample the phase-aligned secular determinant on an explicit grid."""
    if not sys.is_compact:
        sys = truncate(sys)
    asm = _Assembler(sys, need_compact=True)
    lams = np.asarray(lam_grid, dtype=float)
    if lams.ndim != 1 or len(lams) < 2:
        raise InputError("lam_grid must be a 1-d grid with at least two points")
    sgn, logabs, smin = _scan_grid(asm, lams)
    theta = _estimate_theta(sgn, logabs)
    r = np.real(sgn * cmath.exp(-1j * theta))
    return SecularProblem(lam=lams, theta=theta, r=r, logabs=logabs, smin=smin)


def _singular_values(asm: _Assembler, lam: float) -> np.ndarray:
    return np.linalg.svd(asm.assembled([lam], scan_basis=True).M[0], compute_uv=False)


def _aligned_det(asm: _Assembler, theta: float, ref: float, lam: float) -> float:
    """Re(exp(-i theta) det M(lam)) / exp(ref): smooth in lam, with the
    exponent clipped so that neither end of a bracket over- or underflows."""
    s, logabs = np.linalg.slogdet(asm.assembled([lam], scan_basis=True).M[0])
    scale = math.exp(min(700.0, max(-700.0, logabs - ref)))
    return float(np.real(s * cmath.exp(-1j * theta))) * scale


def _multiplicity_at(asm: _Assembler, lam: float) -> int:
    sv = _singular_values(asm, lam)
    if sv[0] == 0:
        return len(sv)
    return max(1, int(np.sum(sv < 1e-6 * sv[0])))


def _smin_at(asm: _Assembler, lam: float) -> float:
    return float(_relative_smin(_singular_values(asm, lam)))


def _roots_in_segment(
    asm: _Assembler, lams: np.ndarray, sgn, logabs, smin, theta: float,
    depth: int = 0,
) -> list[tuple[float, int]]:
    """Locate eigenvalues on one scanned segment; returns (lambda, mult).

    Sign changes of the aligned determinant are polished by bracketing.
    Cells where |det| or sigma_min dips without a net sign change hide
    either an even-order eigenvalue or a sub-cell cluster of simple ones
    (limit degeneracies typically split at O(d) on the approximating
    graphs); those cells are re-scanned on a refined grid, and only at the
    bottom of the recursion is a surviving dip polished as an even-order
    root.  A grid point carries a trustworthy determinant sign only while
    the matrix is meaningfully regular there -- sigma_min above a roundoff
    threshold; near-singular points never form brackets, and the dip
    recursion owns those regions.

    A cell with a net sign change can still hide an odd cluster (three
    tunneling-split well states, say, with one visible crossing).  At each
    polished root the singular spectrum is checked at a loose cutoff; when
    more directions are nearly null than the strict multiplicity accounts
    for, the cell is re-scanned like a dip and only the re-scan's findings
    are kept.  Splittings below ~5e-6 of the spectral scale are already
    absorbed into the strict multiplicity count, so a few refinement
    levels close the window between grid resolution and that floor.
    """
    r = np.real(sgn * cmath.exp(-1j * theta))
    scale = max(1.0, np.abs(lams).max())
    alive = (sgn != 0) & np.isfinite(logabs) & (smin > 5e-13)
    roots: list[tuple[float, int]] = []
    bracketed = np.zeros(len(lams) - 1, dtype=bool)
    cluster_cells = np.zeros(len(lams) - 1, dtype=bool)
    for i in range(len(lams) - 1):
        if sgn[i] == 0:
            roots.append((lams[i], _multiplicity_at(asm, lams[i])))
            bracketed[max(0, i - 1) : i + 1] = True
            continue
        if not (alive[i] and alive[i + 1]):
            continue
        if r[i] * r[i + 1] < 0:
            ref = max(logabs[i], logabs[i + 1])
            # An odd-order root of a smooth function can take ~130 steps.
            lam0 = float(
                brentq(
                    lambda lam: _aligned_det(asm, theta, ref, lam),
                    lams[i],
                    lams[i + 1],
                    xtol=1e-13 * scale,
                    rtol=8.9e-16,
                    maxiter=400,
                )
            )
            sv = _singular_values(asm, lam0)
            if sv[0] > 0:
                strict = max(1, int(np.sum(sv < 1e-6 * sv[0])))
                loose = int(np.sum(sv < 1e-3 * sv[0]))
            else:
                strict = loose = len(sv)
            # The loose count also sees near-null directions from features
            # well outside this cell, so it only ever forces a refinement
            # (whose findings replace this cell's), never a multiplicity.
            if loose > strict and depth < 4:
                cluster_cells[i] = True
            else:
                roots.append((lam0, strict))
            bracketed[i] = True
    suspicious = np.zeros(len(lams), dtype=bool)
    for i in range(1, len(lams) - 1):
        if bracketed[i - 1] or bracketed[i]:
            continue
        # Tie-tolerant local minimum with prominence measured two cells
        # out: a zero straddling a cell midpoint makes its two flanking
        # grid values nearly equal, and either must still register.
        lo2, hi2 = max(0, i - 2), min(len(lams) - 1, i + 2)
        local_min_smin = smin[i] <= smin[i - 1] and smin[i] <= smin[i + 1]
        dip_smin = (
            local_min_smin
            and smin[i] < 0.5
            and smin[i] <= 0.6 * min(smin[lo2], smin[hi2])
        )
        local_min_log = logabs[i] <= logabs[i - 1] and logabs[i] <= logabs[i + 1]
        dip_log = (
            local_min_log
            and min(logabs[lo2], logabs[hi2]) - logabs[i] >= 1.0
        )
        dead = not (alive[i - 1] and alive[i] and alive[i + 1])
        suspicious[i] = dip_smin or dip_log or dead
    for i in np.flatnonzero(cluster_cells):
        suspicious[i] = True
        suspicious[i + 1] = True
    # One refinement per maximal run of suspicious indices, so that a deep
    # dip spanning many grid points is re-scanned once, not per point.
    i = 1
    while i < len(lams) - 1:
        if not suspicious[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(lams) - 1 and suspicious[j + 1]:
            j += 1
        lo, hi = i - 1, j + 1
        width = lams[hi] - lams[lo]
        if depth < 8 and width > 1e-10 * scale:
            # Half-cell padding keeps a root off the sub-grid boundary.
            pad = 0.5 * (lams[lo + 1] - lams[lo])
            npts = min(200, 8 * (hi - lo) + 11)
            sub = np.linspace(lams[lo] - pad, lams[hi] + pad, npts)
            sub_sgn, sub_logabs, sub_smin = _scan_grid(asm, sub)
            roots.extend(
                _roots_in_segment(
                    asm, sub, sub_sgn, sub_logabs, sub_smin, theta, depth + 1
                )
            )
        else:
            bound_lo = lams[max(0, lo - 1)]
            bound_hi = lams[min(len(lams) - 1, hi + 1)]
            res = minimize_scalar(
                lambda lam: _smin_at(asm, lam),
                bounds=(bound_lo, bound_hi),
                method="bounded",
                options={"xatol": 1e-13 * scale},
            )
            lam0 = float(res.x)
            if _smin_at(asm, lam0) < 1e-8:
                roots.append((lam0, _multiplicity_at(asm, lam0)))
        i = j + 1
    return roots


def _merge_roots(roots: list[tuple[float, int]]) -> list[tuple[float, int]]:
    merged: list[tuple[float, int]] = []
    for lam, mult in sorted(roots):
        if merged and abs(lam - merged[-1][0]) <= 1e-9 * max(1.0, abs(lam)):
            prev_lam, prev_mult = merged[-1]
            merged[-1] = (prev_lam, max(prev_mult, mult))
        else:
            merged.append((lam, mult))
    return merged


def _negative_strength(sys: MetricGraphSystem) -> float:
    """Crude upper estimate of sqrt(-lambda_min) from the vertex data."""
    total = 0.0
    for vertex in sys.vertices:
        cond = vertex.condition
        if isinstance(cond, DeltaCondition):
            total += max(0.0, -cond.w)
        else:
            b_norms = np.linalg.svd(cond.coupling.B, compute_uv=False)
            positive = b_norms[b_norms > 1e-12 * max(1.0, b_norms[0])]
            if positive.size:
                a_norm = np.linalg.norm(cond.coupling.A, 2)
                total += a_norm / positive[-1]
    return total


def _component_eigenvalues(
    comp: MetricGraphSystem,
    count: int,
    lam_min: float | None,
    lam_max: float | None,
) -> list[float]:
    asm = _Assembler(comp, need_compact=True)
    total_length = sum(e.length for e in comp.edges)
    dk = math.pi / (6.0 * total_length)
    found: list[tuple[float, int]] = []

    def scan(lams: np.ndarray):
        sgn, logabs, smin = _scan_grid(asm, lams)
        theta = _estimate_theta(sgn, logabs)
        found.extend(_roots_in_segment(asm, lams, sgn, logabs, smin, theta))

    # Negative window.  Either the caller fixed the floor, or it is grown
    # from the vertex data until no root sits near the bottom edge.
    if lam_min is not None:
        kappa_max = math.sqrt(max(0.0, -lam_min)) + dk
    else:
        kappa_max = 1.0 + 1.1 * _negative_strength(comp)
    for _ in range(7):
        npts = int(math.ceil(kappa_max / dk)) + 1
        if npts > 400_000:
            raise ScanRangeError(
                "negative-spectrum scan too large; pass lam_min",
                window=(-(kappa_max**2), 0.0),
            )
        kappas = np.linspace(kappa_max, 0.0, max(npts, 64), endpoint=False)
        negatives: list[tuple[float, int]] = []
        sgn, logabs, smin = _scan_grid(asm, -(kappas**2))
        theta = _estimate_theta(sgn, logabs)
        negatives = _roots_in_segment(asm, -(kappas**2), sgn, logabs, smin, theta)
        deepest_ok = all(
            lam > -((0.9 * kappa_max) ** 2) for lam, _ in negatives
        )
        if lam_min is not None or deepest_ok:
            found.extend(negatives)
            break
        kappa_max *= 1.8
    else:
        raise ScanRangeError(
            "negative spectrum extends beyond every scanned window",
            window=(-(kappa_max**2), 0.0),
        )

    # Positive window, extended upward until `count` eigenvalues are in hand.
    k_max = 1.0 + 1.25 * math.pi * (count + 2) / total_length
    if lam_max is not None:
        k_max = math.sqrt(max(0.0, lam_max)) + dk
    k_lo = 0.0
    for _ in range(10):
        ks = np.arange(k_lo, k_max + dk, dk)
        scan(ks**2)
        merged = _merge_roots(found)
        if lam_min is not None:
            merged = [(l, m) for l, m in merged if l >= lam_min - 1e-12]
        have = sum(m for _, m in merged)
        if have >= count or lam_max is not None:
            return [l for l, m in merged for _ in range(m)]
        k_lo, k_max = k_max, 1.0 + k_max * 1.5
    raise ScanRangeError(
        f"found only {have} eigenvalues up to lambda = {k_max**2:.3g}",
        window=(None, k_max**2),
    )


def eigenvalues_compact(
    sys: MetricGraphSystem,
    count: int,
    *,
    lam_min: float | None = None,
    lam_max: float | None = None,
) -> np.ndarray:
    """The lowest `count` eigenvalues (with multiplicity), sorted.

    The system must be compact, or carry a truncation spec so it can be
    truncated here.  With ``lam_min`` the scan starts at that floor instead
    of hunting for the bottom of the spectrum; with ``lam_max`` the result
    is whatever lies in the window, possibly fewer than `count`.
    """
    count = require_positive_int(count, "count")
    if not sys.is_compact:
        if sys.truncation is None:
            raise StructuralError(
                "system has half-lines and no truncation spec; call truncate()"
            )
        sys = truncate(sys)
    values: list[float] = []
    for comp in split_components(sys):
        values.extend(_component_eigenvalues(comp, count, lam_min, lam_max))
    values.sort()
    if lam_max is not None:
        return np.array([v for v in values if v <= lam_max + 1e-12][: count])
    if len(values) < count:
        raise ScanRangeError(
            f"components yielded only {len(values)} eigenvalues"
        )
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
