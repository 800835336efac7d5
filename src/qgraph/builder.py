"""Construction of the approximating graph for an ST-normalized coupling.

Given the normal form (m, S, T) of a coupling at a degree-n vertex and a
half-length d, the star is disconnected at the vertex and rebuilt from

* the n outer half-lines, now ending at separate vertices v_1 .. v_n,
* for every connected pair {j, k} an inner edge of length 2d made of two
  half-segments that meet at a midpoint vertex; the half adjacent to v_j
  carries local coordinate 0 at v_j and d at the midpoint,
* a delta coupling of strength w_{jk}(d) at each midpoint and w_j(d) at
  each vertex v_j, and a constant magnetic potential A_{(j,k)}(d) on each
  half-segment, with A_{(k,j)} = -A_{(j,k)}.

Which pairs are connected is decided by the index sets N_j: for j <= m the
set N_j collects the k <= m with S_{jk} != 0, the k <= m sharing a column l
with T_jl != 0 != T_kl, and the k > m with T_jk != 0; for k > m it collects
the j <= m with T_jk != 0.  The schedules are chosen so that the family
converges to the original coupling in the norm-resolvent sense as d -> 0+:

    A_{(j,k)}(d) = arg(c)/(2d)            if Re c >= 0,
                   (arg(c) - pi)/(2d)     if Re c < 0,

with c = T_jk for a cross pair j <= m < k and
c = d S_{jk} + sum_l T_jl conj(T_kl) for j, k <= m;

    w_{jk}(d) = (1/d) (-2 + 1/<T_jk>)     for j <= m < k,
    w_{jk}(d) = (1/d) (-2 - 1/<c>)        for j, k <= m,

    w_k(d) = (1 - |N_k| + sum_h <T_hk>)/d                  for k > m,
    w_j(d) = S_jj - |N_j|/d - sum_{k != j, k <= m} <S_jk + (1/d) sum_l T_jl conj(T_kl)>
             + (1/d) sum_l (1 + <T_jl>) <T_jl>             for j <= m,

where <c> denotes |c| for Re c >= 0 and -|c| otherwise.  The strength
w_{jk} is O(1/d) in general and O(1/d^2) exactly when j, k <= m and the
column sum sum_l T_jl conj(T_kl) vanishes.

The per-entry and per-pair functions evaluate one schedule value each, in
Python arithmetic; they are the reference.  :func:`build_approx_graph`
evaluates every value in array passes over all vertices and pairs, with
the same floating-point operations in the same order, so each value has
the reference's bits and every failure raises the reference's first error.
Three numpy shortcuts round differently from that arithmetic, so the array
passes avoid them:

* np.abs of a complex array differs from Python's abs, which calls hypot,
  on about a third of random values; np.hypot of the parts does not;
* np.arctan2 differs from math.atan2 on a few values in a thousand, so the
  phases are taken by math.atan2 over the values as Python floats;
* numpy divides a complex array by a real number through its reciprocal,
  so the real and imaginary parts are divided on their own.

A vertex strength's terms are summed by np.cumsum along the row, in the
order of the reference's loop, and the T-row overlaps by np.vecdot, which
rounds as the reference's np.dot does (see :func:`_overlaps`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._util import require_half_length
from .couplings import STForm
from .errors import (
    DegenerateArgumentError,
    InputError,
    QGraphError,
    SingularDError,
    StructuralError,
)

__all__ = [
    "NeighborSets",
    "ApproxGraph",
    "Order",
    "bracket",
    "neighbor_sets",
    "magnetic_schedule",
    "inner_delta_schedule",
    "vertex_delta_schedule",
    "build_approx_graph",
    "order_check",
]

#: Entries of S and T smaller than this (relative to the matrix scale) are
#: treated as exact zeros when deciding which inner edges exist.
ZERO_TOL = 1.0e-12

#: Imaginary residue allowed in intermediate complex arithmetic before a
#: schedule value is declared non-real.
IMAG_TOL = 1.0e-14


class Order(Enum):
    """Asymptotic order of an inner-edge strength as d -> 0."""

    D_INV = "O(1/d)"
    D_INV_SQ = "O(1/d^2)"


@dataclass(frozen=True)
class NeighborSets:
    """The index sets N_j: which pairs of edges are joined by inner edges."""

    n: int
    sets: dict[int, frozenset[int]]

    def pairs(self) -> list[tuple[int, int]]:
        """All connected pairs (j, k) with j < k, in lexicographic order."""
        return [
            (j, k)
            for j in range(1, self.n + 1)
            for k in sorted(self.sets[j])
            if j < k
        ]


@dataclass(frozen=True)
class ApproxGraph:
    """The approximating graph at a fixed half-length d.

    ``w_vertex`` maps every edge index j to the strength at v_j, ``w_inner``
    maps each connected pair (j, k), j < k, to the midpoint strength, and
    ``a_inner`` holds the magnetic potential for both orientations of each
    half-segment, with a_inner[(k, j)] = -a_inner[(j, k)].
    """

    n: int
    d: float
    neighbors: NeighborSets
    w_vertex: dict[int, float]
    w_inner: dict[tuple[int, int], float]
    a_inner: dict[tuple[int, int], float]


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------

def bracket(c: complex) -> float:
    """Signed modulus <c>: |c| when Re c >= 0, else -|c| (so <c> = c for real c)."""
    c = complex(c)
    if not (np.isfinite(c.real) and np.isfinite(c.imag)):
        raise InputError(f"bracket argument must be finite, got {c!r}")
    try:
        modulus = abs(c)
    except OverflowError:
        raise InputError(f"bracket argument overflows, got {c!r}") from None
    return modulus if c.real >= 0.0 else -modulus


def _zero_scale(st: STForm) -> float:
    with np.errstate(over="ignore"):
        mats = [np.abs(m).max() if m.size else 0.0 for m in (st.S, st.T)]
    scale = ZERO_TOL * max(1.0, *mats)
    if not math.isfinite(scale):
        raise InputError("the moduli of the normal form's entries overflow")
    return scale


def _adjacency(st: STForm, cutoff: float) -> np.ndarray:
    """The n x n boolean matrix of the pairs joined by inner edges."""
    n, m = st.n, st.m
    t_nz = np.abs(st.T) > cutoff
    # Pairs j < k <= m: S_jk != 0 or T_jl != 0 != T_kl for some column l,
    # read on the upper triangle.
    index = np.arange(m)
    inner = ((np.abs(st.S) > cutoff) | (t_nz @ t_nz.T)) & (index[:, np.newaxis] < index)
    adj = np.zeros((n, n), dtype=bool)
    adj[:m, :m] = inner | inner.T
    adj[:m, m:] = t_nz
    adj[m:, :m] = t_nz.T
    return adj


def _sets(adj: np.ndarray) -> NeighborSets:
    labels = range(1, len(adj) + 1)
    sets = {j: frozenset(itertools.compress(labels, row)) for j, row in zip(labels, adj.tolist())}
    return NeighborSets(n=len(adj), sets=sets)


def neighbor_sets(st: STForm) -> NeighborSets:
    """Build the index sets N_j from the sparsity pattern of S and T.

    Membership is a union of three rules; entries below a small relative
    cutoff count as zero so that reconstructed normal forms with rounding
    residue do not sprout spurious edges.  The T-column overlap rule is
    one boolean matrix product of the nonzero pattern of T with its
    transpose.
    """
    return _sets(_adjacency(st, _zero_scale(st)))


def _require_pair(st: STForm, nbrs: NeighborSets, j: int, k: int) -> None:
    if not (1 <= j <= st.n and 1 <= k <= st.n) or j == k:
        raise StructuralError(f"invalid edge pair ({j}, {k}) for n={st.n}")
    if k not in nbrs.sets[j]:
        raise InputError(f"edges {j} and {k} are not joined by an inner edge")


def _overlap(st: STForm, j: int, k: int) -> complex:
    """The T-row overlap sum_l T_jl conj(T_kl) of rows j, k <= m; raises
    :class:`InputError` where it overflows."""
    if not st.T.size:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = complex(np.dot(st.T[j - 1], st.T[k - 1].conj()))
    if not (math.isfinite(overlap.real) and math.isfinite(overlap.imag)):
        raise InputError(f"the overlap of T rows {j} and {k} overflows")
    return overlap


def _pair_argument(st: STForm, d: float, j: int, k: int) -> complex:
    """The complex quantity whose phase and signed modulus drive a pair.

    For a cross pair j <= m < k this is T_jk; for j, k <= m it is
    d S_{jk} + sum_l T_jl conj(T_kl).
    """
    m = st.m
    if j <= m < k:
        return complex(st.T[j - 1, k - m - 1])
    if j <= m and k <= m:
        return d * complex(st.S[j - 1, k - 1]) + _overlap(st, j, k)
    raise StructuralError(f"pair ({j}, {k}) has no inner-edge parameters (both > m)")


def _magnetic(c: complex, d: float, cutoff: float, pair: tuple[int, int]) -> float:
    """A_{(j,k)}(d) for j < k from the pair quantity c."""
    if abs(c) <= cutoff * d:
        raise DegenerateArgumentError(
            f"phase of pair {pair} undefined: argument cancels at d={d}", pair=pair
        )
    # atan2, not cmath.phase, which raises where the phase underflows.
    phase = math.atan2(c.imag, c.real)
    if c.real < 0.0:
        phase -= math.pi
    return phase / (2.0 * d)


def _inner_delta(
    c: complex, d: float, cutoff: float, pair: tuple[int, int], cross: bool
) -> float:
    """w_{jk}(d) for j < k from the pair quantity c."""
    signed = bracket(c)
    if cross:
        # cross pair: the pre guarantees T_{lo,hi} != 0
        return (-2.0 + 1.0 / signed) / d
    if signed == 0.0 or abs(signed) <= cutoff * d:
        raise SingularDError(
            f"strength of pair {pair} undefined at d={d}: "
            "d S_jk cancels the T-column overlap; use a different d",
            pair=pair,
        )
    return (-2.0 - 1.0 / signed) / d


def magnetic_schedule(st: STForm, d: float, j: int, k: int) -> float:
    """Magnetic potential A_{(j,k)}(d) on the half-segment adjacent to v_j.

    The phase is the principal argument of the pair quantity c, shifted by
    -pi when Re c < 0 (the sign of <c> absorbs the remaining half-turn),
    and divided by the accumulated path length 2d.  Antisymmetric in (j, k).
    """
    d = require_half_length(d)
    _require_pair(st, neighbor_sets(st), j, k)
    lo, hi = min(j, k), max(j, k)
    a_lo_hi = _magnetic(_pair_argument(st, d, lo, hi), d, _zero_scale(st), (lo, hi))
    return a_lo_hi if j < k else -a_lo_hi


def inner_delta_schedule(st: STForm, d: float, j: int, k: int) -> float:
    """Midpoint strength w_{jk}(d) of the inner edge joining j and k."""
    d = require_half_length(d)
    _require_pair(st, neighbor_sets(st), j, k)
    lo, hi = min(j, k), max(j, k)
    c = _pair_argument(st, d, lo, hi)
    return _inner_delta(c, d, _zero_scale(st), (lo, hi), st.m < hi)


def vertex_delta_schedule(st: STForm, nbrs: NeighborSets, d: float, j: int) -> float:
    """Vertex strength w_j(d) at the endpoint of the j-th outer edge."""
    d = require_half_length(d)
    if not 1 <= j <= st.n:
        raise StructuralError(f"edge index {j} out of range 1..{st.n}")
    m = st.m
    degree = len(nbrs.sets[j])
    if j > m:
        total = sum(bracket(st.T[h - 1, j - m - 1]) for h in range(1, m + 1))
        return (1.0 - degree + total) / d
    diag = complex(st.S[j - 1, j - 1])
    if abs(diag.imag) > IMAG_TOL * max(1.0, abs(diag)):
        raise InputError(f"S_{{{j}{j}}} must be real, got {diag}")
    value = diag.real - degree / d
    for k in range(1, m + 1):
        if k == j:
            continue
        c = complex(st.S[j - 1, k - 1]) + _overlap(st, j, k) / d
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InputError(f"a delta strength overflows at d={d}")
        value -= bracket(c)
    for l in range(st.n - m):
        t_br = bracket(st.T[j - 1, l])
        value += (1.0 + t_br) * t_br / d
    return value


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _brackets(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moduli and signed moduli <c> of the complex values re + i im, bit for
    bit as :func:`bracket` takes them, for finite values: np.hypot is the
    hypot that Python's abs(complex) calls, while np.abs rounds differently."""
    mod = np.hypot(re, im)
    return mod, np.where(re >= 0.0, mod, -mod)


def _overlaps(t_mat: np.ndarray) -> np.ndarray:
    """The m x m T-row overlaps sum_l T_jl conj(T_kl), with the bits of
    :func:`_overlap`'s np.dot.  np.vecdot sums conj(T_kl) T_jl in BLAS's
    zdotc, whose rounding is that of np.dot's zdotu on the conjugated row;
    a matmul or an einsum rounds differently.  A single column is one
    product, where zdotu and np.vecdot disagree on the sign of a zero part,
    so it is taken as np.dot's kernel takes it, one real product at a time:
    (a + ib) conj(c + id) = (ac - b(-d)) + i (a(-d) + bc), with x - (-y)
    and (-y) + x exactly x + y and x - y."""
    if t_mat.shape[1] != 1:
        return np.vecdot(t_mat[np.newaxis], t_mat[:, np.newaxis])
    re, im = t_mat.real, t_mat.imag
    out = np.empty((len(t_mat), len(t_mat)), dtype=complex)
    out.real = re * re.T + im * im.T
    out.imag = im * re.T - re * im.T
    return out


def build_approx_graph(st: STForm, d: float) -> ApproxGraph:
    """Assemble neighbor sets and all three schedules into one graph, in
    array passes with the per-entry functions' bits (see the module notes).

    Raises the error the per-entry functions raise first, in the order of
    j and then of the pairs; :class:`InputError` where a schedule
    overflows, as it can for entries of S and T near the float range."""
    d = require_half_length(d)
    cutoff = _zero_scale(st)
    adj = _adjacency(st, cutoff)
    n, m = st.n, st.m
    # The pairs j < k in order, as indices from 0.
    j, k = np.nonzero(adj)
    j, k = j[j < k], k[j < k]
    pairs = list(zip((j + 1).tolist(), (k + 1).tolist()))
    s_re, s_im, t_mat = st.S.real, st.S.imag, st.T
    degree = adj.sum(axis=1)
    with np.errstate(all="ignore"):
        ov = _overlaps(t_mat)
        t_mod, t_br = _brackets(t_mat.real, t_mat.imag)
        # j <= m: S_jj - |N_j|/d, minus <S_jk + (1/d) overlap> for k != j,
        # plus (1 + <T_jl>) <T_jl> / d; x + (-0.0) is x, as x - 0.0 is.
        v_re, v_im = s_re + ov.real / d, s_im + ov.imag / d
        v_mod, v_br = _brackets(v_re, v_im)
        np.fill_diagonal(v_br, 0.0)
        terms = np.empty((m, 1 + n))
        terms[:, 0] = s_re.diagonal() - degree[:m] / d
        terms[:, 1 : m + 1] = -v_br
        terms[:, m + 1 :] = (1.0 + t_br) * t_br / d
        w_vertex = np.empty(n)
        w_vertex[:m] = np.cumsum(terms, axis=1, out=terms)[:, -1]
        # j > m: 1 - |N_j| + sum_h <T_hj>, over d.
        total = np.cumsum(t_br, axis=0)[-1] if m else 0.0
        w_vertex[m:] = (1.0 - degree[m:] + total) / d
        # The pair quantity c, read at the pairs from its first m rows: d S_jk
        # + overlap for k <= m, d S_jk with the parts of the complex product
        # (d + 0i) S_jk that Python forms for d * complex(S_jk), and T_jk for
        # k > m.
        c_re, c_im = np.empty((2, m, n))
        c_re[:, :m] = d * s_re - 0.0 * s_im + ov.real
        c_im[:, :m] = d * s_im + 0.0 * s_re + ov.imag
        c_re[:, m:], c_im[:, m:] = t_mat.real, t_mat.imag
        inner = k < m
        c_re, c_im = c_re[j, k], c_im[j, k]
        c_mod, signed = _brackets(c_re, c_im)
        w_inner = np.where(inner, -2.0 - 1.0 / signed, -2.0 + 1.0 / signed) / d
        flat = c_mod <= cutoff * d
        if (
            _non_real_diagonal(st).any()
            or not np.isfinite(np.concatenate([w_vertex, w_inner, c_mod])).all()
            or flat.any()
        ):
            raise _first_failure(st, d, pairs, ov, v_re, v_im, v_mod, t_mod,
                                 c_re, c_im, c_mod, flat, inner)
    phase = np.array([math.atan2(y, x) for y, x in zip(c_im.tolist(), c_re.tolist())])
    a = np.where(c_re < 0.0, phase - math.pi, phase) / (2.0 * d)
    both = np.empty(2 * len(pairs))
    both[0::2], both[1::2] = a, -a
    return ApproxGraph(
        n=n,
        d=d,
        neighbors=_sets(adj),
        w_vertex=dict(zip(range(1, n + 1), w_vertex.tolist())),
        w_inner=dict(zip(pairs, w_inner.tolist())),
        a_inner=dict(zip([key for j, k in pairs for key in ((j, k), (k, j))], both.tolist())),
    )


def _non_real_diagonal(st: STForm) -> np.ndarray:
    """Per j <= m, whether S_jj has more imaginary residue than IMAG_TOL allows."""
    re, im = st.S.real.diagonal(), st.S.imag.diagonal()
    if not im.any():
        return np.zeros(len(im), dtype=bool)
    return np.abs(im) > IMAG_TOL * np.maximum(1.0, np.hypot(re, im))


def _first_failure(st, d, pairs, ov, v_re, v_im, v_mod, t_mod,
                   c_re, c_im, c_mod, flat, inner) -> QGraphError:
    """The error the per-entry functions raise first, for the arrays of
    :func:`build_approx_graph`: the vertex strengths in order of j (S_jj,
    then each k with its overlap, strength term and bracket, then the
    brackets of T), then the pairs in order, then an overflow of a
    strength.  Each failure is keyed by its place in that order, so a mask
    may also hold places that an earlier failure of the same entry hides."""
    n, m = st.n, st.m
    # The reference never forms S_jj + overlap_jj / d.
    off = ~np.eye(m, dtype=bool)
    failures = [((n + len(pairs),), InputError(f"a delta strength overflows at d={d}"))]

    def note(mask, key, error):
        hit = np.argwhere(mask)
        if len(hit):
            at = hit[0].tolist()
            failures.append((key(*at), error(*at)))

    def overflow(value):
        return InputError(f"bracket argument overflows, got {complex(value)!r}")

    note(_non_real_diagonal(st), lambda j: (j, 0), lambda j: InputError(
        f"S_{{{j + 1}{j + 1}}} must be real, got {complex(st.S[j, j])}"))
    note(off & ~np.isfinite(ov), lambda j, k: (j, 1, k, 0), lambda j, k: InputError(
        f"the overlap of T rows {j + 1} and {k + 1} overflows"))
    note(off & ~(np.isfinite(v_re) & np.isfinite(v_im)), lambda j, k: (j, 1, k, 1),
         lambda j, k: InputError(f"a delta strength overflows at d={d}"))
    note(off & np.isinf(v_mod), lambda j, k: (j, 1, k, 2),
         lambda j, k: overflow(complex(v_re[j, k], v_im[j, k])))
    note(np.isinf(t_mod), lambda j, l: (j, 2, l), lambda j, l: overflow(st.T[j, l]))
    note(np.isinf(t_mod).T, lambda l, h: (m + l, 2, h), lambda l, h: overflow(st.T[h, l]))
    note(~(np.isfinite(c_re) & np.isfinite(c_im)), lambda p: (n + p, 0), lambda p: InputError(
        f"bracket argument must be finite, got {complex(c_re[p], c_im[p])!r}"))
    note(np.isinf(c_mod), lambda p: (n + p, 1),
         lambda p: overflow(complex(c_re[p], c_im[p])))
    note(flat & inner, lambda p: (n + p, 2), lambda p: SingularDError(
        f"strength of pair {pairs[p]} undefined at d={d}: "
        "d S_jk cancels the T-column overlap; use a different d",
        pair=pairs[p],
    ))
    note(flat & ~inner, lambda p: (n + p, 2), lambda p: DegenerateArgumentError(
        f"phase of pair {pairs[p]} undefined: argument cancels at d={d}", pair=pairs[p]))
    return min(failures, key=lambda failure: failure[0])[1]


def order_check(st: STForm, pair: tuple[int, int]) -> Order:
    """Asymptotic order of w_{jk}(d): O(1/d^2) exactly on the degenerate pairs.

    A pair j, k <= m collects the extra power of 1/d iff the column overlap
    sum_l T_jl conj(T_kl) vanishes; every cross pair stays at O(1/d).
    """
    j, k = pair
    nbrs = neighbor_sets(st)
    _require_pair(st, nbrs, j, k)
    lo, hi = min(j, k), max(j, k)
    if hi > st.m:
        return Order.D_INV
    if abs(_overlap(st, lo, hi)) <= _zero_scale(st):
        return Order.D_INV_SQ
    return Order.D_INV
