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
Python arithmetic; they are the reference.  :func:`_schedules` evaluates
every value in one array pass over all vertices and pairs and every d of
a grid, with a leading d axis and the same floating-point operations in
the same order, so each value has the reference's bits, whatever the grid;
:func:`build_approx_graph` is that pass at one d.  The arrays only decide
whether a d fails; a failing d reruns the per-entry functions, so the
reference alone decides which error it raises.  Three numpy shortcuts
round differently from that arithmetic, so the array pass avoids them:

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
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._util import (
    require_finite_complex,
    require_finite_real,
    require_half_length,
    require_positive_int,
)
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
    """The index sets N_j: which pairs of edges are joined by inner edges.

    The sets are checked when made, and kept as frozensets: they are those
    of the vertices 1..n, their members are ints, and they are symmetric
    and without loops."""

    n: int
    sets: dict[int, frozenset[int]]

    def __post_init__(self):
        n = require_positive_int(self.n, "n")
        # The set 1..n is made only for an n that can match the keys.
        vertices = frozenset(range(1, n + 1)) if len(self.sets) == n else None
        if self.sets.keys() != vertices:
            raise StructuralError(f"neighbor sets must be those of the vertices 1..{n}")
        if not set(map(type, itertools.chain.from_iterable(self.sets.values()))) <= {int}:
            bad = next(k for ks in self.sets.values() for k in ks if type(k) is not int)
            raise InputError(f"neighbor {bad!r} is not an int")
        sets = {j: frozenset(self.sets[j]) for j in range(1, n + 1)}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sets", sets)
        if not all(ks <= vertices for ks in sets.values()):
            raise StructuralError(f"a neighbor lies outside the vertices 1..{n}")
        if any(j in ks or any(j not in sets[k] for k in ks) for j, ks in sets.items()):
            raise StructuralError("neighbor sets must be symmetric and without loops")

    def pairs(self) -> list[tuple[int, int]]:
        """All connected pairs (j, k) with j < k, in lexicographic order."""
        return [
            (j, k)
            for j in range(1, self.n + 1)
            for k in sorted(self.sets[j])
            if j < k
        ]


def _entries(table: dict, keys: list, name: str) -> list:
    """``table`` at every key of ``keys``, which must be its exact key set;
    a missing or extra key is a :class:`StructuralError`."""
    try:
        values = [table[key] for key in keys]
    except KeyError as exc:
        raise StructuralError(f"{name} has no entry for {exc.args[0]!r}") from None
    if len(table) != len(keys):
        extra = next(iter(table.keys() - set(keys)))
        raise StructuralError(f"{name} has an extra entry for {extra!r}")
    return values


@dataclass(frozen=True)
class ApproxGraph:
    """The approximating graph at a fixed half-length d.

    ``w_vertex`` maps every edge index j to the strength at v_j, ``w_inner``
    maps each connected pair (j, k), j < k, to the midpoint strength, and
    ``a_inner`` holds the magnetic potential for both orientations of each
    half-segment, with a_inner[(k, j)] = -a_inner[(j, k)].

    The graph is checked when made, as a whole: d lies in (0, 1]; the
    neighbor sets are those of its n vertices; each table holds exactly
    the entries above; every value is real and finite, and is kept as a
    float; and the potentials are antisymmetric.  So a graph that exists
    makes a valid metric-graph system and a document that reads back to it.
    """

    n: int
    d: float
    neighbors: NeighborSets
    w_vertex: dict[int, float]
    w_inner: dict[tuple[int, int], float]
    a_inner: dict[tuple[int, int], float]

    def __post_init__(self):
        object.__setattr__(self, "d", require_half_length(self.d))
        if self.neighbors.n != self.n:
            raise StructuralError(f"neighbor sets must be those of the vertices 1..{self.n}")
        n, pairs = self.neighbors.n, self.neighbors.pairs()
        object.__setattr__(self, "n", n)
        halves = pairs + [(k, j) for j, k in pairs]
        a = _entries(self.a_inner, halves, "a_inner")
        w = _entries(self.w_inner, pairs, "w_inner")
        w += _entries(self.w_vertex, range(1, n + 1), "w_vertex")
        # Plain finite floats pass at once; anything else is checked, and
        # made a float, one value at a time.
        values = a + w
        if not (set(map(type, values)) <= {float} and all(map(math.isfinite, values))):
            a = [require_finite_real(x, "a") for x in a]
            w = [require_finite_real(x, "w") for x in w]
            object.__setattr__(self, "a_inner", dict(zip(halves, a)))
            object.__setattr__(self, "w_inner", dict(zip(pairs, w)))
            object.__setattr__(self, "w_vertex", dict(zip(range(1, n + 1), w[len(pairs) :])))
        a_out, a_back = a[: len(pairs)], a[len(pairs) :]
        if a_back != list(map(operator.neg, a_out)):
            at = next(at for at, (x, y) in enumerate(zip(a_out, a_back)) if y != -x)
            (j, k), x, y = pairs[at], a_out[at], a_back[at]
            raise InputError(f"a_inner[{(k, j)}] = {y!r} must be -a_inner[{(j, k)}] = {-x!r}")


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------

def bracket(c: complex) -> float:
    """Signed modulus <c>: |c| when Re c >= 0, else -|c| (so <c> = c for real c)."""
    c = require_finite_complex(c, "bracket argument")
    try:
        modulus = abs(c)
    except OverflowError:
        raise InputError(f"bracket argument overflows, got {c!r}") from None
    return modulus if c.real >= 0.0 else -modulus


def _moduli(st: STForm) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore"):
        return np.abs(st.S), np.abs(st.T)


def _cutoff(s_mod: np.ndarray, t_mod: np.ndarray) -> float:
    mats = [mod.max() if mod.size else 0.0 for mod in (s_mod, t_mod)]
    scale = ZERO_TOL * max(1.0, *mats)
    if not math.isfinite(scale):
        raise InputError("the moduli of the normal form's entries overflow")
    return scale


def _zero_scale(st: STForm) -> float:
    return _cutoff(*_moduli(st))


def _adjacency(st: STForm) -> tuple[np.ndarray, float]:
    """The n x n boolean matrix of the pairs joined by inner edges, and the
    zero cutoff it reads S and T with, from one pass over their moduli."""
    s_mod, t_mod = _moduli(st)
    cutoff = _cutoff(s_mod, t_mod)
    n, m = st.n, st.m
    t_nz = t_mod > cutoff
    # Pairs j < k <= m: S_jk != 0 or T_jl != 0 != T_kl for some column l,
    # read on the upper triangle.
    index = np.arange(m)
    inner = ((s_mod > cutoff) | (t_nz @ t_nz.T)) & (index[:, np.newaxis] < index)
    adj = np.zeros((n, n), dtype=bool)
    adj[:m, :m] = inner | inner.T
    adj[:m, m:] = t_nz
    adj[m:, :m] = t_nz.T
    return adj, cutoff


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
    return _sets(_adjacency(st)[0])


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


class _Schedules(NamedTuple):
    """The schedules of the approximating graphs of one ST form at the
    half-lengths ``d`` (a tuple of validated floats), from one array pass
    (see :func:`_schedules`): the neighbor sets, the pairs j < k in order,
    and per d the vertex strengths ``w_vertex`` (d, n), the midpoint
    strengths ``w_inner`` (d, pairs) and the potentials A_{(j,k)} ``a``
    (d, pairs), with ``errors``, the QGraphError each d's build raises, or
    None.  Rows of a d with an error hold no values."""

    d: tuple[float, ...]
    neighbors: NeighborSets
    pairs: list[tuple[int, int]]
    w_vertex: np.ndarray
    w_inner: np.ndarray
    a: np.ndarray
    errors: list

    def graph(self, i: int) -> ApproxGraph:
        """The approximating graph at ``d[i]``, which must have built."""
        n, pairs, a = self.neighbors.n, self.pairs, self.a[i]
        both = np.empty(2 * len(pairs))
        both[0::2], both[1::2] = a, -a
        return ApproxGraph(
            n=n,
            d=self.d[i],
            neighbors=self.neighbors,
            w_vertex=dict(zip(range(1, n + 1), self.w_vertex[i].tolist())),
            w_inner=dict(zip(pairs, self.w_inner[i].tolist())),
            a_inner=dict(zip([key for j, k in pairs for key in ((j, k), (k, j))], both.tolist())),
        )


def build_approx_graph(st: STForm, d: float) -> ApproxGraph:
    """Assemble neighbor sets and all three schedules into one graph, in
    array passes with the per-entry functions' bits (see the module notes).

    Where the arrays show a non-finite strength or pair quantity, a pair
    whose quantity cancels, or an imaginary part on the diagonal of S, the
    per-entry schedules are rerun (see :func:`_reference_failure`), and the
    build raises the first error they raise; :class:`InputError` where a
    schedule overflows, as it can for entries of S and T near the float
    range.  This is :func:`_schedules` at the one d."""
    built = _schedules(st, (require_half_length(d),))
    (error,) = built.errors
    if error is not None:
        raise error
    return built.graph(0)


def _schedules(st: STForm, d_values: tuple[float, ...]) -> _Schedules:
    """The schedules of :func:`build_approx_graph` at every d of ``d_values``
    (validated floats), in one array pass with a leading d axis.  Every
    operation is elementwise, or a cumsum along a row, so each d's values
    have the bits of a pass at that d alone; a d that fails reruns the
    per-entry schedules for its own error (see :func:`_reference_failure`)."""
    adj, cutoff = _adjacency(st)
    n, m = st.n, st.m
    # The pairs j < k in order, as indices from 0.
    j, k = np.nonzero(adj)
    j, k = j[j < k], k[j < k]
    pairs = list(zip((j + 1).tolist(), (k + 1).tolist()))
    s_re, s_im, t_mat = st.S.real, st.S.imag, st.T
    degree = adj.sum(axis=1)
    # d as a column, and as a column of matrices.
    d = np.array(d_values)[:, np.newaxis]
    d_mat = d[:, :, np.newaxis]
    with np.errstate(all="ignore"):
        ov = _overlaps(t_mat)
        _, t_br = _brackets(t_mat.real, t_mat.imag)
        # j <= m: S_jj - |N_j|/d, minus <S_jk + (1/d) overlap> for k != j,
        # plus (1 + <T_jl>) <T_jl> / d; x + (-0.0) is x, as x - 0.0 is.
        _, v_br = _brackets(s_re + ov.real / d_mat, s_im + ov.imag / d_mat)
        v_br.reshape(len(d), m * m)[:, :: m + 1] = 0.0
        terms = np.empty((len(d), m, 1 + n))
        terms[:, :, 0] = s_re.diagonal() - degree[:m] / d
        terms[:, :, 1 : m + 1] = -v_br
        terms[:, :, m + 1 :] = (1.0 + t_br) * t_br / d_mat
        w_vertex = np.empty((len(d), n))
        w_vertex[:, :m] = np.cumsum(terms, axis=2, out=terms)[:, :, -1]
        # j > m: 1 - |N_j| + sum_h <T_hj>, over d.
        total = np.cumsum(t_br, axis=0)[-1] if m else 0.0
        w_vertex[:, m:] = (1.0 - degree[m:] + total) / d
        # The pair quantity c, read at the pairs from its first m rows: d S_jk
        # + overlap for k <= m, d S_jk with the parts of the complex product
        # (d + 0i) S_jk that Python forms for d * complex(S_jk), and T_jk for
        # k > m.
        c_re, c_im = np.empty((2, len(d), m, n))
        c_re[:, :, :m] = d_mat * s_re - 0.0 * s_im + ov.real
        c_im[:, :, :m] = d_mat * s_im + 0.0 * s_re + ov.imag
        c_re[:, :, m:], c_im[:, :, m:] = t_mat.real, t_mat.imag
        c_re, c_im = c_re[:, j, k], c_im[:, j, k]
        c_mod, signed = _brackets(c_re, c_im)
        w_inner = np.where(k < m, -2.0 - 1.0 / signed, -2.0 + 1.0 / signed) / d
        finite = np.isfinite(np.concatenate([w_vertex, w_inner, c_mod], axis=1)).all(axis=1)
        failed = ~finite | (c_mod <= cutoff * d).any(axis=1) | s_im.diagonal().any()
    nbrs = _sets(adj)
    errors: list = [None] * len(d)
    for i in np.flatnonzero(failed).tolist():
        try:
            _reference_failure(st, nbrs, d_values[i], cutoff, pairs)
            # The schedules raise on a non-finite |c|, so a strength overflows.
            if not finite[i]:
                raise InputError(f"a delta strength overflows at d={d_values[i]}")
        except QGraphError as exc:
            errors[i] = exc
    # The potentials of the d that built; a failed d's row stays 0.
    ys, xs = c_im.ravel().tolist(), c_re.ravel().tolist()
    phase = np.array([math.atan2(y, x) for y, x in zip(ys, xs)]).reshape(c_re.shape)
    built = np.array([error is None for error in errors])[:, np.newaxis]
    a = np.divide(np.where(c_re < 0.0, phase - math.pi, phase), 2.0 * d,
                  out=np.zeros_like(c_re), where=built)
    out = _Schedules(tuple(d_values), nbrs, pairs, w_vertex, w_inner, a, errors)
    # A potential that overflows (d subnormal) fails the graph's own checks.
    for i in np.flatnonzero(~np.isfinite(a).all(axis=1)).tolist():
        try:
            out.graph(i)
        except QGraphError as exc:
            errors[i] = exc
    return out


def _reference_failure(
    st: STForm, nbrs: NeighborSets, d: float, cutoff: float, pairs: list[tuple[int, int]]
) -> None:
    """Rerun the per-entry schedules of a build, in the reference's order
    (the vertex strengths in order of j, then each pair's quantity,
    strength and potential), with the build's neighbor sets and cutoff, so
    that a failing build raises the first error they raise.  Returns where
    none raises, as for an imaginary part of S_jj within IMAG_TOL or a
    strength that comes out infinite."""
    with np.errstate(all="ignore"):
        for j in range(1, st.n + 1):
            vertex_delta_schedule(st, nbrs, d, j)
        for pair in pairs:
            c = _pair_argument(st, d, *pair)
            _inner_delta(c, d, cutoff, pair, st.m < pair[1])
            _magnetic(c, d, cutoff, pair)


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
