"""Convergence harness: sweep d -> 0 and fit the approximation rate.

The approximating family H_d is compared against the limit star operator
H* through three metrics,

* ``ScatteringNorm`` — max over a momentum list of the spectral norm of
  the difference of on-shell scattering matrices,
* ``HSResolvent`` — a Hilbert-Schmidt surrogate for the resolvent
  difference: both systems are truncated at length L, and the weighted sum
  of |G_d - G*|^2 runs over a tensor-product Gauss-Legendre grid, with the
  star kernel extended by zero to the inner edges, so their rows and
  columns contribute |G_d|^2 alone.  The sum is evaluated per edge pair
  from the kernels' rank-2 factors, and an inner edge's own block, which
  adds the free kernel, by scans over its sorted nodes; no block is
  dense,
* ``EigGap`` — the largest displacement among the lowest eigenvalues of
  the truncated systems above a coupling-dependent floor that excludes
  the deep bound states generated by the O(1/d^2) inner strengths.

Each metric has one grid function that maps a decreasing list of d values
to per-d outcomes, the value or the QGraphError that d raises with that d's
quadrature notes, and computes the star side, which does not depend on d,
once; the ``metric_*`` functions are its one-d case.  ``run_sweep`` records a d that raised as skipped with
the reason, and fits log(metric) against log(d) by ordinary least squares
once at least four valid points survive.  Reports serialize to CSV with one
``d,metric,status`` row per d followed by ``slope``, ``intercept`` and
``residual`` trailer rows; commas inside status messages are replaced by
semicolons so the file stays three columns wide.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    DEFAULT_TOL,
    format_float,
    require_finite_complex,
    require_finite_real,
    require_half_length,
    require_nonnegative_real,
    require_positive_int,
    require_positive_real,
)
from .builder import build_approx_graph
from .couplings import STForm, ab_from_st, star_scattering
from .errors import ConditioningError, InputError, QGraphError, ResonantKError
from .graphs import MetricGraphSystem, star_system, system_from_approx, truncate
from .solver import (
    GreensFunction,
    _eigenvalues_lockstep,
    _ScatteringSolver,
    eigenvalues_compact,
    greens_function,
)

__all__ = [
    "DEFAULT_D_VALUES",
    "ScatteringNorm",
    "HSResolvent",
    "EigGap",
    "SweepConfig",
    "SweepPoint",
    "ConvergenceReport",
    "QuadratureWarning",
    "eigengap_floor",
    "metric_scattering",
    "metric_hs_resolvent",
    "metric_eigengap",
    "fit_rate",
    "run_sweep",
    "report_to_csv",
]

#: Default sweep grid d = 2^-p, p = 2..10, decreasing.
DEFAULT_D_VALUES: tuple[float, ...] = tuple(2.0**-p for p in range(2, 11))

#: Relative change on doubling quad_n above which the quadrature is
#: reported as unstable.
QUAD_STABILITY_RTOL = 0.01

#: Largest accepted quad_n (see HSResolvent).
_MAX_QUAD_N = 1024


class QuadratureWarning(UserWarning):
    """The Hilbert-Schmidt quadrature looks under-resolved at this quad_n."""


# ---------------------------------------------------------------------------
# Metric specifications and sweep configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringNorm:
    """Compare on-shell scattering matrices at each momentum in k_list."""

    k_list: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self):
        ks = tuple(require_positive_real(k, "momentum k") for k in self.k_list)
        if not ks:
            raise InputError("k_list must not be empty")
        object.__setattr__(self, "k_list", ks)


@dataclass(frozen=True)
class HSResolvent:
    """Compare resolvent kernels of the L-truncated systems at z.

    ``quad_n`` Gauss-Legendre nodes are placed on every edge; values below
    64 are permitted so that instability is observable, but they are
    outside the supported accuracy contract and will normally trigger the
    stability warning.  At most ``_MAX_QUAD_N`` = 1024 nodes are accepted:
    the stability check computes the rule of 2 quad_n nodes, whose cost
    grows as quad_n^2 in memory, so a larger value fails at once instead
    of exhausting memory.
    """

    z: complex = -1.0
    L: float = 1.0
    quad_n: int = 64

    def __post_init__(self):
        z = require_finite_complex(self.z, "z")
        if z == 0:
            raise InputError("z = 0 is not a valid resolvent point")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "L", require_positive_real(self.L, "truncation length L"))
        quad_n = require_positive_int(self.quad_n, "quad_n")
        if not 4 <= quad_n <= _MAX_QUAD_N:
            raise InputError(
                f"quad_n must be an integer in [4, {_MAX_QUAD_N}], got {self.quad_n!r}"
            )
        object.__setattr__(self, "quad_n", quad_n)


@dataclass(frozen=True)
class EigGap:
    """Compare the lowest `count` truncated eigenvalues above the floor."""

    count: int = 5
    L: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "count", require_positive_int(self.count, "count"))
        object.__setattr__(self, "L", require_positive_real(self.L, "truncation length L"))


MetricSpec = ScatteringNorm | HSResolvent | EigGap


@dataclass(frozen=True)
class SweepConfig:
    """One convergence experiment: a coupling, a metric, and a d grid.

    Metric values at or below ``tol`` count as converged to roundoff and
    are excluded from the rate fit (their rows stay in the report).
    """

    st: STForm
    metric: MetricSpec
    d_values: tuple[float, ...] = DEFAULT_D_VALUES
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if type(self.metric) not in _GRIDS:
            raise InputError(f"unknown metric specification {self.metric!r}")
        ds = tuple(require_half_length(d) for d in self.d_values)
        if any(b >= a for a, b in zip(ds, ds[1:])):
            raise InputError("d_values must be strictly decreasing")
        object.__setattr__(self, "d_values", ds)
        object.__setattr__(self, "tol", require_nonnegative_real(self.tol, "tol"))


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at one d: the metric value, or None with a skip reason."""

    d: float
    value: float | None
    status: str


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-d metric values plus the fitted log-log rate.

    ``slope``, ``intercept`` and ``residual`` are None when fewer than
    four valid points survive; ``conclusive`` records that distinction.
    """

    metric: MetricSpec
    points: tuple[SweepPoint, ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    conclusive: bool
    tol: float = field(default=DEFAULT_TOL)

    @property
    def values(self) -> tuple[tuple[float, float], ...]:
        """All successfully evaluated (d, metric) pairs."""
        return tuple((p.d, p.value) for p in self.points if p.value is not None)

    @property
    def skipped(self) -> tuple[tuple[float, str], ...]:
        """The skipped d values with their reasons."""
        return tuple((p.d, p.status) for p in self.points if p.value is None)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def _one_d(outcomes: list) -> float:
    """The value of a grid function's only d: its QGraphError is raised, and
    each of its quadrature notes is emitted as a :class:`QuadratureWarning`."""
    ((value, notes),) = outcomes
    if isinstance(value, QGraphError):
        raise value
    for note in notes:
        warnings.warn(QuadratureWarning(note), stacklevel=3)
    return value


def _each(d_values, evaluate) -> list:
    """Per d of ``d_values``, the outcome ``evaluate(d)`` returns, or the
    QGraphError it raises with no notes."""
    outcomes = []
    for d in d_values:
        try:
            outcomes.append(evaluate(d))
        except QGraphError as exc:
            outcomes.append((exc, ()))
    return outcomes


def metric_scattering(
    st: STForm, d: float, k_list=(0.5, 1.0, 2.0)
) -> float:
    """Max over k_list of ||S_d(k) - S*(k)|| in spectral norm.

    A resonant momentum (singular vertex-reduced system) is retried once at
    k (1 + 1e-6); if the perturbed momentum still resonates, the error
    propagates and the sweep records the d as skipped.
    """
    return _one_d(_scattering_norms(st, (d,), ScatteringNorm(tuple(k_list))))


def _scattering_norms(st: STForm, d_values, spec: ScatteringNorm) -> list:
    """Per d of ``d_values``, the outcome of :func:`metric_scattering`; a
    QGraphError of the star side propagates.  The star's S(k) is computed
    once per momentum, and each d's reduction once."""
    c = ab_from_st(st)
    star = functools.cache(lambda k: star_scattering(c, k))

    def norm(d):
        scatter = _ScatteringSolver(system_from_approx(build_approx_graph(st, d)))
        worst = 0.0
        for k in spec.k_list:
            try:
                s_d, s_star = scatter(k), star(k)
            except (ResonantKError, ConditioningError):
                k_shift = k * (1.0 + 1.0e-6)
                s_d, s_star = scatter(k_shift), star(k_shift)
            worst = max(worst, _spectral_norm(s_d - s_star))
        return worst, ()

    return _each(d_values, norm)


def eigengap_floor(st: STForm) -> float:
    """Energy floor -10 max(1, s)^2 with s = ||A|| / sigma_min+(B).

    Every bound state of the star coupling lies above the floor, while the
    parasitic levels of order -1/(4 d^2) fed by the inner delta wells fall
    below it once d is moderately small, so eigenvalue lists on the two
    sides stay in one-to-one correspondence.
    """
    c = ab_from_st(st)
    strength = 0.0
    sigma = np.linalg.svd(c.B, compute_uv=False)
    positive = sigma[sigma > DEFAULT_TOL * max(1.0, float(sigma[0]))]
    if positive.size:
        strength = float(np.linalg.norm(c.A, 2)) / float(positive[-1])
    return -10.0 * max(1.0, strength) ** 2


def metric_eigengap(st: STForm, d: float, count: int = 5, L: float = 1.0) -> float:
    """Max displacement among the lowest eigenvalues above the floor.

    Both the star and the approximating graph are truncated at length L
    with Dirichlet ends; the lowest `count` eigenvalues above
    ``eigengap_floor(st)`` are matched by index.
    """
    return _one_d(_eigengaps(st, (d,), EigGap(count=count, L=L)))


def _eigengaps(st: STForm, d_values, spec: EigGap) -> list:
    """Per d of ``d_values``, the outcome of :func:`metric_eigengap`; a
    QGraphError of the star side propagates.  The star is solved once, and
    every approximating graph's search runs in one lockstep solve (see
    :func:`~qgraph.solver._eigenvalues_lockstep`)."""
    floor = eigengap_floor(st)
    star = truncate(star_system(st), L=spec.L)
    lam_star = eigenvalues_compact(star, spec.count, lam_min=floor)
    gaps: dict = {}
    systems = {}
    for d in d_values:
        try:
            systems[d] = truncate(system_from_approx(build_approx_graph(st, d)), L=spec.L)
        except QGraphError as exc:
            gaps[d] = exc
    solved = _eigenvalues_lockstep(list(systems.values()), spec.count, lam_min=floor)
    for d, lam_d in zip(systems, solved):
        gaps[d] = lam_d if isinstance(lam_d, QGraphError) else float(np.max(np.abs(lam_d - lam_star)))
    return [(gaps[d], ()) for d in d_values]


@functools.lru_cache(maxsize=4)
def _gauss_legendre(quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The quad_n-point Gauss-Legendre rule on [-1, 1], shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _require_same_outer_edges(star_t: MetricGraphSystem, approx_t: MetricGraphSystem) -> None:
    """The truncated star's edges lead the approximating system's edges with
    the same ids, lengths and potentials, so that their free kernels agree."""
    for star_edge, edge in zip(star_t.edges, approx_t.edges):
        if star_edge.id != edge.id:
            raise QGraphError("outer edge order mismatch between systems")
        if (star_edge.length, star_edge.a) != (edge.length, edge.a):
            raise QGraphError(
                f"outer edge geometry mismatch on edge {edge.id!r}: length "
                f"{star_edge.length!r} vs {edge.length!r}, a {star_edge.a!r} vs {edge.a!r}"
            )


def _star_amplitudes(star_t: MetricGraphSystem, z: complex) -> np.ndarray:
    """The mode amplitude matrix of the truncated star's resolvent, read-only."""
    amp = greens_function(star_t, z)._amp
    amp.flags.writeable = False
    return amp


def _running_sums(factors: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """x_i = factors_i x_(i-1) + terms_i along axis 1, from x_(-1) = 0.

    A doubling scan: round r combines each x_i with the partial sum 2^r
    places back, through the product of the factors between them, so it
    takes log2 of the axis length array steps.  Only products of the given
    factors are formed; with factors of modulus at most 1 nothing grows.
    """
    sums, carry = terms.copy(), factors.copy()
    step = 1
    while step < sums.shape[1]:
        sums[:, step:] += carry[:, step:] * sums[:, :-step]
        carry[:, step:] *= carry[:, :-step]
        step *= 2
    return sums


def _free_block_sums(k, amp, a, s, w, u, p) -> np.ndarray:
    """Per edge of a batch, sum_{x, y} w_x w_y (|F(x, y)|^2 + 2 Re(conj(K(x,
    y)) F(x, y))) over the edge's own nodes: the part of its own block of
    |K + F|^2 that the rank-2 factors K = U A P^T leave out, for the free
    kernel F of momentum ``k`` under the potentials ``a`` (shape (edges,
    1)).  ``s`` and ``w`` hold the sorted nodes and their weights, (edges,
    q); ``u`` and ``p`` the modes U and P there, (edges, q, 2); ``amp`` each
    edge's own 2 x 2 amplitudes A.

    F(x, y) is c e^{i(k - a)(s_x - s_y)} for s_y <= s_x and c e^{i(k + a)(s_y
    - s_x)} for s_y > s_x, with c = i/(2k).  So sum_y F(x, y) b_y is c times
    a forward running sum over the nodes plus a backward one, each step
    multiplying by e^{i(k -+ a) gap}; sum_y |F(x, y)|^2 w_y is |c|^2 times
    the same with the steps e^{-2 Im k gap}.  Every step has modulus at most
    1.  One scan per direction carries b = w conj(P_0), w conj(P_1) and w.
    """
    gap = np.diff(s, axis=1)
    decay = np.exp(-2.0 * k.imag * gap)
    terms = np.concatenate([w[..., np.newaxis] * p.conj(), w[..., np.newaxis]], axis=2)
    # The steps between neighboring nodes, (edges, q - 1, 3): into node x + 1
    # from node x forward, into node x from node x + 1 backward.
    forward, backward = (
        np.stack([phase, phase, decay], axis=2)
        for phase in (np.exp(1j * (k - a) * gap), np.exp(1j * (k + a) * gap))
    )
    zero = np.zeros_like(terms[:, :1])
    sums = _running_sums(np.concatenate([zero, forward], axis=1), terms)
    # The backward sums run from the last node down; shifted one node, they
    # leave each node's own term to the forward sum.
    from_right = _running_sums(
        np.concatenate([zero, backward[:, ::-1]], axis=1), terms[:, ::-1]
    )[:, ::-1]
    sums[:, :-1] += backward * from_right[:, 1:]
    c = 0.5j / k
    cross = np.einsum("ex,exm,exn,emn->e", w, u.conj(), sums[..., :2], amp.conj()) * c
    free_sq = (w * sums[..., 2].real).sum(axis=1) * abs(c) ** 2
    return free_sq + 2.0 * cross.real


def _hs_distance(g_d: GreensFunction, amp_star: np.ndarray, quad_n: int) -> float:
    """sqrt(sum_{x, y} w_x w_y |G_d(x, y) - G*(x, y)|^2) over the tensor grid
    of ``quad_n`` Gauss-Legendre nodes per edge of the compact system of
    ``g_d``, with G* extended by zero off the outer edges.

    On edges e and f both kernels are U_e A[e, f] P_f^T, plus the free
    kernel F_e on e = f, which is the same on both sides of an outer edge.
    The nodes, the weights and the modes U and P of every edge are one
    array pass, (edges, quad_n) and (edges, quad_n, 2).  With thin QR
    factors sqrt(w) U_e = Q R^U_e and sqrt(w) P_f = Q' R^P_f the pair's sum
    is ||R^U_e D R^P_f^T||_F^2, where D = A_d - A* on two outer edges and
    A_d elsewhere.  An inner edge's own block adds the sums of |F_e|^2 and
    of the cross term 2 Re(conj(U A P^T) F_e), both by scans over its
    sorted nodes (see :func:`_free_block_sums`), so no quad_n x quad_n
    array is formed.
    """
    edges = g_d.system.edges
    nodes, weights = _gauss_legendre(quad_n)
    length = np.array([edge.length for edge in edges])[:, np.newaxis]
    a = np.array([edge.a for edge in edges])[:, np.newaxis]
    s = length / 2.0 * (nodes + 1.0)
    w = weights * (length / 2.0)
    u, p = g_d._point_modes(length, a, s), g_d._source_modes(length, a, s)
    root_w = np.sqrt(w)[..., np.newaxis]
    r_u, r_p = (np.linalg.qr(root_w * modes, mode="r") for modes in (u, p))
    # The amplitudes as (sign, edge, sign, edge); the outer edges lead both
    # systems' edge orders.
    ne, n_out = len(edges), len(amp_star) // 2
    amp = g_d._amp.reshape(2, ne, 2, ne)
    diff = amp.copy()
    diff[:, :n_out, :, :n_out] -= amp_star.reshape(2, n_out, 2, n_out)
    blocks = np.einsum("eij,jekf,flk->efil", r_u, diff, r_p)
    pair_sums = (blocks.real**2 + blocks.imag**2).sum(axis=(2, 3))
    inner = np.arange(n_out, ne)
    own = amp[:, inner, :, inner]
    pair_sums[inner, inner] += _free_block_sums(
        g_d.k, own, a[inner], s[inner], w[inner], u[inner], p[inner]
    )
    return float(math.sqrt(pair_sums.sum()))


def metric_hs_resolvent(
    st: STForm,
    d: float,
    z: complex = -1.0,
    L: float = 1.0,
    quad_n: int = 64,
) -> float:
    """Hilbert-Schmidt distance of truncated resolvent kernels at z.

    Both systems are truncated at L (Dirichlet); the star kernel is
    extended by zero to the inner edges, so those rows and columns
    contribute the plain Hilbert-Schmidt mass of G_d.  The value is the
    weighted sum over the tensor grid of quad_n Gauss-Legendre nodes per
    edge (at most 1024), evaluated per edge pair from the kernels' rank-2
    factors, with every edge's nodes and modes in one array pass per
    quadrature level and each inner edge's own block summed by scans over
    its sorted nodes (see :func:`_hs_distance`), so neither a kernel matrix
    nor any quad_n x quad_n block is formed; the outer edges of the two
    systems must agree in id, length and potential.  The value is also
    recomputed with 2 quad_n nodes; a relative change above 1% emits a
    :class:`QuadratureWarning` naming both values.
    """
    return _one_d(_hs_distances(st, (d,), HSResolvent(z=z, L=L, quad_n=quad_n)))


def _hs_distances(st: STForm, d_values, spec: HSResolvent) -> list:
    """Per d of ``d_values``, the outcome of :func:`metric_hs_resolvent`,
    with its quadrature note as data; a QGraphError of the truncated star
    propagates.  The star's amplitudes, or the QGraphError they raise, are
    computed once, at the first d whose graph builds with the star's outer
    edges, and serve every d after it."""
    star_t = truncate(star_system(st), L=spec.L)
    amp_star: np.ndarray | QGraphError | None = None

    def distance(d):
        nonlocal amp_star
        approx_t = truncate(system_from_approx(build_approx_graph(st, d)), L=spec.L)
        _require_same_outer_edges(star_t, approx_t)
        if amp_star is None:
            try:
                amp_star = _star_amplitudes(star_t, spec.z)
            except QGraphError as exc:
                amp_star = exc
        if isinstance(amp_star, QGraphError):
            return amp_star, ()
        g_d = greens_function(approx_t, spec.z)
        value, refined = (_hs_distance(g_d, amp_star, n) for n in (spec.quad_n, 2 * spec.quad_n))
        change = abs(value - refined) / max(abs(refined), 1.0e-300)
        if change <= QUAD_STABILITY_RTOL:
            return value, ()
        return value, (
            f"quadrature unstable at quad_n={spec.quad_n}: value {value:.6e} "
            f"vs {refined:.6e} at 2x nodes (rel change {change:.2e})",
        )

    return _each(d_values, distance)


# ---------------------------------------------------------------------------
# Rate fitting and the sweep driver
# ---------------------------------------------------------------------------

def fit_rate(values) -> tuple[float, float, float]:
    """Least-squares slope, intercept and RMS residual of log v vs log d.

    Nonpositive metric values cannot enter the log fit; they are dropped
    with a warning.  At least four positive points must remain.
    """
    kept: list[tuple[float, float]] = []
    for d, v in values:
        d = require_finite_real(d, "d")
        v = require_finite_real(v, "metric")
        if v <= 0.0:
            warnings.warn(f"dropping nonpositive metric {v!r} at d={d!r} from rate fit")
            continue
        kept.append((d, v))
    if len(kept) < 4:
        raise InputError(
            f"rate fit needs at least 4 positive points, got {len(kept)}"
        )
    log_d = np.log([d for d, _ in kept])
    log_v = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(log_d, log_v, 1)
    residual = float(np.sqrt(np.mean((log_v - (slope * log_d + intercept)) ** 2)))
    return float(slope), float(intercept), residual


#: The grid function of each metric specification type.
_GRIDS = {ScatteringNorm: _scattering_norms, HSResolvent: _hs_distances, EigGap: _eigengaps}


def _flat(text: str) -> str:
    """One-line, comma-free form of a message for the CSV status column."""
    return " ".join(text.split()).replace(",", ";")


def run_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Evaluate the metric at every d, fit the rate, assemble the report.

    The metric's grid function maps the d grid to per-d outcomes, with
    warnings suppressed, and computes the star side, which does not depend
    on d, once (an eig grid also searches all d values' eigenvalues in
    lockstep; see :func:`~qgraph.solver._eigenvalues_lockstep`).  Every d's
    value is the one its own metric call gives, and the report lists the d
    values in their given (decreasing) order, so it is deterministic.  A d
    where the builder or the solver raises is recorded as skipped with the
    error message, and the other d values are unaffected; a failure of the
    star side skips every d.  Fewer than four valid points leave the report
    inconclusive with the fit fields unset.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            outcomes = _GRIDS[type(cfg.metric)](cfg.st, cfg.d_values, cfg.metric)
        except QGraphError as exc:
            outcomes = [(exc, ())] * len(cfg.d_values)
    points: list[SweepPoint] = []
    for d, (value, notes) in zip(cfg.d_values, outcomes):
        if isinstance(value, QGraphError):
            points.append(SweepPoint(d=d, value=None, status=f"skipped: {_flat(str(value))}"))
            continue
        status = "; ".join(["ok", *map(_flat, notes)])
        if value <= cfg.tol:
            status += "; at roundoff; excluded from fit"
        points.append(SweepPoint(d=d, value=value, status=status))
    fit_points = [
        (p.d, p.value) for p in points if p.value is not None and p.value > cfg.tol
    ]
    if len(fit_points) >= 4:
        slope, intercept, residual = fit_rate(fit_points)
        conclusive = True
    else:
        slope = intercept = residual = None
        conclusive = False
    return ConvergenceReport(
        metric=cfg.metric,
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        residual=residual,
        conclusive=conclusive,
        tol=cfg.tol,
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def report_to_csv(report: ConvergenceReport) -> str:
    """Render a report as `d,metric,status` rows plus fit trailer rows.

    Skipped d values keep their row with an empty metric column; an
    inconclusive report writes ``nan`` in the trailer values.  The output
    is bit-identical for identical reports.
    """
    lines = ["d,metric,status"]
    for p in report.points:
        metric_txt = "" if p.value is None else format_float(p.value)
        lines.append(f"{format_float(p.d)},{metric_txt},{p.status}")
    for name, value in (
        ("slope", report.slope),
        ("intercept", report.intercept),
        ("residual", report.residual),
    ):
        lines.append(f"{name},{format_float(value)}")
    return "\n".join(lines) + "\n"
