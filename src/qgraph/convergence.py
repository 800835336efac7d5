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
  from the kernels' rank-2 factors; only an inner edge's own block is
  dense,
* ``EigGap`` — the largest displacement among the lowest eigenvalues of
  the truncated systems above a coupling-dependent floor that excludes
  the deep bound states generated by the O(1/d^2) inner strengths.

``run_sweep`` evaluates one metric over a decreasing list of d values,
skipping (with a recorded reason) any d where the construction or the
solve degenerates, and fits log(metric) against log(d) by ordinary least
squares once at least four valid points survive.  Reports serialize to
CSV with one ``d,metric,status`` row per d followed by ``slope``,
``intercept`` and ``residual`` trailer rows; commas inside status
messages are replaced by semicolons so the file stays three columns wide.
"""

from __future__ import annotations

import contextvars
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    DEFAULT_TOL,
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
from .solver import GreensFunction, _ScatteringSolver, eigenvalues_compact, greens_function

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
    "write_report_csv",
]

#: Default sweep grid d = 2^-p, p = 2..10, decreasing.
DEFAULT_D_VALUES: tuple[float, ...] = tuple(2.0**-p for p in range(2, 11))

#: Relative change on doubling quad_n above which the quadrature is
#: reported as unstable.
QUAD_STABILITY_RTOL = 0.01

# Rows per block of an inner edge's dense Hilbert-Schmidt sum.
_HS_ROWS = 64


class QuadratureWarning(UserWarning):
    """The Hilbert-Schmidt quadrature looks under-resolved at this quad_n."""


# The star side of every metric is independent of d.  run_sweep sets a memo
# in a copied context for its own duration, so a sweep computes each
# star-side result of its coupling (or the QGraphError it raises) once;
# outside a sweep nothing is kept.
_SWEEP_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "qgraph_sweep_memo", default=None
)


def _star_side(key: tuple, compute):
    """``compute()``, memoized under ``key`` while a sweep runs."""
    memo = _SWEEP_MEMO.get()
    if memo is None:
        return compute()
    if key not in memo:
        try:
            memo[key] = (compute(), None)
        except QGraphError as exc:
            memo[key] = (None, exc)
    value, error = memo[key]
    if error is not None:
        raise error.with_traceback(None)
    return value


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
    stability warning.
    """

    z: complex = -1.0
    L: float = 1.0
    quad_n: int = 64

    def __post_init__(self):
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InputError(f"z must be finite, got {z!r}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "L", require_positive_real(self.L, "truncation length L"))
        quad_n = require_positive_int(self.quad_n, "quad_n")
        if quad_n < 4:
            raise InputError(f"quad_n must be an integer >= 4, got {self.quad_n!r}")
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


def metric_scattering(
    st: STForm, d: float, k_list=(0.5, 1.0, 2.0)
) -> float:
    """Max over k_list of ||S_d(k) - S*(k)|| in spectral norm.

    A resonant momentum (singular vertex-reduced system) is retried once at
    k (1 + 1e-6); if the perturbed momentum still resonates, the error
    propagates and the sweep records the d as skipped.
    """
    spec = ScatteringNorm(tuple(k_list))
    c = ab_from_st(st)
    scatter = _ScatteringSolver(system_from_approx(build_approx_graph(st, d)))
    worst = 0.0
    for k in spec.k_list:
        try:
            s_d = scatter(k)
            s_star = star_scattering(c, k)
        except (ResonantKError, ConditioningError):
            k_shift = k * (1.0 + 1.0e-6)
            s_d = scatter(k_shift)
            s_star = star_scattering(c, k_shift)
        worst = max(worst, _spectral_norm(s_d - s_star))
    return worst


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
    spec = EigGap(count=count, L=L)

    def star_side():
        floor = eigengap_floor(st)
        star = truncate(star_system(st), L=spec.L)
        return floor, eigenvalues_compact(star, spec.count, lam_min=floor)

    floor, lam_star = _star_side(("eig", spec.count, spec.L), star_side)
    approx = truncate(system_from_approx(build_approx_graph(st, d)), L=spec.L)
    lam_d = eigenvalues_compact(approx, spec.count, lam_min=floor)
    return float(np.max(np.abs(lam_d - lam_star)))


@functools.lru_cache(maxsize=4)
def _gauss_legendre(quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The quad_n-point Gauss-Legendre rule on [-1, 1], shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _edge_quadrature(sys: MetricGraphSystem, quad_n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gauss-Legendre nodes and weights on every edge, in edge order: one
    (nodes, weights) pair of arrays per edge."""
    nodes, weights = _gauss_legendre(quad_n)
    return [
        (edge.length / 2.0 * (nodes + 1.0), weights * (edge.length / 2.0))
        for edge in sys.edges
    ]


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


def _inner_block_sum(g_d: GreensFunction, edge, s: np.ndarray, w: np.ndarray) -> float:
    """sum_{x, y} w_x w_y |G_d(x, y)|^2 over one edge's own block of nodes
    ``s``, summed in row blocks so that memory stays O(len(s))."""
    modes = g_d._modes[edge.id]
    u_amp = g_d._point_modes(edge, s) @ g_d._amp[np.ix_(modes, modes)]
    p_t = g_d._source_modes(edge, s).T
    total = 0.0
    for at in range(0, len(s), _HS_ROWS):
        rows = slice(at, at + _HS_ROWS)
        kernel = g_d._free_kernel(edge, s[rows], s)
        kernel += u_amp[rows] @ p_t
        sq = np.abs(kernel)
        sq **= 2
        total += w[rows] @ sq @ w
    return total


def _hs_distance(g_d: GreensFunction, amp_star: np.ndarray, quad_n: int) -> float:
    """sqrt(sum_{x, y} w_x w_y |G_d(x, y) - G*(x, y)|^2) over the tensor grid
    of ``quad_n`` Gauss-Legendre nodes per edge of the compact system of
    ``g_d``, with G* extended by zero off the outer edges.

    On edges e and f both kernels are U_e A[e, f] P_f^T, plus the free
    kernel on e = f, which is the same on both sides of an outer edge.  With
    thin QR factors sqrt(w) U_e = Q R^U_e and sqrt(w) P_f = Q' R^P_f the
    pair's sum is ||R^U_e D R^P_f^T||_F^2, where D = A_d - A* on two outer
    edges and A_d elsewhere.  Only an inner edge's own block, whose free
    kernel has no star counterpart, is summed densely.
    """
    edges = g_d.system.edges
    quad = _edge_quadrature(g_d.system, quad_n)
    root_w = [np.sqrt(w)[:, np.newaxis] for _, w in quad]
    r_u, r_p = (
        np.linalg.qr(
            np.stack([rw * modes(edge, s) for edge, (s, _), rw in zip(edges, quad, root_w)]),
            mode="r",
        )
        for modes in (g_d._point_modes, g_d._source_modes)
    )
    # The amplitudes as (sign, edge, sign, edge); the outer edges lead both
    # systems' edge orders.
    ne, n_out = len(edges), len(amp_star) // 2
    diff = g_d._amp.reshape(2, ne, 2, ne).copy()
    diff[:, :n_out, :, :n_out] -= amp_star.reshape(2, n_out, 2, n_out)
    blocks = np.einsum("eij,jekf,flk->efil", r_u, diff, r_p)
    pair_sums = (blocks.real**2 + blocks.imag**2).sum(axis=(2, 3))
    for e in range(n_out, ne):
        pair_sums[e, e] = _inner_block_sum(g_d, edges[e], *quad[e])
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
    edge, evaluated per edge pair from the kernels' rank-2 factors (see
    :func:`_hs_distance`), so no kernel matrix is formed; the outer edges
    of the two systems must agree in id, length and potential.  The value
    is also recomputed with 2 quad_n nodes; a relative change above 1%
    emits a :class:`QuadratureWarning` naming both values.
    """
    spec = HSResolvent(z=z, L=L, quad_n=quad_n)
    star_t = truncate(star_system(st), L=spec.L)
    approx_t = truncate(system_from_approx(build_approx_graph(st, d)), L=spec.L)
    _require_same_outer_edges(star_t, approx_t)
    amp_star = _star_side(
        ("hs", spec.z, spec.L), functools.partial(_star_amplitudes, star_t, spec.z)
    )
    g_d = greens_function(approx_t, spec.z)
    value, refined = (_hs_distance(g_d, amp_star, n) for n in (spec.quad_n, 2 * spec.quad_n))
    change = abs(value - refined) / max(abs(refined), 1.0e-300)
    if change > QUAD_STABILITY_RTOL:
        warnings.warn(
            QuadratureWarning(
                f"quadrature unstable at quad_n={spec.quad_n}: value {value:.6e} "
                f"vs {refined:.6e} at 2x nodes (rel change {change:.2e})"
            ),
            stacklevel=2,
        )
    return value


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


def _evaluate_metric(st: STForm, d: float, metric: MetricSpec) -> float:
    if isinstance(metric, ScatteringNorm):
        return metric_scattering(st, d, metric.k_list)
    if isinstance(metric, HSResolvent):
        return metric_hs_resolvent(st, d, metric.z, metric.L, metric.quad_n)
    if isinstance(metric, EigGap):
        return metric_eigengap(st, d, metric.count, metric.L)
    raise InputError(f"unknown metric specification {metric!r}")


def _flat(text: str) -> str:
    """One-line, comma-free form of a message for the CSV status column."""
    return " ".join(text.split()).replace(",", ";")


def _sweep_points(cfg: SweepConfig) -> list[SweepPoint]:
    """The per-d points of a sweep, with the star-side memo set; run in a
    copied context, so the memo ends with the sweep."""
    _SWEEP_MEMO.set({})
    points: list[SweepPoint] = []
    for d in cfg.d_values:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = _evaluate_metric(cfg.st, d, cfg.metric)
            except QGraphError as exc:
                points.append(
                    SweepPoint(d=d, value=None, status=f"skipped: {_flat(str(exc))}")
                )
                continue
        notes = [
            _flat(str(w.message))
            for w in caught
            if issubclass(w.category, QuadratureWarning)
        ]
        status = "ok" if not notes else "ok; " + "; ".join(notes)
        if value <= cfg.tol:
            status += "; at roundoff; excluded from fit"
        points.append(SweepPoint(d=d, value=value, status=status))
    return points


def run_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Evaluate the metric at every d, fit the rate, assemble the report.

    The d values are processed independently in their listed (decreasing)
    order, so the report is deterministic.  The star side of the metric,
    which does not depend on d, is computed once per sweep.  A d where the
    builder or the solver raises is recorded as skipped with the error
    message; fewer than four valid points leave the report inconclusive
    with the fit fields unset.
    """
    points = contextvars.copy_context().run(_sweep_points, cfg)
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

def _fmt(value: float) -> str:
    return format(float(value), ".17e")


def report_to_csv(report: ConvergenceReport) -> str:
    """Render a report as `d,metric,status` rows plus fit trailer rows.

    Skipped d values keep their row with an empty metric column; an
    inconclusive report writes ``nan`` in the trailer values.  The output
    is bit-identical for identical reports.
    """
    lines = ["d,metric,status"]
    for p in report.points:
        metric_txt = "" if p.value is None else _fmt(p.value)
        lines.append(f"{_fmt(p.d)},{metric_txt},{p.status}")
    for name, value in (
        ("slope", report.slope),
        ("intercept", report.intercept),
        ("residual", report.residual),
    ):
        lines.append(f"{name},{'nan' if value is None else _fmt(value)}")
    return "\n".join(lines) + "\n"


def write_report_csv(report: ConvergenceReport, path) -> None:
    """Write :func:`report_to_csv` output to a file path."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report_to_csv(report))
