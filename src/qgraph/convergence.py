"""Convergence harness: sweep d -> 0 and fit the approximation rate.

The approximating family H_d is compared against the limit star operator
H* through three metrics,

* ``ScatteringNorm`` — max over a momentum list of the spectral norm of
  the difference of on-shell scattering matrices,
* ``HSResolvent`` — the Hilbert-Schmidt norm of the resolvent
  difference, (integral of |G_d - G*|^2)^(1/2): both systems are truncated
  at length L, and the star kernel is extended by zero to the inner
  edges, so their rows and columns contribute |G_d|^2 alone.  Every kernel
  is a sum of products of edge exponentials, so the integral is evaluated
  in closed form, per edge pair from the kernels' rank-2 factors, plus
  an inner edge's free kernel on its own block,
* ``EigGap`` — the largest displacement among the lowest eigenvalues of
  the truncated systems above a coupling-dependent floor that excludes
  the deep bound states generated by the O(1/d^2) inner strengths.

Each metric has one grid function that maps a decreasing list of d values
to per-d outcomes, the value or the QGraphError that d raises, and
computes the star side, which does not depend on d, once; the
``metric_*`` functions are its one-d case.  Every grid function evaluates
the approximating graphs of one shape together: the eig grid searches
them in lockstep, the scattering grid solves every (d, k) point in one
stacked call and the HS grid every d's amplitudes in another (see
:func:`~qgraph.solver._each_family`), and each d keeps the bits of its
one-d call.  ``run_sweep`` records a d
that raised as skipped with the reason, and fits log(metric) against
log(d) by ordinary least squares once at least four valid points survive.
Reports serialize to CSV with one ``d,metric,status`` row per d followed
by ``slope``, ``intercept`` and ``residual`` trailer rows; commas inside
status messages are replaced by semicolons so the file stays three
columns wide.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import (
    DEFAULT_TOL,
    format_float,
    require_finite_complex,
    require_finite_real,
    require_half_length,
    require_positive_int,
    require_positive_real,
)
from .builder import build_approx_graph
from .couplings import STForm, ab_from_st, star_scattering
from .errors import ConditioningError, InputError, QGraphError
from .graphs import star_system, system_from_approx, truncate
from .solver import (
    _each_family,
    _eigenvalues_lockstep,
    _Reduction,
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
    """Compare resolvent kernels of the L-truncated systems at z."""

    z: complex = -1.0
    L: float = 1.0

    def __post_init__(self):
        z = require_finite_complex(self.z, "z")
        if z == 0:
            raise InputError("z = 0 is not a valid resolvent point")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "L", require_positive_real(self.L, "truncation length L"))


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

    Metric values at or below the library's ``DEFAULT_TOL`` (1e-10 unless
    ``QGRAPH_TOL`` overrides it) count as converged to roundoff and are
    excluded from the rate fit (their rows stay in the report).
    """

    st: STForm
    metric: MetricSpec
    d_values: tuple[float, ...] = DEFAULT_D_VALUES

    def __post_init__(self):
        if type(self.metric) not in _GRIDS:
            raise InputError(f"unknown metric specification {self.metric!r}")
        ds = tuple(require_half_length(d) for d in self.d_values)
        if any(b >= a for a, b in zip(ds, ds[1:])):
            raise InputError("d_values must be strictly decreasing")
        object.__setattr__(self, "d_values", ds)


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

def _one_d(outcomes: list) -> float:
    """The value of a grid function's only d; its QGraphError is raised."""
    (value,) = outcomes
    if isinstance(value, QGraphError):
        raise value
    return value


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
    once per momentum, and each d's reduction once.  The approximating
    graphs are reduced in families (see
    :func:`~qgraph.solver._each_family`): every (d, k) point of a family is
    solved in one stacked call, the points to retry in one more, and all
    the differences' norms in one stacked SVD."""
    c = ab_from_st(st)

    @functools.cache
    def star(k):
        try:
            return star_scattering(c, k)
        except ConditioningError as exc:
            return exc

    def differences(solver, k, g) -> list:
        """Per point, S_d(k) - S*(k) on graph g of ``solver``, or the error
        of the side that fails, the approximating one first."""
        pairs = zip(solver.many(k, g), map(star, k.tolist()))
        return [_first_error(pair) or pair[0] - pair[1] for pair in pairs]

    ks = np.array(spec.k_list)
    results: list = [None] * len(d_values)

    def evaluate(members):
        solver = _ScatteringSolver.stack([red for _, red in members])
        k = np.tile(ks, len(members))
        g = np.repeat(np.arange(len(members)), len(ks))
        diffs = differences(solver, k, g)
        # A point where either side resonates is retried once, at k (1 +
        # 1e-6) on both sides; if that fails too, its d is skipped.
        again = [i for i, diff in enumerate(diffs) if isinstance(diff, QGraphError)]
        if again:
            for i, diff in zip(again, differences(solver, k[again] * (1.0 + 1.0e-6), g[again])):
                diffs[i] = diff
        good = [diff for diff in diffs if not isinstance(diff, QGraphError)]
        norms = iter(np.linalg.norm(np.array(good), 2, axis=(-2, -1)).tolist() if good else ())
        values = [diff if isinstance(diff, QGraphError) else next(norms) for diff in diffs]
        for m, (index, _) in enumerate(members):
            per_d = values[m * len(ks) : (m + 1) * len(ks)]
            results[index] = _first_error(per_d) or max([0.0] + per_d)

    def reduce(d):
        return _ScatteringSolver(system_from_approx(build_approx_graph(st, d)))

    _each_family(d_values, reduce, evaluate, results)
    return results


def _first_error(outcomes):
    """The first QGraphError among ``outcomes``, or None."""
    return next((value for value in outcomes if isinstance(value, QGraphError)), None)


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
    return [gaps[d] for d in d_values]


def _exp_divided_differences(nodes: np.ndarray) -> np.ndarray:
    """exp[z_0, z_1, z_2] for each last-axis triple of ``nodes``, all with
    Re z <= 0: the corner entry of exp(M) for the bidiagonal M with the
    nodes on its diagonal and ones above it.  M is scaled by 2^-s until
    its nodes lie within 1/2 of 0, exponentiated by its Taylor series to
    degree 16 and squared s times.  After each squaring the two leading
    bands, exp(z_i / 2^j) and 2^-j exp[z_i / 2^j, z_(i+1) / 2^j], are set
    to their exact values (Al-Mohy and Higham), which keeps the corner
    accurate to rounding where the nodes are far apart.  With Re z <= 0 no
    entry exceeds 1, so nothing overflows."""
    squarings = np.maximum(np.frexp(np.abs(nodes).max(axis=-1))[1] + 1, 0)
    scale = np.ldexp(1.0, -squarings)[..., np.newaxis]
    mat = np.zeros(nodes.shape[:-1] + (3, 3), dtype=complex)
    mat[..., [0, 1, 2], [0, 1, 2]] = nodes * scale
    mat[..., [0, 1], [1, 2]] = scale
    out = np.eye(3) + mat / 16.0
    for j in range(15, 0, -1):
        out = np.eye(3) + mat @ out / j
    for r in range(squarings.max(initial=0)):
        squared = out @ out
        scale = np.ldexp(1.0, -np.maximum(squarings - r - 1, 0))[..., np.newaxis]
        z = nodes * scale
        a, b = z[..., :-1], z[..., 1:]
        # exp[a, b] is e^top (e^gap - 1) / gap, with top the node of larger
        # real part and gap the other less top, so Re gap <= 0.
        top = np.where(a.real >= b.real, a, b)
        gap = a + b - 2.0 * top
        ratio = np.where(gap == 0, 1.0, np.expm1(gap) / np.where(gap == 0, 1.0, gap))
        squared[..., [0, 1, 2], [0, 1, 2]] = np.exp(z)
        squared[..., [0, 1], [1, 2]] = scale * np.exp(top) * ratio
        out = np.where((r < squarings)[..., np.newaxis, np.newaxis], squared, out)
    return out[..., 0, 2]


def _sinhc_minus_one(t2: np.ndarray) -> np.ndarray:
    """sinh(t) / t - 1 by its power series in t2 = t^2, for |t2| <= 1; at
    t2 = -y^2 it is sin(y) / y - 1."""
    term, total = np.ones_like(t2), np.zeros_like(t2)
    for n in range(1, 10):
        term = term * t2 / ((2 * n) * (2 * n + 1))
        total = total + term
    return total


def _mode_grams(k: complex, length: np.ndarray) -> np.ndarray:
    """(2, edges): the integrals of |E_+|^2 / 2 and |E_-|^2 / 2 over each
    edge, for the modes E_+- of :class:`~qgraph.solver.GreensFunction`.
    With x = Im k l and y = Re k l they are l (phi_1(-2x) +- e^{-x} sin(y)
    / y), phi_1(a) = (e^a - 1) / a.  The odd one is summed as l e^{-x}
    ((sinh(x) / x - 1) + (1 - sin(y) / y)), two nonnegative terms, each
    by its series below 1: the difference of the two exponentials in E_-
    would lose (kl)^-2 in relative accuracy on a short edge."""
    x, y = k.imag * length, k.real * length
    decay = np.exp(-x)
    x_safe, y_safe = np.where(x > 0, x, 1.0), np.where(y != 0, y, 1.0)
    phi1 = np.where(x > 0, -np.expm1(-2.0 * x_safe) / (2.0 * x_safe), 1.0)
    sinc = np.where(y != 0, np.sin(y_safe) / y_safe, 1.0)
    x_part = np.where(x < 1.0, decay * _sinhc_minus_one(x * x), phi1 - decay)
    y_part = np.where(np.abs(y) < 1.0, -_sinhc_minus_one(-y * y), 1.0 - sinc)
    return length[..., np.newaxis, :] * np.stack([phi1 + decay * sinc, x_part + decay * y_part], axis=-2)


def _hs_distance(k: complex, length: np.ndarray, amp: np.ndarray, amp_star: np.ndarray) -> list:
    """(integral of |G_d - G*|^2)^(1/2) over each of a stack of compact
    approximating systems, with G* extended by zero off the outer edges, in
    closed form: per system, of edge lengths ``length`` (systems, edges)
    and mode amplitudes ``amp`` at the momentum k, the value, or the
    ConditioningError below.  Each system's value is computed as it would
    be alone.

    On edges e and f both kernels are U_e A[e, f] P_f^T, plus the free
    kernel F_e on e = f, which is the same on both sides of an outer edge
    and cancels there.  The magnetic phases cancel in |.|^2.  The modes
    are even (E_+) or odd (E_-) about the edge's midpoint, U = E / sqrt(2)
    and P_+- = +-c E_+- / sqrt(2) with c = i / (2k), so their Gram
    matrices are diagonal (:func:`_mode_grams`), and the pair (e, f) adds
    sum_ij |D_ij|^2 G_e[i] |c|^2 G_f[j], where D = A_d - A* on two outer
    edges and A_d elsewhere.

    An inner edge's own block also adds the integrals of |F|^2 and of
    2 Re(conj(U A P^T) F); parity leaves A_++ and A_-- in the latter.
    Split at x = y, both are sums of triangle integrals, the integral of
    e^{ax + by} over 0 < y < x < l being l^2 exp[0, al, (a + b) l]
    (Hermite-Genocchi).  With u = ikl, v = conj(u) and the divided
    differences D_1 = exp[0, u + v, 2v], D_2 = exp[0, u + v, 0] and D_3 =
    exp[0, u - v, 0], whose nodes all have Re <= 0, they are
    2 |c|^2 l^2 D_2 and 2 |c|^2 l^2 Re(2 D_1 (conj A_++ - conj A_--) +
    e^v (D_2 + D_3) (conj A_++ + conj A_--)).  On a short edge the odd
    mode's terms cancel to O((kl)^3) while A_-- grows as (kl)^-2, so the
    value's relative rounding error grows as 1 / d: 7e-15 at d = 2^-10.

    A square sum not above _HS_ROUNDING times the sum of its terms'
    magnitudes, those three per inner edge and the edge-pair sum, is lost
    to rounding (near z = 0, or on short edges at small d) and raises
    :class:`ConditioningError`.
    """
    npts, ne = length.shape
    # The amplitudes as (sign, edge, sign, edge); the outer edges lead both
    # systems' edge orders.
    n_out = len(amp_star) // 2
    amp = amp.reshape(npts, 2, ne, 2, ne)
    diff = amp.copy()
    diff[:, :, :n_out, :, :n_out] -= amp_star.reshape(2, n_out, 2, n_out)
    gram = _mode_grams(k, length)
    c_sq = 0.25 / abs(k) ** 2
    # One sum per system: a sum over a stack of them can order its terms
    # differently.
    square = diff.real**2 + diff.imag**2
    pair = np.array([np.einsum("iejf,ie,jf->", *parts) for parts in zip(square, gram, gram)]) * c_sq
    inner = np.arange(n_out, ne)
    u = 1j * k * length[:, inner]
    v, zero = u.conj(), np.zeros_like(u)
    d_1, d_2, d_3 = _exp_divided_differences(np.stack([
        np.stack([zero, u + v, 2.0 * v], axis=-1),
        np.stack([zero, u + v, zero], axis=-1),
        np.stack([zero, u - v, zero], axis=-1),
    ]))
    even, odd = amp[:, 0, inner, 0, inner].conj(), amp[:, 1, inner, 1, inner].conj()
    odd_part = 2.0 * d_1 * (even - odd)
    even_part = np.exp(v) * (d_2 + d_3) * (even + odd)
    own = d_2 + odd_part + even_part
    inner_sq = length[:, inner] ** 2
    total = pair + 2.0 * c_sq * _row_sums(inner_sq * own.real)
    magnitude = pair + 2.0 * c_sq * _row_sums(
        inner_sq * (np.abs(d_2) + np.abs(odd_part) + np.abs(even_part))
    )
    out: list = []
    for square, terms in zip(total.tolist(), magnitude.tolist()):
        if square > _HS_ROUNDING * terms:
            out.append(math.sqrt(square))
        else:
            out.append(ConditioningError(
                f"HS distance lost to rounding: its square sums to {square:.3e} "
                f"from terms of magnitude {terms:.3e}"
            ))
    return out


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each row of ``terms``, in the order numpy sums one row
    alone: the rows are laid out contiguously first, since a strided row
    of 8 or more terms is summed in another order."""
    return np.ascontiguousarray(terms).sum(axis=-1)


# The rounding bound of the HS square sum relative to its terms' magnitudes.
# Against the same sum in long double, the float sum erred by at most 324
# eps of them over 1,584 points (six couplings up to delta' n = 16; z from
# -1e8 to 1e-12 i; L from 1e-3 to 1e3; d from 2^-2 to 2^-20).  The default
# grid's points at z = -1 and L = 1 clear the bound by 5e8 or more on the
# acceptance couplings.
_HS_ROUNDING = 1024.0 * float(np.finfo(float).eps)


def metric_hs_resolvent(st: STForm, d: float, z: complex = -1.0, L: float = 1.0) -> float:
    """Hilbert-Schmidt distance of truncated resolvent kernels at z.

    Both systems are truncated at L (Dirichlet); the star kernel is
    extended by zero to the inner edges, so those rows and columns
    contribute the plain Hilbert-Schmidt mass of G_d.  The double integral
    of |G_d - G*|^2 is evaluated in closed form from the kernels' rank-2
    edge-pair factors and the inner edges' free kernels (see
    :func:`_hs_distance`), so no kernel is sampled.  The outer edges of the
    two systems agree in id, length and potential by construction (see
    :func:`~qgraph.graphs.system_from_approx`).
    """
    return _one_d(_hs_distances(st, (d,), HSResolvent(z=z, L=L)))


def _hs_distances(st: STForm, d_values, spec: HSResolvent) -> list:
    """Per d of ``d_values``, the outcome of :func:`metric_hs_resolvent`; a
    QGraphError of the truncated star propagates.  The star's mode
    amplitudes are computed once, up front, and serve every d.  The
    truncated approximating graphs are reduced in families (see
    :func:`~qgraph.solver._each_family`): the amplitudes of a family come
    from one stacked call, and its distances from one evaluation of the
    closed form."""
    star = greens_function(truncate(star_system(st), L=spec.L), spec.z)
    results: list = [None] * len(d_values)

    def evaluate(members):
        stacked = _Reduction.stack([red for _, red in members])
        amps = stacked.amplitudes(spec.z, np.arange(len(members)))
        solved = [g for g, amp in enumerate(amps) if not isinstance(amp, QGraphError)]
        lengths, stack = stacked.length[solved], np.array([amps[g] for g in solved])
        values = iter(_hs_distance(star.k, lengths, stack, star._amp) if solved else ())
        for (index, _), amp in zip(members, amps):
            results[index] = amp if isinstance(amp, QGraphError) else next(values)

    def reduce(d):
        return _Reduction(truncate(system_from_approx(build_approx_graph(st, d)), L=spec.L))

    _each_family(d_values, reduce, evaluate, results)
    return results


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

    The metric's grid function maps the d grid to per-d outcomes, and
    computes the star side, which does not depend on d, once, up front (an
    eig grid also searches all d values' eigenvalues in lockstep; see
    :func:`~qgraph.solver._eigenvalues_lockstep`).  Every d's
    value is the one its own metric call gives, and the report lists the d
    values in their given (decreasing) order, so it is deterministic.  A d
    where the builder or the solver raises is recorded as skipped with the
    error message, and the other d values are unaffected; a failure of the
    star side skips every d.  Values at or below ``DEFAULT_TOL`` are kept
    but excluded from the fit.  Fewer than four valid points leave the
    report inconclusive with the fit fields unset.
    """
    try:
        outcomes = _GRIDS[type(cfg.metric)](cfg.st, cfg.d_values, cfg.metric)
    except QGraphError as exc:
        outcomes = [exc] * len(cfg.d_values)
    points: list[SweepPoint] = []
    for d, value in zip(cfg.d_values, outcomes):
        if isinstance(value, QGraphError):
            points.append(SweepPoint(d=d, value=None, status=f"skipped: {_flat(str(value))}"))
            continue
        status = "ok"
        if value <= DEFAULT_TOL:
            status += "; at roundoff; excluded from fit"
        points.append(SweepPoint(d=d, value=value, status=status))
    fit_points = [
        (p.d, p.value) for p in points if p.value is not None and p.value > DEFAULT_TOL
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
