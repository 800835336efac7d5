"""Explicit constants and exponents of the approximation error budget.

Three layers of bookkeeping connect the delta-coupled graphs to the
analytical error estimates:

* form bounds on the graph — the per-edge constant

      C_{eta,e} = (1 + 2/eta) |A_e|^2 + max{4 wbar_e^2/eta, 2 wbar_e/d}

  with wbar_e = |w_e| + |w_j|/|N_j| + |w_k|/|N_k| for the inner edge
  {j, k}, and C_eta = max_e C_{eta,e}, which controls
  |h(f) - d(f)| <= eta d(f) + C_eta ||f||^2 for the quadratic forms h
  (with potentials and delta terms) and d (free);
* the analogous bound on a thickened manifold, entering only through
  user-supplied vertex-block geometry constants and the threshold
  eps_0 = min_v vol X_v / (|w_v| C(v));
* the epsilon-exponents: with the coupling schedules scaling like
  d^-2 and d = eps^alpha, the quasi-unitary defect is
  O(eps^{(1-5 alpha)/2}) at form level and O(eps^{(1-13 alpha)/2}) at
  operator level, combining to O(eps^{min{1-13 alpha, alpha}/2}); a
  stronger edge-neighborhood assumption improves 5 -> 3 and 13 -> 7.

Leading constants unspecified by the estimates are set to one, so
delta_eps is an order-of-magnitude estimator: only the exponents carry
acceptance weight.  Exponent arithmetic is exact (fractions.Fraction).

``verify_form_bound`` probes the form bounds with random spline test
functions.  A spline is linear in its nodal values, so each edge integral
is a 5 x 5 quadratic form in them, with exact rational entries that
scale with the edge length; no spline is built and nothing is integrated
numerically.  Samples are evaluated in blocks: their normals are drawn a
block of samples at a time in a fixed per-sample order (the same stream
as drawing sample by sample), and one array pass applies every edge's
forms, built once per call, to a whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import (
    require_finite_real,
    require_half_length,
    require_nonnegative_real,
    require_positive_int,
    require_positive_real,
)
from .builder import ApproxGraph
from .errors import InputError, StructuralError

__all__ = [
    "FormBoundInputs",
    "form_bound_inputs",
    "c_eta_edge",
    "c_eta",
    "VertexBlock",
    "ManifoldConstants",
    "eps0_manifold",
    "eps0_statement",
    "delta_eps",
    "ExponentBudget",
    "exponent_budget",
    "optimal_alpha",
    "budget_to_json",
    "FormBoundViolation",
    "FormBoundReport",
    "verify_form_bound",
]


def __getattr__(name):
    # perfbench/tracing.py rebinds budget.CubicSpline, which this module no
    # longer uses.  The name resolves on first access, so only a traced run
    # imports scipy.interpolate.  It goes once the tracer stops rebinding it.
    if name == "CubicSpline":
        from scipy.interpolate import CubicSpline

        return CubicSpline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Form-bound constants on the graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormBoundInputs:
    """Per-edge data feeding the form-bound constants of one graph.

    ``abs_a`` and ``wbar`` are keyed by edge: an int j for the j-th outer
    edge, a pair (j, k) with j < k for the inner edge joining them.  The
    weight of a vertex is split evenly over its inner edges; a vertex
    with no inner edges hands its weight to its outer edge instead, so
    the delta term of an isolated vertex stays covered.  ``max_w``
    carries the conventional factor 3 so a single number bounds all
    three shares of any wbar_e.
    """

    d: float
    eta: float
    abs_a: dict
    wbar: dict
    max_w: float

    def __post_init__(self):
        object.__setattr__(self, "d", require_half_length(self.d))
        object.__setattr__(self, "eta", require_positive_real(self.eta, "eta"))
        if set(self.abs_a) != set(self.wbar):
            raise StructuralError("abs_a and wbar must cover the same edges")
        for attr in ("abs_a", "wbar"):
            checked = {}
            for key, value in getattr(self, attr).items():
                checked[key] = require_nonnegative_real(value, f"{attr}[{key!r}]")
            object.__setattr__(self, attr, checked)
        object.__setattr__(self, "max_w", require_nonnegative_real(self.max_w, "max_w"))


def form_bound_inputs(g: ApproxGraph, eta: float) -> FormBoundInputs:
    """Collect |A_e| and wbar_e for every edge of an approximating graph."""
    abs_a: dict = {}
    wbar: dict = {}
    degree = {j: len(g.neighbors.sets[j]) for j in range(1, g.n + 1)}
    for j, k in g.neighbors.pairs():
        abs_a[(j, k)] = abs(g.a_inner[(j, k)])
        wbar[(j, k)] = (
            abs(g.w_inner[(j, k)])
            + abs(g.w_vertex[j]) / degree[j]
            + abs(g.w_vertex[k]) / degree[k]
        )
    for j in range(1, g.n + 1):
        abs_a[j] = 0.0
        wbar[j] = abs(g.w_vertex[j]) if degree[j] == 0 else 0.0
    strengths = [abs(w) for w in g.w_vertex.values()]
    strengths.extend(abs(w) for w in g.w_inner.values())
    return FormBoundInputs(
        d=g.d,
        eta=eta,
        abs_a=abs_a,
        wbar=wbar,
        max_w=3.0 * max(strengths, default=0.0),
    )


def _c_eta_edge(eta: float, d: float, abs_a_e: float, wbar_e: float) -> float:
    return (1.0 + 2.0 / eta) * abs_a_e**2 + max(4.0 * wbar_e**2 / eta, 2.0 * wbar_e / d)


def c_eta_edge(eta: float, d: float, abs_a_e: float, wbar_e: float) -> float:
    """The per-edge constant (1 + 2/eta)|A_e|^2 + max{4 wbar^2/eta, 2 wbar/d}."""
    return _c_eta_edge(require_positive_real(eta, "eta"), require_half_length(d),
                       require_nonnegative_real(abs_a_e, "abs_a_e"),
                       require_nonnegative_real(wbar_e, "wbar_e"))


def c_eta(inputs: FormBoundInputs, eta: float | None = None) -> float:
    """C_eta = max over edges of c_eta_edge; zero for an edgeless table.
    The inputs are checked when made, so only an ``eta`` override is."""
    eta_val = inputs.eta if eta is None else require_positive_real(eta, "eta")
    values = [
        _c_eta_edge(eta_val, inputs.d, inputs.abs_a[key], inputs.wbar[key])
        for key in inputs.abs_a
    ]
    return max(values, default=0.0)


# ---------------------------------------------------------------------------
# Manifold-level constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexBlock:
    """Geometry constants of one thickened vertex neighborhood X_v.

    ``vol`` is vol X_v, ``c_upper`` the constant C(v) and ``c_lower`` the
    constant c(v) of the vertex-block Sobolev trace estimates; C(v) enters
    :func:`eps0_manifold` and c(v) :func:`eps0_statement`.  The defaults
    describe a normalized block; the true values depend on geometry that is
    not meshed here and must come from the caller.
    """

    vol: float = 1.0
    c_upper: float = 1.0
    c_lower: float = 1.0

    def __post_init__(self):
        for name in ("vol", "c_upper", "c_lower"):
            object.__setattr__(self, name, require_positive_real(getattr(self, name), name))


@dataclass(frozen=True)
class ManifoldConstants:
    """Per-vertex geometry constants, keyed like the graph's vertices."""

    blocks: dict

    def __post_init__(self):
        if not self.blocks:
            raise StructuralError("at least one vertex block is required")
        for key, block in self.blocks.items():
            if not isinstance(block, VertexBlock):
                raise StructuralError(f"blocks[{key!r}] must be a VertexBlock")

    @classmethod
    def uniform(cls, keys, block: VertexBlock | None = None) -> "ManifoldConstants":
        """The same (default: normalized) block at every listed vertex."""
        block = block if block is not None else VertexBlock()
        return cls(blocks={key: block for key in keys})


def _least_over_weights(mc: ManifoldConstants, w_vertex: dict, eta: float, threshold) -> float:
    """The least ``threshold(eta, block, |w_v|)`` over the vertices v with
    w_v != 0, +inf when there is none, after checking eta and the weights."""
    eta = require_positive_real(eta, "eta")
    if not w_vertex:
        raise StructuralError("at least one vertex weight is required")
    missing = set(w_vertex) - set(mc.blocks)
    if missing:
        raise StructuralError(f"no geometry constants for vertices {sorted(map(repr, missing))}")
    weights = {key: require_finite_real(w, f"w_vertex[{key!r}]") for key, w in w_vertex.items()}
    return min(
        (threshold(eta, mc.blocks[key], abs(w)) for key, w in weights.items() if w != 0.0),
        default=math.inf,
    )


def eps0_manifold(mc: ManifoldConstants, w_vertex: dict, eta: float) -> float:
    """Scale threshold eps_0 = min_v vol X_v / (|w_v| C(v)).

    Below eps_0 the manifold form bound holds with the graph constants.
    A vertex with w_v = 0 imposes no restriction (contributes +inf); if
    every weight vanishes the result is +inf.  This is the formula the
    form bound is actually derived with; the looser per-vertex statement
    eta c(v)/|w_v| is available as :func:`eps0_statement`, and the two
    need not agree.
    """
    return _least_over_weights(
        mc, w_vertex, eta, lambda eta, block, w: block.vol / (w * block.c_upper)
    )


def eps0_statement(mc: ManifoldConstants, w_vertex: dict, eta: float) -> float:
    """The alternative threshold min_v eta c(v)/|w_v|.

    This is the form the bound is quoted in; the derivation itself
    produces :func:`eps0_manifold`, and the discrepancy between the two
    is surfaced by keeping both callable rather than picking silently.
    """
    return _least_over_weights(mc, w_vertex, eta, lambda eta, block, w: eta * block.c_lower / w)


def delta_eps(eps: float, d: float, max_w: float) -> float:
    """Order-of-magnitude defect (eps/d)^{1/2}(maxW + 1) + eps^{1/2}/d.

    Leading constants are set to one (they depend on vertex-block and
    edge-neighborhood geometry), so only the scaling in eps and d is
    meaningful; with maxW = O(d^-2) and d = eps^alpha the leading term
    scales as eps^{(1-5 alpha)/2}.
    """
    eps = require_positive_real(eps, "eps")
    d = require_half_length(d)
    max_w = require_nonnegative_real(max_w, "max_w")
    if eps > d:
        raise InputError(f"eps must not exceed d, got eps={eps} > d={d}")
    return math.sqrt(eps / d) * (max_w + 1.0) + math.sqrt(eps) / d


# ---------------------------------------------------------------------------
# Exponent budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentBudget:
    """Exact eps-exponents of the error estimates at a given alpha.

    ``form`` is the exponent of the quasi-unitary defect at form level,
    ``operator`` the one after the resolvent comparison, ``combined``
    the end-to-end exponent min{operator doubled, alpha}/2 coming from
    combining the operator defect with the eps^{alpha/2} edge-length
    mismatch.  With ``eq29`` the improved variants (5 -> 3, 13 -> 7)
    apply.  ``optimal_alpha`` maximizes the combined exponent over the
    admissible range and ``optimal_combined`` is its value.
    """

    alpha: Fraction
    eq29: bool
    form: Fraction
    operator: Fraction
    combined: Fraction
    optimal_alpha: Fraction
    optimal_combined: Fraction


#: Snap tolerance: a float this close (relatively) to a small-denominator
#: rational is taken to mean that rational, so spellings like 1/14 stay
#: exact through the arithmetic.
_SNAP = Fraction(1, 10**12)


#: The constants c of the form exponent (1 - c alpha)/2 and of the operator
#: exponent (1 - c alpha)/2, by whether the improved edge-neighborhood
#: condition (eq29) holds.
_EXPONENTS = {False: (5, 13), True: (3, 7)}


def _as_fraction(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    value = require_finite_real(alpha, "alpha")
    exact = Fraction(value)
    snapped = exact.limit_denominator(1000)
    if abs(snapped - exact) <= _SNAP * max(1, abs(exact)):
        return snapped
    return exact


def optimal_alpha(eq29_holds: bool = False) -> tuple[Fraction, Fraction]:
    """The alpha maximizing min{1 - c alpha, alpha}/2 and the maximum.

    The minimum of an increasing and a decreasing linear function peaks
    where they cross: 1 - c alpha = alpha at alpha = 1/(c + 1), giving
    1/14 -> 1/28 for c = 13 and 1/8 -> 1/16 for c = 7.
    """
    c = _EXPONENTS[bool(eq29_holds)][1]
    best = Fraction(1, c + 1)
    return best, best / 2


def exponent_budget(alpha, eq29_holds: bool = False) -> ExponentBudget:
    """Evaluate all exponents at alpha with exact rational arithmetic.

    Requires 0 < alpha < 1/13, or 0 < alpha < 1/7 when the improved
    edge-neighborhood condition holds.  Floats are snapped to nearby
    small-denominator rationals (within 1e-12) so that
    ``exponent_budget(1/14).combined == Fraction(1, 28)`` exactly.
    """
    a = _as_fraction(alpha)
    form_c, operator_c = _EXPONENTS[bool(eq29_holds)]
    limit = Fraction(1, operator_c)
    if not 0 < a < limit:
        raise InputError(
            f"alpha must lie in (0, {limit}){' under the improved condition' if eq29_holds else ''}, "
            f"got {alpha!r}"
        )
    best, best_value = optimal_alpha(eq29_holds)
    return ExponentBudget(
        alpha=a,
        eq29=bool(eq29_holds),
        form=(1 - form_c * a) / 2,
        operator=(1 - operator_c * a) / 2,
        combined=min(1 - operator_c * a, a) / 2,
        optimal_alpha=best,
        optimal_combined=best_value,
    )


def budget_to_json(budget: ExponentBudget) -> dict:
    """JSON-ready dict of a budget (floats, exponents nested)."""
    return {
        "alpha": float(budget.alpha),
        "eq29": budget.eq29,
        "exponents": {
            "form": float(budget.form),
            "operator": float(budget.operator),
            "combined": float(budget.combined),
        },
        "optimal_alpha": float(budget.optimal_alpha),
        "optimal_combined": float(budget.optimal_combined),
    }


# ---------------------------------------------------------------------------
# Sampled verification of the form bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormBoundViolation:
    """One failed sample: which inequality, both sides, and the margin."""

    sample: int
    inequality: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class FormBoundReport:
    """Outcome of verify_form_bound over all samples."""

    eta: float
    c_eta: float
    c_half: float
    n_samples: int
    violations: tuple[FormBoundViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


#: Interior spline nodes per edge (the ends carry the vertex values).
_INTERIOR_NODES = 3

#: Support length of the test functions on the outer half-lines.
_OUTER_SUPPORT = 1.0

#: Samples drawn and integrated together: bounds the working memory of
#: verify_form_bound independently of n_samples.
_SAMPLE_BLOCK = 32

# The edge forms of the not-a-knot spline F through values at five
# equispaced nodes of [0, 1]: one cubic on [0, 1/2] and one on [1/2, 1],
# joined C^2, so every entry is rational.  Mass int F_i F_j, kinetic
# int F_i' F_j', and the antisymmetric cross form int (F_i' F_j - F_i F_j')
# (tests/test_budget.py derives all three with sympy).  On [0, l] they
# scale as l, 1/l and 1.
_MASS = np.array([
    [206, 188, -99, 28, -8],
    [188, 1088, -108, 64, 28],
    [-99, -108, 1044, -108, -99],
    [28, 64, -108, 1088, 188],
    [-8, 28, -99, 188, 206],
]) / 3780.0
_KINETIC = np.array([
    [223, -284, 84, -28, 5],
    [-284, 640, -456, 128, -28],
    [84, -456, 744, -456, 84],
    [-28, 128, -456, 640, -284],
    [5, -28, 84, -284, 223],
]) / 45.0
_CROSS = np.array([
    [0, -66, 29, -10, 2],
    [66, 0, -88, 32, -10],
    [-29, 88, 0, -88, 29],
    [10, -32, 88, 0, -66],
    [-2, 10, -29, 66, 0],
]) / 45.0


def _edge_forms(length, a) -> np.ndarray:
    """The (kinetic-with-potential, kinetic, mass) forms of edge splines on
    [0, length] with potential a, shape (..., 3, 5, 5) for ``length`` and
    ``a`` broadcast to shape (...).  The covariant |f' + i a f|^2 gives
    kinetic + a^2 mass + i a cross."""
    length = np.asarray(length)[..., np.newaxis, np.newaxis]
    a = np.asarray(a)[..., np.newaxis, np.newaxis]
    kin = _KINETIC / length
    mass = _MASS * length
    return np.stack(np.broadcast_arrays(kin + a * a * mass + 1j * a * _CROSS, kin, mass), axis=-3)


def _edge_terms(values: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """(kinetic-with-potential, kinetic, mass) integrals of splines on a
    set of edges, summed over the edges, as a (3, ...) array.

    ``values`` holds the nodal values of one spline per edge, shape (edges,
    5), or of a batch of them, shape (..., edges, 5); ``forms`` comes from
    :func:`_edge_forms`, shape (edges, 3, 5, 5).  Each integral is a
    quadratic form in the values, applied in one einsum.
    """
    return np.einsum("...ei,ekij,...ej->k...", values.conj(), forms, values).real


def _sampled_forms(g: ApproxGraph, n_samples: int, rng: np.random.Generator):
    """(h, d, norm_sq) of ``n_samples`` random test functions, each of shape
    (n_samples,): the quadratic form with potentials and delta terms
    (evaluated exactly at the delta points), the free form, and the
    squared norm.  :func:`verify_form_bound` describes the functions and
    the order of the draws.

    The edges are the outer edges, then the halves (j, k) and (k, j) of
    each inner edge; their forms are built once per call.  A block of
    samples is one array pass: its nodal values are gathered as a (samples,
    edges, 5) array, real and imaginary parts straight from the normals (the
    left ends from the vertex draws, the right ends from the midpoint draws,
    zero on an outer edge, and the interiors by a reshape), and one
    :func:`_edge_terms` call applies every edge's forms.
    """
    pairs = g.neighbors.pairs()
    n, m = g.n, _INTERIOR_NODES
    n_ends = n + len(pairs)
    halves = [(lo, hi) for j, k in pairs for lo, hi in ((j, k), (k, j))]
    n_edges = n + len(halves)
    # The columns of the real parts of each edge's end values: a vertex on
    # the left, a midpoint on the right of an inner edge's half.
    left = 2 * np.array([j - 1 for j in range(1, n + 1)] + [lo - 1 for lo, _ in halves])
    right = 2 * np.repeat(np.arange(n, n_ends), 2)
    forms = _edge_forms(
        np.array([_OUTER_SUPPORT] * n + [g.d] * len(halves)),
        np.array([0.0] * n + [g.a_inner[half] for half in halves]),
    )
    strengths = np.repeat(
        [g.w_vertex[j] for j in range(1, n + 1)] + [g.w_inner[pair] for pair in pairs], 2
    )
    width = 2 * n_ends + 2 * m * n_edges
    blocks = []
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        normals = rng.standard_normal((min(_SAMPLE_BLOCK, n_samples - start), width))
        interior = normals[:, 2 * n_ends :].reshape(len(normals), n_edges, 2, m)
        values = np.zeros((len(normals), n_edges, 5), dtype=complex)
        for part, at in ((values.real, 0), (values.imag, 1)):
            part[:, :, 0] = normals[:, left + at]
            part[:, :, 1:4] = interior[:, :, at]
            part[:, n:, 4] = normals[:, right + at]
        terms = _edge_terms(values, forms)
        terms[0] += np.einsum("sj,j->s", normals[:, : 2 * n_ends] ** 2, strengths)
        blocks.append(terms)
    return tuple(np.concatenate(blocks, axis=1))


def verify_form_bound(
    g: ApproxGraph,
    eta: float,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
) -> FormBoundReport:
    """Probe both form-bound inequalities with random test functions.

    For each sample f the report checks

        |h(f) - d(f)| <= eta d(f) + C_eta ||f||^2
        d(f) <= 2 (h(f) + C_{1/2} ||f||^2)

    with the constants from :func:`c_eta`.  Any violation is recorded
    with both sides; a violation falsifies the constant bookkeeping or
    the edge forms, not the estimate itself, so a clean report is a
    regression check on this module.  Pass a seeded generator (or a
    nonnegative int seed) for reproducible samples; the default seed is 0.

    Each test function is a continuous piecewise cubic spline with random
    complex values at the vertices, the midpoints and three interior
    nodes per edge, vanishing from length 1 outward on the half-lines.
    Its normals are drawn in a fixed order: vertex values, midpoint
    values, the interiors of the outer edges, then the interiors of the
    halves (j, k) and (k, j) of each inner edge, every block of count
    complex values as count real parts followed by count imaginary parts.
    Blocks of samples come from one draw each in that order, so a seed
    gives the same functions, and leaves a caller's generator in the same
    state, as drawing them one sample at a time.  The spline is linear in
    its nodal values, so every edge integral is a quadratic form in them,
    exact up to rounding.  The forms of all edges are built once per call,
    each block of samples is evaluated in one array pass over every edge
    (see :func:`_sampled_forms`), and both inequalities are tested on all
    samples at once; only the violations become Python objects.
    """
    n_samples = require_positive_int(n_samples, "n_samples")
    if rng is None:
        rng = 0
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool) and rng >= 0:
        rng = np.random.default_rng(int(rng))
    elif not isinstance(rng, np.random.Generator):
        raise InputError(
            f"rng must be a numpy Generator, a nonnegative int seed or None, got {rng!r}"
        )
    inputs = form_bound_inputs(g, eta)
    c_eta_val = c_eta(inputs)
    c_half_val = c_eta(inputs, eta=0.5)
    h, d_form, norm_sq = _sampled_forms(g, n_samples, rng)
    checks = (
        ("relative-bound", np.abs(h - d_form), inputs.eta * d_form + c_eta_val * norm_sq),
        ("lower-bound", d_form, 2.0 * (h + c_half_val * norm_sq)),
    )
    failed = np.flatnonzero(np.logical_or.reduce([lhs > rhs for _, lhs, rhs in checks]))
    violations = [
        FormBoundViolation(
            sample=index, inequality=name, lhs=float(lhs[index]), rhs=float(rhs[index])
        )
        for index in failed.tolist()
        for name, lhs, rhs in checks
        if lhs[index] > rhs[index]
    ]
    return FormBoundReport(
        eta=inputs.eta,
        c_eta=c_eta_val,
        c_half=c_half_val,
        n_samples=n_samples,
        violations=tuple(violations),
    )
