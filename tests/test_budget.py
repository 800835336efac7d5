"""Error budget: form-bound constants, thresholds, exponents, sampling."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from qgraph import (
    FormBoundInputs,
    InputError,
    ManifoldConstants,
    StructuralError,
    VertexBlock,
    budget_to_json,
    build_approx_graph,
    c_eta,
    c_eta_edge,
    delta_eps,
    eps0_manifold,
    eps0_statement,
    exponent_budget,
    form_bound_inputs,
    optimal_alpha,
    verify_form_bound,
)
from qgraph.budget import _CROSS, _KINETIC, _MASS, _edge_forms, _edge_terms, _sampled_forms
from helpers import (
    _reference_edge_terms,
    loglog_slope,
    make_complex_t,
    make_delta_prime,
    make_dirichlet,
    random_st,
    reference_form_bound,
    reference_sampled_forms,
)


# -- per-edge constant ------------------------------------------------------

def test_c_eta_edge_worked_example():
    # (1 + 2/1) * 2^2 + max(4 * 3^2 / 1, 2 * 3 / 0.5) = 12 + max(36, 12)
    assert c_eta_edge(1.0, 0.5, 2.0, 3.0) == pytest.approx(48.0)


def test_c_eta_edge_small_wbar_branch():
    # max(4 * 0.1^2, 2 * 0.1 / 0.5) = max(0.04, 0.4): the 2 wbar / d arm wins
    assert c_eta_edge(1.0, 0.5, 0.0, 0.1) == pytest.approx(0.4)


def test_c_eta_edge_validation():
    with pytest.raises(InputError):
        c_eta_edge(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(InputError):
        c_eta_edge(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(InputError):
        c_eta_edge(1.0, 0.5, -1.0, 1.0)
    with pytest.raises(InputError):
        c_eta_edge(1.0, 0.5, 1.0, -1.0)


def test_c_eta_edge_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        eta, d = rng.uniform(0.1, 2.0), rng.uniform(0.01, 1.0)
        a_e, wbar = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        base = c_eta_edge(eta, d, a_e, wbar)
        assert c_eta_edge(eta * 1.5, d, a_e, wbar) <= base
        assert c_eta_edge(eta, d, a_e + 1.0, wbar) >= base
        assert c_eta_edge(eta, d, a_e, wbar + 1.0) >= base
        assert c_eta_edge(eta, d / 2.0, a_e, wbar) >= base


# -- graph-level constants --------------------------------------------------

def test_form_bound_inputs_delta_prime():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    inputs = form_bound_inputs(g, 1.0)
    assert inputs.d == 0.1 and inputs.eta == 1.0
    # every inner edge: |w_mid| + |w_j|/deg_j + |w_k|/deg_k = 120 + 21/2 + 21/2
    for pair in g.neighbors.pairs():
        assert inputs.wbar[pair] == pytest.approx(141.0, rel=1e-12)
        assert inputs.abs_a[pair] == 0.0
    # outer half-lines of connected vertices carry no residual weight
    for j in (1, 2, 3):
        assert inputs.wbar[j] == 0.0
    assert inputs.max_w == pytest.approx(360.0, rel=1e-12)


def test_form_bound_inputs_isolated_vertices():
    g = build_approx_graph(make_dirichlet(3), 0.25)
    inputs = form_bound_inputs(g, 0.5)
    # no inner edges; each outer edge keeps its full vertex strength 1/d
    assert set(inputs.wbar) == {1, 2, 3}
    for j in (1, 2, 3):
        assert inputs.wbar[j] == pytest.approx(4.0)


def test_c_eta_takes_edge_maximum():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    inputs = form_bound_inputs(g, 1.0)
    expected = max(
        c_eta_edge(1.0, 0.1, inputs.abs_a[key], inputs.wbar[key])
        for key in inputs.abs_a
    )
    assert c_eta(inputs) == pytest.approx(expected, rel=1e-12)
    # evaluating at another eta reuses the tables
    assert c_eta(inputs, eta=0.5) == pytest.approx(
        max(
            c_eta_edge(0.5, 0.1, inputs.abs_a[key], inputs.wbar[key])
            for key in inputs.abs_a
        ),
        rel=1e-12,
    )


def test_form_bound_inputs_isolated_from_caller_dicts():
    abs_a = {1: 0.0}
    wbar = {1: 2.0}
    inputs = FormBoundInputs(d=0.5, eta=1.0, abs_a=abs_a, wbar=wbar, max_w=6.0)
    abs_a[1] = 99.0
    wbar.clear()
    assert inputs.abs_a[1] == 0.0
    assert inputs.wbar[1] == 2.0


# -- manifold thresholds ----------------------------------------------------

def test_eps0_manifold_examples():
    mc = ManifoldConstants.uniform([1])
    assert eps0_manifold(mc, {1: 8.0}, eta=1.0) == pytest.approx(0.125)
    assert eps0_manifold(mc, {1: 0.0}, eta=1.0) == math.inf
    mc2 = ManifoldConstants.uniform([1, 2])
    assert eps0_manifold(mc2, {1: 2.0, 2: -5.0}, eta=1.0) == pytest.approx(0.2)


def test_eps0_statement_alternative_form():
    mc = ManifoldConstants.uniform([1], VertexBlock(c_lower=2.0))
    assert eps0_statement(mc, {1: 5.0}, eta=0.5) == pytest.approx(0.2)
    assert eps0_statement(mc, {1: 0.0}, eta=0.5) == math.inf


def test_eps0_requires_geometry_for_every_vertex():
    mc = ManifoldConstants.uniform([1])
    with pytest.raises(StructuralError):
        eps0_manifold(mc, {1: 1.0, 2: 1.0}, eta=1.0)
    with pytest.raises(InputError):
        eps0_manifold(mc, {1: 1.0}, eta=0.0)


def test_vertex_block_validation():
    with pytest.raises(InputError):
        VertexBlock(vol=0.0)
    with pytest.raises(StructuralError):
        ManifoldConstants(blocks={})
    with pytest.raises(StructuralError):
        ManifoldConstants(blocks={1: "not a block"})


# -- scale defect -----------------------------------------------------------

def test_delta_eps_formula_and_validation():
    got = delta_eps(0.01, 0.1, 2.0)
    assert got == pytest.approx(math.sqrt(0.1) * 3.0 + 1.0, rel=1e-12)
    with pytest.raises(InputError):
        delta_eps(0.2, 0.1, 2.0)  # eps > d
    with pytest.raises(InputError):
        delta_eps(0.0, 0.1, 2.0)
    with pytest.raises(InputError):
        delta_eps(0.01, 0.1, -1.0)


NOT_NONNEGATIVE = [-1.0, -1e-300, math.nan, math.inf, -math.inf]


def _nonnegative_error(name, value):
    if math.isfinite(value):
        return re.escape(f"{name} must be nonnegative, got {value}")
    return re.escape(f"{name} must be finite")


@pytest.mark.parametrize("value", NOT_NONNEGATIVE)
def test_form_bound_inputs_reject_negative_or_non_finite(value):
    good = dict(d=0.5, eta=1.0, abs_a={1: 0.0}, wbar={1: 1.0}, max_w=3.0)
    for field, bad, name in (
        ("abs_a", {1: value}, "abs_a[1]"),
        ("wbar", {1: value}, "wbar[1]"),
        ("max_w", value, "max_w"),
    ):
        with pytest.raises(InputError, match=_nonnegative_error(name, value)):
            FormBoundInputs(**{**good, field: bad})
    assert FormBoundInputs(**{**good, "max_w": 0.0}).max_w == 0.0


@pytest.mark.parametrize("value", NOT_NONNEGATIVE)
def test_c_eta_edge_rejects_negative_or_non_finite(value):
    with pytest.raises(InputError, match=_nonnegative_error("abs_a_e", value)):
        c_eta_edge(1.0, 0.5, value, 1.0)
    with pytest.raises(InputError, match=_nonnegative_error("wbar_e", value)):
        c_eta_edge(1.0, 0.5, 1.0, value)
    assert c_eta_edge(1.0, 0.5, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("value", NOT_NONNEGATIVE)
def test_delta_eps_rejects_negative_or_non_finite_max_w(value):
    with pytest.raises(InputError, match=_nonnegative_error("max_w", value)):
        delta_eps(0.01, 0.1, value)
    assert delta_eps(0.01, 0.1, 0.0) == pytest.approx(math.sqrt(0.1) + 1.0, rel=1e-12)


def test_delta_eps_asymptotic_exponent():
    """With d = eps^alpha and W = d^-2 the defect decays like
    eps^{(1 - 5 alpha)/2}; the fitted slope must land on that exponent."""
    alpha = Fraction(1, 14)
    eps_values = [10.0 ** -p for p in range(40, 61, 5)]
    values = []
    for eps in eps_values:
        d = eps ** float(alpha)
        values.append(delta_eps(eps, d, d**-2))
    slope = loglog_slope(eps_values, values)
    assert slope == pytest.approx(float((1 - 5 * alpha) / 2), abs=0.02)


# -- exponent budget --------------------------------------------------------

def test_exponent_budget_exact_fractions():
    budget = exponent_budget(Fraction(1, 14))
    assert budget.form == Fraction(9, 28)
    assert budget.operator == Fraction(1, 28)
    assert budget.combined == Fraction(1, 28)
    assert budget.optimal_alpha == Fraction(1, 14)
    assert budget.optimal_combined == Fraction(1, 28)


def test_exponent_budget_snaps_float_spellings():
    budget = exponent_budget(1 / 14)
    assert budget.alpha == Fraction(1, 14)
    assert budget.combined == Fraction(1, 28)


def test_exponent_budget_generic_alpha():
    budget = exponent_budget(Fraction(1, 20))
    assert budget.form == Fraction(3, 8)
    assert budget.operator == Fraction(7, 40)
    assert budget.combined == Fraction(1, 40)


def test_exponent_budget_improved_condition():
    budget = exponent_budget(Fraction(1, 8), eq29_holds=True)
    assert budget.eq29 is True
    assert budget.form == Fraction(5, 16)
    assert budget.operator == Fraction(1, 16)
    assert budget.combined == Fraction(1, 16)
    assert budget.optimal_alpha == Fraction(1, 8)


def test_exponent_budget_range_checks():
    with pytest.raises(InputError):
        exponent_budget(Fraction(1, 13))
    with pytest.raises(InputError):
        exponent_budget(0)
    with pytest.raises(InputError):
        exponent_budget(Fraction(1, 7), eq29_holds=True)
    # 1/12 is inadmissible normally but fine under the improved condition
    with pytest.raises(InputError):
        exponent_budget(Fraction(1, 12))
    assert exponent_budget(Fraction(1, 12), eq29_holds=True).combined == Fraction(1, 24)


def test_optimal_alpha_values():
    assert optimal_alpha() == (Fraction(1, 14), Fraction(1, 28))
    assert optimal_alpha(eq29_holds=True) == (Fraction(1, 8), Fraction(1, 16))


def test_budget_to_json_layout():
    data = budget_to_json(exponent_budget(Fraction(1, 14)))
    assert set(data) == {
        "alpha",
        "eq29",
        "exponents",
        "optimal_alpha",
        "optimal_combined",
    }
    assert data["alpha"] == pytest.approx(1 / 14)
    assert data["eq29"] is False
    assert set(data["exponents"]) == {"form", "operator", "combined"}
    assert data["exponents"]["combined"] == pytest.approx(1 / 28)


# -- edge forms of the spline test functions --------------------------------

def test_edge_forms_are_the_exact_spline_integrals():
    """The hard-coded forms are the exact integrals of the not-a-knot spline
    basis on [0, 1], derived from its definition: a cubic per segment
    between the five equispaced knots, C^2 at the interior knots, C^3 at
    the second and the fourth."""
    x = sp.symbols("x")
    knots = [sp.Rational(i, 4) for i in range(5)]
    coef = sp.symbols("c0:16")
    pieces = [sum(coef[4 * i + p] * x**p for p in range(4)) for i in range(4)]
    smooth = [
        sp.diff(pieces[i + 1] - pieces[i], x, order).subs(x, knots[i + 1])
        for i in range(3)
        for order in (1, 2)
    ]
    smooth += [sp.diff(pieces[i + 1] - pieces[i], x, 3) for i in (0, 2)]
    basis = []
    for node in range(5):
        interpolate = [
            piece.subs(x, knots[i + end]) - int(i + end == node)
            for i, piece in enumerate(pieces)
            for end in (0, 1)
        ]
        (solution,) = sp.linsolve(smooth + interpolate, coef)
        basis.append([sp.Poly(piece.subs(dict(zip(coef, solution))), x) for piece in pieces])

    def form(product):
        def integral(f, g):
            total = 0
            for s in range(4):
                antiderivative = product(f[s], g[s]).integrate()
                total += antiderivative.eval(knots[s + 1]) - antiderivative.eval(knots[s])
            return total

        return [[integral(f, g) for g in basis] for f in basis]

    exact = {
        "mass": (form(lambda f, g: f * g), _MASS),
        "kinetic": (form(lambda f, g: f.diff(x) * g.diff(x)), _KINETIC),
        "cross": (form(lambda f, g: f.diff(x) * g - f * g.diff(x)), _CROSS),
    }
    for name, (rational, stored) in exact.items():
        assert np.array(rational, dtype=float).tolist() == stored.tolist(), name


def edge_terms(values, length, a):
    """:func:`_edge_terms` of the nodal values of one spline, shape (5,), or
    of a batch of them, shape (..., 5), on one edge: a (3, ...) array."""
    return _edge_terms(np.asarray(values)[..., np.newaxis, :], _edge_forms(length, a)[np.newaxis])


@pytest.mark.parametrize("length", [1.0, 0.37, 0.1, 2.0**-10])
def test_edge_forms_match_sampled_spline_oracle(length):
    """Exact forms against a CubicSpline through each profile, integrated by
    32 Gauss-Legendre nodes per segment."""
    rng = np.random.default_rng(5)
    for a in (0.0, 1.0, -3.5, 120.0):
        values = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        got = edge_terms(values, length, a)
        ref = np.array([_reference_edge_terms(v, length, a) for v in values]).T
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)



def test_edge_terms_linear_profile():
    values = np.linspace(0.0, 1.0, 5)  # f(s) = s on [0, 1]
    kin_a, kin, mass = edge_terms(values, 1.0, a=0.0)
    assert kin == pytest.approx(1.0, rel=1e-12)
    assert mass == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert kin_a == pytest.approx(kin)
    # with a covariant term: integral of |1 + 2 i s|^2 = 1 + 4/3
    kin_a2, _, _ = edge_terms(values, 1.0, a=2.0)
    assert kin_a2 == pytest.approx(1.0 + 4.0 / 3.0, rel=1e-12)


def test_edge_terms_quadratic_profile():
    s = np.linspace(0.0, 1.0, 5)
    kin_a, kin, mass = edge_terms(s**2, 1.0, a=1.0)
    assert kin == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert mass == pytest.approx(1.0 / 5.0, rel=1e-12)
    # integral of |2s + i s^2|^2 = 4/3 + 1/5
    assert kin_a == pytest.approx(4.0 / 3.0 + 1.0 / 5.0, rel=1e-12)
    # a batch of profiles gives each profile's integrals
    batch = edge_terms(np.stack([s, s**2]), 1.0, a=1.0)
    np.testing.assert_allclose(batch[0], [1.0 + 1.0 / 3.0, kin_a], rtol=1e-12)
    np.testing.assert_allclose(batch[2], [1.0 / 3.0, mass], rtol=1e-12)


# -- sampled verification ---------------------------------------------------

def test_verify_form_bound_clean_on_delta_prime():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    report = verify_form_bound(g, eta=1.0, n_samples=50, rng=7)
    assert report.ok
    assert report.violations == ()
    assert report.n_samples == 50
    assert report.c_eta == pytest.approx(c_eta(form_bound_inputs(g, 1.0)))


def test_verify_form_bound_reproducible():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    first = verify_form_bound(g, eta=0.5, n_samples=20, rng=11)
    second = verify_form_bound(g, eta=0.5, n_samples=20, rng=11)
    third = verify_form_bound(g, eta=0.5, n_samples=20, rng=np.random.default_rng(11))
    assert first == second == third


def test_verify_form_bound_rejects_bad_sample_count():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    with pytest.raises(InputError):
        verify_form_bound(g, eta=1.0, n_samples=0)


@pytest.mark.parametrize(
    "n_samples", [math.nan, math.inf, None, True, "3", 2.5, -1],
)
def test_verify_form_bound_rejects_bad_sample_argument(n_samples):
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    with pytest.raises(InputError, match=re.escape(f"got {n_samples!r}")):
        verify_form_bound(g, eta=1.0, n_samples=n_samples)


@pytest.mark.parametrize("rng", [2.0, -1, True, "1", np.random.RandomState(1)])
def test_verify_form_bound_rejects_bad_rng(rng):
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    with pytest.raises(InputError, match="rng must be"):
        verify_form_bound(g, eta=1.0, n_samples=5, rng=rng)


@pytest.mark.parametrize(
    "st",
    [
        make_delta_prime(beta=1.0, n=3),
        make_delta_prime(beta=1.0, n=7),
        make_delta_prime(beta=1.0, n=16),
        make_complex_t(),
        random_st(np.random.default_rng(20), n=5, m=3),
    ],
    ids=["delta_prime_n3", "delta_prime_n7", "delta_prime_n16", "complex_t", "random_n5_m3"],
)
def test_batched_sampling_matches_per_sample_reference(st):
    """The batched path draws the same functions as the old per-sample,
    per-edge spline loop, integrates them alike and leaves the generator
    in the same state.  The random form couples every pair of its five
    edges through a complex T, so each half (j, k) has its own potential;
    delta' n=16 has 240 halves."""
    g = build_approx_graph(st, 0.1)
    n_samples, seed = 40, 13
    batched_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = np.array(_sampled_forms(g, n_samples, batched_rng)).T
    reference = reference_sampled_forms(g, n_samples, reference_rng)
    np.testing.assert_allclose(batched, np.array(reference), rtol=1e-12, atol=0.0)
    assert batched_rng.bit_generator.state == reference_rng.bit_generator.state
    for eta in (0.5, 1.0):
        report = verify_form_bound(g, eta=eta, n_samples=n_samples, rng=seed)
        assert report == reference_form_bound(g, eta, reference)


def test_verify_form_bound_memory_is_independent_of_sample_count():
    """Samples are drawn and evaluated a block at a time, so 2,000 samples on
    delta' n=16 (256 edges) take about the memory of one block: holding all
    of their edge values at once would take 41 MB."""
    g = build_approx_graph(make_delta_prime(beta=1.0, n=16), 0.1)
    tracemalloc.start()
    try:
        report = verify_form_bound(g, eta=1.0, n_samples=2000, rng=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 4e6


def test_constant_dominates_concentrated_test_function():
    """A function pinned to 1 at one midpoint and decaying over the two
    half-segments maximizes the delta term against the norm; the shipped
    constant must still absorb it.  All quantities here are hand formulas."""
    d, eta = 0.1, 1.0
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), d)
    inputs = form_bound_inputs(g, eta)
    c_val = c_eta(inputs)
    w_mid = abs(g.w_inner[(1, 2)])  # 120 at d = 0.1
    # linear ramps 1 -> 0 on both half-segments: d(f) = 2/d, ||f||^2 = 2d/3
    d_form = 2.0 / d
    norm_sq = 2.0 * d / 3.0
    assert w_mid <= eta * d_form + c_val * norm_sq
