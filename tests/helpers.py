"""Test utilities: reference couplings, random generators, fit helpers."""

import numpy as np
from scipy.interpolate import CubicSpline

from qgraph import (
    CouplingKind,
    DegenerateArgumentError,
    FormBoundReport,
    FormBoundViolation,
    NamedCoupling,
    STForm,
    SingularDError,
    build_approx_graph,
    c_eta,
    form_bound_inputs,
    named_to_st,
)


# -- the four reference couplings exercised throughout the suite ------------

def make_delta(alpha: float = 1.0, n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=n, alpha=alpha))


def make_delta_prime(beta: float = 1.0, n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.DELTA_PRIME_S, n=n, beta=beta))


def make_dirichlet(n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=n))


def make_kirchhoff(n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=n))


def make_kirchhoff_perturbed() -> STForm:
    """A generic rank-one-B coupling close to, but distinct from, Kirchhoff."""
    return STForm(
        n=3, m=1, perm=(1, 2, 3), S=np.array([[0.2]]), T=np.array([[1.0, 0.9]])
    )


def make_complex_t() -> STForm:
    """A coupling with genuinely complex T, so the builder needs magnetic phases."""
    return STForm(
        n=3,
        m=2,
        perm=(1, 2, 3),
        S=np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]]),
        T=np.array([[0.8 + 0.6j], [1.1 - 0.3j]]),
    )


def make_singular_at_tenth() -> STForm:
    """A coupling whose (1, 2) pair argument d S_12 + <T row overlap> = 1 - 10 d
    cancels exactly at d = 0.1, so builds there must fail loudly."""
    return STForm(
        n=3,
        m=2,
        perm=(1, 2, 3),
        S=np.array([[0.0, -10.0], [-10.0, 0.0]]),
        T=np.array([[1.0], [1.0]]),
    )


# -- random generators ------------------------------------------------------

def random_st(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    *,
    complex_entries: bool = True,
    permuted: bool = True,
) -> STForm:
    """A random valid ST form with degree <= 6 by default."""
    if n is None:
        n = int(rng.integers(1, 7))
    if m is None:
        m = int(rng.integers(0, n + 1))

    def draw(shape):
        real = rng.standard_normal(shape)
        if complex_entries:
            return real + 1j * rng.standard_normal(shape)
        return real + 0j

    x = draw((m, m))
    s_mat = (x + x.conj().T) / 2.0
    t_mat = draw((m, n - m))
    if permuted:
        perm = tuple(int(p) for p in rng.permutation(np.arange(1, n + 1)))
    else:
        perm = tuple(range(1, n + 1))
    return STForm(n=n, m=m, perm=perm, S=s_mat, T=t_mat)


def random_built_graph(rng: np.random.Generator, d: float, **kwargs):
    """(st, graph) for a random coupling that builds at d; resamples on a
    singular half-length, which for generic entries is measure-zero anyway."""
    for _ in range(50):
        st = random_st(rng, **kwargs)
        try:
            return st, build_approx_graph(st, d)
        except (SingularDError, DegenerateArgumentError):
            continue
    raise AssertionError("could not draw a buildable random coupling in 50 tries")


def loglog_slope(ds, values) -> float:
    """Plain least-squares slope of log(values) against log(ds)."""
    slope, _ = np.polyfit(np.log(ds), np.log(values), 1)
    return float(slope)


# -- reference form-bound sampling: one spline per edge of every sample ----

def _reference_edge_terms(values, length, a):
    """Integrals of one edge spline: its own CubicSpline, 32 Gauss-Legendre
    nodes per segment."""
    knots = np.linspace(0.0, length, len(values))
    spline = CubicSpline(knots, values)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    half = np.diff(knots) / 2.0
    xs = np.concatenate([lo + h * (nodes + 1.0) for lo, h in zip(knots[:-1], half)])
    ws = np.concatenate([h * weights for h in half])
    f = spline(xs)
    fp = spline.derivative()(xs)
    cov = fp + 1j * a * f
    return (
        float(ws @ np.abs(cov) ** 2),
        float(ws @ np.abs(fp) ** 2),
        float(ws @ np.abs(f) ** 2),
    )


def reference_sampled_forms(g, n_samples, rng):
    """(h, d, norm_sq) per sample, drawn and integrated one sample and one
    edge at a time: random complex values at vertices, midpoints and three
    interior nodes per edge, zero from length 1 on the half-lines."""

    def draw(count):
        return rng.standard_normal(count) + 1j * rng.standard_normal(count)

    out = []
    for _ in range(n_samples):
        v_vals = {j: draw(1)[0] for j in range(1, g.n + 1)}
        mid_vals = {pair: draw(1)[0] for pair in g.neighbors.pairs()}
        h = d_form = norm_sq = 0.0
        for j in range(1, g.n + 1):
            values = np.concatenate([[v_vals[j]], draw(3), [0.0]])
            kin_a, kin, mass = _reference_edge_terms(values, 1.0, 0.0)
            h, d_form, norm_sq = h + kin_a, d_form + kin, norm_sq + mass
        for j, k in g.neighbors.pairs():
            for lo, hi in ((j, k), (k, j)):
                values = np.concatenate([[v_vals[lo]], draw(3), [mid_vals[(j, k)]]])
                kin_a, kin, mass = _reference_edge_terms(values, g.d, g.a_inner[(lo, hi)])
                h, d_form, norm_sq = h + kin_a, d_form + kin, norm_sq + mass
        for j in range(1, g.n + 1):
            h += g.w_vertex[j] * abs(v_vals[j]) ** 2
        for pair, w in g.w_inner.items():
            h += w * abs(mid_vals[pair]) ** 2
        out.append((h, d_form, norm_sq))
    return out


def reference_form_bound(g, eta, forms):
    """The FormBoundReport of per-sample (h, d, norm_sq) triples."""
    inputs = form_bound_inputs(g, eta)
    eta, c_val, c_half = inputs.eta, c_eta(inputs), c_eta(inputs, eta=0.5)
    violations = []
    for index, (h, d_form, norm_sq) in enumerate(forms):
        if abs(h - d_form) > eta * d_form + c_val * norm_sq:
            violations.append(FormBoundViolation(
                index, "relative-bound", abs(h - d_form), eta * d_form + c_val * norm_sq))
        if d_form > 2.0 * (h + c_half * norm_sq):
            violations.append(FormBoundViolation(
                index, "lower-bound", d_form, 2.0 * (h + c_half * norm_sq)))
    return FormBoundReport(
        eta=eta, c_eta=c_val, c_half=c_half, n_samples=len(forms),
        violations=tuple(violations),
    )
