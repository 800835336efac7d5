"""Acceptance suite: one numbered criterion per test.

Each test prints one ``criterion N [name]: PASS/FAIL`` line (visible in the
default ``pytest -v`` run) before asserting, so the full report survives
even when a later criterion fails.
"""

import time
from fractions import Fraction

import numpy as np

from qgraph import (
    ConditioningError,
    HSResolvent,
    ResonantKError,
    STForm,
    ScatteringNorm,
    SweepConfig,
    ab_from_st,
    build_approx_graph,
    coupling_distance,
    effective_scattering,
    eigengap_floor,
    eigenvalues_compact,
    exponent_budget,
    gauge_transform,
    optimal_alpha,
    run_sweep,
    st_from_ab,
    star_scattering,
    system_from_approx,
    truncate,
    verify_form_bound,
)
from qgraph.convergence import fit_rate
from helpers import (
    loglog_slope,
    make_complex_t,
    make_delta,
    make_delta_prime,
    make_kirchhoff_perturbed,
    random_built_graph,
    random_st,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {num} [{name}]: {verdict}{suffix}"


def _sweep_values(st, metric, d_values) -> list[tuple[float, float]]:
    """The (d, value) pairs of a sweep over ``d_values``, none skipped."""
    report = run_sweep(SweepConfig(st=st, metric=metric, d_values=tuple(d_values)))
    assert report.skipped == ()
    return list(report.values)


def _acceptance_set() -> dict:
    return {
        "delta": make_delta(alpha=1.0, n=3),
        "delta_prime_s": make_delta_prime(beta=1.0, n=3),
        "kirchhoff_perturbed": make_kirchhoff_perturbed(),
        "complex_t": make_complex_t(),
    }


def test_criterion_1_closed_form_schedules():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        for beta in (-1.0, 1.0, 2.0):
            for d in (0.1, 0.01):
                g = build_approx_graph(make_delta_prime(beta=beta, n=n), d)
                w_pair = -beta / d**2 - 2.0 / d
                w_vert = (2.0 - n) / beta - (n - 1.0) / d
                for pair in g.neighbors.pairs():
                    worst = max(worst, abs(g.w_inner[pair] - w_pair) / abs(w_pair))
                for j in range(1, n + 1):
                    worst = max(worst, abs(g.w_vertex[j] - w_vert) / abs(w_vert))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0e-12 and elapsed < 1.0
    _report(
        1,
        "delta-prime-s closed-form schedules",
        ok,
        f"worst rel error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_norm_resolvent_rate():
    d_values = [2.0**-p for p in range(3, 10)]
    couplings = {
        "delta": make_delta(alpha=1.0, n=3),
        "delta_prime_s": make_delta_prime(beta=1.0, n=3),
        "complex_t": make_complex_t(),
    }
    slopes, residuals = {}, {}
    for name, st in couplings.items():
        values = _sweep_values(st, HSResolvent(z=-1.0, L=1.0), d_values)
        slope, _, residual = fit_rate(values)
        slopes[name], residuals[name] = slope, residual
    length_slopes = [slopes["delta"]]
    for length in (2.0, 4.0):
        st = make_delta(alpha=1.0, n=3)
        values = _sweep_values(st, HSResolvent(z=-1.0, L=length), d_values)
        slope, _, _ = fit_rate(values)
        length_slopes.append(slope)
    spread = max(length_slopes) - min(length_slopes)
    ok = (
        all(0.35 <= s <= 0.65 for s in slopes.values())
        and all(r <= 0.15 for r in residuals.values())
        and spread <= 0.1
    )
    detail = (
        "slopes "
        + "/".join(f"{slopes[n]:.3f}" for n in couplings)
        + f", max residual {max(residuals.values()):.3f}, L-spread {spread:.3f}"
    )
    _report(2, "norm-resolvent rate", ok, detail)


def test_criterion_3_scattering_convergence():
    d_values = [2.0**-p for p in range(2, 11)]
    failures = []
    detail_parts = []
    for name, st in _acceptance_set().items():
        pairs = _sweep_values(st, ScatteringNorm((0.5, 1.0, 2.0)), d_values)
        values = [value for _, value in pairs]
        inversions = sum(1 for a, b in zip(values, values[1:]) if b >= a)
        slope, _, _ = fit_rate(pairs)
        detail_parts.append(f"{name} slope {slope:.3f}/{inversions} inv")
        if slope < 0.4 or inversions > 1:
            failures.append(name)
    _report(3, "scattering convergence", not failures, "; ".join(detail_parts))


def test_criterion_4_unitarity():
    rng = np.random.default_rng(1234)
    worst_star = 0.0
    done = 0
    while done < 100:
        st = random_st(rng)
        k = float(rng.uniform(0.3, 3.0))
        try:
            s = star_scattering(ab_from_st(st), k)
        except (ResonantKError, ConditioningError):
            continue
        defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]), 2)
        worst_star = max(worst_star, float(defect))
        done += 1
    worst_eff = 0.0
    done = 0
    while done < 100:
        d = float(rng.uniform(0.05, 0.3))
        _, g = random_built_graph(rng, d)
        k = float(rng.uniform(0.3, 3.0))
        try:
            s = effective_scattering(g, k)
        except (ResonantKError, ConditioningError):
            continue
        defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]), 2)
        worst_eff = max(worst_eff, float(defect))
        done += 1
    ok = worst_star <= 1.0e-9 and worst_eff <= 1.0e-9
    _report(
        4,
        "unitarity",
        ok,
        f"star worst {worst_star:.2e}, effective worst {worst_eff:.2e}",
    )


def test_criterion_5_st_round_trip():
    rng = np.random.default_rng(77)
    worst = 0.0
    m_failures = 0
    for _ in range(200):
        st = random_st(rng)
        c = ab_from_st(st)
        again = st_from_ab(c)
        if again.m != st.m:
            m_failures += 1
        worst = max(worst, coupling_distance(c, ab_from_st(again)))
    ok = worst <= 1.0e-10 and m_failures == 0
    _report(
        5,
        "st round-trip",
        ok,
        f"worst distance {worst:.2e}, {m_failures} rank mismatches",
    )


def test_criterion_6_order_law():
    d_values = [2.0**-p for p in range(3, 11)]
    s_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    orthogonal = STForm(
        n=4, m=2, perm=(1, 2, 3, 4), S=s_mat, T=np.array([[1.0, 1.0], [1.0, -1.0]])
    )
    overlapping = STForm(
        n=4, m=2, perm=(1, 2, 3, 4), S=s_mat, T=np.array([[1.0, 1.0], [1.0, 1.0]])
    )
    deviations = {}
    for name, st, target in (
        ("orthogonal rows", orthogonal, -2.0),
        ("overlapping rows", overlapping, -1.0),
    ):
        weights = [abs(build_approx_graph(st, d).w_inner[(1, 2)]) for d in d_values]
        deviations[name] = abs(loglog_slope(d_values, weights) - target)
    ok = all(dev <= 0.05 for dev in deviations.values())
    detail = ", ".join(f"{name} off by {dev:.3f}" for name, dev in deviations.items())
    _report(6, "order law", ok, detail)


def test_criterion_7_exponent_budget():
    exact = exponent_budget(Fraction(1, 14)).combined == Fraction(1, 28)
    plain = optimal_alpha() == (Fraction(1, 14), Fraction(1, 28))
    improved = optimal_alpha(eq29_holds=True) == (Fraction(1, 8), Fraction(1, 16))
    ok = exact and plain and improved
    _report(
        7,
        "exponent budget",
        ok,
        f"combined exact {exact}, optima {plain}/{improved}",
    )


def test_criterion_8_form_bound():
    failing = []
    for name, st in _acceptance_set().items():
        for d in (0.1, 0.05):
            g = build_approx_graph(st, d)
            for eta in (0.5, 1.0):
                report = verify_form_bound(g, eta=eta, n_samples=200, rng=5)
                if not report.ok or report.violations:
                    failing.append(f"{name} d={d} eta={eta}")
    _report(
        8,
        "form bound",
        not failing,
        "zero violations in 16 runs x 200 samples" if not failing else "; ".join(failing),
    )


def test_criterion_9_gauge_invariance():
    rng = np.random.default_rng(2024)
    worst = 0.0
    done = 0
    while done < 20:
        st, g = random_built_graph(rng, 0.25, n=3)
        if not g.a_inner or max(abs(a) for a in g.a_inner.values()) < 1.0e-6:
            continue  # keep only genuinely magnetic draws
        system = truncate(system_from_approx(g), L=1.0)
        floor = eigengap_floor(st)
        before = eigenvalues_compact(system, 4, lam_min=floor)
        gauged, _ = gauge_transform(system)
        after = eigenvalues_compact(gauged, 4, lam_min=floor)
        rel = np.max(np.abs(before - after) / np.maximum(np.abs(before), 1.0))
        worst = max(worst, float(rel))
        done += 1
    ok = worst <= 1.0e-10
    _report(9, "gauge invariance", ok, f"worst rel deviation {worst:.2e} over 20 graphs")
