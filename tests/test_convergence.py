"""Convergence metrics, rate fits, sweep driver, CSV reports."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import qgraph.cli as cli
import qgraph.convergence as convergence
import qgraph.solver as solver
from qgraph import (
    DEFAULT_D_VALUES,
    ConvergenceReport,
    Edge,
    EigGap,
    GreensFunction,
    HSResolvent,
    InputError,
    MetricGraphSystem,
    QGraphError,
    ScatteringNorm,
    SweepConfig,
    SweepPoint,
    Vertex,
    ab_from_st,
    build_approx_graph,
    dirichlet_condition,
    dumps,
    effective_scattering,
    eigengap_floor,
    eigenvalues_compact,
    fit_rate,
    report_to_csv,
    run_sweep,
    star_scattering,
    star_system,
    system_from_approx,
    truncate,
)
from helpers import (
    make_complex_t,
    make_delta,
    make_delta_prime,
    make_dirichlet,
    make_kirchhoff_perturbed,
    make_singular_at_tenth,
    random_st,
    reference_hs_value,
    with_potential,
)


# -- rate fitting -----------------------------------------------------------

def test_fit_rate_recovers_exact_power_law():
    ds = [2.0**-p for p in range(3, 10)]
    values = [(d, 3.0 * d**0.5) for d in ds]
    slope, intercept, residual = fit_rate(values)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert residual <= 1e-12


def test_fit_rate_quadratic_law():
    ds = [2.0**-p for p in range(2, 8)]
    slope, _, residual = fit_rate([(d, 7.0 * d**2) for d in ds])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert residual <= 1e-12


def test_fit_rate_drops_nonpositive_with_warning():
    ds = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    values = [(d, d) for d in ds[:4]] + [(ds[4], 0.0)]
    with pytest.warns(UserWarning, match="nonpositive"):
        slope, _, _ = fit_rate(values)
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_needs_four_points():
    with pytest.raises(InputError):
        fit_rate([(0.5, 0.1), (0.25, 0.05), (0.125, 0.025)])


# -- metric specifications --------------------------------------------------

def test_scattering_norm_validation():
    with pytest.raises(InputError):
        ScatteringNorm(k_list=())
    with pytest.raises(InputError):
        ScatteringNorm(k_list=(1.0, -0.5))


def test_hs_resolvent_validation():
    with pytest.raises(InputError):
        HSResolvent(L=0.0)


@pytest.mark.parametrize(
    "z", [math.nan, math.inf, complex(-1.0, math.nan), complex(-math.inf, 1.0)]
)
def test_hs_resolvent_rejects_non_finite_z(z):
    with pytest.raises(InputError, match=re.escape(f"z must be finite, got {complex(z)!r}")):
        HSResolvent(z=z)


@pytest.mark.parametrize("z", [0, complex(-0.0, -0.0)])
def test_hs_resolvent_rejects_z_zero_before_any_graph(monkeypatch, tmp_path, capsys, z):
    """z = 0 is no resolvent point of either system, so it fails as an
    InputError before any approximating graph is built, in the library and
    through the CLI (exit 2, not a sweep that skips every d)."""

    def no_build(st, d):
        raise AssertionError(f"a graph was built at d={d!r}")

    monkeypatch.setattr(convergence, "build_approx_graph", no_build)
    message = "z = 0 is not a valid resolvent point"
    with pytest.raises(InputError, match=re.escape(message)):
        HSResolvent(z=z)
    with pytest.raises(InputError, match=re.escape(message)):
        run_sweep(SweepConfig(st=make_delta(), metric=HSResolvent(z=z), d_values=(0.25,)))
    doc = tmp_path / "delta.json"
    doc.write_text('{"kind": "delta", "n": 3, "alpha": 1.0}')
    argv = ["sweep", str(doc), "--metric", "hs", "--z-re", repr(complex(z).real),
            "--z-im", repr(complex(z).imag), "--d-range", "2:4"]
    assert cli.main(argv) == cli.EXIT_INVALID
    assert message in capsys.readouterr().err


def test_eig_gap_validation():
    with pytest.raises(InputError):
        EigGap(count=0)
    with pytest.raises(InputError):
        EigGap(L=-1.0)
    assert EigGap(count=3.0).count == 3


BAD_COUNTS = [float("nan"), None, float("inf"), True, False, 2.5, "5", -1]


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_eig_gap_rejects_non_integer_count(count):
    with pytest.raises(InputError, match=re.escape(f"got {count!r}")):
        EigGap(count=count)


def test_sweep_config_validation(st_delta):
    with pytest.raises(InputError):
        SweepConfig(st=st_delta, metric=ScatteringNorm(), d_values=(0.1, 0.2))
    with pytest.raises(InputError):
        SweepConfig(st=st_delta, metric=ScatteringNorm(), d_values=(1.5, 0.2))


@pytest.mark.parametrize("metric", [None, "eig", ScatteringNorm, (0.5, 1.0)])
def test_sweep_config_rejects_an_unknown_metric(st_delta, metric):
    """Only a ScatteringNorm, HSResolvent or EigGap instance names a metric."""
    with pytest.raises(InputError, match=re.escape(f"unknown metric specification {metric!r}")):
        SweepConfig(st=st_delta, metric=metric)


# -- metrics ----------------------------------------------------------------

def _metric_at(st, d, metric) -> float:
    """The metric at d: the value of a sweep of d alone, which must not skip
    it."""
    report = run_sweep(SweepConfig(st=st, metric=metric, d_values=(d,)))
    assert report.skipped == ()
    ((_, value),) = report.values
    return value


def test_metric_scattering_matches_direct_norm(st_delta):
    d, ks = 0.05, (0.5, 1.0, 2.0)
    got = _metric_at(st_delta, d, ScatteringNorm(ks))
    c = ab_from_st(st_delta)
    g = build_approx_graph(st_delta, d)
    manual = max(
        np.linalg.norm(effective_scattering(g, k) - star_scattering(c, k), 2)
        for k in ks
    )
    assert got == pytest.approx(manual, rel=1e-12)
    assert got > 0


def test_metric_hs_resolvent_decreases(st_delta_prime):
    values = [_metric_at(st_delta_prime, d, HSResolvent()) for d in (0.2, 0.1, 0.05)]
    assert values[0] > values[1] > values[2] > 0


HS_COUPLINGS = {
    "delta": make_delta(alpha=1.0, n=3),
    "delta_prime_s": make_delta_prime(beta=1.0, n=3),
    "kirchhoff_perturbed": make_kirchhoff_perturbed(),
    "complex_t": make_complex_t(),
    "random_n3": random_st(np.random.default_rng(3), n=3, m=2),
}


@pytest.mark.parametrize("a", [0, 4, 64])
@pytest.mark.parametrize("z", [-1.0, 2.0 + 1.0j, 30.0, 2.0 - 1.0j])
@pytest.mark.parametrize("d", [2.0**-2, 2.0**-6, 2.0**-10])
@pytest.mark.parametrize("name", sorted(HS_COUPLINGS))
def test_metric_hs_matches_dense_reference(monkeypatch, name, d, z, a):
    """The closed form against a quadrature of dense kernel matrices that
    splits each inner edge's own square at x = y.  At z = 30 the truncated
    edges (l = 1) border a mode, one Dirichlet level below; at z = 2 - i,
    Re k < 0.  The metric's truncated systems carry the magnetic potential
    a on every edge, as the reference's do: the kernels then carry the
    phases e^{-ia(x - y)}, which the reference keeps and the closed form
    drops in |.|^2."""
    monkeypatch.setattr(
        convergence, "truncate", lambda sys, L: with_potential(truncate(sys, L=L), a)
    )
    st = HS_COUPLINGS[name]
    got = _metric_at(st, d, HSResolvent(z=z))
    assert got == pytest.approx(reference_hs_value(st, d, z=z, a=a), rel=1e-12)


def test_metric_hs_matches_dense_reference_at_long_truncation(st_delta_prime):
    got = _metric_at(st_delta_prime, 2.0**-4, HSResolvent(L=8.0))
    ref = reference_hs_value(st_delta_prime, 2.0**-4, L=8.0)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("z", [-1e4, 1e4 + 100j])
def test_metric_hs_matches_graded_reference_far_from_spectrum(st_delta_prime, z):
    """At |k| = 100 the kernels vary on the scale 1 / |k|: they decay from
    the vertices and the diagonal at z = -1e4 and oscillate at z = 1e4 +
    100i.  The reference's panels are graded to that scale."""
    got = _metric_at(st_delta_prime, 2.0**-6, HSResolvent(z=z))
    assert got == pytest.approx(reference_hs_value(st_delta_prime, 2.0**-6, z=z), rel=1e-12)


def _exp_divided_difference_reference(nodes) -> complex:
    """exp[z_0, z_1, z_2] from its recursion at 60 digits, where a repeated
    node's difference quotient is the derivative."""
    with mpmath.workdps(60):
        z = [mpmath.mpc(complex(node)) for node in nodes]
        # The divided difference is symmetric in its nodes: a repeated pair
        # goes first.
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if z[i] == z[j]:
                z = [z[i], z[j], z[3 - i - j]]
                break
        a, b, c = z

        def first(x, y):
            return mpmath.exp(x) if x == y else (mpmath.exp(y) - mpmath.exp(x)) / (y - x)

        if a == b == c:
            return complex(mpmath.exp(a) / 2)
        if a == b:
            return complex((first(a, c) - mpmath.exp(a)) / (c - a))
        return complex((first(b, c) - first(a, b)) / (c - a))


def test_exp_divided_differences_match_mpmath():
    """The divided differences of the HS closed form's triangle integrals,
    at its node triples (0, u + v, 2v), (0, u + v, 0) and (0, u - v, 0)
    with u = ikl and v = conj(u), for Im kl and |Re kl| from 0 to 1e6:
    confluent nodes, nearly confluent ones and far apart ones."""
    nodes = []
    for x in (0.0, 1e-9, 1e-3, 0.7, 3.0, 50.0, 1e6):
        for y in (0.0, -1e-9, 1e-3, -2.0, 40.0, 1e6):
            u = complex(-x, y)
            v = u.conjugate()
            nodes += [(0.0, u + v, 2.0 * v), (0.0, u + v, 0.0), (0.0, u - v, 0.0)]
    got = convergence._exp_divided_differences(np.array(nodes, dtype=complex))
    for triple, value in zip(nodes, got):
        assert value == pytest.approx(_exp_divided_difference_reference(triple), rel=1e-14)


def test_metric_hs_forms_no_kernel_matrix(monkeypatch, st_complex_t):
    """An HS sweep builds no kernel matrix and evaluates no free kernel:
    the closed form samples no kernel."""
    calls = {"kernel_matrix": [], "_free_kernel": []}
    for name, record in calls.items():
        original = getattr(GreensFunction, name)

        def counting(self, *args, _original=original, _record=record, **kwargs):
            _record.append(args)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(GreensFunction, name, counting)
    run_sweep(SweepConfig(st=st_complex_t, metric=HSResolvent(), d_values=MEMO_D_VALUES))
    assert calls == {"kernel_matrix": [], "_free_kernel": []}


def _free_kernel_term(approx_t, n_out, z) -> float:
    """sqrt(sum over the inner edges of 2 |c|^2 l^2 phi_2(-2 Im k l)), the
    Hilbert-Schmidt norm of their free kernels alone, at 30 digits."""
    with mpmath.workdps(30):
        k = mpmath.sqrt(mpmath.mpc(z))
        k = -k if k.imag < 0 else k
        total = mpmath.mpf(0)
        for edge in approx_t.edges[n_out:]:
            a = -2 * k.imag * edge.length
            total += 2 * edge.length**2 * (mpmath.exp(a) - 1 - a) / a**2 / (4 * abs(k) ** 2)
        return float(mpmath.sqrt(total))


@pytest.mark.parametrize("d", [0.5, 2.0**-2, 2.0**-10])
@pytest.mark.parametrize("z", [-1e8, -1e12 + 5j, 1e6 + 1e3j])
@pytest.mark.parametrize("make", [make_complex_t, make_delta_prime])
def test_metric_hs_scan_does_not_overflow(make, z, d):
    """Far from the spectrum, with Im k up to 1e6 here, e^{+-ikl} spans the
    float range: every exponential the closed form takes has Re <= 0, so
    no RuntimeWarning is raised and the value is finite.  At z = -1e8 and
    -1e12 + 5i the kernels decay within 1 / Im k of the vertices and of the
    diagonal, so on long inner edges the free kernels dominate."""
    st = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _metric_at(st, d, HSResolvent(z=z))
    assert math.isfinite(got) and got > 0
    if z.real < -1e7 and d >= 0.25:
        approx_t = truncate(system_from_approx(build_approx_graph(st, d)), L=1.0)
        n_out = len(star_system(st).edges)
        assert got == pytest.approx(_free_kernel_term(approx_t, n_out, z), rel=1e-3)


def test_hs_sweep_far_from_spectrum_keeps_its_rate():
    """The delta' HS sweep at z = -1e8: the inner edges' free kernels
    dominate, each adding about l / (4 |k|^3) to the squared norm, and
    their total length scales with d, so the rate is 1/2.  A tensor
    Gauss-Legendre rule of 64 nodes per edge does not resolve their width
    1 / Im k = 1e-4 about the diagonal: it read every value 9.8 times too
    large, with slope 1."""
    cfg = SweepConfig(
        st=make_delta_prime(beta=1.0, n=3),
        metric=HSResolvent(z=-1e8),
        d_values=tuple(2.0**-p for p in range(1, 5)),
    )
    report = run_sweep(cfg)
    assert all(p.status == "ok" for p in report.points)
    assert report.slope == pytest.approx(0.5, abs=0.01)


_LAYOUT_FORMS = {
    "random_n3_seed1": lambda: random_st(np.random.default_rng(1), n=3),
    "random_n3_seed2": lambda: random_st(np.random.default_rng(2), n=3),
    "random_n5_seed3": lambda: random_st(np.random.default_rng(3), n=5),
    "random_n5_seed4": lambda: random_st(np.random.default_rng(4), n=5),
    "delta_prime_n16": lambda: make_delta_prime(beta=1.0, n=16),
}


@pytest.mark.parametrize(
    "name", ["delta", "delta_prime_s", "kirchhoff_perturbed", "complex_t", *_LAYOUT_FORMS]
)
def test_truncated_star_edges_lead_every_approximating_system(name, reference_couplings):
    """The HS closed form pairs the truncated star's edges with the leading
    edges of each truncated approximating system: star_system and
    system_from_approx both make outer edges 1..n half-lines with a = 0,
    and truncate cuts both at the same L, so the ids, lengths and
    potentials agree."""
    st = reference_couplings.get(name) or _LAYOUT_FORMS[name]()
    for L in (1e-3, 1.0, 1e3):
        star_t = truncate(star_system(st), L=L)
        star_edges = [(edge.id, edge.length, edge.a) for edge in star_t.edges]
        assert star_edges == [(j, L, 0.0) for j in range(1, st.n + 1)]
        for d in (0.5, 2.0**-4, 2.0**-10, 2.0**-30):
            approx_t = truncate(system_from_approx(build_approx_graph(st, d)), L=L)
            assert len(approx_t.edges) > st.n
            leading = [(edge.id, edge.length, edge.a) for edge in approx_t.edges[: st.n]]
            assert leading == star_edges


def test_eigengap_floor_values(st_delta_prime):
    # B = 0 and the Kirchhoff-type B with unit singular values both leave
    # the strength ratio at <= 1, so the floor sits at its base value
    assert eigengap_floor(make_dirichlet(3)) == pytest.approx(-10.0)
    assert eigengap_floor(st_delta_prime) == pytest.approx(-90.0)


def test_metric_eigengap_matches_manual_comparison(st_delta_prime):
    d = 0.1
    got = _metric_at(st_delta_prime, d, EigGap())
    floor = eigengap_floor(st_delta_prime)
    star = truncate(star_system(st_delta_prime), L=1.0)
    approx = truncate(
        system_from_approx(build_approx_graph(st_delta_prime, d)), L=1.0
    )
    lam_star = eigenvalues_compact(star, 5, lam_min=floor)
    lam_d = eigenvalues_compact(approx, 5, lam_min=floor)
    assert got == pytest.approx(float(np.max(np.abs(lam_d - lam_star))), rel=1e-12)


# -- sweep driver -----------------------------------------------------------

def test_run_sweep_happy_path(st_delta_prime):
    cfg = SweepConfig(
        st=st_delta_prime,
        metric=ScatteringNorm(),
        d_values=tuple(2.0**-p for p in range(2, 8)),
    )
    report = run_sweep(cfg)
    assert report.conclusive
    assert all(p.status == "ok" for p in report.points)
    assert report.slope > 0.4
    assert report.residual < 0.2
    assert len(report.values) == 6
    assert report.skipped == ()


def test_run_sweep_skips_singular_d():
    cfg = SweepConfig(
        st=make_singular_at_tenth(),
        metric=ScatteringNorm(),
        d_values=(0.2, 0.1, 0.05, 0.025, 0.0125),
    )
    report = run_sweep(cfg)
    skipped = dict(report.skipped)
    assert set(skipped) == {0.1}
    assert "skipped" in skipped[0.1] and "," not in skipped[0.1]
    assert report.conclusive  # four valid points remain


def test_run_sweep_all_points_failing():
    cfg = SweepConfig(
        st=make_singular_at_tenth(), metric=ScatteringNorm(), d_values=(0.1,)
    )
    report = run_sweep(cfg)
    assert report.values == ()
    assert not report.conclusive
    assert report.slope is None and report.residual is None


def test_run_sweep_roundoff_exclusion(monkeypatch, st_delta):
    """With the tolerance above every metric value the fit has nothing to
    work with."""
    monkeypatch.setattr(convergence, "DEFAULT_TOL", 2.1)
    cfg = SweepConfig(
        st=st_delta,
        metric=ScatteringNorm(),
        d_values=(0.5, 0.25, 0.125, 0.0625),
    )
    report = run_sweep(cfg)
    assert len(report.values) == 4
    assert all("at roundoff; excluded from fit" in p.status for p in report.points)
    assert not report.conclusive and report.slope is None


# -- the sweep's star side --------------------------------------------------

MEMO_D_VALUES = tuple(2.0**-p for p in range(2, 7))


def _metric_call(st, d, metric):
    """The metric at d alone: its grid function on the grid (d,), whose
    QGraphError is raised, as is one of the star side."""
    (value,) = convergence._GRIDS[type(metric)](st, (d,), metric)
    if isinstance(value, QGraphError):
        raise value
    return value


def _per_d_report(cfg) -> ConvergenceReport:
    """The sweep report rebuilt from one metric call per d, each made on a
    grid of that d alone."""
    tol = convergence.DEFAULT_TOL
    points = []
    for d in cfg.d_values:
        try:
            value = _metric_call(cfg.st, d, cfg.metric)
        except QGraphError as exc:
            flat = " ".join(str(exc).split()).replace(",", ";")
            points.append(SweepPoint(d=d, value=None, status=f"skipped: {flat}"))
            continue
        status = "ok"
        if value <= tol:
            status += "; at roundoff; excluded from fit"
        points.append(SweepPoint(d=d, value=value, status=status))
    fit = [(p.d, p.value) for p in points if p.value is not None and p.value > tol]
    slope, intercept, residual = fit_rate(fit) if len(fit) >= 4 else (None, None, None)
    return ConvergenceReport(
        metric=cfg.metric, points=tuple(points), slope=slope, intercept=intercept,
        residual=residual,
    )


def _counting(monkeypatch, name):
    """Replace convergence.<name> by a wrapper that records its calls."""
    calls = []
    original = getattr(convergence, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(convergence, name, wrapper)
    return calls


def _sweep_coupling(name, reference_couplings):
    """An acceptance coupling by name, the seeded random n = 3, m = 2 form,
    or delta' at n = 8, whose reductions are 8 wide."""
    if name == "random_n3_m2":
        return random_st(np.random.default_rng(7), n=3, m=2)
    if name == "delta_prime_n8":
        return make_delta_prime(beta=1.0, n=8)
    return reference_couplings[name]


@pytest.mark.parametrize("metric", [ScatteringNorm(), HSResolvent(), EigGap()],
                         ids=["scattering", "hs", "eig"])
@pytest.mark.parametrize(
    "name",
    ["delta", "delta_prime_s", "kirchhoff_perturbed", "complex_t", "random_n3_m2", "delta_prime_n8"],
)
def test_sweep_csv_equals_per_d_metric_calls(name, metric, reference_couplings):
    """A default-grid sweep writes the CSV of one metric call per d: each
    point of a family evaluated in stacked calls has the bits it has alone
    (delta' n = 8 is wider than _ROUND_SIZE and goes one point per call)."""
    st = _sweep_coupling(name, reference_couplings)
    cfg = SweepConfig(st=st, metric=metric)
    assert report_to_csv(run_sweep(cfg)) == report_to_csv(_per_d_report(cfg))


def test_stacked_scattering_family_keeps_each_d_around_a_failure_and_a_retry(monkeypatch):
    """A family in which d = 0.1 fails to build (a singular pair strength)
    and the point of d = 0.05 at k = 1 resonates (its gate is made to fail
    there): every (d, k) point is solved in one stacked call, the resonant
    point alone in one more at k (1 + 1e-6), and every d reads as it does
    alone, d = 0.05 with its retried momentum."""
    st = make_singular_at_tenth()
    d_values = (0.2, 0.1, 0.05, 0.025, 0.0125)
    metric = ScatteringNorm()
    alone = {d: run_sweep(SweepConfig(st=st, metric=metric, d_values=(d,))).points[0]
             for d in d_values}
    g, c = build_approx_graph(st, 0.05), ab_from_st(st)
    retried = max(
        float(np.linalg.norm(effective_scattering(g, k) - star_scattering(c, k), 2))
        for k in (0.5, 1.0 * (1.0 + 1.0e-6), 2.0)
    )
    (pts,) = solver._Reduction(system_from_approx(g)).points(np.array([1.0]), 0, np.array([1.0]))
    resonant = pts.mat[0]
    gated = solver.gated_solve

    def resonant_at_k1(mats, rhs, solve):
        sol, cond = gated(mats, rhs, solve)
        cond[[np.array_equal(mat, resonant) for mat in mats]] = math.inf
        return sol, cond

    monkeypatch.setattr(solver, "gated_solve", resonant_at_k1)
    tried = []
    original = solver._Reduction.scattering

    def recorded(self, k, graphs):
        tried.append(k.tolist())
        return original(self, k, graphs)

    monkeypatch.setattr(solver._Reduction, "scattering", recorded)
    report = run_sweep(SweepConfig(st=st, metric=metric, d_values=d_values))
    assert [len(k) for k in tried] == [4 * len(metric.k_list), 1]
    assert tried[1] == [1.0 * (1.0 + 1.0e-6)] and 1.0 in tried[0]
    for point in report.points:
        if point.d != 0.05:
            assert point == alone[point.d]
    assert "skipped" in alone[0.1].status
    assert report.points[2].value == retried


@pytest.mark.parametrize("metric", [ScatteringNorm(), HSResolvent()], ids=["scattering", "hs"])
def test_wide_sweeps_take_no_more_memory_than_one_d(metric):
    """delta' n = 16 reduces to 16-wide matrices, wider than _ROUND_SIZE, so
    its sweeps go one point per call: the peak of the memory a default-grid
    sweep allocates (tracemalloc sees numpy's buffers) stays within 1.5
    times the largest peak of a one-d metric call.  With every family
    stacked, as narrow ones are, the sweeps read 8.3 (scattering) and 8.9
    (HS) times that peak."""
    st = make_delta_prime(beta=1.3, n=16)

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_d = max(peak(lambda d=d: _metric_call(st, d, metric)) for d in DEFAULT_D_VALUES)
    sweep = peak(lambda: run_sweep(SweepConfig(st=st, metric=metric)))
    assert sweep <= 1.5 * one_d


def _counting_method(monkeypatch, cls, name):
    """Replace cls.<name> by a wrapper that records the number of points of
    each call: the length of its last argument, the graph of each point."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args):
        calls.append(len(args[-1]))
        return original(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_sweep_computes_the_star_side_once(monkeypatch, st_delta_prime):
    """Per sweep: the star's eigenvalues once and each approximating graph's
    eigenvalue search once, all graphs in one lockstep solve; the star's
    resolvent once and the approximating graphs' amplitudes in one stacked
    call; the star's S(k) once per momentum, and every (d, k) point's S_d(k)
    in one stacked call."""
    n = len(MEMO_D_VALUES)
    solves = _counting(monkeypatch, "eigenvalues_compact")
    families = _counting(monkeypatch, "_search_family")
    searches = []
    search = solver._search

    def counted_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(solver, "_search", counted_search)
    run_sweep(SweepConfig(st=st_delta_prime, metric=EigGap(), d_values=MEMO_D_VALUES))
    assert len(solves) == 1 and len(families) == 1 and len(families[0][0]) == n
    assert len(searches) == 1 + n
    resolvents = _counting(monkeypatch, "greens_function")
    amplitudes = _counting_method(monkeypatch, solver._Reduction, "amplitudes")
    run_sweep(SweepConfig(st=st_delta_prime, metric=HSResolvent(), d_values=MEMO_D_VALUES))
    assert len(resolvents) == 1
    # The star's resolvent is a stacked call of one graph.
    assert amplitudes == [1, n]
    stars = _counting(monkeypatch, "star_scattering")
    scatterings = _counting_method(monkeypatch, solver._Reduction, "scattering")
    metric = ScatteringNorm()
    run_sweep(SweepConfig(st=st_delta_prime, metric=metric, d_values=MEMO_D_VALUES))
    assert [k for _, k in stars] == list(metric.k_list)
    assert scatterings == [n * len(metric.k_list)]


def test_eig_sweep_counts_as_often_as_its_slowest_graph(monkeypatch, st_delta_prime):
    """A default-grid eig sweep makes as many count calls as the star's
    search plus the slowest approximating graph's search alone (25 in all
    for delta', where one search per graph made 103)."""
    calls = []
    original = solver._Reduction.counts

    def recorded(self, lams, graph=0):
        calls.append(len(lams))
        return original(self, lams, graph)

    monkeypatch.setattr(solver._Reduction, "counts", recorded)
    floor = eigengap_floor(st_delta_prime)
    eigenvalues_compact(truncate(star_system(st_delta_prime), L=1.0), 5, lam_min=floor)
    star_calls = len(calls)
    solo = []
    for d in DEFAULT_D_VALUES:
        calls.clear()
        sys_ = truncate(system_from_approx(build_approx_graph(st_delta_prime, d)), L=1.0)
        eigenvalues_compact(sys_, 5, lam_min=floor)
        solo.append(len(calls))
    calls.clear()
    run_sweep(SweepConfig(st=st_delta_prime, metric=EigGap()))
    assert len(calls) == star_calls + max(solo) == 25
    assert star_calls + sum(solo) == 103


def _short_dirichlet_interval() -> MetricGraphSystem:
    """An edge of length 1e-155 between Dirichlet ends: its first level,
    (pi / l)^2, lies beyond the float range, so no eigenvalue count is ever
    reached."""
    edge = Edge(id="e", length=1e-155)
    return MetricGraphSystem(
        edges=(edge,),
        vertices=(
            Vertex(id="a", condition=dirichlet_condition(), ends=(("e", 0),)),
            Vertex(id="b", condition=dirichlet_condition(), ends=(("e", 1),)),
        ),
    )


@pytest.mark.parametrize(
    "failing, bad, reason",
    [
        ("strength", 1e-308, "a delta strength overflows"),
        ("reduced_matrix", 1e-305, "overflow the reduced matrix"),
        ("scan", 2.0**-6, "eigenvalue count not reached"),
    ],
)
def test_eig_sweep_reports_a_failing_d_as_a_one_d_sweep(monkeypatch, failing, bad, reason):
    """One d that fails at build (a strength overflows), at the reduction
    (its edges overflow the reduced matrix) or in the search (its count is
    never reached; that d's system is replaced by a too-short interval)
    among good ones: every d, the failing one included, reads exactly as in
    a one-d sweep."""
    if failing == "scan":
        original = convergence.system_from_approx
        monkeypatch.setattr(
            convergence,
            "system_from_approx",
            lambda g: _short_dirichlet_interval() if g.d == bad else original(g),
        )
    st = make_delta()
    d_values = tuple(sorted((2.0**-2, 2.0**-5, 2.0**-8, bad), reverse=True))
    report = run_sweep(SweepConfig(st=st, metric=EigGap(), d_values=d_values))
    for point in report.points:
        (alone,) = run_sweep(SweepConfig(st=st, metric=EigGap(), d_values=(point.d,))).points
        assert point == alone
    assert report.skipped == ((bad, report.points[d_values.index(bad)].status),)
    assert reason in report.skipped[0][1]


def test_eig_sweep_status_names_an_overflowing_vertex_strength():
    """At d = 5e-324 the overlap / d term of a complex_t vertex strength
    overflows: its status row names the strength and d, and the good d
    before it is unaffected."""
    cfg = SweepConfig(st=make_complex_t(), metric=EigGap(), d_values=(2.0**-2, 5e-324))
    rows = report_to_csv(run_sweep(cfg)).splitlines()
    assert rows[1].endswith(",ok")
    assert rows[2].endswith(",,skipped: a delta strength overflows at d=5e-324")


@pytest.mark.parametrize(
    "name", ["delta", "delta_prime_s", "kirchhoff_perturbed", "complex_t", "random_n3_m2"]
)
def test_default_grid_eig_sweep_equals_per_d_metric_calls(name, reference_couplings):
    """The lockstep eig sweep of each acceptance coupling, and of a seeded
    random n = 3, m = 2 normal form, on the default grid writes the CSV of
    one eig metric call per d."""
    st = reference_couplings.get(name) or random_st(np.random.default_rng(7), n=3, m=2)
    cfg = SweepConfig(st=st, metric=EigGap())
    assert report_to_csv(run_sweep(cfg)) == report_to_csv(_per_d_report(cfg))


def test_star_side_error_skips_every_d_with_its_message(monkeypatch):
    """z = pi^2 is a doubly degenerate level of the truncated delta star, so
    the star resolvent fails before any approximating one is built: every d
    is skipped with the per-d message, and the sweep tries the star once."""
    cfg = SweepConfig(
        st=make_delta(alpha=1.0, n=3), metric=HSResolvent(z=math.pi**2), d_values=MEMO_D_VALUES
    )
    resolvents = _counting(monkeypatch, "greens_function")
    report = run_sweep(cfg)
    assert len(resolvents) == 1
    assert report.values == () and len(report.skipped) == len(MEMO_D_VALUES)
    assert all("numerically on the spectrum" in status for _, status in report.skipped)
    assert report_to_csv(report) == report_to_csv(_per_d_report(cfg))


def test_sweep_memo_does_not_leak_between_sweeps(st_delta_prime, st_complex_t):
    """Back-to-back sweeps of two couplings with the same metric each match
    their per-d reports: no star side carries over from one sweep to the
    next."""
    for st in (st_delta_prime, st_complex_t, st_delta_prime):
        cfg = SweepConfig(st=st, metric=HSResolvent(), d_values=MEMO_D_VALUES)
        assert report_to_csv(run_sweep(cfg)) == report_to_csv(_per_d_report(cfg))


# -- CSV reports ------------------------------------------------------------

def test_report_csv_layout(st_delta_prime):
    cfg = SweepConfig(
        st=st_delta_prime,
        metric=ScatteringNorm(),
        d_values=tuple(2.0**-p for p in range(2, 8)),
    )
    report = run_sweep(cfg)
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == "d,metric,status"
    assert len(lines) == 1 + len(report.points) + 3
    for line in lines[1 : 1 + len(report.points)]:
        assert line.count(",") == 2
    assert lines[-3].startswith("slope,")
    assert lines[-1].startswith("residual,")
    assert text.endswith("\n")


def test_report_csv_inconclusive_uses_nan():
    cfg = SweepConfig(
        st=make_singular_at_tenth(), metric=ScatteringNorm(), d_values=(0.1,)
    )
    text = report_to_csv(run_sweep(cfg))
    lines = text.splitlines()
    assert lines[1].split(",")[1] == ""  # empty metric for the skipped d
    assert lines[-3] == "slope,nan"
    assert lines[-2] == "intercept,nan"
    assert lines[-1] == "residual,nan"
    # the flattened error message never smuggles extra columns in
    for line in lines[1:-3]:
        assert line.count(",") == 2


def test_report_csv_deterministic(st_delta):
    cfg = SweepConfig(
        st=st_delta, metric=ScatteringNorm(), d_values=(0.25, 0.125, 0.0625, 0.03125)
    )
    assert report_to_csv(run_sweep(cfg)) == report_to_csv(run_sweep(cfg))


def test_write_report_csv_roundtrip(tmp_path, st_delta):
    """``qgraph sweep --out`` writes report_to_csv's bytes."""
    cfg = SweepConfig(
        st=st_delta, metric=ScatteringNorm(), d_values=(0.25, 0.125, 0.0625, 0.03125)
    )
    report = run_sweep(cfg)
    doc, path = tmp_path / "delta.json", tmp_path / "report.csv"
    doc.write_text(dumps(st_delta), encoding="utf-8")
    assert cli.main(["sweep", str(doc), "--d-range", "2:5", "--out", str(path)]) == 0
    assert path.read_bytes() == report_to_csv(report).encode("utf-8")
