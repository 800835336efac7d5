"""Solver: eigenvalues, Green's functions, scattering, against closed forms."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st_
from scipy.linalg import block_diag
from scipy.optimize import brentq

from qgraph import (
    DEFAULT_D_VALUES,
    ConditioningError,
    CouplingKind,
    CouplingCondition,
    DeltaCondition,
    Edge,
    InputError,
    MetricGraphSystem,
    NamedCoupling,
    NearSingularZError,
    ResonantKError,
    ScanRangeError,
    StructuralError,
    Vertex,
    VertexCoupling,
    ab_from_st,
    build_approx_graph,
    dirichlet_condition,
    effective_scattering,
    eigengap_floor,
    eigenvalues_compact,
    greens_function,
    named_to_st,
    scattering_matrix,
    st_from_ab,
    star_scattering,
    star_system,
    system_from_approx,
    truncate,
)
import qgraph.couplings as couplings
import qgraph.graphs as graphs
import qgraph.solver as solver
from qgraph._util import gate_error, gated_solve
from qgraph.solver import _Reduction
from helpers import (
    ModuleView,
    ReferenceAssembler,
    UnreducedReduction,
    make_complex_t,
    make_delta,
    make_delta_prime,
    make_dirichlet,
    make_kirchhoff_perturbed,
    random_built_graph,
    random_st,
    reference_count,
    reference_eigenvalues,
    reference_kernel_matrix,
    reference_scattering_matrix,
    use_scipy_lu,
    zgecon_condition,
)


# -- small graph factories --------------------------------------------------

def interval(length: float, left: str = "D", right: str = "D") -> MetricGraphSystem:
    def cond(tag):
        return dirichlet_condition() if tag == "D" else DeltaCondition(0.0)

    edge = Edge(id="e", length=length)
    return MetricGraphSystem(
        edges=(edge,),
        vertices=(
            Vertex(id="a", condition=cond(left), ends=(("e", 0),)),
            Vertex(id="b", condition=cond(right), ends=(("e", 1),)),
        ),
    )


def ring(a1: float = 0.0, a2: float = 0.0) -> MetricGraphSystem:
    """Circumference-2 loop from two unit edges with Kirchhoff joints."""
    return MetricGraphSystem(
        edges=(Edge(id="r1", length=1.0, a=a1), Edge(id="r2", length=1.0, a=a2)),
        vertices=(
            Vertex(id="u", condition=DeltaCondition(0.0), ends=(("r1", 0), ("r2", 1))),
            Vertex(id="v", condition=DeltaCondition(0.0), ends=(("r1", 1), ("r2", 0))),
        ),
    )


def delta_well_line(w: float, half: float) -> MetricGraphSystem:
    """Two segments of length `half` joined by a delta of strength w,
    Dirichlet at the far ends: a well on (-half, half)."""
    return MetricGraphSystem(
        edges=(Edge(id="l", length=half), Edge(id="r", length=half)),
        vertices=(
            Vertex(id="c", condition=DeltaCondition(w), ends=(("l", 0), ("r", 0))),
            Vertex(id="dl", condition=dirichlet_condition(), ends=(("l", 1),)),
            Vertex(id="dr", condition=dirichlet_condition(), ends=(("r", 1),)),
        ),
    )


def _approx(st, d):
    return truncate(system_from_approx(build_approx_graph(st, d)), L=1.0)


def _counts(count, lams, g=0) -> list[int]:
    """N(lambda) at every point of ``lams``, without the branches."""
    return count.counts(lams, g)[0]


# -- interval spectra (textbook)-------------------------------------------

def test_interval_dirichlet_dirichlet():
    ell = 1.3
    got = eigenvalues_compact(interval(ell), 4)
    expected = [(m * math.pi / ell) ** 2 for m in range(1, 5)]
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_interval_dirichlet_neumann():
    got = eigenvalues_compact(interval(1.0, "D", "N"), 4)
    expected = [((m - 0.5) * math.pi) ** 2 for m in range(1, 5)]
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_interval_neumann_neumann_includes_zero():
    got = eigenvalues_compact(interval(1.0, "N", "N"), 3)
    np.testing.assert_allclose(
        got, [0.0, math.pi**2, 4 * math.pi**2], rtol=1e-9, atol=1e-9
    )


# -- delta well on a line (transcendental oracle) ---------------------------

def test_delta_well_spectrum_matches_matching_conditions():
    w, half = -5.0, 3.0
    sys_ = delta_well_line(w, half)

    kappa = brentq(lambda t: 2.0 * t / math.tanh(half * t) + w, 1e-6, 50.0)
    oracle = [-kappa**2]
    # even positive modes solve 2k cos(kL) + w sin(kL) = 0, at most one
    # root between consecutive odd-mode momenta m pi / L
    even = lambda k: 2.0 * k * math.cos(half * k) + w * math.sin(half * k)
    for m in range(6):
        lo, hi = m * math.pi / half + 1e-9, (m + 1) * math.pi / half - 1e-9
        if even(lo) * even(hi) < 0:
            oracle.append(brentq(even, lo, hi) ** 2)
    # odd modes vanish at the center and never see the well
    oracle.extend((m * math.pi / half) ** 2 for m in range(1, 6))
    oracle = sorted(oracle)[:6]

    got = eigenvalues_compact(sys_, 6)
    np.testing.assert_allclose(got, oracle, rtol=1e-9, atol=1e-9)


# -- rings: multiplicity, flux, gauge ---------------------------------------

def test_plain_ring_zero_mode_and_doublets():
    got = eigenvalues_compact(ring(), 5)
    pi2 = math.pi**2
    np.testing.assert_allclose(
        got, [0.0, pi2, pi2, 4 * pi2, 4 * pi2], rtol=1e-8, atol=1e-9
    )


def test_flux_ring_closed_form():
    phi = 0.7
    got = eigenvalues_compact(ring(a1=phi), 4)
    oracle = sorted(((2 * math.pi * m + phi) / 2.0) ** 2 for m in range(-3, 4))[:4]
    np.testing.assert_allclose(got, oracle, rtol=1e-9)


def test_flux_ring_gauge_equivalence():
    lumped = eigenvalues_compact(ring(a1=0.7), 4)
    spread = eigenvalues_compact(ring(a1=0.35, a2=0.35), 4)
    np.testing.assert_allclose(spread, lumped, rtol=1e-10)


# -- star graphs ------------------------------------------------------------

def test_kirchhoff_two_star_is_an_interval():
    st = named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=2))
    sys_ = truncate(star_system(st), L=1.0)
    got = eigenvalues_compact(sys_, 3)
    expected = [(m * math.pi / 2.0) ** 2 for m in range(1, 4)]
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_dirichlet_star_is_decoupled_intervals():
    sys_ = truncate(star_system(make_dirichlet(n=3)), L=1.0)
    got = eigenvalues_compact(sys_, 4)
    pi2 = math.pi**2
    np.testing.assert_allclose(got, [pi2, pi2, pi2, 4 * pi2], rtol=1e-10)


@pytest.mark.parametrize("n", [3, 5])
def test_dirichlet_star_odd_multiplicity(n):
    """pi^2 is an n-fold root, odd for odd n: the aligned determinant
    changes sign there and the root is polished by bracketing."""
    sys_ = truncate(star_system(make_dirichlet(n=n)), L=1.0)
    got = eigenvalues_compact(sys_, n)
    np.testing.assert_allclose(got, [math.pi**2] * n, rtol=1e-10)


def test_deep_wells_resolved_with_multiplicity():
    """The inner wells of the delta'_s build produce a tunneling-split
    singlet plus an exactly degenerate doublet near -1/d^2 - 2/d; losing
    any of the three (or miscounting the doublet) is a scan regression."""
    st = make_delta_prime(beta=1.0, n=3)
    sys_ = truncate(system_from_approx(build_approx_graph(st, 0.1)), L=1.0)
    got = eigenvalues_compact(sys_, 8)
    reference = [
        -3600.0450698005,
        -3599.9449061387,
        -3599.9449061387,
        2.1799196258,
        2.1799196258,
        5.8006103319,
        19.6486561799,
        19.6486561799,
    ]
    np.testing.assert_allclose(got, reference, rtol=1e-8)
    assert got[1] == pytest.approx(got[2], rel=1e-12)
    assert 0.05 < got[1] - got[0] < 0.15


# -- eigenvalue interface errors --------------------------------------------

def test_eigenvalues_require_truncation_spec(st_delta):
    with pytest.raises(StructuralError, match=re.escape("call truncate()")):
        eigenvalues_compact(star_system(st_delta), 3)


def test_eigenvalues_reject_bad_count():
    with pytest.raises(InputError):
        eigenvalues_compact(interval(1.0), 0)


@pytest.mark.parametrize(
    "count", [-2, 2.5, float("nan"), float("inf"), None, True, "3"]
)
def test_eigenvalues_reject_non_integer_count(count):
    with pytest.raises(InputError, match=re.escape(f"got {count!r}")):
        eigenvalues_compact(interval(1.0), count)


def test_eigenvalues_accept_integral_float_count():
    got = eigenvalues_compact(interval(1.0), 2.0)
    np.testing.assert_allclose(got, [math.pi**2, 4 * math.pi**2], rtol=1e-10)


@pytest.mark.parametrize("bound", ["lam_min"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_eigenvalues_reject_non_finite_window(bound, value):
    with pytest.raises(InputError, match=f"{bound} must be finite"):
        eigenvalues_compact(interval(1.0), 3, **{bound: value})


def test_oversized_negative_scan_reports_window():
    """The three wells of the delta'_s graph at d = 0.001 sit near -2.51e11,
    far below the limit spectrum; the count brackets them by doubling.  A
    count no float bracket can reach reports the window it scanned instead
    of overflowing."""
    st = make_delta_prime(beta=1.0, n=3)
    sys_ = truncate(system_from_approx(build_approx_graph(st, 0.001)), L=1.0)
    got = eigenvalues_compact(sys_, 4)
    np.testing.assert_allclose(got, [-2.51001000e11] * 3 + [2.4641161581], rtol=1e-10)
    with pytest.raises(ScanRangeError) as info:
        eigenvalues_compact(sys_, 10**400)
    # The lower end, where the downward doubling first counts no level, and
    # the last finite lambda of the upward doubling.
    assert info.value.window == (-(2.0**38), 2.0**1023)


def test_extreme_lam_min_neither_overflows_nor_warns():
    """The truncated delta'_s star with floors near the float range.  At
    lam_min = -1e308 the bisection's midpoints between ends below -8.99e307
    stay finite, and the floor removes no level; at 8.9e307 the levels
    above it are found.  At 1e308 the upward doubling cannot start, and the
    window is reported.  0.5 (a + b) overflowed at all three, and the count
    of an infinite lambda raised."""
    sys_ = truncate(star_system(make_delta_prime(beta=1.0, n=3)), L=1.0)
    np.testing.assert_allclose(
        eigenvalues_compact(sys_, 3, lam_min=-1e308), eigenvalues_compact(sys_, 3), rtol=1e-13
    )
    high = eigenvalues_compact(sys_, 3, lam_min=8.9e307)
    assert np.all(np.isfinite(high)) and np.all(high > 8.9e307)
    with pytest.raises(ScanRangeError) as info:
        eigenvalues_compact(sys_, 3, lam_min=1e308)
    assert info.value.window == (1e308, 1e308)


# -- the eigenvalue count: multiplicities, Dirichlet levels, depth ----------

def _levels(values):
    """(lambda, multiplicity) groups of a sorted eigenvalue list."""
    groups = []
    for lam in values:
        if groups and abs(lam - groups[-1][0]) <= 1e-9 * max(1.0, abs(lam)):
            groups[-1][1] += 1
        else:
            groups.append([lam, 1])
    return groups


@pytest.mark.parametrize(
    "make, d, count, floor, pattern",
    [
        (make_delta_prime, 2.0**-10, 5, True, [2, 1, 2]),
        (make_delta_prime, 2.0**-11, 5, True, [2, 1, 2]),
        (make_delta_prime, 2.0**-12, 5, True, [2, 1, 2]),
        (make_complex_t, 2.0**-9, 5, True, [1, 1, 1, 1, 1]),
        (make_complex_t, 2.0**-10, 5, True, [1, 1, 1, 1, 1]),
        # The well level at d = 2^-4: a singlet and a doublet 1.4e-3 apart.
        (make_delta_prime, 2.0**-4, 3, False, [1, 2]),
    ],
)
def test_small_d_multiplicities_match_singular_value_oracle(make, d, count, floor, pattern):
    """At each level of multiplicity m the per-point matching matrix (the
    decaying basis below zero) has exactly m relative singular values at
    roundoff, and the next one well clear of it."""
    st = make()
    sys_ = _approx(st, d)
    got = eigenvalues_compact(sys_, count, lam_min=eigengap_floor(st) if floor else None)
    ref = ReferenceAssembler(sys_)
    levels = _levels(got)
    assert [mult for _, mult in levels] == pattern
    for lam, mult in levels:
        sv = np.linalg.svd(ref.assembled(lam, scan_basis=lam < 0)[0], compute_uv=False)
        rel = sv[::-1] / sv[0]
        assert rel[mult - 1] <= 1e-11 and rel[mult] >= 1e-9, (lam, rel[: mult + 1])


def test_small_d_levels_above_the_floor():
    delta_prime = make_delta_prime(beta=1.0, n=3)
    got = eigenvalues_compact(
        _approx(delta_prime, 2.0**-10), 5, lam_min=eigengap_floor(delta_prime)
    )
    np.testing.assert_allclose(
        got, [2.4641930364] * 2 + [6.0275653923] + [22.1777373717] * 2, rtol=1e-10
    )
    complex_t = make_complex_t()
    got = eigenvalues_compact(_approx(complex_t, 2.0**-9), 5, lam_min=eigengap_floor(complex_t))
    np.testing.assert_allclose(
        got, [1.8578605465, 3.1132188312, 9.8579319130, 21.3674715936, 22.6882184564],
        rtol=1e-10,
    )


def test_levels_on_edge_dirichlet_values():
    """pi^2 is a Dirichlet level of every unit edge here, where one edge
    term of the count diverges; bordering it keeps these levels exact."""
    pi2 = math.pi**2
    np.testing.assert_allclose(eigenvalues_compact(ring(), 3)[1:], [pi2, pi2], rtol=1e-10)
    np.testing.assert_allclose(
        eigenvalues_compact(interval(1.0, "N", "N"), 2)[1], pi2, rtol=1e-10
    )
    delta_star = truncate(star_system(make_delta(alpha=1.0, n=3)), L=1.0)
    np.testing.assert_allclose(eigenvalues_compact(delta_star, 3)[1:], [pi2, pi2], rtol=1e-10)


def test_count_raises_no_floating_point_warnings_deep_below():
    sys_ = _approx(make_delta_prime(beta=1.0, n=3), 2.0**-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eigenvalues_compact(sys_, 4)
        assert _counts(_Reduction(sys_), [-(2.0**40)]) == [0]
    assert got[3] == pytest.approx(2.4641930364, rel=1e-10)


# -- Green's functions ------------------------------------------------------

def test_interval_greens_function_closed_form():
    ell, z = 1.3, -2.3
    kappa = math.sqrt(-z)
    g = greens_function(interval(ell), z)

    def oracle(x, y):
        lo, hi = min(x, y), max(x, y)
        return (
            math.sinh(kappa * lo)
            * math.sinh(kappa * (ell - hi))
            / (kappa * math.sinh(kappa * ell))
        )

    pts = [0.1, 0.4, 0.65, 1.0, 1.25]
    for x in pts:
        for y in pts:
            assert g(("e", x), ("e", y)) == pytest.approx(oracle(x, y), rel=1e-10)


def test_interval_greens_function_above_threshold():
    ell, z = 1.0, math.pi**2 + 0.5
    k = math.sqrt(z)
    g = greens_function(interval(ell), z)

    def oracle(x, y):
        lo, hi = min(x, y), max(x, y)
        return math.sin(k * lo) * math.sin(k * (ell - hi)) / (k * math.sin(k * ell))

    for x, y in [(0.3, 0.7), (0.2, 0.2), (0.9, 0.1)]:
        assert complex(g(("e", x), ("e", y))) == pytest.approx(oracle(x, y), rel=1e-9)


def test_half_line_neumann_greens_function():
    st = named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=1, alpha=0.0))
    g = greens_function(star_system(st), -1.0)

    def oracle(x, y):
        return 0.5 * (math.exp(-abs(x - y)) + math.exp(-(x + y)))

    for x, y in [(0.2, 1.5), (0.8, 0.8), (3.0, 0.1)]:
        assert complex(g((1, x), (1, y))) == pytest.approx(oracle(x, y), rel=1e-10)


def test_greens_function_adjoint_symmetry():
    """G_z(x, y) = conj(G_zbar(y, x)) on a magnetic graph at complex z."""
    sys_ = truncate(system_from_approx(build_approx_graph(make_complex_t(), 0.2)), L=1.0)
    z = -1.0 + 0.5j
    g = greens_function(sys_, z)
    g_bar = greens_function(sys_, z.conjugate())
    pts = [(1, 0.3), (2, 0.8), ("inner-1-2", 0.05), ("inner-3-1", 0.15)]
    for x in pts:
        for y in pts:
            assert complex(g(x, y)) == pytest.approx(
                complex(g_bar(y, x)).conjugate(), rel=1e-9, abs=1e-12
            )


def test_greens_function_kernel_matrix_consistent():
    g = greens_function(interval(1.0), -1.0)
    pts = [("e", 0.2), ("e", 0.5), ("e", 0.9)]
    mat = g.kernel_matrix(pts)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert mat[i, j] == pytest.approx(complex(g(x, y)), rel=1e-12)


def test_greens_function_rejects_bad_points_and_z(st_delta):
    g = greens_function(interval(1.0), -1.0)
    with pytest.raises(InputError):
        g(("nope", 0.5), ("e", 0.5))
    with pytest.raises(InputError):
        g(("e", 1.5), ("e", 0.5))
    with pytest.raises(InputError):
        greens_function(star_system(st_delta), 1.0)  # z on [0, inf), open system
    with pytest.raises(NearSingularZError):
        greens_function(interval(1.0), math.pi**2)


def lead_with_stub() -> MetricGraphSystem:
    """A half-line "h" and a unit edge "e" joined by a Kirchhoff vertex,
    Dirichlet at the far end of "e"."""
    return MetricGraphSystem(
        edges=(Edge(id="e", length=1.0), Edge(id="h", length=math.inf)),
        vertices=(
            Vertex(id="o", condition=DeltaCondition(0.0), ends=(("e", 0), ("h", 0))),
            Vertex(id="d", condition=dirichlet_condition(), ends=(("e", 1),)),
        ),
    )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "z, point",
    [
        (NAN, None),
        (INF, None),
        (complex(-1.0, NAN), None),
        (complex(-INF, 0.0), None),
        (-1.0, ("e", NAN)),
        (-1.0, ("h", NAN)),
        (-1.0, ("h", INF)),
    ],
)
def test_greens_function_rejects_non_finite_input(z, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="must be finite"):
            g = greens_function(lead_with_stub(), z)
            g(point, ("e", 0.5))


def test_reductions_take_no_normal_form(monkeypatch):
    """A coupling's normal form is made with its condition, so reducing a
    truncated delta' star (its center and its Dirichlet ends) and a
    truncated approximating graph normalizes nothing; the star keeps the
    m free values of its center."""
    st = make_delta_prime(beta=1.0, n=3)
    star = truncate(star_system(st), L=1.0)
    approx = _approx(st, 0.25)
    calls = []
    original = couplings.st_from_ab

    def counting(coupling):
        calls.append(coupling)
        return original(coupling)

    monkeypatch.setattr(couplings, "st_from_ab", counting)
    monkeypatch.setattr(graphs, "st_from_ab", counting)
    assert _Reduction(star).size == st.m
    assert _Reduction(approx).size == st.n
    assert calls == []
    assert not hasattr(solver, "st_from_ab")


def _wide_approx_graphs() -> list[MetricGraphSystem]:
    """Approximating graphs of delta' at n = 16 and of a random dense normal
    form at n = 12 (m = 6)."""
    return [
        _approx(make_delta_prime(beta=1.3, n=16), 2.0**-5),
        _approx(random_st(np.random.default_rng(12), n=12, m=6), 0.1),
    ]


def _midpoints(system: MetricGraphSystem) -> list:
    return [v.id for v in system.vertices if str(v.id).startswith("mid-")]


@pytest.mark.parametrize(
    "system, eliminated",
    [
        (ring(0.3, -0.1), ["u"]),
        (_approx(make_delta(alpha=1.0, n=3), 0.25), ["mid-1-2", "mid-1-3", "mid-2-3"]),
        (truncate(star_system(make_delta_prime(beta=2.0, n=4)), L=1.0), []),
        (interval(1.0), []),
        (truncate(star_system(random_st(np.random.default_rng(3), n=5, m=3)), L=1.0), []),
        *((system, _midpoints(system)) for system in _wide_approx_graphs()),
    ],
    ids=["delta-ring", "delta-approx", "delta-prime", "dirichlet", "dense",
         "delta-prime-approx-16", "dense-approx-12"],
)
def test_reduction_vertex_blocks_match_block_diag(system, eliminated):
    """The reduced matrix's vertex part is scipy's block_diag of the kept
    vertices' blocks, in dtype and bytes; the eliminated midpoints (on the
    ring, the first of its two degree-2 vertices, which claims both edges)
    keep their strengths, in vertex order."""
    blocks = []
    mids = [v.condition.w for v in system.vertices if v.id in eliminated]
    for vertex in system.vertices:
        if vertex.id in eliminated:
            continue
        cond = vertex.condition
        if isinstance(cond, DeltaCondition):
            blocks.append(np.array([[cond.w]]))
        else:
            blocks.append(st_from_ab(cond.coupling).S)
    expected = block_diag(*blocks)
    red = _Reduction(system)
    # A system's reduction is a stack of one graph.
    (s_mat,) = red.s_mat
    assert s_mat.dtype == expected.dtype and s_mat.shape == expected.shape
    assert s_mat.tobytes() == expected.tobytes()
    assert red.mid_w.tolist() == [mids]


def test_lu_calls_go_through_the_rebindable_solver_names(monkeypatch):
    """Scattering and the resolvent solve through solver.np.linalg.solve,
    the name a tracer wraps, so wrapping it sees every factorization."""
    calls = []
    original = solver.np.linalg.solve

    def spy(*args, **kwargs):
        calls.append("solve")
        return original(*args, **kwargs)

    linalg = ModuleView(solver.np.linalg, solve=spy)
    monkeypatch.setattr(solver, "np", ModuleView(solver.np, linalg=linalg))
    star = star_system(make_delta(alpha=1.0, n=3))
    truncated = truncate(star, L=1.0)
    scattering_matrix(star, 1.0)
    # One gated solve and one refinement step.
    assert calls == ["solve", "solve"]
    calls.clear()
    greens_function(truncated, -1.0)
    assert calls == ["solve"]


def test_edges_too_short_for_the_reduced_matrix_are_rejected():
    """An edge whose coefficient 2/l overflows raises InputError, not an
    overflow warning in the count."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="overflow the reduced matrix"):
            eigenvalues_compact(interval(1e-308, "N", "N"), 1)


@pytest.mark.parametrize("z", [-1024.0, -(2.0**20), -(2.0**40)])
def test_interval_kernel_deep_below_the_spectrum(z):
    """The Dirichlet interval kernel against its exponentially scaled closed
    form, exp(-kappa (hi - lo)) (1 - e^{-2 kappa lo}) (1 - e^{-2 kappa (l -
    hi)}) / (2 kappa (1 - e^{-2 kappa l})), with no overflow on the way."""
    ell, kappa = 1.3, math.sqrt(-z)
    pts = [0.0, 0.1, 0.4, 0.65, 0.65 + 1e-4, 1.0, 1.25, ell]

    def oracle(x, y):
        lo, hi = min(x, y), max(x, y)
        return (
            math.exp(-kappa * (hi - lo)) * math.expm1(-2.0 * kappa * lo)
            * math.expm1(-2.0 * kappa * (ell - hi)) / (-2.0 * kappa * math.expm1(-2.0 * kappa * ell))
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = greens_function(interval(ell), z).kernel_matrix([("e", x) for x in pts])
    expected = np.array([[oracle(x, y) for y in pts] for x in pts])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15 * np.abs(expected).max())


def test_delta_prime_star_resolvent_deep_below_the_spectrum():
    """The truncated delta'-s star at z = -1024, far below its lowest level
    2.4674, against the closed form: on edge i, delta_i1 G_0(s, s') + c_i
    sinh(kappa (L - s)) / sinh(kappa L), with G_0 the Dirichlet kernel of
    [0, L] and c fixed by f'(0) = (1/beta) sum_j f_j(0)."""
    n, beta, ell, z, s_src = 3, 1.0, 1.0, -1024.0, 0.3
    kappa = math.sqrt(-z)
    g = greens_function(truncate(star_system(make_delta_prime(beta=beta, n=n)), L=ell), z)
    coth = 1.0 / math.tanh(kappa * ell)
    slope = math.sinh(kappa * (ell - s_src)) / math.sinh(kappa * ell)
    sigma = slope / (kappa * coth + n / beta)

    def oracle(edge, s):
        c = ((edge == 1) * slope - sigma / beta) / (kappa * coth)
        value = c * math.sinh(kappa * (ell - s)) / math.sinh(kappa * ell)
        if edge == 1:
            lo, hi = min(s, s_src), max(s, s_src)
            value += math.sinh(kappa * lo) * math.sinh(kappa * (ell - hi)) / (
                kappa * math.sinh(kappa * ell)
            )
        return value

    points = [(edge, s) for edge in (1, 2, 3) for s in (0.0, 0.05, 0.3, 0.7)]
    got = g.kernel_matrix(points, [(1, s_src)])[:, 0]
    expected = np.array([oracle(*p) for p in points])
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


# -- scattering -------------------------------------------------------------

def test_scattering_matrix_agrees_with_algebraic_form():
    st = make_complex_t()
    sys_ = star_system(st)
    c = ab_from_st(st)
    for k in (0.5, 2.0):
        np.testing.assert_allclose(
            scattering_matrix(sys_, k), star_scattering(c, k), atol=1e-10
        )


def test_scattering_kirchhoff_and_dirichlet():
    kir2 = star_system(named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=2)))
    np.testing.assert_allclose(
        scattering_matrix(kir2, 1.0), [[0, 1], [1, 0]], atol=1e-12
    )
    diri = star_system(make_dirichlet(n=3))
    np.testing.assert_allclose(scattering_matrix(diri, 0.8), -np.eye(3), atol=1e-12)


def test_effective_scattering_unitary():
    g = build_approx_graph(make_complex_t(), 0.1)
    s = effective_scattering(g, 1.0)
    assert s.shape == (3, 3)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_wide_delta_prime_scattering_is_unitary_at_small_d(k):
    g = build_approx_graph(make_delta_prime(beta=1.0, n=24), 2.0**-10)
    s = effective_scattering(g, k)
    assert np.linalg.norm(s.conj().T @ s - np.eye(24), 2) <= 1e-13


SCATTERING_SYSTEMS = {
    "open_star": lambda: star_system(make_complex_t()),
    "delta_prime_d2": lambda: system_from_approx(
        build_approx_graph(make_delta_prime(beta=1.0, n=3), 2.0**-2)),
    "delta_prime_d10": lambda: system_from_approx(
        build_approx_graph(make_delta_prime(beta=1.0, n=3), 2.0**-10)),
    "complex_t": lambda: system_from_approx(build_approx_graph(make_complex_t(), 0.2)),
    "dense_n8": lambda: system_from_approx(
        random_built_graph(np.random.default_rng(8), 0.1, n=8, m=4)[1]),
}


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", sorted(SCATTERING_SYSTEMS))
def test_scattering_matches_per_point_reference(name, k):
    """The reduced solve against the per-point matching matrix."""
    sys_ = SCATTERING_SYSTEMS[name]()
    np.testing.assert_allclose(
        scattering_matrix(sys_, k), reference_scattering_matrix(sys_, k), rtol=0, atol=1e-10
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st_.integers(0, 2**32 - 1),
    d=st_.floats(min_value=0.05, max_value=0.3),
    k=st_.floats(min_value=0.1, max_value=5.0),
)
# Condition ~5e4: the unrefined solve was off unitary by 1.12e-12 here.
@example(seed=170, d=0.05, k=0.1)
def test_scattering_of_random_graphs_is_unitary(seed, d, k):
    _, g = random_built_graph(np.random.default_rng(seed), d)
    try:
        s = effective_scattering(g, k)
    except ResonantKError:
        return
    assert np.linalg.norm(s.conj().T @ s - np.eye(len(s)), 2) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st_.integers(0, 2**32 - 1), k=st_.floats(min_value=0.1, max_value=5.0))
def test_random_star_scattering_matches_algebraic_form(seed, k):
    st = random_st(np.random.default_rng(seed))
    try:
        expected = star_scattering(ab_from_st(st), k)
    except ConditioningError:
        return
    np.testing.assert_allclose(scattering_matrix(star_system(st), k), expected, rtol=0, atol=1e-10)


def test_scattering_rejects_bad_momentum_and_compact_systems():
    kir2 = star_system(named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=2)))
    with pytest.raises(InputError):
        scattering_matrix(kir2, 0.0)
    with pytest.raises(StructuralError):
        scattering_matrix(interval(1.0), 1.0)


def loop_with_leads() -> MetricGraphSystem:
    """Two half-lines and a loop of length 2 pi at one Kirchhoff vertex.
    At integer k the loop carries sin(ks), which vanishes at the vertex and
    has opposite inward derivatives there: a bound state embedded in the
    continuum, so the matching system is singular."""
    return MetricGraphSystem(
        edges=(
            Edge(id="in", length=math.inf),
            Edge(id="out", length=math.inf),
            Edge(id="loop", length=2.0 * math.pi),
        ),
        vertices=(
            Vertex(
                id="o",
                condition=DeltaCondition(0.0),
                ends=(("in", 0), ("out", 0), ("loop", 0), ("loop", 1)),
            ),
        ),
    )


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_scattering_gate_fires_on_embedded_eigenvalue(k):
    with pytest.raises(ResonantKError, match="condition estimate") as info:
        scattering_matrix(loop_with_leads(), k)
    assert info.value.k == k


@pytest.mark.parametrize("k", [1.000001, 1.1])
def test_scattering_next_to_embedded_eigenvalue_is_unitary(k):
    s = scattering_matrix(loop_with_leads(), k)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-12)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _gate_matrices() -> dict[str, np.ndarray]:
    """Matrices across the gate's range: random ones, graded ones (rows and
    columns scaled over 4 and 12 decades), ones with singular values from 1
    down to sigma_min, exactly singular, NaN and empty ones, one whose
    condition overflows, and the reduced matrices of the loop with leads at
    its embedded eigenvalues."""
    rng = np.random.default_rng(23)
    cases = {}
    for n in (1, 3, 8, 24):
        cases[f"random-{n}"] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for n, e in ((4, 2), (12, 6)):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases[f"graded-{n}"] = np.logspace(e, -e, n)[:, np.newaxis] * mat * np.logspace(-e, e, n)
    for e in (2, 6, 10, 11, 12, 13, 14):
        sigma = np.logspace(0, -e, 8)
        cases[f"sigma-min-1e-{e}"] = _unitary(rng, 8) @ (sigma[:, np.newaxis] * _unitary(rng, 8).conj().T)
    cases["singular-ones"] = np.ones((3, 3), dtype=complex)
    cases["singular-zero-row"] = np.diag([1.0, 0.0, 2.0]).astype(complex)
    cases["nan"] = np.diag([1.0, math.nan, 1.0]).astype(complex)
    # ||A||_1 ||A^-1||_1 = 1e10 * 1e300 overflows.
    cases["overflowing-condition"] = np.diag([1e10, 1e-300]).astype(complex)
    cases["empty"] = np.zeros((0, 0), dtype=complex)
    for k in (1.0, 2.0):
        cases[f"loop-with-leads-k{k:g}"] = _one_point(_Reduction(loop_with_leads()), k).mat[0]
    return cases


def _one_point(red: _Reduction, k: float):
    """The bordered matrix and its layout at one momentum k > 0 of a
    one-graph reduction, as a stacked evaluation of one point sees it."""
    (pts,) = red.points(np.array([k]), 0, np.array([k * k]))
    return pts


_GATE_MATRICES = _gate_matrices()


@pytest.mark.parametrize("name", list(_GATE_MATRICES))
def test_gate_is_the_exact_condition_never_below_lapacks_estimate(name):
    """The gate fires exactly where max(||A||_1, 1) ||A^-1||_1 exceeds 1e12,
    and reports that condition.  It is never below zgecon's estimate, which
    the gate used before (Hager's lower bound on ||A^-1||_1), so the gate
    fires wherever the estimate's did; on these matrices the two verdicts
    agree.  Both are computed in floating point, from different solves, so
    the comparison allows 1e-12 relative (they differ by at most 1.4e-14
    on random matrices up to 24 wide)."""
    mat = _GATE_MATRICES[name]
    n = len(mat)
    estimate = zgecon_condition(mat)[0] if n else 0.0
    try:
        with np.errstate(over="ignore"):
            exact = max(np.linalg.norm(mat, 1), 1.0) * np.linalg.norm(np.linalg.inv(mat), 1) if n else 0.0
    except np.linalg.LinAlgError:
        exact = math.inf
    exact = math.inf if math.isnan(exact) else exact
    rhs = np.ones((n, 2), dtype=complex)
    (x,), (cond,) = gated_solve(mat[np.newaxis], rhs[np.newaxis])
    err = gate_error(cond, ResonantKError, "gate", k=1.0)
    if err is not None:
        reported = float(re.fullmatch(r"gate \(condition estimate (\S+)\)", str(err)).group(1))
        assert reported == float(f"{exact:.2e}")
        fired = True
    else:
        np.testing.assert_array_equal(x, np.linalg.solve(mat, rhs))
        fired = False
    assert exact >= estimate * (1.0 - 1e-12)
    assert fired == (exact > 1e12)
    assert fired == (estimate > 1e12)


def test_gated_solve_of_a_stack_gives_each_matrix_its_own_result():
    """The gate matrices of each width, stacked, get the solutions and
    conditions each has alone; a singular matrix among them sends its stack
    to one solve per matrix."""
    widths: dict[int, list] = {}
    for mat in _GATE_MATRICES.values():
        widths.setdefault(len(mat), []).append(mat)
    assert any(len(mats) > 1 for mats in widths.values())
    for n, mats in widths.items():
        rhs = np.ones((len(mats), n, 2), dtype=complex)
        sol, cond = gated_solve(np.array(mats), rhs)
        for i, mat in enumerate(mats):
            (x,), (alone,) = gated_solve(mat[np.newaxis], rhs[i : i + 1])
            assert cond[i] == alone
            if alone <= 1e12:
                np.testing.assert_array_equal(sol[i], x)


def _dense_ab_star() -> MetricGraphSystem:
    """The star of a random normal form at n = 8 (m = 4), given as a dense
    (A, B) pair: rows mixed by a random matrix, columns permuted."""
    rng = np.random.default_rng(8)
    ab = ab_from_st(random_st(rng, n=8, m=4))
    mix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cols = rng.permutation(8)
    return star_system(VertexCoupling(n=8, A=(mix @ ab.A)[:, cols], B=(mix @ ab.B)[:, cols]))


def _solver_outputs(system: MetricGraphSystem) -> list[np.ndarray]:
    """S(k) at three momenta and the kernel of the system truncated at
    L = 1 at a real and a complex z, on two points of every edge."""
    truncated = truncate(system, L=1.0)
    points = [(e.id, f * e.length) for e in truncated.edges for f in (0.25, 0.7)]
    return [scattering_matrix(system, k) for k in (0.5, 1.0, 2.0)] + [
        greens_function(truncated, z).kernel_matrix(points) for z in (-1.0, 1.0 + 1.0j)
    ]


@pytest.mark.parametrize(
    "system",
    [
        star_system(make_delta_prime(beta=1.3, n=3)),
        *(system_from_approx(build_approx_graph(make_delta_prime(beta=1.3, n=n), d))
          for n, d in ((3, 2.0**-2), (3, 2.0**-7), (16, 2.0**-5), (24, 2.0**-4))),
        star_system(make_complex_t()),
        *(system_from_approx(build_approx_graph(make_complex_t(), d)) for d in (2.0**-2, 2.0**-7)),
        _dense_ab_star(),
    ],
    ids=["delta-prime-3-star", "delta-prime-3", "delta-prime-3-small-d", "delta-prime-16",
         "delta-prime-24", "complex-t-star", "complex-t", "complex-t-small-d", "dense-ab-star"],
)
def test_solves_have_the_bits_of_scipys_lu(monkeypatch, system):
    """S(k) and the resolvent kernel equal, bit for bit, what the solves
    through scipy's lu_factor and lu_solve gave."""
    got = _solver_outputs(system)
    use_scipy_lu(monkeypatch)
    for new, old in zip(got, _solver_outputs(system), strict=True):
        np.testing.assert_array_equal(new, old)


@settings(max_examples=40, deadline=None)
@given(
    seed=st_.integers(0, 2**32 - 1),
    d=st_.floats(min_value=0.05, max_value=0.3),
    k=st_.floats(min_value=0.1, max_value=5.0),
)
@example(seed=170, d=0.05, k=0.1)
def test_scattering_of_random_graphs_has_the_bits_of_scipys_lu(seed, d, k):
    """The graphs of test_scattering_of_random_graphs_is_unitary: S(k) as
    the solves through scipy's LU gave it, and the same verdict of the gate.
    With one channel every solve has one right-hand side, and there the
    OpenBLAS builds in scipy's and numpy's wheels can round differently (by
    up to 2 ulps in a few percent of cases), so a one-channel S is compared
    to 4 ulps."""
    _, g = random_built_graph(np.random.default_rng(seed), d)
    outcomes = []
    for path in ("numpy", "scipy"):
        with pytest.MonkeyPatch.context() as mp:
            if path == "scipy":
                use_scipy_lu(mp)
            try:
                outcomes.append(effective_scattering(g, k))
            except ResonantKError:
                outcomes.append(None)
    new, old = outcomes
    if new is None or old is None:
        assert new is None and old is None
    elif len(new) == 1:
        np.testing.assert_allclose(new, old, rtol=4 * np.finfo(float).eps, atol=0)
    else:
        np.testing.assert_array_equal(new, old)


def test_metric_scattering_retries_a_resonant_momentum(monkeypatch):
    """The gate's ResonantKError at k = 1 sends the scattering metric to
    k (1 + 1e-6), where the solve succeeds."""
    import qgraph.convergence as convergence

    tried = []
    original = _Reduction.scattering
    loop = _Reduction(loop_with_leads())

    def loop_scattering(self, k, g):
        tried.extend(k.tolist())
        return original(loop, k, 0)

    monkeypatch.setattr(_Reduction, "scattering", loop_scattering)
    monkeypatch.setattr(convergence, "star_scattering", lambda c, k: np.eye(2))
    metric = convergence.ScatteringNorm((1.0,))
    report = convergence.run_sweep(
        convergence.SweepConfig(st=make_delta(alpha=1.0, n=3), metric=metric, d_values=(0.1,))
    )
    assert report.skipped == ()
    ((_, value),) = report.values
    assert tried == [1.0, 1.0 * (1.0 + 1.0e-6)]
    expected = scattering_matrix(loop_with_leads(), 1.0 * (1.0 + 1.0e-6)) - np.eye(2)
    assert value == np.linalg.norm(expected, 2)


def test_one_scattering_solver_serves_every_momentum():
    """The per-graph solver that a scattering sweep builds once per d gives,
    at each momentum, the bits of a fresh scattering_matrix call."""
    sys_ = system_from_approx(build_approx_graph(make_delta_prime(beta=1.0, n=3), 2.0**-5))
    scatter = _Reduction(sys_)
    for k in (0.5, 1.0, 2.0, 1.0 * (1.0 + 1.0e-6), 0.5):
        (s,) = scatter.scattering(np.array([k]), 0)
        assert s.tobytes() == scattering_matrix(sys_, k).tobytes()


# -- batched evaluation against the one-point reference ---------------------

def _general_vertex_star() -> MetricGraphSystem:
    """Three unit edges joined by a dense (A, B) vertex condition, Dirichlet
    and Neumann far ends, with a magnetic potential on one edge."""
    coupling = ab_from_st(make_complex_t())
    edges = tuple(Edge(id=j, length=1.0, a=0.3 * (j == 2)) for j in (1, 2, 3))
    far = [dirichlet_condition(), DeltaCondition(0.0), dirichlet_condition()]
    return MetricGraphSystem(
        edges=edges,
        vertices=(
            Vertex(id="o", condition=CouplingCondition(coupling),
                   ends=tuple((j, 0) for j in (1, 2, 3))),
            *(Vertex(id=("end", j), condition=far[j - 1], ends=((j, 1),)) for j in (1, 2, 3)),
        ),
    )


ORACLE_SYSTEMS = {
    "delta_prime_d2": lambda: _approx(make_delta_prime(beta=1.0, n=3), 2.0**-2),
    "delta_prime_d10": lambda: _approx(make_delta_prime(beta=1.0, n=3), 2.0**-10),
    "complex_t": lambda: _approx(make_complex_t(), 0.2),
    "open_star": lambda: star_system(make_complex_t()),
    "general_vertex": _general_vertex_star,
}


def _dirichlet_level(sys_) -> float:
    """An edge Dirichlet level (pi m / l_e)^2 that the count shows is not an
    eigenvalue of the compact system."""
    count = _Reduction(sys_)
    for ell in np.unique(count.length):
        for m in (1, 2, 3):
            lam = (math.pi * m / ell) ** 2
            if _counts(count, [lam * (1.0 - 1e-9)]) == _counts(count, [lam * (1.0 + 1e-9)]):
                return lam
    raise AssertionError("every tried Dirichlet level is an eigenvalue")


@pytest.mark.parametrize(
    "name, z",
    [
        (name, z)
        for name in sorted(ORACLE_SYSTEMS)
        for z in [-1.0, -1.0 + 0.5j]
        + ([] if name == "open_star" else [30.0, "dirichlet_level", "near_dirichlet_level"])
    ],
)
def test_kernel_matrix_matches_per_source_reference(name, z):
    """The reduced solve against the per-source matching-matrix reference.
    At d = 2^-10 the matching matrix has condition ~1e7, so roundoff-level
    differences show at ~1e-13 in the kernel.  On an edge Dirichlet level,
    and next to it off the real axis, the reduced matrix borders that edge's
    diverging coefficient."""
    sys_ = ORACLE_SYSTEMS[name]()
    if z == "dirichlet_level":
        z = _dirichlet_level(sys_)
    elif z == "near_dirichlet_level":
        z = _dirichlet_level(sys_) + 1e-9j
    points = []
    for edge in sys_.edges:
        top = 2.0 if edge.is_half_line else edge.length
        points += [(edge.id, s) for s in (0.0, 0.37 * top, top)]
    # Interleave edges so per-edge grouping is exercised out of order.
    points = points[::2] + points[1::2]
    sources = points[::-1][:7]
    got = greens_function(sys_, z).kernel_matrix(points, sources)
    ref = reference_kernel_matrix(sys_, z, points, sources)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# -- the batched count and the level-synchronous bisection ------------------

COUNT_SYSTEMS = {
    "delta_prime_d2": (lambda: _approx(make_delta_prime(beta=1.0, n=3), 2.0**-2), True),
    "delta_prime_d10": (lambda: _approx(make_delta_prime(beta=1.0, n=3), 2.0**-10), True),
    "complex_t": (lambda: _approx(make_complex_t(), 2.0**-6), True),
    "general_vertex": (_general_vertex_star, False),
    # 4 wide once its 6 midpoints are eliminated: counted in subtree rounds.
    "delta_prime_n4": (lambda: _approx(make_delta_prime(beta=1.0, n=4), 2.0**-4), True),
    # 16 wide: the eigenvalue search counts one midpoint per bisected interval.
    "delta_prime_n16": (lambda: _approx(make_delta_prime(beta=1.0, n=16), 2.0**-4), True),
}


def _count_grid(count) -> list[float]:
    """Exact edge Dirichlet levels (pi m / l_e)^2, zero, both signs of the
    smallest magnitude, a deep negative point, a level count beyond 2^63,
    and a spread of ordinary points."""
    levels = [(math.pi * m / ell) ** 2 for ell in np.unique(count.length) for m in (1, 2, 3)]
    extremes = [0.0, 1e-300, -1e-300, -(2.0**40), 1e300]
    return levels + extremes + [-40.0, -1.0, 0.5, 2.4641930364, 7.0, 60.0]


@pytest.mark.parametrize("name", sorted(COUNT_SYSTEMS))
def test_batched_count_matches_one_point_reference(name):
    """One call over the whole grid and one point per call give the same
    integers, at Dirichlet levels included."""
    count = _Reduction(COUNT_SYSTEMS[name][0]())
    grid = _count_grid(count)
    got = _counts(count, grid)
    assert got == [_counts(count, [lam])[0] for lam in grid]
    # Shuffled and repeated points do not change any point's count.
    order = np.random.default_rng(0).permutation(2 * len(grid)) % len(grid)
    assert _counts(count, np.array(grid)[order]) == [got[i] for i in order]


# The count's own noise near a level: within this relative distance of a
# level of the unreduced count, two correct counts may differ (the float
# count is not monotone over up to ~4,000 ulps next to a level).
FLICKER_BAND = 1e-10


def _distance_to_oracle_level(unreduced, lam):
    """The distance from lam to a level of the unreduced count within
    FLICKER_BAND max(1, |lam|) of it, found by bisecting that count; None if
    it is constant over that band."""
    band = FLICKER_BAND * max(1.0, abs(lam))
    lo, hi = lam - band, lam + band
    n_lo, n_hi = reference_count(unreduced, lo), reference_count(unreduced, hi)
    if n_lo == n_hi:
        return None
    # Bisect towards the jump nearest lam: the half whose ends differ.
    n_mid = reference_count(unreduced, lam)
    a, b, n_a = (lo, lam, n_lo) if n_mid != n_lo else (lam, hi, n_mid)
    while b - a > 1e-3 * band:
        mid = 0.5 * (a + b)
        if reference_count(unreduced, mid) == n_a:
            a = mid
        else:
            b = mid
    return abs(0.5 * (a + b) - lam)


def _assert_count_matches_unreduced(count, unreduced, lams):
    """The count equals the unreduced count at every point, except inside
    the flicker band of one of the unreduced count's levels."""
    for lam, got in zip(lams, _counts(count, lams)):
        expected = reference_count(unreduced, lam)
        if got != expected:
            assert _distance_to_oracle_level(unreduced, lam) is not None, (lam, got, expected)


@pytest.mark.parametrize("name", sorted(COUNT_SYSTEMS))
def test_count_matches_unreduced_oracle(name):
    """Eliminating the midpoints moves no count outside the flicker band:
    at every grid point the count equals the count of the unreduced matrix
    (n + pairs wide), or the point lies within FLICKER_BAND of a level.  The
    exceptions are exact edge Dirichlet levels that are degenerate levels
    of the graph, and 1e300, where levels lie far closer than the band."""
    sys_ = COUNT_SYSTEMS[name][0]()
    count = _Reduction(sys_)
    _assert_count_matches_unreduced(count, UnreducedReduction(sys_), _count_grid(count))


@settings(max_examples=40, deadline=None)
@given(st_.lists(st_.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12))
def test_batched_count_matches_reference_at_random_points(lams):
    sys_ = _approx(make_delta_prime(beta=1.0, n=3), 2.0**-4)
    _assert_count_matches_unreduced(_Reduction(sys_), UnreducedReduction(sys_), lams)


def _levels(values) -> list[tuple[float, int]]:
    """The runs of bit-equal values, as (value, multiplicity)."""
    runs: list[tuple[float, int]] = []
    for lam in values.tolist():
        if runs and runs[-1][0] == lam:
            runs[-1] = (lam, runs[-1][1] + 1)
        else:
            runs.append((lam, 1))
    return runs


def _clusters(values) -> list[int]:
    """The multiplicities of the runs of values that lie within FLICKER_BAND
    max(1, |lam|) of the previous one."""
    sizes: list[int] = []
    for i, lam in enumerate(values.tolist()):
        if i and lam - values[i - 1] <= FLICKER_BAND * max(1.0, abs(lam)):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _assert_near_reference(got, ref):
    """The multiplicity pattern of the reference, and every value within
    FLICKER_BAND max(1, |lam|) of it.  The pattern is read at the count's
    own noise: a degenerate level that the count splits over a few leaf
    widths, which bisection then returns as several values, counts as one
    level (_assert_certified checks each returned value's own jump)."""
    assert _clusters(got) == _clusters(ref)
    assert np.all(np.abs(got - ref) <= FLICKER_BAND * np.maximum(1.0, np.abs(ref))), (got, ref)


def _assert_certified(sys_, values, lam_min=None, unreduced=True):
    """Each level of ``values``, a run of m equal values after n others,
    holds the count's whole jump: N(x - w) = N0 + n and N(x + w) = N0 + n +
    m, with N0 the count at ``lam_min`` (0 without a floor).  One-point
    counts give it at the leaf width, w = 1e-13 max(1, |x|), or, where the
    count flickers there, at FLICKER_BAND; with ``unreduced``, so does the
    unreduced count, which shares no reduction, at FLICKER_BAND.  The last
    run may be cut short by the requested count, so its jump may be
    larger."""
    count, full = _Reduction(sys_), UnreducedReduction(sys_)
    levels = _levels(values)

    def certified(count_at, n, band, i):
        x, m = levels[i]
        w = band * max(1.0, abs(x))
        below, above = count_at(x - w), count_at(x + w)
        return below == n and (above == n + m or i == len(levels) - 1 and above > n + m)

    def one_point(lam):
        return _counts(count, [lam])[0]

    def oracle(lam):
        return reference_count(full, lam)

    counters = [(one_point, (1e-13, FLICKER_BAND))] + [(oracle, (FLICKER_BAND,))] * unreduced
    for count_at, bands in counters:
        n = 0 if lam_min is None else count_at(lam_min)
        for i, (x, m) in enumerate(levels):
            assert any(certified(count_at, n, band, i) for band in bands), (x, m, count_at)
            n += m


@pytest.mark.parametrize("name", sorted(COUNT_SYSTEMS))
def test_level_synchronous_bisection_matches_depth_first_reference(name, monkeypatch):
    """Against the depth-first bisection of the same count, with and without
    a floor, in batched rounds and with one midpoint per interval: the same
    multiplicity pattern and every value within FLICKER_BAND, and every
    level certified by the count (_assert_certified).  delta' n = 16 (16
    wide) counts one midpoint per bisected interval either way."""
    make, has_floor = COUNT_SYSTEMS[name]
    sys_ = make()
    count = _Reduction(sys_)

    def count_below(lam):
        return _counts(count, [lam])[0]

    floors = [None] + ([-10.0 * 3.0**2] if has_floor else [])
    refs = [reference_eigenvalues(count_below, 6, lam_min=lam_min) for lam_min in floors]
    for points in (solver._ROUND_POINTS, 1):
        monkeypatch.setattr(solver, "_ROUND_POINTS", points)
        for lam_min, ref in zip(floors, refs):
            got = eigenvalues_compact(sys_, 6, lam_min=lam_min)
            _assert_near_reference(got, ref)
            _assert_certified(sys_, got, lam_min)


def _sigma_gap(sys_, lam, m):
    """The m smallest singular values of the per-point matching matrix at
    lam, and the next one, over the largest: ReferenceAssembler shares no
    reduction and no count with the solver."""
    mat = ReferenceAssembler(sys_).assembled(lam, scan_basis=lam < 0)[0]
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv[-m] / sv[0], sv[-m - 1] / sv[0]


@pytest.mark.parametrize("d", [2.0**-3, 2.0**-6])
def test_threefold_delta_prime_levels_match_the_sigma_gap(d):
    """delta' n = 4 has threefold levels (the S_4 symmetry of its inner
    edges): each comes out as three bit-equal values, and at each level the
    matching matrix has exactly the count's multiplicity of singular values
    at roundoff."""
    st = make_delta_prime(beta=1.0, n=4)
    sys_ = _approx(st, d)
    floor = eigengap_floor(st)
    got = eigenvalues_compact(sys_, 7, lam_min=floor)
    levels = _levels(got)
    assert [m for _, m in levels] == [3, 1, 3]
    for lam, m in levels:
        null, next_ = _sigma_gap(sys_, lam, m)
        assert null <= 1e-14 and next_ >= 1e-6, (lam, m, null, next_)
    _assert_certified(sys_, got, floor)


# -- midpoint elimination ---------------------------------------------------

def _well_with_neumann_ends(w: float) -> MetricGraphSystem:
    """Two unit edges joined by a delta of strength w, Neumann far ends: the
    joint is a midpoint, with pivot p = w + 2 kappa coth(kappa) below 0."""
    return MetricGraphSystem(
        edges=(Edge(id="l", length=1.0), Edge(id="r", length=1.0)),
        vertices=(
            Vertex(id="c", condition=DeltaCondition(w), ends=(("l", 0), ("r", 0))),
            Vertex(id="nl", condition=DeltaCondition(0.0), ends=(("l", 1),)),
            Vertex(id="nr", condition=DeltaCondition(0.0), ends=(("r", 1),)),
        ),
    )


def test_count_across_a_vanishing_midpoint_pivot():
    """With w = -3 the pivot crosses 0 at 2 kappa coth(kappa) = 3, lambda_p
    = -1.6585, where no edge is bordered.  Next to it the midpoint stays a
    row; further out it is eliminated, with p > 0 below and p < 0 above, so
    the Haynsworth term flips while the count does not.  The levels are the
    closed forms (the even levels 2 kappa tanh(kappa) = 3 and 2k tan(k) = -3,
    the odd ones ((m - 1/2) pi)^2), each checked to be a zero of the smallest
    singular value of the per-point matching matrix, which shares no
    reduction; lambda_p is not one."""
    sys_ = _well_with_neumann_ends(-3.0)
    kappa_p = brentq(lambda x: 2.0 * x / math.tanh(x) - 3.0, 0.5, 3.0)
    lam_p = -(kappa_p**2)
    levels = sorted(
        [-brentq(lambda x: 2.0 * x * math.tanh(x) - 3.0, 0.5, 3.0) ** 2]
        + [brentq(lambda k: 2.0 * k * math.tan(k) + 3.0, (m + 0.5) * math.pi + 1e-12,
                  (m + 1) * math.pi - 1e-12) ** 2 for m in range(2)]
        + [((m - 0.5) * math.pi) ** 2 for m in range(1, 4)]
    )
    ref = ReferenceAssembler(sys_)

    def sigma_gap(lam):
        sv = np.linalg.svd(ref.assembled(lam, scan_basis=lam < 0)[0], compute_uv=False)
        return sv[-1] / sv[0]

    assert max(sigma_gap(lam) for lam in levels) <= 1e-13
    assert sigma_gap(lam_p) >= 1e-2
    count = _Reduction(sys_)
    assert count.size == 2
    points = [lam_p * (1.0 - 1e-12), lam_p, lam_p * (1.0 + 1e-12), lam_p - 0.5, lam_p + 0.5]
    coef, b, _, _ = count.real_coefficients(np.array(points), 0)
    _, _, _, piv, keep = count.complement(coef, ~np.isnan(b), 0)
    assert keep[:3, 0].all() and not keep[3:, 0].any()
    assert piv[4, 0] < 0 < piv[3, 0]
    assert _counts(count, points) == [sum(level < lam for level in levels) for lam in points] == [1] * 5
    # The resolvent recovers the midpoint's value whether it is a row or
    # eliminated.
    grid = [(e, s) for e in ("l", "r") for s in (0.0, 0.3, 1.0)]
    for z in points[1:]:
        got = greens_function(sys_, z).kernel_matrix(grid)
        ref = reference_kernel_matrix(sys_, z, grid, grid)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


_ROW_FORMS = {
    "delta_prime_n3": lambda: make_delta_prime(beta=1.0, n=3),
    "delta_prime_n5": lambda: make_delta_prime(beta=0.6, n=5),
    "random_n5_m2": lambda: random_st(np.random.default_rng(11), n=5, m=2),
    "random_n8_m4": lambda: random_st(np.random.default_rng(12), n=8, m=4),
}


@pytest.mark.parametrize("truncated", [False, True], ids=["open", "truncated"])
@pytest.mark.parametrize("name", list(_ROW_FORMS))
def test_rows_at_real_coefficients_are_the_adjoint_columns(name, truncated):
    """At real coefficients (the count, S(k), a real z > 0) complement
    reads each midpoint's row as b_m*, a view of its column.  The summed row
    formula, which complex coefficients need, gives exactly the same
    entries there: at lambda < 0, and at lambda > 0 up to and across the
    border switches kl = pi (j + 1/2) of every edge, on two d, with
    midpoints both eliminated and kept."""
    kept = []
    for d in (2.0**-3, 2.0**-6):
        sys_ = system_from_approx(build_approx_graph(_ROW_FORMS[name](), d))
        red = _Reduction(truncate(sys_, L=1.0) if truncated else sys_)
        switches = ((math.pi * (np.arange(3)[:, np.newaxis] + 0.5)) / red.length[0]) ** 2
        lam = np.concatenate([
            -np.logspace(-2, 6, 9),
            np.logspace(-2, 5, 15),
            switches.ravel() * (1.0 - 1e-9),
            switches.ravel() * (1.0 + 1e-9),
        ])
        coef, b, _, _ = red.real_coefficients(lam, 0)
        _, col, rows, _, keep = red.complement(coef, ~np.isnan(b), 0)
        c_mid = np.take(coef, red.half_modes, axis=1)
        summed = (red.w_mid[0].conj() * c_mid[:, np.newaxis]).sum(axis=-1).transpose(0, 2, 1)
        assert np.isrealobj(coef) and np.abs(col).max() > 0.0
        assert np.array_equal(rows, summed)
        kept.append(keep.ravel())
    kept = np.concatenate(kept)
    assert kept.any() and not kept.all()


def test_midpoints_stay_rows_on_half_segment_dirichlet_levels():
    """At k = pi/d every half-segment sits on its Dirichlet level, so each
    midpoint stays a row next to its halves' border rows; S(k) and the
    resolvent there agree with the per-point matching matrix, which shares
    no reduction.  The delta coupling's inner edges form a path, not a
    cycle, so pi/d carries no embedded eigenvalue (a delta' graph's
    triangle of inner edges does)."""
    d, n = 2.0**-4, 3
    sys_ = system_from_approx(build_approx_graph(make_delta(alpha=1.0, n=n), d))
    k = math.pi / d
    scatter = _Reduction(sys_)
    pts = _one_point(scatter, k)
    pairs = scatter.mid_w.shape[1]
    assert pts.kept.shape == (1, pairs)
    assert pts.mat.shape[-1] == n + pairs + pts.border.shape[1] == n + 3 * pairs
    np.testing.assert_allclose(
        scattering_matrix(sys_, k), reference_scattering_matrix(sys_, k), rtol=0, atol=1e-10
    )
    # Cut at 0.9, so that k is no Dirichlet level of the truncated edges.
    sys_t = truncate(sys_, L=0.9)
    points = [(e.id, s * e.length) for e in sys_t.edges for s in (0.0, 0.37, 1.0)]
    for z in (k * k, k * k + 1e-9j):
        got = greens_function(sys_t, z).kernel_matrix(points, points[:7])
        ref = reference_kernel_matrix(sys_t, z, points, points[:7])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("d", [2.0**-4, 2.0**-10])
def test_wide_delta_prime_solves_match_per_point_references(d):
    """delta' n = 16 (120 midpoints, 16 wide) against the per-point matching
    matrix, 496 wide.  At d = 2^-10 that reference is itself off unitarity
    by ~1e-11, which bounds the agreement; the reduced S(k) is unitary to
    roundoff."""
    sys_ = system_from_approx(build_approx_graph(make_delta_prime(beta=1.0, n=16), d))
    for k in (0.5, 2.0):
        got = scattering_matrix(sys_, k)
        np.testing.assert_allclose(got, reference_scattering_matrix(sys_, k), rtol=0, atol=1e-10)
        assert np.linalg.norm(got.conj().T @ got - np.eye(16), 2) <= 1e-13
    sys_t = truncate(sys_, L=1.0)
    points = [(e.id, s * e.length) for e in sys_t.edges[::7] for s in (0.0, 0.37, 1.0)]
    for z in (-1.0, -1.0 + 0.5j, 30.0):
        got = greens_function(sys_t, z).kernel_matrix(points, points[::-1][:7])
        ref = reference_kernel_matrix(sys_t, z, points, points[::-1][:7])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("n", [3, 16, 24])
def test_approximating_graphs_reduce_to_n_wide(n):
    """Every midpoint is eliminated: the count and the scattering solver of
    a delta' approximating graph are exactly n wide, and so is the matrix a
    point factors unless the rule keeps a midpoint there."""
    g = build_approx_graph(make_delta_prime(beta=1.0, n=n), 2.0**-5)
    scatter = _Reduction(system_from_approx(g))
    count = _Reduction(truncate(system_from_approx(g), L=1.0))
    assert scatter.size == count.size == n
    assert scatter.mid_w.shape == count.mid_w.shape == (1, n * (n - 1) // 2)
    pts = _one_point(scatter, 1.0)
    assert pts.mat.shape == (1, n, n) and not pts.kept.size


def test_kept_rows_carry_the_unreduced_mode_vectors():
    """The mode vectors w_+- on the kept rows, built per end index, are
    those of the unreduced reduction, built one edge at a time, in bytes."""
    for sys_ in (
        _approx(make_complex_t(), 0.2),
        _general_vertex_star(),
        truncate(star_system(random_st(np.random.default_rng(3), n=5, m=3)), L=1.0),
        *_wide_approx_graphs(),
    ):
        red, full = _Reduction(sys_), UnreducedReduction(sys_)
        kept = [
            full.rows[v.ends[0]][0] + i
            for v in sys_.vertices
            if not str(v.id).startswith("mid-")
            for i in range(len(full.rows[v.ends[0]][1]))
        ]
        expected = full.w[:, kept].transpose(1, 0, 2).reshape(len(kept), -1)
        assert red.w.tobytes() == expected.tobytes()


# -- subtree rounds and chunked bracketing ----------------------------------

@pytest.mark.parametrize(
    "make, d, floor, calls",
    [
        (lambda: make_delta_prime(beta=1.0, n=3), 2.0**-10, False, 21),
        (make_complex_t, 2.0**-9, True, 13),
    ],
    ids=["delta_prime", "complex_t"],
)
def test_eigenvalue_search_call_count(make, d, floor, calls, monkeypatch):
    """The search makes few batched counts: 19 and 11 (22 and 24 in plain
    bisection's subtree rounds).  delta' at d = 2^-10 has a threefold level
    below -2e11 whose scaled branch reads +-1 up to the level, so it is
    finished in subtree rounds.  A round counts at most max(_ROUND_POINTS,
    2 stepped + bisected) points: the pair of each stepped level and one
    midpoint or more per bisected interval.  A count of 5 keeps at most 5
    intervals live, whose steps count at most 10 points, so no call here is
    wider than _ROUND_POINTS."""
    widths = []
    original = _Reduction.counts

    def counted(self, lams, graph=0):
        widths.append(len(lams))
        return original(self, lams, graph)

    monkeypatch.setattr(_Reduction, "counts", counted)
    st = make()
    eigenvalues_compact(_approx(st, d), 5, lam_min=eigengap_floor(st) if floor else None)
    assert len(widths) <= calls
    assert max(widths) <= solver._ROUND_POINTS


def test_given_ends_are_counted_with_the_first_upward_batch(monkeypatch):
    """lam_min takes no count call of its own: the first call counts it in
    front of the upward doubling's first point; the next calls count 2, 4,
    ... points."""
    calls = []
    original = _Reduction.counts

    def recorded(self, lams, graph=0):
        calls.append(list(lams))
        return original(self, lams, graph)

    monkeypatch.setattr(_Reduction, "counts", recorded)
    st = make_complex_t()
    sys_, floor = _approx(st, 2.0**-6), eigengap_floor(st)
    eigenvalues_compact(sys_, 5, lam_min=floor)
    first_up = max(1.0, 2.0 * floor)
    assert calls[0] == [floor, first_up]
    assert calls[1] == [2.0 * first_up, 4.0 * first_up]


def test_a_step_between_two_levels_keeps_both():
    """A count with levels at 0.9999 and 1.0001 whose two branches read
    +-1 alike, so both put their regula falsi root at the middle of [0, 2]:
    the pair there holds neither level, and the search keeps both sides."""
    levels = (0.9999, 1.0001)

    def counted(lams):
        counts = [sum(level < lam for level in levels) for lam in lams]
        signs = [np.where(lam > np.array(levels), -1.0, 1.0) for lam in lams]
        return counts, [solver._Branches(b"", 0, row) for row in signs]

    search = solver._search(solver._ROUND_POINTS, 2, 0.0, 1.0)
    with pytest.raises(StopIteration) as stop:
        lams = next(search)
        while True:
            lams = search.send(counted(lams))
    got = stop.value.value
    assert len(got) == 2
    assert np.all(np.abs(got - levels) <= 1e-13)


@pytest.mark.parametrize("ell", [1e6, 1e8])
def test_levels_below_one_stay_apart_on_a_long_truncation(ell):
    """On the delta' star truncated at L = 1e6 or 1e8 the three lowest
    levels are (pi / 2L)^2 twice and (pi / L)^2, all far below 1: the leaf
    width scales with (pi / L)^2, not with 1, so the search resolves them
    (with a leaf width of 1e-13 they merged into one level near 2.8e-14 at
    L = 1e8)."""
    sys_ = truncate(star_system(make_delta_prime(beta=1.0, n=3)), L=ell)
    got = eigenvalues_compact(sys_, 3)
    expected = [(math.pi / (2.0 * ell)) ** 2] * 2 + [(math.pi / ell) ** 2]
    np.testing.assert_allclose(got, expected, rtol=1e-6, atol=0)


def test_leaf_floor_is_one_unless_an_edge_is_longer_than_pi():
    """The leaf floor is min(1, (pi / l)^2) for the longest edge l, and the
    smallest normal float where that underflows."""
    star = star_system(make_delta_prime(beta=1.0, n=3))
    for ell, floor in ((1.0, 1.0), (math.pi, 1.0), (1e3, (math.pi / 1e3) ** 2),
                       (1e300, np.finfo(float).tiny)):
        assert solver._leaf_floor(_Reduction(truncate(star, L=ell))) == floor


@settings(max_examples=40, deadline=None)
@given(
    st_.floats(min_value=1e-20, max_value=1e4),
    st_.booleans(),
    st_.integers(min_value=0, max_value=40),
)
def test_chunked_bracket_matches_one_point_doubling(magnitude, negative, target):
    """The chunked bracket stops at the same lambda with the same count as
    doubling one point at a time: going down until N <= target, going up
    until N >= target.  From 1e-20 that takes up to about 80 doublings, so
    several chunks."""
    count = _Reduction(_approx(make_delta_prime(beta=1.0, n=3), 2.0**-4))
    lam = -magnitude if negative else magnitude

    def done(n):
        return n <= target if negative else n >= target

    ref = lam
    while not done(n_ref := _counts(count, [ref])[0]):
        ref *= 2.0
    def ask(lams):
        return (yield lams)

    chunk = solver._doubling(lam, solver._ROUND_POINTS)
    search = solver._bracket(chunk, _counts(count, chunk), done, 0.0, solver._ROUND_POINTS, ask)
    counts = None
    with pytest.raises(StopIteration) as stop:
        while True:
            counts = _counts(count, search.send(counts))
    assert stop.value.value == (ref, n_ref)


@settings(max_examples=12, deadline=None)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.sampled_from([2.0**-j for j in range(2, 11)]),
)
def test_eigenvalues_of_random_normal_forms_match_depth_first_reference(seed, d):
    """Random n = 3 couplings reach level clusters the fixed systems may
    miss; the search keeps the depth-first bisection's multiplicity pattern
    and values within FLICKER_BAND, and one-point counts certify every
    level.  The unreduced count is left out here: at d = 2^-10 it places a
    level up to ~1e-9 away from the reduced count (seed 570458), which
    loses the vertex strengths to roundoff next to the 1/d edge terms."""
    st, g = random_built_graph(np.random.default_rng(seed), d, n=3)
    sys_ = truncate(system_from_approx(g), L=1.0)
    count = _Reduction(sys_)
    floor = eigengap_floor(st)
    got = eigenvalues_compact(sys_, 6, lam_min=floor)
    ref = reference_eigenvalues(lambda lam: _counts(count, [lam])[0], 6, lam_min=floor)
    _assert_near_reference(got, ref)
    _assert_certified(sys_, got, floor, unreduced=False)


# -- lockstep searches -------------------------------------------------------

LOCKSTEP_FAMILIES = {
    "delta": (make_delta, 4),
    "delta_prime_s": (make_delta_prime, 4),
    "kirchhoff_perturbed": (make_kirchhoff_perturbed, 4),
    "complex_t": (make_complex_t, 4),
    "random_n3_m2": (lambda: random_st(np.random.default_rng(7), n=3, m=2), 4),
    # 8 wide, wider than _ROUND_SIZE: one point per graph per round.
    "delta_prime_n8": (lambda: make_delta_prime(beta=1.0, n=8), 2),
}


def _solo_references(systems, count, lam_min):
    """reference_eigenvalues of every system alone, over one-point counts."""
    refs = []
    for sys_ in systems:
        one = _Reduction(sys_)
        refs.append(reference_eigenvalues(lambda lam: _counts(one, [lam])[0], count, lam_min=lam_min))
    return refs


@pytest.mark.parametrize("floor", [False, True], ids=["no_floor", "floor"])
@pytest.mark.parametrize("name", list(LOCKSTEP_FAMILIES))
def test_lockstep_search_matches_each_graph_alone(name, floor, monkeypatch):
    """The approximating graphs of one ST form over the default grid,
    searched in lockstep, return for every graph the bytes of its search
    alone, and values near the depth-first bisection of that graph.  Up to
    _ROUND_SIZE wide one stacked count call serves every graph of a round;
    delta' n = 8 counts one midpoint per bisected interval, each graph in
    its own calls."""
    make, count = LOCKSTEP_FAMILIES[name]
    st = make()
    systems = [_approx(st, d) for d in DEFAULT_D_VALUES]
    lam_min = eigengap_floor(st) if floor else None
    graphs_per_call = []
    original = _Reduction.counts

    def recorded(self, lams, graph=0):
        graphs_per_call.append(len(set(np.atleast_1d(graph).tolist())))
        return original(self, lams, graph)

    monkeypatch.setattr(_Reduction, "counts", recorded)
    got = solver._eigenvalues_lockstep(systems, count, lam_min)
    stacked = _Reduction(systems[0]).size <= solver._ROUND_SIZE
    assert graphs_per_call[0] == (len(systems) if stacked else 1)
    monkeypatch.undo()
    refs = _solo_references(systems, count, lam_min)
    for sys_, values, ref in zip(systems, got, refs):
        assert values.tobytes() == eigenvalues_compact(sys_, count, lam_min=lam_min).tobytes()
        _assert_near_reference(values, ref)


def test_lockstep_search_isolates_failing_systems():
    """A system that is not compact, one whose edges overflow the reduced
    matrix, and one whose count never reaches the target (a Dirichlet
    interval too short for a level below the float range) each get their
    own error, as eigenvalues_compact raises it alone; the others get their
    solo bytes."""
    st = make_delta_prime()
    good = [_approx(st, d) for d in (2.0**-2, 2.0**-6)]
    bad = [star_system(st), interval(1e-308, "N", "N"), interval(1e-155)]
    systems = [good[0], *bad, good[1]]
    got = solver._eigenvalues_lockstep(systems, 3, -90.0)
    for sys_, result in zip(systems, got):
        if sys_ in bad:
            with pytest.raises(type(result)) as alone:
                eigenvalues_compact(sys_, 3, lam_min=-90.0)
            assert str(alone.value) == str(result)
        else:
            assert result.tobytes() == eigenvalues_compact(sys_, 3, lam_min=-90.0).tobytes()
    assert [type(r) for r in got[1:4]] == [StructuralError, InputError, ScanRangeError]


def test_lockstep_search_keeps_the_modes_of_each_graph():
    """Two truncated stars of one shape whose T differ: their mode vectors
    w on the kept rows differ, which a stack holds one copy of, so the
    reductions must not stack; each gets the bytes of its own search."""
    systems = [
        truncate(star_system(random_st(np.random.default_rng(seed), n=3, m=2)), L=1.0)
        for seed in (1, 2)
    ]
    shapes = [_Reduction(sys_).shape for sys_ in systems]
    # Only w tells the two apart.
    assert shapes[0][:-1] == shapes[1][:-1] and shapes[0][-1] != shapes[1][-1]
    got = solver._eigenvalues_lockstep(systems, 4)
    for sys_, values in zip(systems, got):
        assert values.tobytes() == eigenvalues_compact(sys_, 4).tobytes()


def _pivot_zero(w: float) -> float:
    """lambda_p, where the midpoint pivot of _well_with_neumann_ends(w)
    vanishes: w + 2 kappa coth(kappa) = 0 below 0 (for w < -2), and w + 2k
    cot(k) = 0 below the first edge Dirichlet level pi^2 above 0."""
    if w < -2.0:
        return -brentq(lambda x: 2.0 * x / math.tanh(x) + w, 1e-3, 50.0) ** 2
    return brentq(lambda k: 2.0 * k / math.tan(k) + w, 1e-3, math.pi - 1e-12) ** 2


def _bordered_at(count, lams, g):
    """The bordered count matrices at ``lams`` on the graphs ``g``, for
    points above 0 that all keep the same midpoints and border the same
    edges."""
    coef, b, minus, _ = count.real_coefficients(lams, g)
    mat, col, rows, piv, keep = count.complement(coef, ~np.isnan(b), g)
    return count.bordered(mat, np.sqrt(np.sqrt(lams)), b, minus, col, rows, piv, keep, g)


def test_stacked_count_matches_one_graph_counts():
    """A count call over points of several graphs equals, point for point,
    each graph's own count at that point.  Far above the halves' first
    Dirichlet level every edge is bordered and every midpoint kept, and the
    bordered matrices are each graph's own; the graphs' midpoint entries wm
    differ there in phase, which the counts do not see.  On delta wells of
    four strengths, at every point on every graph, next to each pivot zero
    and above the first edge Dirichlet level: there most points keep the
    midpoint as a row next to the border rows of its halves, and the rest
    border nothing."""
    st = make_complex_t()
    systems = [_approx(st, d) for d in (2.0**-2, 2.0**-5, 2.0**-9)]
    counts = [_Reduction(sys_) for sys_ in systems]
    stacked = _Reduction.stack(counts)
    rng = np.random.default_rng(5)
    lams = np.concatenate([[-(2.0**40), -1.0, 0.0, 1e-300, 7.0, 1e300], rng.uniform(-200, 5e4, 60)])
    graph = rng.integers(0, len(systems), len(lams))
    got = _counts(stacked, lams, graph)
    assert got == [_counts(counts[g], [lam])[0] for lam, g in zip(lams, graph)]
    far = rng.uniform(1e6, 1e7, 12)
    graph = rng.integers(0, len(systems), len(far))
    got = _bordered_at(stacked, far, graph)
    alone = np.concatenate([_bordered_at(counts[g], far[[i]], 0) for i, g in enumerate(graph)])
    assert got.shape == alone.shape == (len(far), 3 + 3 + 9, 3 + 3 + 9)
    np.testing.assert_allclose(got, alone, rtol=0, atol=1e-12 * np.abs(alone).max())

    strengths = (-3.0, -2.5, 1.0, 40.0)
    counts = [_Reduction(_well_with_neumann_ends(w)) for w in strengths]
    stacked = _Reduction.stack(counts)
    offsets = (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)
    near = [_pivot_zero(w) * (1.0 + e) for w in strengths for e in offsets]
    points = np.concatenate([near, rng.uniform(math.pi**2, 400.0, 40)])
    order = rng.permutation(len(points) * len(strengths))
    lams, graph = points[order % len(points)], order // len(points)
    coef, b, _, _ = stacked.real_coefficients(lams, graph)
    _, _, _, _, keep = stacked.complement(coef, ~np.isnan(b), graph)
    both = keep.any(axis=1) & (~np.isnan(b)).any(axis=1)
    assert len(lams) // 2 < np.count_nonzero(both) < len(lams)
    got = _counts(stacked, lams, graph)
    assert got == [_counts(counts[g], [lam])[0] for lam, g in zip(lams, graph)]
