"""Solver: eigenvalues, Green's functions, scattering, against closed forms."""

import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from qgraph import (
    CouplingKind,
    CouplingCondition,
    DeltaCondition,
    Edge,
    InputError,
    MetricGraphSystem,
    NamedCoupling,
    NearSingularZError,
    ScanRangeError,
    StructuralError,
    Vertex,
    ab_from_st,
    build_approx_graph,
    dirichlet_condition,
    effective_scattering,
    eigenvalues_compact,
    greens_function,
    named_to_st,
    scattering_matrix,
    secular_problem,
    star_scattering,
    star_system,
    system_from_approx,
    truncate,
)
from qgraph.solver import _Assembler
from helpers import (
    ReferenceAssembler,
    make_complex_t,
    make_delta_prime,
    make_dirichlet,
    reference_kernel_matrix,
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


# -- interval spectra (textbook) -------------------------------------------

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


def test_window_query_returns_partial_list():
    got = eigenvalues_compact(interval(1.0, "N", "N"), 10, lam_max=50.0)
    assert len(got) == 3
    np.testing.assert_allclose(got, [0.0, math.pi**2, 4 * math.pi**2], atol=1e-9)


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


# -- secular problem (diagnostic surface) -----------------------------------

def test_secular_problem_locates_interval_eigenvalue():
    grid = np.linspace(8.0, 11.0, 31)
    prob = secular_problem(interval(1.0), grid)
    pi2 = math.pi**2
    crossings = [
        (grid[i], grid[i + 1])
        for i in range(len(grid) - 1)
        if prob.r[i] * prob.r[i + 1] < 0
    ]
    assert any(lo <= pi2 <= hi for lo, hi in crossings)
    # smin dips right at the eigenvalue cell
    assert prob.smin[np.argmin(np.abs(grid - pi2))] < 1e-2


def test_secular_problem_rejects_degenerate_grid():
    with pytest.raises(InputError):
        secular_problem(interval(1.0), [1.0])


# -- eigenvalue interface errors --------------------------------------------

def test_eigenvalues_require_truncation_spec(st_delta):
    with pytest.raises(StructuralError):
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


def test_oversized_negative_scan_reports_window():
    st = make_delta_prime(beta=1.0, n=3)
    sys_ = truncate(system_from_approx(build_approx_graph(st, 0.001)), L=1.0)
    with pytest.raises(ScanRangeError) as info:
        eigenvalues_compact(sys_, 3)
    assert "lam_min" in str(info.value)
    assert info.value.window is not None


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


def test_scattering_rejects_bad_momentum_and_compact_systems():
    kir2 = star_system(named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=2)))
    with pytest.raises(InputError):
        scattering_matrix(kir2, 0.0)
    with pytest.raises(StructuralError):
        scattering_matrix(interval(1.0), 1.0)


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


def _approx(st, d):
    return truncate(system_from_approx(build_approx_graph(st, d)), L=1.0)


ORACLE_SYSTEMS = {
    "delta_prime_d2": lambda: _approx(make_delta_prime(beta=1.0, n=3), 2.0**-2),
    "delta_prime_d10": lambda: _approx(make_delta_prime(beta=1.0, n=3), 2.0**-10),
    "complex_t": lambda: _approx(make_complex_t(), 0.2),
    "open_star": lambda: star_system(make_complex_t()),
    "general_vertex": _general_vertex_star,
}
ORACLE_Z = [-50.0, -1.0, 0.0, 2.5, 30.0, -1.0 + 0.5j, 3.0 - 2.0j]
# Deep enough that every edge, the shortest inner ones included, switches
# to the decaying pair; the cos/sin reference overflows there.
DEEP_Z = [-5000.0, -(2.0**21)]


@pytest.mark.parametrize("scan_basis", [False, True])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_batched_assembly_matches_per_point_reference(name, scan_basis):
    sys_ = ORACLE_SYSTEMS[name]()
    zs = ORACLE_Z + (DEEP_Z if scan_basis else [])
    got = _Assembler(sys_).assembled(zs, scan_basis=scan_basis)
    ref = ReferenceAssembler(sys_)
    assert got.M.shape == (len(zs), ref.ncols, ref.ncols)
    for i, z in enumerate(zs):
        mat, row_scale, col_scale, k = ref.assembled(z, scan_basis)
        assert got.k[i] == pytest.approx(k, rel=1e-15)
        for batched, single in (
            (got.M[i], mat), (got.row_scale[i], row_scale), (got.col_scale[i], col_scale)
        ):
            assert np.all(np.abs(batched - single) <= 1e-14 * np.maximum(1.0, np.abs(single)))


def test_batched_assembly_raises_no_overflow_deep_in_the_scan():
    sys_ = ORACLE_SYSTEMS["delta_prime_d10"]()
    # Underflow of the decay factor e^{ikl} is harmless; overflow and NaN
    # from cos/sin of a decaying edge are not.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _Assembler(sys_).assembled([-(2.0**40), -(2.0**21), 0.0], scan_basis=True)
    assert np.all(np.isfinite(got.M))


@pytest.mark.parametrize("z", [-1.0, -1.0 + 0.5j])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_kernel_matrix_matches_per_source_reference(name, z):
    """Array traces and per-edge basis rows reproduce the per-source
    loops.  At d = 2^-10 the matching matrix has condition ~1e7, so
    roundoff-level differences in M show at ~1e-13 in the kernel."""
    sys_ = ORACLE_SYSTEMS[name]()
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
