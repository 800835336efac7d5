"""Builder: schedules, neighbor sets, graph assembly, singular half-lengths."""

import cmath
import warnings

import numpy as np
import pytest

from qgraph import (
    DegenerateArgumentError,
    InputError,
    Order,
    QGraphError,
    ScatteringNorm,
    SingularDError,
    STForm,
    SweepConfig,
    ab_from_st,
    bracket,
    build_approx_graph,
    c_eta_edge,
    delta_eps,
    effective_scattering,
    inner_delta_schedule,
    magnetic_schedule,
    neighbor_sets,
    order_check,
    star_scattering,
    vertex_delta_schedule,
)
import qgraph.builder as builder
from qgraph.builder import ApproxGraph, _zero_scale
from qgraph.serialize import approx_from_json, approx_to_json, dumps
from helpers import (
    loglog_slope,
    make_complex_t,
    make_delta,
    make_delta_prime,
    make_dirichlet,
    make_singular_at_tenth,
    random_st,
    reference_neighbor_sets,
)


# -- the signed modulus -----------------------------------------------------

def test_bracket_on_reals_is_identity():
    assert bracket(2.0) == 2.0
    assert bracket(-3.0) == -3.0
    assert bracket(0.0) == 0.0


def test_bracket_on_complex_values():
    assert bracket(1 + 1j) == pytest.approx(np.sqrt(2.0))
    assert bracket(-1 + 1j) == pytest.approx(-np.sqrt(2.0))
    # purely imaginary: Re = 0 counts as the nonnegative branch
    assert bracket(1j) == pytest.approx(1.0)


def test_bracket_rejects_nonfinite():
    with pytest.raises(InputError):
        bracket(complex("inf"))


# -- neighbor sets ----------------------------------------------------------

def test_neighbor_sets_delta():
    nbrs = neighbor_sets(make_delta(alpha=1.0, n=4))
    assert nbrs.sets[1] == frozenset({2, 3, 4})
    for k in (2, 3, 4):
        assert nbrs.sets[k] == frozenset({1})
    assert nbrs.pairs() == [(1, 2), (1, 3), (1, 4)]


def test_neighbor_sets_delta_prime_is_complete():
    nbrs = neighbor_sets(make_delta_prime(beta=1.0, n=4))
    for j in range(1, 5):
        assert nbrs.sets[j] == frozenset(range(1, 5)) - {j}
    assert len(nbrs.pairs()) == 6


def test_neighbor_sets_complex_t(st_complex_t):
    nbrs = neighbor_sets(st_complex_t)
    assert nbrs.pairs() == [(1, 2), (1, 3), (2, 3)]


def test_neighbor_sets_dirichlet_empty():
    nbrs = neighbor_sets(make_dirichlet(n=3))
    assert nbrs.pairs() == []


# -- closed-form schedules --------------------------------------------------

@pytest.mark.parametrize("beta", [-1.0, 1.0, 2.0])
@pytest.mark.parametrize("d", [0.1, 0.05])
def test_delta_prime_schedules_closed_form(beta, d):
    n = 3
    st = make_delta_prime(beta=beta, n=n)
    g = build_approx_graph(st, d)
    w_inner_expected = -beta / d**2 - 2.0 / d
    w_vertex_expected = (2.0 - n) / beta - (n - 1.0) / d
    for pair in g.neighbors.pairs():
        assert g.w_inner[pair] == pytest.approx(w_inner_expected, rel=1e-12)
        assert g.a_inner[pair] == 0.0
    for j in range(1, n + 1):
        assert g.w_vertex[j] == pytest.approx(w_vertex_expected, rel=1e-12)


def test_delta_cross_pair_strength():
    """For unit T entries the cross-pair strength is (-2 + 1/<T>)/d = -1/d."""
    st = make_delta(alpha=1.0, n=3)
    for d in (0.1, 0.02):
        assert inner_delta_schedule(st, d, 1, 2) == pytest.approx(-1.0 / d, rel=1e-12)
        assert inner_delta_schedule(st, d, 1, 3) == pytest.approx(-1.0 / d, rel=1e-12)


def test_dirichlet_vertex_strength_is_one_over_d():
    st = make_dirichlet(n=3)
    g = build_approx_graph(st, 0.25)
    assert g.neighbors.pairs() == []
    for j in range(1, 4):
        assert g.w_vertex[j] == pytest.approx(4.0, rel=1e-12)


def test_vertex_schedule_rejects_out_of_range_index():
    st = make_delta(alpha=1.0, n=3)
    with pytest.raises(Exception):
        vertex_delta_schedule(st, neighbor_sets(st), 0.1, 5)


# -- magnetic schedule ------------------------------------------------------

def test_magnetic_schedule_antisymmetric(st_complex_t):
    d = 0.1
    for j, k in neighbor_sets(st_complex_t).pairs():
        assert magnetic_schedule(st_complex_t, d, k, j) == pytest.approx(
            -magnetic_schedule(st_complex_t, d, j, k)
        )


def test_magnetic_schedule_cross_pair_phase(st_complex_t):
    """A cross pair accumulates exactly the phase of its T entry over 2d."""
    d = 0.1
    for j, entry in ((1, 0.8 + 0.6j), (2, 1.1 - 0.3j)):
        expected = cmath.phase(entry) / (2.0 * d)
        assert magnetic_schedule(st_complex_t, d, j, 3) == pytest.approx(expected)


def test_magnetic_schedule_real_arguments_vanish():
    st = make_delta_prime(beta=-1.0, n=3)
    # arguments d S_jk = -d are negative real: the -pi shift cancels the
    # principal value and the potential is exactly zero
    for j, k in neighbor_sets(st).pairs():
        assert magnetic_schedule(st, 0.1, j, k) == 0.0


def test_schedules_reject_unjoined_pairs():
    st = make_delta(alpha=1.0, n=3)
    with pytest.raises(InputError):
        inner_delta_schedule(st, 0.1, 2, 3)
    with pytest.raises(InputError):
        magnetic_schedule(st, 0.1, 2, 3)


# -- asymptotic order -------------------------------------------------------

def orthogonal_rows_st():
    """Inner pair coupled through S only: T rows orthogonal, S_12 nonzero."""
    from qgraph import STForm

    return STForm(
        n=4,
        m=2,
        perm=(1, 2, 3, 4),
        S=np.array([[0.0, 1.0], [1.0, 0.0]]),
        T=np.array([[1.0, 1.0], [1.0, -1.0]]),
    )


def overlapping_rows_st():
    from qgraph import STForm

    return STForm(
        n=4,
        m=2,
        perm=(1, 2, 3, 4),
        S=np.array([[0.0, 1.0], [1.0, 0.0]]),
        T=np.array([[1.0, 1.0], [1.0, 1.0]]),
    )


def test_order_check_classification():
    assert order_check(orthogonal_rows_st(), (1, 2)) is Order.D_INV_SQ
    assert order_check(overlapping_rows_st(), (1, 2)) is Order.D_INV
    # cross pairs never collect the extra power
    assert order_check(orthogonal_rows_st(), (1, 3)) is Order.D_INV
    assert order_check(make_delta(1.0, 3), (1, 2)) is Order.D_INV


def test_overflowing_row_overlap_raises_without_a_warning():
    """T rows whose overlap overflows: every per-pair function and the
    builder raise InputError, with every warning an error, instead of
    warning and (order_check) classifying an infinite overlap."""
    st = STForm(n=3, m=2, perm=(1, 2, 3), S=np.zeros((2, 2)), T=[[1e308], [1e308]])
    calls = [
        lambda: vertex_delta_schedule(st, neighbor_sets(st), 0.1, 1),
        lambda: inner_delta_schedule(st, 0.1, 1, 2),
        lambda: magnetic_schedule(st, 0.1, 1, 2),
        lambda: order_check(st, (1, 2)),
        lambda: build_approx_graph(st, 0.1),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InputError, match="overlap of T rows 1 and 2 overflows"):
                call()


def test_pair_term_that_overflows_names_the_strength_and_d():
    """At d = 5e-324 the overlap / d term of a vertex strength overflows:
    the schedule and the builder name the strength and d, not the bracket
    of an infinite argument."""
    st = make_complex_t()
    message = "a delta strength overflows at d=5e-324"
    with pytest.raises(InputError, match=message):
        vertex_delta_schedule(st, neighbor_sets(st), 5e-324, 1)
    with pytest.raises(InputError, match=message):
        build_approx_graph(st, 5e-324)


def test_order_law_empirical_slopes():
    ds = [2.0**-p for p in range(3, 9)]
    mags_sq = [abs(inner_delta_schedule(orthogonal_rows_st(), d, 1, 2)) for d in ds]
    mags_lin = [abs(inner_delta_schedule(overlapping_rows_st(), d, 1, 2)) for d in ds]
    assert loglog_slope(ds, mags_sq) == pytest.approx(-2.0, abs=0.1)
    assert loglog_slope(ds, mags_lin) == pytest.approx(-1.0, abs=0.1)


# -- assembly ---------------------------------------------------------------

def test_build_approx_graph_structure(st_complex_t):
    g = build_approx_graph(st_complex_t, 0.1)
    assert g.n == 3 and g.d == 0.1
    pairs = g.neighbors.pairs()
    assert set(g.w_inner) == set(pairs)
    for j, k in pairs:
        assert g.a_inner[(k, j)] == -g.a_inner[(j, k)]
    assert set(g.w_vertex) == {1, 2, 3}


def test_build_rejects_bad_half_length(st_delta):
    for d in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(InputError):
            build_approx_graph(st_delta, d)


@pytest.mark.parametrize("d", [0.0, -0.25, 1.5])
def test_every_half_length_entry_point_rejects_d_outside_unit_interval(st_delta, d):
    """Builder, sweep grid, graph documents and budget share one check."""
    doc = approx_to_json(build_approx_graph(st_delta, 0.5))
    calls = [
        lambda: build_approx_graph(st_delta, d),
        lambda: SweepConfig(st=st_delta, metric=ScatteringNorm(), d_values=(d,)),
        lambda: approx_from_json({**doc, "d": d}),
        lambda: c_eta_edge(1.0, d, 0.0, 0.0),
        lambda: delta_eps(1e-3, d, 0.0),
    ]
    for call in calls:
        with pytest.raises(InputError, match=r"half-length d must lie in \(0, 1\]"):
            call()


def test_singular_half_length_raises_with_pair():
    st = make_singular_at_tenth()
    with pytest.raises((SingularDError, DegenerateArgumentError)) as info:
        build_approx_graph(st, 0.1)
    assert info.value.pair == (1, 2)
    # a nearby non-cancelling d builds fine
    build_approx_graph(st, 0.09)


# -- the one-pass build against the per-entry and per-pair references -------

def _sparse_random_st(rng, n):
    """A random normal form with about half of the off-diagonal S entries
    (in Hermitian pairs) and half of the T entries set to zero."""
    st = random_st(rng, n=n, m=int(rng.integers(1, n + 1)))
    s_mat, t_mat = st.S.copy(), st.T.copy()
    drop = np.triu(rng.random(s_mat.shape) < 0.5, 1)
    s_mat[drop | drop.T] = 0.0
    t_mat[rng.random(t_mat.shape) < 0.5] = 0.0
    return STForm(n=st.n, m=st.m, perm=st.perm, S=s_mat, T=t_mat)


def _sparse_random_sts(count=40, seed=20261018):
    rng = np.random.default_rng(seed)
    return [_sparse_random_st(rng, int(rng.integers(2, 17))) for _ in range(count)]


def _graph_from_per_pair_schedules(st, d):
    """The approximating graph assembled from the per-entry and per-pair
    schedules, one value at a time, checked for an overflowing strength at
    the end; raises whatever those functions raise first."""
    nbrs = neighbor_sets(st)
    w_inner, a_inner = {}, {}
    with np.errstate(all="ignore"):
        w_vertex = {j: vertex_delta_schedule(st, nbrs, d, j) for j in range(1, st.n + 1)}
        for j, k in nbrs.pairs():
            w_inner[(j, k)] = inner_delta_schedule(st, d, j, k)
            a_inner[(j, k)] = magnetic_schedule(st, d, j, k)
            a_inner[(k, j)] = magnetic_schedule(st, d, k, j)
    if not all(map(np.isfinite, [*w_vertex.values(), *w_inner.values()])):
        raise InputError(f"a delta strength overflows at d={d}")
    return ApproxGraph(st.n, d, nbrs, w_vertex, w_inner, a_inner)


def _assert_build_matches_per_pair_schedules(st, d):
    """The built graph has the reference's bits, in repr (every key, in
    order, and every float exactly) and in its serialized document; where
    the reference raises, the build raises the same type, pair and
    message."""
    try:
        expected = _graph_from_per_pair_schedules(st, d)
    except QGraphError as exc:
        with pytest.raises(QGraphError) as info:
            build_approx_graph(st, d)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "pair", None) == getattr(exc, "pair", None)
        return type(exc)
    g = build_approx_graph(st, d)
    assert g.neighbors == reference_neighbor_sets(st, _zero_scale(st))
    assert repr(g) == repr(expected)
    assert dumps(g) == dumps(expected)
    return None


@pytest.mark.parametrize(
    "make, ds",
    [
        (lambda: make_delta_prime(beta=1.3, n=16), (0.25, 2.0**-7)),
        (lambda: make_delta_prime(beta=0.7, n=24), (0.25, 2.0**-7)),
        # One d: the reference takes 3 s per d here, on 2,016 pairs.
        (lambda: make_delta_prime(beta=1.9, n=64), (2.0**-7,)),
        (make_complex_t, (0.25, 2.0**-7)),
    ],
    ids=["delta_prime_16", "delta_prime_24", "delta_prime_64", "complex_t"],
)
def test_build_matches_per_pair_schedules(make, ds):
    for d in ds:
        assert _assert_build_matches_per_pair_schedules(make(), d) is None


def test_build_matches_per_pair_schedules_on_sparse_random_forms():
    overlap_only = cross = 0
    raised = set()
    for st in _sparse_random_sts():
        for d in (0.3, 0.01):
            raised.add(_assert_build_matches_per_pair_schedules(st, d))
        m = st.m
        for j, k in neighbor_sets(st).pairs():
            if k > m:
                cross += 1
            elif st.S[j - 1, k - 1] == 0:
                overlap_only += 1
    # Both the cross-pair rule and the T-column overlap rule on its own
    # decide some of the pairs compared above.
    assert overlap_only > 0 and cross > 0
    assert None in raised


def _signed_zero_sts(count=60, seed=20261019):
    """Small integer-valued normal forms whose zero real and imaginary parts
    carry either sign: the sign of a zero part of c decides between the
    phases +pi and -pi."""
    rng = np.random.default_rng(seed)

    def parts(shape, integers):
        x = rng.integers(-2, 3, size=shape).astype(float) if integers else np.zeros(shape)
        return np.where((x == 0) & (rng.random(shape) < 0.5), -0.0, x)

    sts = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        s_mat, t_mat = np.empty((m, m), dtype=complex), np.empty((m, n - m), dtype=complex)
        s_re = parts((m, m), True)
        s_mat.real, s_mat.imag = np.triu(s_re) + np.triu(s_re, 1).T, parts((m, m), False)
        t_mat.real, t_mat.imag = parts(t_mat.shape, True), parts(t_mat.shape, False)
        sts.append(STForm(n=n, m=m, perm=tuple(range(1, n + 1)), S=s_mat, T=t_mat))
    return sts


def test_build_matches_per_pair_schedules_with_signed_zero_parts():
    built = 0
    for st in _signed_zero_sts():
        for d in (1.0, 0.3, 0.01):
            built += _assert_build_matches_per_pair_schedules(st, d) is None
    assert built > 0


def _with_entries(st, s_mat=None, t_mat=None):
    return STForm(n=st.n, m=st.m, perm=st.perm,
                  S=st.S if s_mat is None else s_mat, T=st.T if t_mat is None else t_mat)


def test_build_errors_come_in_the_order_of_the_per_pair_schedules():
    """A form that fails in several places raises what the schedules raise
    first: a non-real S_jj and an overflowing strength (vertex schedules)
    before a singular pair, and of two singular pairs the first."""
    singular = make_singular_at_tenth()
    non_real = _with_entries(singular, s_mat=singular.S + np.diag([0.0, 1e-12j]))
    overflow = _with_entries(singular, t_mat=np.array([[1e308], [1e308]]))
    two_pairs = STForm(n=4, m=3, perm=(1, 2, 3, 4),
                       S=np.array([[0.0, -10.0, -10.0], [-10.0, 0.0, 0.0], [-10.0, 0.0, 0.0]]),
                       T=np.ones((3, 1)))
    # Pair (1, 2) cancels, and S_13 + overlap / d of vertex 1 overflows.
    strength = STForm(n=4, m=3, perm=(1, 2, 3, 4),
                      S=np.array([[0.0, -1e155, 0.0], [-1e155, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                      T=np.array([[1e154], [1.0], [1e154]]))
    cases = [(non_real, InputError, r"S_\{22\} must be real"),
             (overflow, InputError, "overlap of T rows 1 and 2 overflows"),
             (strength, InputError, "a delta strength overflows at d=0.1"),
             (two_pairs, SingularDError, r"pair \(1, 2\)"),
             (singular, SingularDError, r"pair \(1, 2\)")]
    for st, error, match in cases:
        assert _assert_build_matches_per_pair_schedules(st, 0.1) is error
        with pytest.raises(error, match=match):
            build_approx_graph(st, 0.1)


def test_imaginary_residue_within_tolerance_on_s_diagonal_builds():
    """An imaginary part of S_jj inside IMAG_TOL sends the build through the
    per-entry schedules, which raise nothing: the build returns the
    reference's graph."""
    singular = make_singular_at_tenth()
    st = _with_entries(singular, s_mat=singular.S + np.diag([1e-16j, 0.0]))
    for d in (0.25, 0.01):
        assert _assert_build_matches_per_pair_schedules(st, d) is None


def test_failing_build_replays_the_schedules_with_its_own_neighbor_sets(monkeypatch):
    """A failing build reruns the per-entry schedules with the neighbor sets
    and cutoff it computed, never through the public per-pair schedules,
    which recompute the sets for every pair."""
    singular = make_singular_at_tenth()
    cases = [
        _with_entries(singular, s_mat=singular.S + np.diag([0.0, 1e-12j])),
        _with_entries(singular, t_mat=np.array([[1e308], [1e308]])),
        singular,
    ]
    expected = []
    for st in cases:
        with pytest.raises(QGraphError) as info:
            build_approx_graph(st, 0.1)
        expected.append(info.value)

    def fail(*args, **kwargs):
        raise AssertionError("the replay recomputes what the build computed")

    for name in ("neighbor_sets", "magnetic_schedule", "inner_delta_schedule"):
        monkeypatch.setattr(builder, name, fail)
    for st, exc in zip(cases, expected):
        with pytest.raises(type(exc)) as info:
            build_approx_graph(st, 0.1)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "pair", None) == getattr(exc, "pair", None)


def test_wide_form_whose_last_pair_cancels_raises_for_that_pair():
    """n = 64, m = 63, T = ones: every pair quantity is 1 + d S_jk, and
    S_62,63 = -10 cancels it at d = 0.1 for the last inner pair only."""
    s_mat = np.zeros((63, 63))
    s_mat[61, 62] = s_mat[62, 61] = -10.0
    st = STForm(n=64, m=63, perm=tuple(range(1, 65)), S=s_mat, T=np.ones((63, 1)))
    with pytest.raises(SingularDError, match=r"pair \(62, 63\) undefined at d=0.1") as info:
        build_approx_graph(st, 0.1)
    assert info.value.pair == (62, 63)


def test_neighbor_sets_match_reference_with_entries_at_the_cutoff():
    """Entries just above and just below the zero cutoff, in S, in T, and in
    a T column shared by two rows."""
    cutoff = 1e-12 * 2.0
    lo, hi = 0.5 * cutoff, 1.5 * cutoff
    t_mat = np.array([[2.0, hi, 0.0], [lo, hi, 0.0], [0.0, 0.0, 0.0]])
    s_mat = np.array([[0.0, lo, hi], [lo, 0.0, 0.0], [hi, 0.0, 1.0]])
    st = STForm(n=6, m=3, perm=tuple(range(1, 7)), S=s_mat, T=t_mat)
    assert _zero_scale(st) == cutoff
    nbrs = neighbor_sets(st)
    assert nbrs == reference_neighbor_sets(st, cutoff)
    # (1, 2) only through the shared second column, (1, 3) only through S.
    assert nbrs.sets[1] == frozenset({2, 3, 4, 5})
    assert nbrs.sets[2] == frozenset({1, 5})
    assert nbrs.sets[3] == frozenset({1})


# -- behavioral check: the build approximates the coupling ------------------

def test_effective_scattering_converges_for_delta():
    st = make_delta(alpha=1.0, n=3)
    target = star_scattering(ab_from_st(st), 1.0)
    errors = []
    for d in (0.16, 0.08, 0.04, 0.02):
        s_eff = effective_scattering(build_approx_graph(st, d), 1.0)
        errors.append(np.linalg.norm(s_eff - target, 2))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.5 * errors[0]
