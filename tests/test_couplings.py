"""Couplings: ST normal form, validation, equivalence, star scattering."""

import math
import re

import numpy as np
import pytest

from qgraph import (
    ConditioningError,
    CouplingKind,
    InputError,
    NamedCoupling,
    STForm,
    StructuralError,
    VertexCoupling,
    ab_from_st,
    coupling_distance,
    named_to_st,
    st_from_ab,
    dumps,
    star_scattering,
    validate_coupling,
)
from helpers import make_complex_t, random_st, reference_st_from_ab


# -- named families ---------------------------------------------------------

def test_delta_st_parameters():
    st = named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=4, alpha=2.5))
    assert st.n == 4 and st.m == 1
    assert st.perm == (1, 2, 3, 4)
    np.testing.assert_allclose(st.S, [[2.5]])
    np.testing.assert_allclose(st.T, np.ones((1, 3)))


def test_kirchhoff_is_zero_strength_delta():
    kir = named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=3))
    delta0 = named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=3, alpha=0.0))
    assert coupling_distance(ab_from_st(kir), ab_from_st(delta0)) <= 1e-10


def test_dirichlet_st_is_empty():
    st = named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=3))
    assert st.m == 0 and st.S.shape == (0, 0) and st.T.shape == (0, 3)
    c = ab_from_st(st)
    # B = 0 and invertible A: the condition reduces to f(v) = 0
    assert np.all(c.B == 0)
    assert np.linalg.matrix_rank(c.A) == 3


def test_delta_matches_textbook_matrices():
    """Continuity rows plus the derivative-sum rule define the delta coupling."""
    n, alpha = 3, 1.7
    a_mat = np.zeros((n, n), dtype=complex)
    b_mat = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        a_mat[i, i] = 1.0
        a_mat[i, i + 1] = -1.0
    a_mat[n - 1, 0] = -alpha
    b_mat[n - 1, :] = 1.0
    textbook = VertexCoupling(n=n, A=a_mat, B=b_mat)
    assert validate_coupling(textbook).ok
    st = named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=n, alpha=alpha))
    assert coupling_distance(ab_from_st(st), textbook) <= 1e-10


def test_named_coupling_parameter_checks():
    with pytest.raises(InputError):
        NamedCoupling(kind=CouplingKind.DELTA, n=3)
    with pytest.raises(InputError):
        NamedCoupling(kind=CouplingKind.DELTA_PRIME_S, n=3, beta=0.0)


# -- validation -------------------------------------------------------------

def test_validate_accepts_reference_couplings(reference_couplings):
    for name, st in reference_couplings.items():
        result = validate_coupling(ab_from_st(st))
        assert result.ok, f"{name}: {result.violations}"


def test_validate_rejects_non_hermitian_ab_star():
    bad = VertexCoupling(n=2, A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.eye(2))
    result = validate_coupling(bad)
    assert not result.ok
    assert any("Hermitian" in v for v in result.violations)


def test_validate_rejects_rank_deficiency():
    bad = VertexCoupling(n=2, A=np.diag([1.0, 0.0]), B=np.zeros((2, 2)))
    result = validate_coupling(bad)
    assert not result.ok
    assert any("rank deficient" in v for v in result.violations)


BAD_DEGREES = ["3", None, True, False, 0, -1, 2.5, math.nan, math.inf]


@pytest.mark.parametrize("n", BAD_DEGREES)
def test_coupling_degree_must_be_a_positive_integer(n):
    """A raw and a named coupling check their degree by the one scalar
    rule, before anything compares or sizes with it."""
    message = re.escape(f"vertex degree n must be a positive integer, got {n!r}")
    with pytest.raises(InputError, match=message):
        VertexCoupling(n=n, A=np.eye(3), B=np.zeros((3, 3)))
    with pytest.raises(InputError, match=message):
        NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=n)


def test_integral_float_degree_is_stored_as_int():
    c = VertexCoupling(n=3.0, A=np.eye(3), B=np.zeros((3, 3)))
    assert type(c.n) is int and st_from_ab(c).n == 3
    named = NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=3.0)
    assert type(named.n) is int and named_to_st(named).n == 3


def test_st_form_rejects_non_hermitian_s():
    with pytest.raises(StructuralError):
        STForm(n=2, m=2, perm=(1, 2), S=np.array([[0.0, 1.0], [0.0, 0.0]]), T=np.zeros((2, 0)))


def test_st_form_rejects_bad_permutation():
    with pytest.raises(StructuralError):
        STForm(n=2, m=1, perm=(1, 1), S=np.zeros((1, 1)), T=np.zeros((1, 1)))


def _kirchhoff_st(**change) -> STForm:
    """A degree-3 Kirchhoff normal form with ``change`` applied to its fields."""
    fields = dict(n=3, m=1, perm=(1, 2, 3), S=np.zeros((1, 1)), T=np.ones((1, 2)))
    return STForm(**{**fields, **change})


@pytest.mark.parametrize("n", BAD_DEGREES)
def test_st_form_degree_goes_through_the_scalar_rule(n):
    message = re.escape(f"vertex degree n must be a positive integer, got {n!r}")
    with pytest.raises(InputError, match=message):
        _kirchhoff_st(n=n)


@pytest.mark.parametrize("m", ["1", None, True, -1, 0.5, math.nan, math.inf])
def test_st_form_m_is_an_integer_from_zero(m):
    message = re.escape(f"m must be an integer >= 0, got {m!r}")
    with pytest.raises(InputError, match=message):
        _kirchhoff_st(m=m)


@pytest.mark.parametrize("entry", [1.9, True, "1", None, 0, -1, math.nan])
def test_st_form_perm_entries_go_through_the_scalar_rule(entry):
    """A fractional, boolean or non-numeric entry is refused, not truncated
    or read as 1."""
    message = re.escape(f"perm entry must be a positive integer, got {entry!r}")
    with pytest.raises(InputError, match=message):
        _kirchhoff_st(perm=(entry, 2, 3))


def test_st_form_m_above_n_is_structural():
    with pytest.raises(StructuralError, match=re.escape("got m=4, n=3")):
        _kirchhoff_st(m=4)


def test_integral_float_st_fields_are_stored_as_ints():
    """n, m and perm are stored as ints, so the form serializes with
    integers and expands to an (A, B) pair."""
    st = _kirchhoff_st(n=3.0, m=1.0, perm=(1.0, np.int64(2), 3))
    assert type(st.n) is int and type(st.m) is int
    assert all(type(p) is int for p in st.perm) and st.perm == (1, 2, 3)
    assert '"m": 1,' in dumps(st)
    assert ab_from_st(st).n == 3


# -- normal form round trips ------------------------------------------------

def test_roundtrip_reference_couplings(reference_couplings):
    for name, st in reference_couplings.items():
        c = ab_from_st(st)
        st2 = st_from_ab(c)
        assert st2.m == st.m, name
        assert coupling_distance(ab_from_st(st2), c) <= 1e-10, name


def test_roundtrip_nontrivial_permutation():
    """A coupling whose B needs renumbering before its leading block inverts."""
    st = make_complex_t()
    c = ab_from_st(st)
    # move the rank-deficient direction of B to the front: new edge i is old
    # edge (3, 1, 2)[i - 1]
    cols = [2, 0, 1]
    shuffled = VertexCoupling(n=3, A=c.A[:, cols], B=c.B[:, cols])
    st2 = st_from_ab(shuffled)
    assert st2.m == st.m
    assert coupling_distance(ab_from_st(st2), shuffled) <= 1e-10


def test_roundtrip_random_small_sample():
    rng = np.random.default_rng(11)
    for _ in range(25):
        st = random_st(rng)
        c = ab_from_st(st)
        st2 = st_from_ab(c)
        assert st2.m == st.m
        assert coupling_distance(ab_from_st(st2), c) <= 1e-10


def test_st_from_ab_rejects_invalid():
    bad = VertexCoupling(n=2, A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.eye(2))
    with pytest.raises(InputError):
        st_from_ab(bad)


# -- equivalence and distance ----------------------------------------------

def test_ab_equiv_under_row_mixing():
    st = make_complex_t()
    c = ab_from_st(st)
    mix = np.array([[2.0, 1.0j, 0.0], [0.0, 1.0, -3.0], [1.0, 0.0, 1.0]])
    mixed = VertexCoupling(n=3, A=mix @ c.A, B=mix @ c.B)
    assert coupling_distance(c, mixed) <= 1e-12


def test_coupling_distance_separates_families():
    delta = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=3, alpha=1.0)))
    dirichlet = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=3)))
    assert coupling_distance(delta, dirichlet) > 0.5


def test_coupling_distance_degree_mismatch():
    c2 = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=2)))
    c3 = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=3)))
    with pytest.raises(StructuralError):
        coupling_distance(c2, c3)


# -- scattering -------------------------------------------------------------

def test_delta_scattering_closed_form():
    """S(k) for a delta coupling is 2/(n + i alpha/k) J - I entrywise."""
    n, alpha, k = 3, 1.0, 0.7
    c = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=n, alpha=alpha)))
    got = star_scattering(c, k)
    factor = 2.0 / (n + 1j * alpha / k)
    expected = factor * np.ones((n, n)) - np.eye(n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_kirchhoff_two_edges_is_full_transmission():
    c = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=2)))
    for k in (0.5, 1.0, 2.0):
        np.testing.assert_allclose(
            star_scattering(c, k), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12
        )


def test_dirichlet_scattering_is_minus_identity():
    c = ab_from_st(named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=3)))
    np.testing.assert_allclose(star_scattering(c, 1.3), -np.eye(3), atol=1e-12)


def test_star_scattering_unitary_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = ab_from_st(random_st(rng))
        s = star_scattering(c, float(rng.uniform(0.3, 3.0)))
        np.testing.assert_allclose(s.conj().T @ s, np.eye(c.n), atol=1e-10)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_star_scattering_gates_a_singular_a_plus_ikb(k):
    """A + ikB = 0 exactly fails the solver's gate, with condition inf."""
    c = VertexCoupling(1, [[1.0]], [[1j / k]])
    with pytest.raises(ConditioningError, match=r"\(condition estimate inf\)$"):
        star_scattering(c, k)


@pytest.mark.parametrize("seed", range(4))
def test_star_scattering_bits_are_a_plain_solve(seed):
    """The gated solve of [A - ikB | I] leaves S(k) bit-equal to a solve of
    A - ikB alone."""
    rng = np.random.default_rng(seed)
    for n in range(1, 17):
        c = ab_from_st(random_st(rng, n=n, m=int(rng.integers(0, n + 1))))
        for k in (0.5, 1.0, 2.0, 7.3):
            expected = -np.linalg.solve(c.A + 1j * k * c.B, c.A - 1j * k * c.B)
            assert star_scattering(c, k).tobytes() == expected.tobytes()


def test_star_scattering_of_a_coupling_scaled_down():
    """A pair scaled far below 1 is scaled up by a power of two before the
    gate, which floors ||A + ikB||_1 at 1: S(k) = diag(-1, i) comes out
    with the bits of a plain solve of the pair as given."""
    c = VertexCoupling(2, 1e-13 * np.eye(2), 1e-13 * np.diag([0.0, 1.0]))
    got = star_scattering(c, 1.0)
    np.testing.assert_allclose(got, np.diag([-1.0, 1j]), rtol=0, atol=1e-15)
    assert got.tobytes() == (-np.linalg.solve(c.A + 1j * c.B, c.A - 1j * c.B)).tobytes()


@pytest.mark.parametrize(
    "name", ["st_delta", "st_delta_prime", "st_kirchhoff_perturbed", "st_complex_t"]
)
def test_star_scattering_bits_of_the_acceptance_couplings(name, request):
    """The acceptance couplings' S(k) keep the bits of a plain solve."""
    c = ab_from_st(request.getfixturevalue(name))
    for k in (0.1, 0.5, 1.0, 2.0, 7.3):
        expected = -np.linalg.solve(c.A + 1j * k * c.B, c.A - 1j * k * c.B)
        assert star_scattering(c, k).tobytes() == expected.tobytes()


def test_star_scattering_rejects_bad_momentum(st_delta):
    c = ab_from_st(st_delta)
    with pytest.raises(InputError):
        star_scattering(c, 0.0)
    with pytest.raises(InputError):
        star_scattering(c, -1.0)


def test_permute_coupling_conjugates_scattering():
    st = make_complex_t()
    c = ab_from_st(st)
    perm = (3, 1, 2)
    cols = [p - 1 for p in perm]
    s_orig = star_scattering(c, 0.9)
    s_perm = star_scattering(VertexCoupling(n=3, A=c.A[:, cols], B=c.B[:, cols]), 0.9)
    np.testing.assert_allclose(s_perm, s_orig[np.ix_(cols, cols)], atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_st_from_ab_matches_null_space_oracle(seed):
    """The numpy completion of B_lead gives the normal form that
    scipy.linalg.null_space gives, on couplings whose rows are mixed by a
    random invertible matrix and whose edges are shuffled."""
    rng = np.random.default_rng(seed)
    c = ab_from_st(random_st(rng))
    mix = rng.standard_normal((c.n, c.n)) + 1j * rng.standard_normal((c.n, c.n))
    cols = rng.permutation(c.n)
    c = VertexCoupling(n=c.n, A=(mix @ c.A)[:, cols], B=(mix @ c.B)[:, cols])
    st = st_from_ab(c)
    s_ref, t_ref = reference_st_from_ab(c, st.m, st.perm)
    scale = max(1.0, np.abs(s_ref).max(initial=0.0), np.abs(t_ref).max(initial=0.0))
    assert np.abs(st.S - s_ref).max(initial=0.0) <= 1e-15 * scale
    assert np.abs(st.T - t_ref).max(initial=0.0) <= 1e-15 * scale
