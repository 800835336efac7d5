"""JSON round-trips, format validation, and dispatch sniffing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from qgraph import (
    ApproxGraph,
    CouplingKind,
    InputError,
    NamedCoupling,
    STForm,
    StructuralError,
    VertexCoupling,
    build_approx_graph,
    dumps,
    loads,
)
from qgraph.serialize import (
    complex_from_json,
    complex_to_json,
    coupling_from_json,
    matrix_from_json,
    named_from_json,
    st_from_json,
)
from helpers import make_delta_prime, make_dirichlet, random_st


# -- scalars and matrices ---------------------------------------------------

def test_complex_round_trip_is_exact():
    for value in (0.0, 1.5 - 2.25j, 1e-300 + 1e300j, -0.3333333333333333j):
        assert complex_from_json(complex_to_json(value)) == complex(value)


def test_complex_rejects_malformed():
    with pytest.raises(InputError):
        complex_from_json({"re": 1.0})
    with pytest.raises(InputError):
        complex_from_json({"re": 1.0, "im": 0.0, "abs": 1.0})
    with pytest.raises(InputError):
        complex_from_json([1.0, 0.0])
    with pytest.raises(InputError):
        complex_from_json({"re": True, "im": 0.0})
    with pytest.raises(InputError):
        complex_from_json({"re": "1", "im": 0.0})
    with pytest.raises(InputError):
        complex_from_json({"re": float("inf"), "im": 0.0})


def test_matrix_shape_enforced():
    with pytest.raises(InputError):
        matrix_from_json([[complex_to_json(1.0)]], "M", (2, 1))
    with pytest.raises(InputError):
        matrix_from_json([[complex_to_json(1.0), complex_to_json(2.0)]], "M", (1, 1))


# -- coupling documents -----------------------------------------------------

def test_coupling_round_trip():
    c = VertexCoupling(n=2, A=[[1.0, 0.5j], [-0.5j, 2.0]], B=[[0.0, 0.0], [0.0, 1.0]])
    again = loads(dumps(c))
    assert isinstance(again, VertexCoupling)
    assert again.n == 2
    assert np.array_equal(again.A, c.A)
    assert np.array_equal(again.B, c.B)


def test_coupling_document_validation():
    with pytest.raises(InputError):
        coupling_from_json({"n": 1, "A": [[complex_to_json(1.0)]]})  # missing B
    with pytest.raises(InputError):
        coupling_from_json(
            {"n": 0, "A": [], "B": []}
        )


# -- normal-form documents --------------------------------------------------

def test_st_round_trip_reference(reference_couplings):
    for st in reference_couplings.values():
        again = loads(dumps(st))
        assert isinstance(again, STForm)
        assert (again.n, again.m, again.perm) == (st.n, st.m, st.perm)
        assert np.array_equal(again.S, st.S)
        assert np.array_equal(again.T, st.T)


def test_st_round_trip_random_exact():
    rng = np.random.default_rng(17)
    for _ in range(100):
        st = random_st(rng)
        again = loads(dumps(st))
        assert (again.n, again.m, again.perm) == (st.n, st.m, st.perm)
        assert np.array_equal(again.S, st.S)
        assert np.array_equal(again.T, st.T)


def test_st_round_trip_degenerate_blocks():
    dirichlet = make_dirichlet(3)  # m = 0: empty S, (0, 3) T
    again = loads(dumps(dirichlet))
    assert again.m == 0 and again.S.shape == (0, 0) and again.T.shape == (0, 3)
    full = STForm(n=2, m=2, perm=(1, 2), S=[[1.0, 0.5], [0.5, -1.0]], T=np.zeros((2, 0)))
    again = loads(dumps(full))  # m = n: empty T
    assert again.m == 2 and again.T.shape == (2, 0)
    assert np.array_equal(again.S, full.S)


def test_st_document_validation():
    with pytest.raises(InputError):
        st_from_json({"st": {"m": 1, "perm": [], "S": [], "T": []}})
    with pytest.raises(InputError):
        st_from_json({"st": {"m": 2, "perm": [1], "S": [], "T": []}})
    with pytest.raises(InputError):
        st_from_json({"st": []})
    with pytest.raises(InputError):
        st_from_json({"st": {"m": 0, "perm": [1]}})  # missing S, T


# -- named documents --------------------------------------------------------

def test_named_documents_parse():
    c = named_from_json({"kind": "delta", "n": 3, "alpha": 1.5})
    assert c.kind is CouplingKind.DELTA and c.n == 3 and c.alpha == 1.5
    c = named_from_json({"kind": "delta_prime_s", "n": 4, "beta": -2.0})
    assert c.kind is CouplingKind.DELTA_PRIME_S and c.beta == -2.0
    assert named_from_json({"kind": "kirchhoff", "n": 2}).kind is CouplingKind.KIRCHHOFF
    assert named_from_json({"kind": "dirichlet", "n": 5}).kind is CouplingKind.DIRICHLET


def test_named_document_validation():
    with pytest.raises(InputError):
        named_from_json({"kind": "robin", "n": 2})
    with pytest.raises(InputError):
        named_from_json({"n": 2})
    with pytest.raises(InputError):
        named_from_json({"kind": "kirchhoff", "n": 2, "alpha": 1.0})
    with pytest.raises(InputError):
        named_from_json({"kind": "delta", "n": 2, "alpha": float("nan")})


# -- approximating-graph documents ------------------------------------------

def test_approx_round_trip():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    again = loads(dumps(g))
    assert isinstance(again, ApproxGraph)
    assert again.n == g.n and again.d == g.d
    assert again.neighbors.sets == g.neighbors.sets
    assert again.w_vertex == g.w_vertex
    assert again.w_inner == g.w_inner
    assert again.a_inner == g.a_inner  # includes the reversed orientations


@settings(max_examples=40, deadline=None)
@given(
    st_.integers(min_value=0, max_value=2**32 - 1),
    st_.integers(min_value=1, max_value=4),
    st_.sampled_from([1.0, 0.25, 2.0**-7, 1e-4]),
)
def test_built_graphs_read_back_equal(seed, n, d):
    """A graph built from a random normal form reads back from its
    document as an equal graph."""
    g = build_approx_graph(random_st(np.random.default_rng(seed), n=n), d)
    assert loads(dumps(g)) == g


def test_approx_document_validation():
    doc = json.loads(dumps(build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)))

    bad = json.loads(json.dumps(doc))
    bad["neighbors"]["1"] = []  # 2 and 3 still list 1
    with pytest.raises(StructuralError):
        loads(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["w_inner"]["2-1"] = bad["w_inner"].pop("1-2")
    with pytest.raises(InputError):
        loads(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["w_vertex"]["01"] = bad["w_vertex"].pop("1")
    with pytest.raises(InputError, match="is not of the form"):
        loads(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    del bad["a_inner"]
    with pytest.raises(InputError):
        loads(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["d"] = True
    with pytest.raises(InputError):
        loads(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["d"] = 1.5
    with pytest.raises(InputError):
        loads(json.dumps(bad))


# -- sniffing and determinism -----------------------------------------------

def test_loads_dispatches_on_shape(reference_couplings):
    st = reference_couplings["delta"]
    assert isinstance(loads(dumps(st)), STForm)
    assert isinstance(
        loads('{"kind": "delta", "n": 3, "alpha": 1.0}'), NamedCoupling
    )
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    assert isinstance(loads(dumps(g)), ApproxGraph)
    c = VertexCoupling(n=1, A=[[1.0]], B=[[0.0]])
    assert isinstance(loads(dumps(c)), VertexCoupling)


def test_loads_rejects_unknown_shapes():
    with pytest.raises(InputError):
        loads("[1, 2, 3]")
    with pytest.raises(InputError):
        loads('{"foo": 1}')
    with pytest.raises(json.JSONDecodeError):
        loads("{not json")
    with pytest.raises(InputError, match="nests too deeply"):
        loads("[" * 100_000 + "]" * 100_000)


def test_dumps_is_deterministic_and_stable():
    g = build_approx_graph(make_delta_prime(beta=1.0, n=3), 0.1)
    for obj in (g, make_delta_prime(beta=1.0, n=3)):
        text = dumps(obj)
        assert text.endswith("\n")
        assert dumps(loads(text)) == text  # byte-stable after a round trip
    # dict passthrough keeps sort_keys ordering
    assert dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
    with pytest.raises(InputError):
        dumps(object())
