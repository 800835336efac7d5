"""Metric-graph systems: structure checks, truncation, assembly, gauge."""

import dataclasses
import math
import re

import numpy as np
import pytest

from qgraph import (
    CouplingCondition,
    DeltaCondition,
    Edge,
    HSResolvent,
    InputError,
    MetricGraphSystem,
    StructuralError,
    Vertex,
    VertexCoupling,
    NeighborSets,
    build_approx_graph,
    dirichlet_condition,
    dumps,
    effective_scattering,
    eigenvalues_compact,
    gauge_transform,
    loads,
    st_from_ab,
    star_system,
    system_from_approx,
    truncate,
)
from helpers import make_complex_t, make_delta_prime

_COMPLEX_T = build_approx_graph(make_complex_t(), 0.1)


# -- elementary structures --------------------------------------------------

def test_edge_half_line_and_validation():
    assert Edge(id=1, length=math.inf).is_half_line
    assert not Edge(id=1, length=2.0).is_half_line
    with pytest.raises(InputError):
        Edge(id=1, length=0.0)
    with pytest.raises(InputError):
        Edge(id=1, length=-1.0)


_SCALAR_TARGETS = {
    "Edge.length": lambda x: Edge(id=1, length=x),
    "HSResolvent.L": lambda x: HSResolvent(L=x),
    "truncate.L": lambda x: truncate(star_system(make_delta_prime()), L=x),
    "eigenvalues_compact.lam_min": lambda x: eigenvalues_compact(
        truncate(star_system(make_delta_prime())), 1, lam_min=x
    ),
    "ApproxGraph.w_vertex": lambda x: dataclasses.replace(
        _COMPLEX_T, w_vertex={**_COMPLEX_T.w_vertex, 1: x}
    ),
}


_NON_NUMBERS = {"bool": True, "str": "2", "None": None, "list": [1], "huge-int": 10**400}


@pytest.mark.parametrize(
    "target, value",
    [pytest.param(target, value, id=f"{target}-{name}")
     for target in _SCALAR_TARGETS for name, value in _NON_NUMBERS.items()
     # lam_min=None is the documented "no floor".
     if not (target == "eigenvalues_compact.lam_min" and value is None)],
)
def test_one_scalar_rule_refuses_non_numbers(target, value):
    """Real parameters of the library follow the JSON loader's rule: a
    bool, a string, what complex() cannot take and an integer beyond the
    float range are refused with an InputError."""
    with pytest.raises(InputError, match="must be a number|must be finite"):
        _SCALAR_TARGETS[target](value)


@pytest.mark.parametrize("target", list(_SCALAR_TARGETS))
def test_one_scalar_rule_takes_numpy_scalars(target):
    _SCALAR_TARGETS[target](np.float64(0.5))
    _SCALAR_TARGETS[target](np.int64(1))


def test_approx_graph_keeps_its_values_as_floats():
    """Numbers of other types are made floats, so the graph equals the one
    built and reads back from its document."""
    made = dataclasses.replace(
        _COMPLEX_T,
        n=np.int64(3),
        d=np.float64(_COMPLEX_T.d),
        w_vertex={j: np.float64(w) for j, w in _COMPLEX_T.w_vertex.items()},
        a_inner={key: complex(a) for key, a in _COMPLEX_T.a_inner.items()},
    )
    assert made == _COMPLEX_T
    for table in (made.w_vertex, made.w_inner, made.a_inner):
        assert {type(value) for value in table.values()} == {float}
    assert type(made.n) is int and loads(dumps(made)) == _COMPLEX_T


def test_system_rejects_duplicate_edge_ids():
    edges = (Edge(id=1, length=1.0), Edge(id=1, length=2.0))
    with pytest.raises(StructuralError):
        MetricGraphSystem(edges=edges, vertices=())


def test_system_rejects_unattached_and_double_attached_ends():
    edge = Edge(id=1, length=1.0)
    lonely = Vertex(id="a", condition=DeltaCondition(0.0), ends=((1, 0),))
    with pytest.raises(StructuralError):
        MetricGraphSystem(edges=(edge,), vertices=(lonely,))
    both = Vertex(id="a", condition=DeltaCondition(0.0), ends=((1, 0), (1, 1)))
    dup = Vertex(id="b", condition=DeltaCondition(0.0), ends=((1, 1),))
    with pytest.raises(StructuralError):
        MetricGraphSystem(edges=(edge,), vertices=(both, dup))
    unknown = Vertex(id="a", condition=DeltaCondition(0.0), ends=((7, 0),))
    with pytest.raises(StructuralError):
        MetricGraphSystem(edges=(edge,), vertices=(unknown,))


# -- star systems and truncation --------------------------------------------

def test_star_system_shape(st_delta):
    sys_ = star_system(st_delta)
    assert len(sys_.edges) == 3
    assert all(e.is_half_line for e in sys_.edges)
    assert not sys_.is_compact
    (center,) = sys_.vertices
    assert isinstance(center.condition, CouplingCondition)
    assert center.ends == ((1, 0), (2, 0), (3, 0))


def test_truncate_replaces_half_lines(st_delta):
    trunc = truncate(star_system(st_delta), L=2.0)
    assert trunc.is_compact
    assert [e.length for e in trunc.edges] == [2.0, 2.0, 2.0]
    end_vertices = [v for v in trunc.vertices if isinstance(v.id, tuple)]
    assert len(end_vertices) == 3
    for v in end_vertices:
        assert isinstance(v.condition, CouplingCondition)


def test_truncation_spec_validation(st_delta):
    with pytest.raises(InputError):
        truncate(star_system(st_delta), L=0.0)
    with pytest.raises(InputError):
        truncate(star_system(st_delta), L=-2.0)


def test_truncate_compact_system_is_identity_up_to_spec():
    edge = Edge(id=1, length=1.0)
    ends = (
        Vertex(id="a", condition=dirichlet_condition(), ends=((1, 0),)),
        Vertex(id="b", condition=dirichlet_condition(), ends=((1, 1),)),
    )
    sys_ = MetricGraphSystem(edges=(edge,), vertices=ends)
    again = truncate(sys_)
    assert again.edges == sys_.edges
    assert again.vertices == sys_.vertices


def test_inadmissible_coupling_fails_when_its_condition_is_made():
    """A = B = 0 is no boundary condition: the condition refuses it when
    made, with the normal form's text, before any system holds it; so does
    an (A, B) pair whose A B* is not Hermitian."""
    void = VertexCoupling(1, np.zeros((1, 1)), np.zeros((1, 1)))
    message = "coupling is not admissible: rank deficient: rank(A|B) < n = 1"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        CouplingCondition(void)
    skew = VertexCoupling(2, np.eye(2), [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError, match="not admissible: A B. is not Hermitian"):
        CouplingCondition(skew)


def test_coupling_condition_carries_its_normal_form(st_delta_prime):
    """The form is st_from_ab's, and stays out of repr and equality."""
    c = star_system(st_delta_prime).vertices[0].condition.coupling
    cond = CouplingCondition(c)
    expected = st_from_ab(c)
    assert (cond.st.m, cond.st.perm) == (expected.m, expected.perm)
    assert cond.st.S.tobytes() == expected.S.tobytes()
    assert cond.st.T.tobytes() == expected.T.tobytes()
    assert "st=" not in repr(cond)
    assert "st" not in [f.name for f in dataclasses.fields(cond) if f.compare]


def test_dirichlet_ends_share_one_read_only_condition(st_delta):
    """Every Dirichlet end of a truncation holds the one shared condition,
    whose arrays cannot be written."""
    ends = [v.condition for v in truncate(star_system(st_delta)).vertices[1:]]
    assert len(ends) == st_delta.n
    assert all(cond is dirichlet_condition() for cond in ends)
    cond = dirichlet_condition()
    assert cond.st.m == 0 and cond.st.S.shape == (0, 0) and cond.st.T.shape == (0, 1)
    for arr in (cond.coupling.A, cond.coupling.B, cond.st.S, cond.st.T):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1.0


# -- assembly of approximating graphs ---------------------------------------

def test_system_from_approx_delta_prime(st_delta_prime):
    d = 0.1
    g = build_approx_graph(st_delta_prime, d)
    sys_ = system_from_approx(g)
    outer = [e for e in sys_.edges if e.is_half_line]
    inner = [e for e in sys_.edges if not e.is_half_line]
    assert [e.id for e in outer] == [1, 2, 3]
    assert len(inner) == 6  # two half-segments per connected pair
    assert all(e.length == d for e in inner)
    mids = [v for v in sys_.vertices if str(v.id).startswith("mid-")]
    assert len(mids) == 3
    for v in mids:
        assert v.condition.w == pytest.approx(-120.0, rel=1e-12)
    outers = [v for v in sys_.vertices if str(v.id).startswith("v-")]
    for v in outers:
        assert v.condition.w == pytest.approx(-21.0, rel=1e-12)


def test_system_from_approx_magnetic_orientation():
    g = build_approx_graph(make_complex_t(), 0.1)
    sys_ = system_from_approx(g)
    edge_map = sys_.edge_map
    for j, k in g.neighbors.pairs():
        assert edge_map[f"inner-{j}-{k}"].a == g.a_inner[(j, k)]
        assert edge_map[f"inner-{k}-{j}"].a == g.a_inner[(k, j)]
        assert edge_map[f"inner-{j}-{k}"].a == -edge_map[f"inner-{k}-{j}"].a


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


def _inconsistent(change):
    """The complex_t graph at d = 0.1, pairs (1, 2), (1, 3), (2, 3), with
    one field replaced by ``change(g)``."""
    g = build_approx_graph(make_complex_t(), 0.1)
    return dataclasses.replace(g, **change(g))


@pytest.mark.parametrize(
    "change, error, match",
    [
        (lambda g: {"w_inner": _without(g.w_inner, (1, 2))}, StructuralError,
         r"w_inner has no entry for \(1, 2\)"),
        (lambda g: {"a_inner": _without(g.a_inner, (3, 2))}, StructuralError,
         r"a_inner has no entry for \(3, 2\)"),
        (lambda g: {"w_vertex": _without(g.w_vertex, 3)}, StructuralError,
         "w_vertex has no entry for 3"),
        (lambda g: {"n": 4}, StructuralError, r"neighbor sets must be those of the vertices 1..4"),
        (lambda g: {"n": 2}, StructuralError, r"neighbor sets must be those of the vertices 1..2"),
        (lambda g: {"neighbors": NeighborSets(3, {**g.neighbors.sets, 3: frozenset({1})})},
         StructuralError, "symmetric"),
        (lambda g: {"neighbors": NeighborSets(3, {**g.neighbors.sets, 3: frozenset({1, 2, 4})})},
         StructuralError, "outside the vertices 1..3"),
        (lambda g: {"d": 2.0}, InputError, r"half-length d must lie in \(0, 1\]"),
        (lambda g: {"a_inner": {**g.a_inner, (2, 1): g.a_inner[(2, 1)] + 1.0}}, InputError,
         r"a_inner\[\(2, 1\)\] = .* must be -a_inner\[\(1, 2\)\]"),
        (lambda g: {"w_inner": {**g.w_inner, (1, 3): math.nan}}, InputError,
         "w must be finite, got nan"),
        (lambda g: {"a_inner": {**g.a_inner, (3, 1): 1j}}, InputError, "a must be real, got 1j"),
        # A NaN imaginary part passes as real, as it does in Edge; the
        # infinite strength after it is still refused.
        (lambda g: {"a_inner": {**g.a_inner, (1, 2): complex(g.a_inner[(1, 2)], math.nan)},
                    "w_inner": {**g.w_inner, (2, 3): math.inf}}, InputError,
         "w must be finite, got inf"),
        (lambda g: {"w_inner": {**g.w_inner, (1, 4): 1.0}}, StructuralError,
         r"w_inner has an extra entry for \(1, 4\)"),
        (lambda g: {"neighbors": NeighborSets(3, {**g.neighbors.sets, 3: frozenset({1, 2.0})})},
         InputError, "neighbor 2.0 is not an int"),
    ],
    ids=["w_inner-pair", "a_inner-reversed", "w_vertex", "n-above", "n-below", "asymmetric",
         "out-of-range", "d", "antisymmetry", "non-finite", "non-real", "after-nan-imaginary",
         "extra-entry", "non-int-neighbor"],
)
def test_inconsistent_approx_graph_raises_a_typed_error(change, error, match):
    """An approximating graph made in code whose fields disagree cannot be
    made: it is refused with a QGraphError, not a KeyError, before assembly
    or scattering can see it."""
    with pytest.raises(error, match=match):
        system_from_approx(_inconsistent(change))
    with pytest.raises(error, match=match):
        effective_scattering(_inconsistent(change), 1.0)


def test_system_from_approx_equals_a_checked_assembly():
    """The system assembled without per-object checks equals, field by
    field, the one made by the checked constructors."""
    g = build_approx_graph(make_complex_t(), 0.1)
    edges = [Edge(id=j, length=math.inf) for j in range(1, 4)]
    vertices = []
    for j, k in g.neighbors.pairs():
        edges += [Edge(f"inner-{j}-{k}", g.d, g.a_inner[(j, k)]),
                  Edge(f"inner-{k}-{j}", g.d, g.a_inner[(k, j)])]
        vertices.append(Vertex(f"mid-{j}-{k}", DeltaCondition(g.w_inner[(j, k)]),
                               ((f"inner-{j}-{k}", 1), (f"inner-{k}-{j}", 1))))
    for j in range(1, 4):
        ends = ((j, 0), *((f"inner-{j}-{k}", 0) for k in sorted(g.neighbors.sets[j])))
        vertices.append(Vertex(f"v-{j}", DeltaCondition(g.w_vertex[j]), ends))
    expected = MetricGraphSystem(tuple(edges), tuple(vertices))
    sys_ = system_from_approx(g)
    assert sys_ == expected and repr(sys_) == repr(expected)


# -- gauge transform --------------------------------------------------------

def test_gauge_transform_strips_potentials():
    g = build_approx_graph(make_complex_t(), 0.2)
    sys_ = truncate(system_from_approx(g), L=1.0)
    gauged, phases = gauge_transform(sys_)
    assert all(e.a == 0.0 for e in gauged.edges)
    for edge in sys_.edges:
        expected = np.exp(-1j * edge.a * edge.length)
        assert phases[(edge.id, 1)] == pytest.approx(expected)


def test_gauge_transform_phases_every_end_of_the_system():
    sys_ = truncate(system_from_approx(build_approx_graph(make_complex_t(), 0.2)), L=1.0)
    _, phases = gauge_transform(sys_)
    assert set(phases) == {end for v in sys_.vertices for end in v.ends}


def test_gauge_transform_keeps_unphased_vertices():
    st = make_delta_prime(beta=1.0, n=3)
    sys_ = truncate(system_from_approx(build_approx_graph(st, 0.1)), L=1.0)
    gauged, _ = gauge_transform(sys_)
    # no magnetic potentials anywhere: every vertex keeps its condition object
    for before, after in zip(sys_.vertices, gauged.vertices):
        assert before.condition is after.condition


def test_gauge_transform_preserves_spectrum():
    g = build_approx_graph(make_complex_t(), 0.25)
    sys_ = truncate(system_from_approx(g), L=1.0)
    gauged, _ = gauge_transform(sys_)
    before = eigenvalues_compact(sys_, 4, lam_min=-60.0)
    after = eigenvalues_compact(gauged, 4, lam_min=-60.0)
    np.testing.assert_allclose(after, before, rtol=1e-10, atol=1e-10)
