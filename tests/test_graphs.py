"""Metric-graph systems: structure checks, truncation, assembly, gauge."""

import math

import numpy as np
import pytest

from qgraph import (
    CouplingCondition,
    DeltaCondition,
    Edge,
    EndCondition,
    InputError,
    MetricGraphSystem,
    StructuralError,
    Truncation,
    Vertex,
    build_approx_graph,
    dirichlet_condition,
    eigenvalues_compact,
    gauge_transform,
    star_system,
    system_from_approx,
    truncate,
)
from helpers import make_complex_t, make_delta_prime


# -- elementary structures --------------------------------------------------

def test_edge_half_line_and_validation():
    assert Edge(id=1, length=math.inf).is_half_line
    assert not Edge(id=1, length=2.0).is_half_line
    with pytest.raises(InputError):
        Edge(id=1, length=0.0)
    with pytest.raises(InputError):
        Edge(id=1, length=-1.0)


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


def test_truncate_neumann_end(st_delta):
    trunc = truncate(star_system(st_delta), L=1.0, end=EndCondition.NEUMANN)
    end_vertices = [v for v in trunc.vertices if isinstance(v.id, tuple)]
    for v in end_vertices:
        assert isinstance(v.condition, DeltaCondition)
        assert v.condition.w == 0.0


def test_truncation_spec_validation():
    with pytest.raises(InputError):
        Truncation(L=0.0)
    with pytest.raises(InputError):
        Truncation(L=-2.0)


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


# -- gauge transform --------------------------------------------------------

def test_gauge_transform_strips_potentials():
    g = build_approx_graph(make_complex_t(), 0.2)
    sys_ = truncate(system_from_approx(g), L=1.0)
    gauged, phases = gauge_transform(sys_)
    assert all(e.a == 0.0 for e in gauged.edges)
    for edge in sys_.edges:
        expected = np.exp(-1j * edge.a * edge.length)
        assert phases[(edge.id, 1)] == pytest.approx(expected)


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
