"""Metric-graph systems: edges, vertex conditions, truncation, gauge removal.

A :class:`MetricGraphSystem` is the generic solver input: a collection of
edges (finite intervals or half-lines), each carrying a constant tangential
magnetic potential a, glued at vertices by either a delta coupling of
strength w or a general coupling matrix pair.  The Schrödinger operator acts
as -(d/ds + i a)^2 f on every edge; at a vertex the boundary data are the
limit value of f and the inward covariant derivative Df = f' + i a f on each
incident edge end.

A delta condition requires all incident values to agree and the inward
covariant derivatives to sum to w times the common value.  A general
condition imposes A [values] + B [inward derivatives] = 0 over the ordered
incident ends.

:func:`truncate` makes a system compact, as the eigenvalue count needs:
it cuts every half-line at length L and closes it with a Dirichlet end.

Constant potentials are removable: substituting f_e = exp(-i a_e s) g_e
turns the operator into the free one while multiplying the boundary data at
the far end of each edge by the phase exp(-i a_e l_e).  The transformed
system carries those phases inside its vertex conditions, and its spectrum
is identical — which the solver tests exploit as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import require_finite_real, require_positive_real
from .builder import ApproxGraph
from .couplings import STForm, VertexCoupling, ab_from_st, st_from_ab
from .errors import StructuralError

__all__ = [
    "Edge",
    "DeltaCondition",
    "CouplingCondition",
    "dirichlet_condition",
    "Vertex",
    "MetricGraphSystem",
    "truncate",
    "star_system",
    "system_from_approx",
    "gauge_transform",
]

#: An edge end: (edge id, end index), end 0 at local coordinate 0 and end 1
#: at local coordinate length (finite edges only).
EndRef = tuple[object, int]


@dataclass(frozen=True)
class Edge:
    """An interval of the metric graph; ``length=inf`` marks a half-line."""

    id: object
    length: float
    a: float = 0.0

    def __post_init__(self):
        if self.length != math.inf:
            object.__setattr__(self, "length", require_positive_real(self.length, "edge length"))
        object.__setattr__(self, "a", require_finite_real(self.a, "a"))

    @property
    def is_half_line(self) -> bool:
        return self.length == math.inf


@dataclass(frozen=True)
class DeltaCondition:
    """Delta coupling of strength w: continuity plus a derivative-sum jump."""

    w: float

    def __post_init__(self):
        object.__setattr__(self, "w", require_finite_real(self.w, "w"))


@dataclass(frozen=True)
class CouplingCondition:
    """General condition A [values] + B [derivatives] = 0 on the ordered ends,
    with its ST normal form ``st``, made (so the coupling is checked) with it."""

    coupling: VertexCoupling
    st: STForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "st", st_from_ab(self.coupling))


@functools.cache
def dirichlet_condition() -> CouplingCondition:
    """Degree-1 Dirichlet condition f = 0, made once; its arrays are read-only."""
    cond = CouplingCondition(VertexCoupling(1, np.eye(1), np.zeros((1, 1))))
    for arr in (cond.coupling.A, cond.coupling.B, cond.st.S, cond.st.T):
        arr.flags.writeable = False
    return cond


@dataclass(frozen=True)
class Vertex:
    """A vertex: an ordered tuple of incident edge ends plus a condition."""

    id: object
    condition: DeltaCondition | CouplingCondition
    ends: tuple[EndRef, ...]

    def __post_init__(self):
        if not self.ends:
            raise StructuralError(f"vertex {self.id!r} has no incident edge ends")
        if isinstance(self.condition, CouplingCondition):
            if self.condition.coupling.n != len(self.ends):
                raise StructuralError(
                    f"vertex {self.id!r}: coupling degree "
                    f"{self.condition.coupling.n} != {len(self.ends)} incident ends"
                )


@dataclass(frozen=True)
class MetricGraphSystem:
    """Edges plus vertices; every finite end attached to exactly one vertex."""

    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise StructuralError("edge ids must be unique")
        expected: set[EndRef] = set()
        for edge in self.edges:
            expected.add((edge.id, 0))
            if not edge.is_half_line:
                expected.add((edge.id, 1))
        seen: set[EndRef] = set()
        for vertex in self.vertices:
            for end in vertex.ends:
                if end not in expected:
                    raise StructuralError(
                        f"vertex {vertex.id!r} references unknown edge end {end!r}"
                    )
                if end in seen:
                    raise StructuralError(f"edge end {end!r} attached twice")
                seen.add(end)
        missing = expected - seen
        if missing:
            raise StructuralError(f"unattached edge ends: {sorted(map(repr, missing))}")

    @property
    def edge_map(self) -> dict[object, Edge]:
        return {e.id: e for e in self.edges}

    @property
    def is_compact(self) -> bool:
        return not any(e.is_half_line for e in self.edges)


def truncate(sys: MetricGraphSystem, L: float = 1.0) -> MetricGraphSystem:
    """Replace each half-line by a finite edge of length L with a Dirichlet
    end vertex; a compact system is returned as it is."""
    L = require_positive_real(L, "truncation length L")
    if sys.is_compact:
        return sys
    edges = []
    extra_vertices = []
    for edge in sys.edges:
        if not edge.is_half_line:
            edges.append(edge)
            continue
        edges.append(Edge(id=edge.id, length=L, a=edge.a))
        extra_vertices.append(
            Vertex(id=("end", edge.id), condition=dirichlet_condition(), ends=((edge.id, 1),))
        )
    return MetricGraphSystem(edges=tuple(edges), vertices=sys.vertices + tuple(extra_vertices))


def star_system(coupling: VertexCoupling | STForm) -> MetricGraphSystem:
    """The limit operator: n half-lines meeting in one coupling vertex.

    Edge j (1-based) is the j-th half-line; an ST form is first expanded to
    its (A, B) pair, so the edge order is the renumbered one.
    """
    c = ab_from_st(coupling) if isinstance(coupling, STForm) else coupling
    edges = tuple(Edge(id=j, length=math.inf) for j in range(1, c.n + 1))
    center = Vertex(
        id="v",
        condition=CouplingCondition(c),
        ends=tuple((j, 0) for j in range(1, c.n + 1)),
    )
    return MetricGraphSystem(edges=edges, vertices=(center,))


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` as given,
    made without the checks of its __post_init__, for fields that the
    caller has checked as a whole."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def system_from_approx(g: ApproxGraph) -> MetricGraphSystem:
    """Metric-graph system of an approximating graph.

    Outer edge j is the half-line with id j; the half-segment of the inner
    edge {j, k} adjacent to v_j has id ``"inner-j-k"``, local coordinate 0
    at v_j and d at the midpoint, and carries the potential A_{(j,k)}.
    With this orientation the accumulated phases reproduce the arguments of
    the complex coupling entries in the d -> 0 limit.

    An :class:`ApproxGraph` is checked as a whole when it is made, and such
    a graph makes a valid system, so its edges, vertices and the system are
    assembled without repeating those checks per object.
    """
    n, d, nbrs = g.n, g.d, g.neighbors
    edges = [_unchecked(Edge, id=j, length=math.inf, a=0.0) for j in range(1, n + 1)]
    vertices = []
    for j, k in nbrs.pairs():
        out, back = f"inner-{j}-{k}", f"inner-{k}-{j}"
        edges.append(_unchecked(Edge, id=out, length=d, a=g.a_inner[(j, k)]))
        edges.append(_unchecked(Edge, id=back, length=d, a=g.a_inner[(k, j)]))
        vertices.append(
            _unchecked(Vertex, id=f"mid-{j}-{k}",
                       condition=_unchecked(DeltaCondition, w=g.w_inner[(j, k)]),
                       ends=((out, 1), (back, 1)))
        )
    for j in range(1, n + 1):
        ends = ((j, 0), *((f"inner-{j}-{k}", 0) for k in sorted(nbrs.sets[j])))
        vertices.append(
            _unchecked(Vertex, id=f"v-{j}", condition=_unchecked(DeltaCondition, w=g.w_vertex[j]),
                       ends=ends)
        )
    return _unchecked(MetricGraphSystem, edges=tuple(edges), vertices=tuple(vertices))


def _approx_edges(n: int, d: np.ndarray, a: np.ndarray, L: float | None):
    """The lengths and potentials (graphs, finite edges) of the finite edges
    of the systems :func:`system_from_approx` makes, truncated at L unless
    it is None, in edge order, for graphs with n outer edges, half-lengths
    ``d`` (graphs,) and potentials A_{(j,k)} ``a`` (graphs, pairs) of the
    pairs j < k in order: the n truncated outer edges (L, 0), then each
    pair's halves (d, A_{(j,k)}) and (d, -A_{(j,k)})."""
    outer = 0 if L is None else n
    length = np.empty((len(d), outer + 2 * a.shape[1]))
    length[:, :outer] = L
    length[:, outer:] = d[:, np.newaxis]
    potential = np.zeros_like(length)
    potential[:, outer::2], potential[:, outer + 1 :: 2] = a, -a
    return length, potential


def _delta_matrices(w: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) pair of a delta condition of strength w and given degree."""
    a_mat = np.zeros((degree, degree), dtype=complex)
    b_mat = np.zeros((degree, degree), dtype=complex)
    for i in range(degree - 1):
        a_mat[i, i] = 1.0
        a_mat[i, i + 1] = -1.0
    a_mat[degree - 1, 0] = -w
    b_mat[degree - 1, :] = 1.0
    return a_mat, b_mat


def gauge_transform(
    sys: MetricGraphSystem,
) -> tuple[MetricGraphSystem, dict[EndRef, complex]]:
    """Remove constant magnetic potentials at the price of phased conditions.

    Returns a unitarily equivalent system with every ``a = 0`` together with
    the phase table, keyed by every end of the system: the multiplier
    exp(-i a l) picked up by the boundary data at end 1 of each finite edge
    (end 0 keeps phase 1).  Vertices whose incident phases are all 1 keep
    their original condition; the others get a general coupling with the
    phases folded into the matrix columns, which leaves the spectrum
    unchanged.
    """
    phases: dict[EndRef, complex] = {}
    for edge in sys.edges:
        phases[(edge.id, 0)] = 1.0 + 0.0j
        if not edge.is_half_line:
            phases[(edge.id, 1)] = complex(np.exp(-1j * edge.a * edge.length))
    new_edges = tuple(replace(e, a=0.0) for e in sys.edges)
    new_vertices = []
    for vertex in sys.vertices:
        end_phases = np.array([phases[end] for end in vertex.ends])
        if np.allclose(end_phases, 1.0, rtol=0.0, atol=0.0):
            new_vertices.append(vertex)
            continue
        if isinstance(vertex.condition, DeltaCondition):
            a_mat, b_mat = _delta_matrices(vertex.condition.w, len(vertex.ends))
        else:
            a_mat = vertex.condition.coupling.A
            b_mat = vertex.condition.coupling.B
        phased = CouplingCondition(
            VertexCoupling(
                n=len(vertex.ends),
                A=a_mat * end_phases[np.newaxis, :],
                B=b_mat * end_phases[np.newaxis, :],
            )
        )
        new_vertices.append(replace(vertex, condition=phased))
    return MetricGraphSystem(new_edges, tuple(new_vertices)), phases
