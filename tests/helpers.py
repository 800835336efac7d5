"""Test utilities: reference couplings, random generators, fit helpers,
and the one-point-at-a-time references for the batched numerical layers."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, null_space
from scipy.linalg.lapack import zgecon

from qgraph import (
    CouplingKind,
    NeighborSets,
    DegenerateArgumentError,
    DeltaCondition,
    FormBoundReport,
    FormBoundViolation,
    MetricGraphSystem,
    NamedCoupling,
    STForm,
    SingularDError,
    build_approx_graph,
    c_eta,
    form_bound_inputs,
    greens_function,
    named_to_st,
    st_from_ab,
    solver,
    star_system,
    system_from_approx,
    truncate,
)


# -- the four reference couplings exercised throughout the suite ------------

def make_delta(alpha: float = 1.0, n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.DELTA, n=n, alpha=alpha))


def make_delta_prime(beta: float = 1.0, n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.DELTA_PRIME_S, n=n, beta=beta))


def make_dirichlet(n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.DIRICHLET, n=n))


def make_kirchhoff(n: int = 3) -> STForm:
    return named_to_st(NamedCoupling(kind=CouplingKind.KIRCHHOFF, n=n))


def make_kirchhoff_perturbed() -> STForm:
    """A generic rank-one-B coupling close to, but distinct from, Kirchhoff."""
    return STForm(
        n=3, m=1, perm=(1, 2, 3), S=np.array([[0.2]]), T=np.array([[1.0, 0.9]])
    )


def make_complex_t() -> STForm:
    """A coupling with genuinely complex T, so the builder needs magnetic phases."""
    return STForm(
        n=3,
        m=2,
        perm=(1, 2, 3),
        S=np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]]),
        T=np.array([[0.8 + 0.6j], [1.1 - 0.3j]]),
    )


def make_singular_at_tenth() -> STForm:
    """A coupling whose (1, 2) pair argument d S_12 + <T row overlap> = 1 - 10 d
    cancels exactly at d = 0.1, so builds there must fail loudly."""
    return STForm(
        n=3,
        m=2,
        perm=(1, 2, 3),
        S=np.array([[0.0, -10.0], [-10.0, 0.0]]),
        T=np.array([[1.0], [1.0]]),
    )


# -- random generators ------------------------------------------------------

def random_st(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    *,
    complex_entries: bool = True,
    permuted: bool = True,
) -> STForm:
    """A random valid ST form with degree <= 6 by default."""
    if n is None:
        n = int(rng.integers(1, 7))
    if m is None:
        m = int(rng.integers(0, n + 1))

    def draw(shape):
        real = rng.standard_normal(shape)
        if complex_entries:
            return real + 1j * rng.standard_normal(shape)
        return real + 0j

    x = draw((m, m))
    s_mat = (x + x.conj().T) / 2.0
    t_mat = draw((m, n - m))
    if permuted:
        perm = tuple(int(p) for p in rng.permutation(np.arange(1, n + 1)))
    else:
        perm = tuple(range(1, n + 1))
    return STForm(n=n, m=m, perm=perm, S=s_mat, T=t_mat)


def random_built_graph(rng: np.random.Generator, d: float, **kwargs):
    """(st, graph) for a random coupling that builds at d; resamples on a
    singular half-length, which for generic entries is measure-zero anyway."""
    for _ in range(50):
        st = random_st(rng, **kwargs)
        try:
            return st, build_approx_graph(st, d)
        except (SingularDError, DegenerateArgumentError):
            continue
    raise AssertionError("could not draw a buildable random coupling in 50 tries")


def loglog_slope(ds, values) -> float:
    """Plain least-squares slope of log(values) against log(ds)."""
    slope, _ = np.polyfit(np.log(ds), np.log(values), 1)
    return float(slope)


# -- reference neighbor sets: one entry of S and T at a time ----------------

def reference_neighbor_sets(st: STForm, cutoff: float) -> NeighborSets:
    """N_j by the three membership rules, looping over every pair (j, k)
    and, for the T-column overlap, over every column l."""
    n, m = st.n, st.m
    sets = {j: set() for j in range(1, n + 1)}
    for j in range(1, m + 1):
        for k in range(m + 1, n + 1):
            if abs(st.T[j - 1, k - m - 1]) > cutoff:
                sets[j].add(k)
                sets[k].add(j)
    for j in range(1, m + 1):
        for k in range(j + 1, m + 1):
            coupled = abs(st.S[j - 1, k - 1]) > cutoff or any(
                abs(st.T[j - 1, l]) > cutoff and abs(st.T[k - 1, l]) > cutoff
                for l in range(n - m)
            )
            if coupled:
                sets[j].add(k)
                sets[k].add(j)
    return NeighborSets(n=n, sets={j: frozenset(s) for j, s in sets.items()})


# -- reference form-bound sampling: one spline per edge of every sample ----

_GAUSS_32 = np.polynomial.legendre.leggauss(32)


def _reference_edge_terms(values, length, a):
    """Integrals of one edge spline: its own CubicSpline, 32 Gauss-Legendre
    nodes per segment."""
    knots = np.linspace(0.0, length, len(values))
    spline = CubicSpline(knots, values)
    nodes, weights = _GAUSS_32
    half = np.diff(knots) / 2.0
    xs = np.concatenate([lo + h * (nodes + 1.0) for lo, h in zip(knots[:-1], half)])
    ws = np.concatenate([h * weights for h in half])
    f = spline(xs)
    fp = spline.derivative()(xs)
    cov = fp + 1j * a * f
    return (
        float(ws @ np.abs(cov) ** 2),
        float(ws @ np.abs(fp) ** 2),
        float(ws @ np.abs(f) ** 2),
    )


def reference_sampled_forms(g, n_samples, rng):
    """(h, d, norm_sq) per sample, drawn and integrated one sample and one
    edge at a time: random complex values at vertices, midpoints and three
    interior nodes per edge, zero from length 1 on the half-lines."""

    def draw(count):
        return rng.standard_normal(count) + 1j * rng.standard_normal(count)

    out = []
    for _ in range(n_samples):
        v_vals = {j: draw(1)[0] for j in range(1, g.n + 1)}
        mid_vals = {pair: draw(1)[0] for pair in g.neighbors.pairs()}
        h = d_form = norm_sq = 0.0
        for j in range(1, g.n + 1):
            values = np.concatenate([[v_vals[j]], draw(3), [0.0]])
            kin_a, kin, mass = _reference_edge_terms(values, 1.0, 0.0)
            h, d_form, norm_sq = h + kin_a, d_form + kin, norm_sq + mass
        for j, k in g.neighbors.pairs():
            for lo, hi in ((j, k), (k, j)):
                values = np.concatenate([[v_vals[lo]], draw(3), [mid_vals[(j, k)]]])
                kin_a, kin, mass = _reference_edge_terms(values, g.d, g.a_inner[(lo, hi)])
                h, d_form, norm_sq = h + kin_a, d_form + kin, norm_sq + mass
        for j in range(1, g.n + 1):
            h += g.w_vertex[j] * abs(v_vals[j]) ** 2
        for pair, w in g.w_inner.items():
            h += w * abs(mid_vals[pair]) ** 2
        out.append((h, d_form, norm_sq))
    return out


def reference_form_bound(g, eta, forms):
    """The FormBoundReport of per-sample (h, d, norm_sq) triples."""
    inputs = form_bound_inputs(g, eta)
    eta, c_val, c_half = inputs.eta, c_eta(inputs), c_eta(inputs, eta=0.5)
    violations = []
    for index, (h, d_form, norm_sq) in enumerate(forms):
        if abs(h - d_form) > eta * d_form + c_val * norm_sq:
            violations.append(FormBoundViolation(
                index, "relative-bound", abs(h - d_form), eta * d_form + c_val * norm_sq))
        if d_form > 2.0 * (h + c_half * norm_sq):
            violations.append(FormBoundViolation(
                index, "lower-bound", d_form, 2.0 * (h + c_half * norm_sq)))
    return FormBoundReport(
        eta=eta, c_eta=c_val, c_half=c_half, n_samples=len(forms),
        violations=tuple(violations),
    )


# -- reference matching-matrix layer: one spectral point, one term at a time --

def _reference_phi12(k, s):
    if k == 0:
        return 1.0 + 0.0j, complex(s)
    ks = k * s
    return cmath.cos(ks), cmath.sin(ks) / k


def _reference_principal_k(z):
    k = cmath.sqrt(complex(z))
    return -k if k.imag < 0 else k


class ReferenceAssembler:
    """The per-point matching-matrix assembly: one Python pass over the
    condition rows, each row a list of (edge end, c_val, c_sd) terms."""

    def __init__(self, sys):
        self.sys = sys
        self.edge_map = sys.edge_map
        self.cols = {}
        ncols = 0
        for edge in sys.edges:
            width = 1 if edge.is_half_line else 2
            self.cols[edge.id] = slice(ncols, ncols + width)
            ncols += width
        self.ncols = ncols
        self.rows = []
        for vertex in sys.vertices:
            ends, cond = vertex.ends, vertex.condition
            if isinstance(cond, DeltaCondition):
                for i in range(len(ends) - 1):
                    self._add_row([(ends[i], 1.0, 0.0), (ends[i + 1], -1.0, 0.0)])
                self._add_row([(end, 0.0, 1.0) for end in ends] + [(ends[0], -cond.w, 0.0)])
            else:
                a_mat, b_mat = cond.coupling.A, cond.coupling.B
                for r in range(len(ends)):
                    self._add_row([(ends[i], a_mat[r, i], b_mat[r, i]) for i in range(len(ends))])
        self.rows_by_end = {}
        for i, (terms, _, _) in enumerate(self.rows):
            for end, c_val, c_sd in terms:
                self.rows_by_end.setdefault(end, []).append((i, c_val, c_sd))

    def _add_row(self, items):
        terms = [(end, complex(cv), complex(cd)) for end, cv, cd in items]
        self.rows.append((
            terms,
            max(abs(cv) for _, cv, _ in terms),
            max(abs(cd) for _, _, cd in terms),
        ))

    def assembled(self, z, scan_basis=False):
        """(M, row_scale, col_scale, k) at one spectral point."""
        z = complex(z)
        k = _reference_principal_k(z)
        kmag = max(1.0, abs(k))
        val, sd = {}, {}
        col_scale = np.ones(self.ncols)
        for edge in self.sys.edges:
            sl = self.cols[edge.id]
            if edge.is_half_line:
                val[(edge.id, 0)] = np.array([1.0 + 0.0j])
                sd[(edge.id, 0)] = np.array([1j * k])
                continue
            ell = edge.length
            ph = cmath.exp(-1j * edge.a * ell)
            if scan_basis and abs(k.imag) * ell >= 1.0:
                ik = 1j * k
                decay = cmath.exp(1j * k * ell)
                val[(edge.id, 0)] = np.array([1.0, decay])
                sd[(edge.id, 0)] = np.array([ik, -ik * decay])
                val[(edge.id, 1)] = np.array([ph * decay, ph])
                sd[(edge.id, 1)] = np.array([-ik * ph * decay, ik * ph])
                continue
            base = 1.0 / math.cosh(min(700.0, abs(k.imag) * ell))
            scales = np.array([base, base * kmag])
            col_scale[sl] = scales
            p1, p2 = _reference_phi12(k, ell)
            val[(edge.id, 0)] = np.array([1.0, 0.0], dtype=complex) * scales
            sd[(edge.id, 0)] = np.array([0.0, 1.0], dtype=complex) * scales
            val[(edge.id, 1)] = np.array([ph * p1, ph * p2]) * scales
            sd[(edge.id, 1)] = np.array([ph * z * p2, -ph * p1]) * scales
        mat = np.zeros((len(self.rows), self.ncols), dtype=complex)
        row_scale = np.empty(len(self.rows))
        for i, (terms, amp_val, amp_sd) in enumerate(self.rows):
            rs = 1.0 / max(1.0, amp_val, amp_sd * kmag)
            row_scale[i] = rs
            for end, c_val, c_sd in terms:
                mat[i, self.cols[end[0]]] += rs * (c_val * val[end] + c_sd * sd[end])
        return mat, row_scale, col_scale, k

    def rhs(self, row_scale, traces):
        """Right-hand side from {end: (value, inward derivative)} traces."""
        b = np.zeros(len(self.rows), dtype=complex)
        for end, (v, d) in traces.items():
            for i, c_val, c_sd in self.rows_by_end.get(end, ()):
                b[i] -= row_scale[i] * (c_val * v + c_sd * d)
        return b


def reference_kernel_matrix(sys, z, points, sources):
    """G_z(p, q) assembled one source and one point at a time."""
    asm = ReferenceAssembler(sys)
    mat, row_scale, col_scale, k = asm.assembled(z)
    lu = lu_factor(mat)
    columns = []
    for eid, sy in sources:
        edge = asm.edge_map[eid]
        ph0 = cmath.exp(1j * edge.a * sy)
        traces = {(eid, 0): (ph0 * 1j * cmath.exp(1j * k * sy) / (2.0 * k),
                             ph0 * cmath.exp(1j * k * sy) / 2.0)}
        if not edge.is_half_line:
            rem = edge.length - sy
            ph1 = cmath.exp(-1j * edge.a * rem)
            traces[(eid, 1)] = (ph1 * 1j * cmath.exp(1j * k * rem) / (2.0 * k),
                                ph1 * cmath.exp(1j * k * rem) / 2.0)
        columns.append(asm.rhs(row_scale, traces))
    coeff = col_scale[:, np.newaxis] * lu_solve(lu, np.stack(columns, axis=1))
    out = np.empty((len(points), len(sources)), dtype=complex)
    for i, (eid, s) in enumerate(points):
        edge = asm.edge_map[eid]
        ph = cmath.exp(-1j * edge.a * s)
        if edge.is_half_line:
            row = np.array([ph * cmath.exp(1j * k * s)])
        else:
            row = ph * np.array(_reference_phi12(k, s))
        out[i, :] = row @ coeff[asm.cols[eid], :]
        for j, (eid_y, sy) in enumerate(sources):
            if eid_y == eid:
                out[i, j] += (cmath.exp(-1j * edge.a * (s - sy)) * 1j
                              * cmath.exp(1j * k * abs(s - sy)) / (2.0 * k))
    return out


def reference_scattering_matrix(sys, k):
    """S(k) from the per-point matching matrix: an incoming wave exp(-iks),
    value 1 and inward derivative -ik, on one channel at a time, and the
    half-line coefficients of the solution."""
    asm = ReferenceAssembler(sys)
    mat, row_scale, col_scale, _ = asm.assembled(k * k)
    lu = lu_factor(mat)
    channels = [e.id for e in sys.edges if e.is_half_line]
    columns = [asm.rhs(row_scale, {(h, 0): (1.0, -1j * k)}) for h in channels]
    coeff = col_scale[:, np.newaxis] * lu_solve(lu, np.stack(columns, axis=1))
    return coeff[[asm.cols[h].start for h in channels], :]


# -- the solver's solves as they were, through scipy's LU -------------------

def zgecon_condition(mat: np.ndarray) -> tuple[float, tuple]:
    """LAPACK's 1-norm condition estimate of the square complex ``mat`` and
    scipy's LU factors of it: 1 / rcond from ``zgecon`` on the factors,
    with ||mat||_1 floored at 1 as the solver's gate floors it, and inf
    where rcond is 0 or NaN (an exactly singular or NaN matrix)."""
    anorm = max(np.linalg.norm(mat, 1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(mat, check_finite=False)
    rcond = zgecon(lu[0], anorm)[0]
    return (1.0 / rcond if rcond > 0 else math.inf), lu


def scipy_gated_solve(mats, rhs, solve=None):
    """The solver's gated solve as it was, per matrix of the stack: scipy's
    ``lu_factor`` and ``lu_solve``, with ``zgecon``'s estimate as the
    condition that the gate compares with 1e12 (``solve`` is unused)."""
    sols, conds = [], []
    for mat, b in zip(mats, rhs):
        if not mat.size:
            sols.append(lu_solve(lu_factor(mat), b))
            conds.append(0.0)
            continue
        cond, lu = zgecon_condition(mat)
        sols.append(lu_solve(lu, b) if cond <= 1e12 else np.zeros_like(b))
        conds.append(cond)
    return np.array(sols).reshape(rhs.shape), np.array(conds)


class ModuleView:
    """Stands in for a module: the given names overridden, every other name
    read from the module."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def use_scipy_lu(monkeypatch) -> None:
    """Route the solver's solves through scipy's LU, as they ran before
    numpy's ``solve`` took them over: the gated solve through
    :func:`scipy_gated_solve`, and the scattering refinement (a stack of
    matrices) through ``lu_factor`` and ``lu_solve`` per matrix (factoring
    the same matrix again gives the same factors)."""
    monkeypatch.setattr(solver, "gated_solve", scipy_gated_solve)
    linalg = ModuleView(
        np.linalg,
        solve=lambda a, b: np.array([lu_solve(lu_factor(m), r) for m, r in zip(a, b)]).reshape(b.shape),
    )
    monkeypatch.setattr(solver, "np", ModuleView(np, linalg=linalg))


def _graded_rule(width: float, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1], 20 per panel.
    The panels start ``width`` wide at both ends and double towards the
    middle, up to ``cap``: boundary layers of width ``width`` are resolved,
    and so are oscillations of period about ``cap``."""
    t, w = np.polynomial.legendre.leggauss(20)
    half, h = [0.0], width
    while half[-1] + h < 0.5:
        half.append(half[-1] + h)
        h = min(2.0 * h, cap)
    breaks = np.array(half + [1.0 - b for b in reversed(half)])
    lo, hi = breaks[:-1, np.newaxis], breaks[1:, np.newaxis]
    return ((lo + hi + (hi - lo) * t) / 2.0).ravel(), ((hi - lo) * w / 2.0).ravel()


def _own_square_sum(g, edge, s, w) -> float:
    """The integral of |G(x, y)|^2 over an edge's own square, one triangle
    at a time so that the kink of the free kernel on x = y lies on no
    rule's interior: the outer coordinate on the nodes ``s`` with weights
    ``w``, the inner one on the same rule scaled to [0, outer], so y = x t
    below the diagonal and x = y t above it.  Kernel matrices of a few
    outer nodes at a time keep the memory small."""
    t, wt = s / edge.length, w / edge.length
    n = len(s)
    chunk = max(1, int(math.sqrt(2e5 / n)))
    total = 0.0
    for lo in range(0, n, chunk):
        outer, w_outer = s[lo : lo + chunk], w[lo : lo + chunk]
        c = len(outer)
        own = [(edge.id, x) for x in outer]
        scaled = [(edge.id, x) for x in np.outer(outer, t).ravel()]
        pick = np.arange(c)
        below = g.kernel_matrix(own, scaled).reshape(c, c, n)[pick, pick]
        above = g.kernel_matrix(scaled, own).reshape(c, n, c)[pick, :, pick]
        total += (w_outer * outer) @ (np.abs(below) ** 2 + np.abs(above) ** 2) @ wt
    return float(total)


def with_potential(sys, a):
    """``sys`` with the magnetic potential ``a`` on every edge."""
    return MetricGraphSystem(tuple(dataclasses.replace(e, a=a) for e in sys.edges), sys.vertices)


def reference_hs_value(st, d, z=-1.0, L=1.0, a=0.0):
    """The Hilbert-Schmidt metric by quadrature of |K_d - K*|^2 on kernel
    matrices: both systems truncated at L, with the magnetic potential ``a``
    on every edge, the star kernel subtracted on pairs of outer edges.  The
    kernels keep their phases; since |K|^2 does not, the rule need not
    resolve them.  Every edge carries a composite Gauss-Legendre
    rule graded towards its ends by 1 / |k|, with panels no wider than
    about 8 / |Re k| in the middle, and each pair of edges is one
    tensor block, except an inner edge's own square, whose free kernel
    kinks on x = y: it is summed by triangles (see :func:`_own_square_sum`).
    """
    star_t = with_potential(truncate(star_system(st), L=L), a)
    approx_t = with_potential(truncate(system_from_approx(build_approx_graph(st, d)), L=L), a)
    g_star, g_d = greens_function(star_t, z), greens_function(approx_t, z)
    n_out = len(star_t.edges)
    k, rules = g_d.k, []
    for edge in approx_t.edges:
        scale = edge.length * np.array([abs(k), max(abs(k.real), 1e-300)])
        t, w = _graded_rule(1.0 / scale[0], 4.0 / scale[1])
        rules.append((edge.length * t, edge.length * w))
    total = 0.0
    for e, (edge, (s_e, w_e)) in enumerate(zip(approx_t.edges, rules)):
        if e >= n_out:
            total += _own_square_sum(g_d, edge, s_e, w_e)
        points = [(edge.id, x) for x in s_e]
        for f, (source, (s_f, w_f)) in enumerate(zip(approx_t.edges, rules)):
            if e == f and e >= n_out:
                continue
            sources = [(source.id, y) for y in s_f]
            kernel = g_d.kernel_matrix(points, sources)
            if e < n_out and f < n_out:
                kernel -= g_star.kernel_matrix(points, sources)
            total += w_e @ np.abs(kernel) ** 2 @ w_f
    return float(math.sqrt(total))


# -- reference ST normal form ---------------------------------------------

def reference_st_from_ab(c, m: int, perm) -> tuple[np.ndarray, np.ndarray]:
    """S and T of the coupling ``c`` with ``m`` free values in the edge
    order ``perm`` (1-based), by the row operation R [B_lead, N] = I whose
    completion N is ``scipy.linalg.null_space`` of B_lead*."""
    order = [p - 1 for p in perm]
    a_mat, b_mat = c.A[:, order], c.B[:, order]
    if m == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, c.n), dtype=complex)
    b_lead = b_mat[:, :m]
    row_op = np.linalg.inv(np.hstack([b_lead, null_space(b_lead.conj().T)]))
    a_mat, t_mat = row_op @ a_mat, (row_op @ b_mat)[:m, m:]
    s_mat = -a_mat[:m, :m]
    if m < c.n:
        s_mat = s_mat + a_mat[:m, m:] @ np.linalg.solve(a_mat[m:, m:], a_mat[m:, :m])
    return (s_mat + s_mat.conj().T) / 2.0, t_mat


# -- reference eigenvalue count and bisection: one point per call ----------

class UnreducedReduction:
    """The vertex reduction that keeps every vertex: the free values of all
    vertices' ST forms, midpoints included, so an approximating graph's
    matrix is n + pairs wide.  ``s_mat`` holds the vertex blocks and ``w``
    (2, size, edges) the columns w_+ and w_- of every finite edge, built one
    edge at a time."""

    def __init__(self, sys):
        rows = {}
        blocks = []
        size = 0
        for vertex in sys.vertices:
            cond = vertex.condition
            if isinstance(cond, DeltaCondition):
                j_mat, s_mat = np.ones((len(vertex.ends), 1)), np.array([[cond.w]])
            else:
                st = st_from_ab(cond.coupling)
                j_mat = np.empty((st.n, st.m), dtype=complex)
                j_mat[np.array(st.perm) - 1] = np.vstack([np.eye(st.m), st.T.conj().T])
                s_mat = st.S
            for end, j_row in zip(vertex.ends, j_mat):
                rows[end] = (size, j_row)
            blocks.append(s_mat)
            size += len(s_mat)
        self.rows = rows
        self.s_mat = np.zeros((size, size), dtype=np.result_type(float, *blocks))
        at = 0
        for block in blocks:
            self.s_mat[at : at + len(block), at : at + len(block)] = block
            at += len(block)
        finite = [e for e in sys.edges if not e.is_half_line]
        self.length = np.array([e.length for e in finite], dtype=float)
        self.w = np.zeros((2, size, len(finite)), dtype=complex)
        for col, edge in enumerate(finite):
            phase = np.exp(-1j * edge.a * edge.length)
            for end, factor in ((0, np.array([1.0, 1.0])), (1, np.array([phase, -phase]))):
                at, j_row = rows[(edge.id, end)]
                self.w[:, at : at + len(j_row), col] += np.outer(factor, j_row.conj())
        self.w /= math.sqrt(2.0)


def reference_count(unreduced, lam):
    """N(lambda) at one point from the unreduced matrix ``unreduced`` (an
    :class:`UnreducedReduction`): Python-float edge coefficients, one 2-D
    matmul per sign and one 2-D eigvalsh, with every edge term and border
    row on the full matrix."""

    def edge_terms(coef):
        return sum((w * c) @ w.conj().T for w, c in zip(unreduced.w, coef))

    def negative(mat):
        if not mat.size:
            return 0
        row_max = np.abs(mat).max(axis=1)
        scale = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
        return int(np.count_nonzero(np.linalg.eigvalsh(mat * np.outer(scale, scale)) < 0))

    length = unreduced.length
    if lam <= 0.0:
        kappa = math.sqrt(-lam)
        t = np.tanh(0.5 * kappa * length)
        coef = np.stack([kappa * t, np.divide(kappa, t, out=2.0 / length, where=t > 0)])
        return negative(unreduced.s_mat + edge_terms(coef))
    k = math.sqrt(lam)
    q = k * length / math.pi
    levels = np.ceil(q) - 1.0
    tau = np.tan(0.5 * math.pi * (q - levels))
    small = tau < 1.0
    border = ~small | (levels > 0)
    neg = np.where(small, -k * tau, 0.0)
    pos = np.divide(k, tau, out=np.zeros_like(tau), where=~(small & border))
    odd = levels % 2 == 1
    coef = np.stack([np.where(odd, pos, neg), np.where(odd, neg, pos)])
    mat = unreduced.s_mat + edge_terms(coef)
    if not border.any():
        return int(levels.sum()) + negative(mat)
    vecs = math.sqrt(k) * np.where(small == odd, unreduced.w[0], unreduced.w[1])[:, border]
    b = np.where(small, -tau, 1.0 / np.maximum(tau, 1.0))[border]
    mat = np.block([[mat, vecs], [vecs.conj().T, np.diag(b)]])
    return int(levels.sum()) + negative(mat) - int(np.count_nonzero(b < 0))


def reference_eigenvalues(count_below, count, lam_min=None):
    """Depth-first bisection of the count ``count_below(lam)``, one point at
    a time: the lowest ``count`` eigenvalues, bracketed and refined as
    ``eigenvalues_compact`` does."""

    def bracket(lam, done):
        while not done(count_below(lam)):
            lam *= 2.0
        return lam

    lo = bracket(-1.0, lambda n: n == 0) if lam_min is None else lam_min
    n_lo = count_below(lo)
    target = n_lo + count
    hi = bracket(max(1.0, 2.0 * lo), lambda n: n >= target)
    values = []
    stack = [(lo, hi, n_lo, count_below(hi))]
    while stack:
        a, b, n_a, n_b = stack.pop()
        if n_b <= n_a or n_a >= target:
            continue
        mid = 0.5 * (a + b)
        if b - a <= 1e-13 * max(1.0, abs(a), abs(b)):
            values.extend([mid] * (n_b - n_a))
            continue
        n_mid = min(max(count_below(mid), n_a), n_b)
        stack += [(mid, b, n_mid, n_b), (a, mid, n_a, n_mid)]
    return np.array(values[:count])
