"""In-memory spans around the calls into each qgraph layer.

Nothing in ``src/`` is edited: :func:`instrument` rebinds names inside the
already-imported qgraph modules and returns a function that puts every
original back.  Two kinds of names are rebound:

* every public function a layer module defines (``couplings``,
  ``builder``, ``graphs``, ``solver``, ``convergence``, ``budget``,
  ``serialize``, ``cli``), in every qgraph module that holds a reference to
  it, so ``from .builder import build_approx_graph`` copies are covered too,
  plus ``GreensFunction.kernel_matrix``;
* the numpy/scipy routines the numerical layers call, scoped to the calling
  module: ``qgraph.solver``'s ``np.linalg`` routines, LU calls and root
  finders, and the ``leggauss``/``CubicSpline`` calls of
  ``qgraph.convergence`` and ``qgraph.budget``.  The benchmark's own checks
  use numpy directly and are therefore never counted.

A span is ``(id, parent, name, start, end, nested)``; ``nested`` marks a span
whose name is already open further up the stack, so inclusive times do not
count recursion twice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("couplings", "builder", "graphs", "solver", "convergence", "budget", "serialize", "cli")

# Spans that also add to a count: span name -> (counter, measure of the result).
RESULT_COUNTS = {
    "builder.build_approx_graph": ("builder.inner_edges", lambda graph: len(graph.w_inner)),
    "serialize.dumps": ("serialize.bytes_out", lambda text: len(text.encode("utf-8"))),
    "budget.verify_form_bound": ("budget.samples", lambda report: report.n_samples),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.max_n = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def wrap(self, name, fn, on_call=None, on_result=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = open_names[name] > 0
            stack.append(sid)
            open_names[name] += 1
            if on_call is not None:
                on_call(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names[name] -= 1
                spans[sid] = (sid, parent, name, start, end, nested)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for sid, _, name, start, end, nested in self.spans:
            calls[name] += 1
            if not nested:
                incl[name] += end - start
            self_s[name] += end - start - child[sid]
        return {n: {"calls": calls[n], "s": incl[n], "self_s": self_s[n]} for n in calls}

    def root_seconds(self, since: int = 0) -> float:
        """Seconds covered by top-level spans, from span index ``since`` on."""
        return sum(end - start for _, parent, _, start, end, _ in self.spans[since:] if parent < 0)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class _Namespace:
    """Stands in for a module inside one qgraph module: overridden names
    first, everything else looked up once on the real module and cached."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


def _matrix_n(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(max(shape)) if shape else 0


# Real-arithmetic flop counts per call, computed from the matrix size n and
# the right-hand-side count r only: LU 2n^3/3, singular values 4n^3,
# triangular solves 2n^2 r, times 4 for complex arithmetic.  They are
# labelled "computed" wherever they are reported.
_FLOPS = {
    "slogdet": lambda n, r: 8 * n**3 // 3,
    "lu_factor": lambda n, r: 8 * n**3 // 3,
    "svd": lambda n, r: 16 * n**3,
    "cond": lambda n, r: 16 * n**3,
    "solve": lambda n, r: 8 * n**3 // 3 + 8 * n * n * r,
    "lu_solve": lambda n, r: 8 * n * n * r,
}


def _rhs_columns(args) -> int:
    if len(args) < 2:
        return 1
    shape = getattr(args[1], "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def instrument(tracer: Tracer, qgraph_modules: dict):
    """Rebind the layer boundaries in ``qgraph_modules`` (name -> module) to
    traced wrappers; returns the function that restores the originals."""
    saved: list[tuple] = []

    def rebind(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def counting(counter, measure):
        def on_result(result):
            tracer.counts[counter] += measure(result)
        return on_result

    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        mod = qgraph_modules[f"qgraph.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            span = f"{layer}.{name}"
            on_result = counting(*RESULT_COUNTS[span]) if span in RESULT_COUNTS else None
            wrapped[id(obj)] = tracer.wrap(span, obj, on_result=on_result)
    for mod in qgraph_modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                rebind(mod, name, wrapped[id(obj)])

    solver = qgraph_modules["qgraph.solver"]
    green = solver.GreensFunction
    rebind(green, "kernel_matrix", tracer.wrap("solver.kernel_matrix", green.kernel_matrix))

    def linalg(name, fn):
        def on_call(args, kwargs):
            n = _matrix_n(args)
            tracer.max_n = max(tracer.max_n, n)
            tracer.counts["linalg.flops"] += _FLOPS[name](n, _rhs_columns(args))
        return tracer.wrap(f"linalg.{name}", fn, on_call=on_call)

    np = solver.np
    rebind(solver, "np", _Namespace(np, linalg=_Namespace(
        np.linalg, **{f: linalg(f, getattr(np.linalg, f)) for f in ("slogdet", "svd", "cond", "solve")})))
    rebind(solver, "lu_factor", linalg("lu_factor", solver.lu_factor))
    rebind(solver, "lu_solve", linalg("lu_solve", solver.lu_solve))
    rebind(solver, "brentq", tracer.wrap("root.brentq", solver.brentq))
    rebind(solver, "minimize_scalar", tracer.wrap("root.minimize_scalar", solver.minimize_scalar))

    for modname in ("qgraph.convergence", "qgraph.budget"):
        mod = qgraph_modules[modname]
        legendre = mod.np.polynomial.legendre
        traced_leggauss = tracer.wrap("quad.leggauss", legendre.leggauss)
        rebind(mod, "np", _Namespace(mod.np, polynomial=_Namespace(
            mod.np.polynomial, legendre=_Namespace(legendre, leggauss=traced_leggauss))))
    budget = qgraph_modules["qgraph.budget"]
    rebind(budget, "CubicSpline", _traced_spline(tracer, budget.CubicSpline))

    def restore():
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)

    return restore


def _traced_spline(tracer: Tracer, cls):
    """CubicSpline whose construction is a ``budget.CubicSpline`` span and
    whose evaluations (values and derivatives) are ``budget.CubicSpline.eval``."""
    construct = tracer.wrap("budget.CubicSpline", cls)
    evaluate = tracer.wrap("budget.CubicSpline.eval", lambda spline, *a, **k: spline(*a, **k))
    differentiate = tracer.wrap(
        "budget.CubicSpline.eval", lambda spline, *a, **k: spline.derivative(*a, **k))

    class TracedSpline:
        __slots__ = ("_spline",)

        def __init__(self, spline):
            self._spline = spline

        def __call__(self, *args, **kwargs):
            return evaluate(self._spline, *args, **kwargs)

        def derivative(self, *args, **kwargs):
            return TracedSpline(differentiate(self._spline, *args, **kwargs))

    return lambda *args, **kwargs: TracedSpline(construct(*args, **kwargs))


def qgraph_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "qgraph" or name.startswith("qgraph.")}
