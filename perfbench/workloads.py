"""The three workloads: seeded input documents and the op list run on them.

An op is one call into qgraph -- a CLI command through ``qgraph.cli.main``
or, where no command exists, a library call -- followed by checks from
:mod:`checks`.  Only the call is timed.  Ops run in list order; later ops
read the files earlier ops wrote, as a user's shell session would.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as ck

L = 1.0
SPECTRUM_COUNT = 10
FORM_SAMPLES = 200


@dataclass
class Coupling:
    """An input document plus the benchmark's own (A, B) for the checks."""

    name: str
    doc: dict
    ab: tuple
    delta_prime_beta: float | None = None
    acceptance: bool = False


@dataclass
class Op:
    name: str
    stage: str
    run: Callable[["Context"], Any]
    check: Callable[["Context", Any], list]


@dataclass
class Context:
    """What ops share within one pass: the qgraph modules, the work
    directory holding the input documents, and per-pass counters."""

    q: Any
    work: Path
    counts: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, *argv: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.q.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"qgraph {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def read(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by


# -- input documents ----------------------------------------------------------

def _cjson(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _mjson(mat) -> list:
    return [[_cjson(x) for x in row] for row in np.asarray(mat)]


def _cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def st_coupling(name: str, S, T, perm) -> Coupling:
    S, T = np.asarray(S, dtype=complex), np.asarray(T, dtype=complex)
    doc = {"st": {"m": S.shape[0], "perm": list(perm), "S": _mjson(S), "T": _mjson(T)}}
    return Coupling(name, doc, ck.ab_from_st(S, T, perm))


def delta_coupling(alpha: float, n: int) -> Coupling:
    ab = ck.ab_from_st(np.array([[alpha]]), np.ones((1, n - 1)), range(1, n + 1))
    return Coupling(f"delta_n{n}", {"kind": "delta", "n": n, "alpha": alpha}, ab)


def delta_prime_coupling(beta: float, n: int, as_matrices: bool = False) -> Coupling:
    """delta'-s: f'(0) = (1/beta) J f(0), i.e. A = -J/beta, B = I."""
    ab = (-np.ones((n, n), dtype=complex) / beta, np.eye(n, dtype=complex))
    if as_matrices:
        doc = {"n": n, "A": _mjson(ab[0]), "B": _mjson(ab[1])}
    else:
        doc = {"kind": "delta_prime_s", "n": n, "beta": beta}
    return Coupling(f"delta_prime_n{n}", doc, ab, delta_prime_beta=beta)


def random_st_coupling(rng, name: str, n: int, m: int) -> Coupling:
    """A random normal form with standard complex normal entries, as the
    test suite draws them."""
    x = _cnormal(rng, (m, m))
    perm = [int(p) for p in rng.permutation(np.arange(1, n + 1))]
    return st_coupling(name, (x + x.conj().T) / 2, _cnormal(rng, (m, n - m)), perm)


def random_dense_coupling(rng, name: str, n: int, m: int) -> Coupling:
    """A random admissible coupling as a dense (A, B) pair: a random normal
    form, its edges shuffled, both matrices mixed by a random unitary."""
    x = _cnormal(rng, (m, m))
    a_mat, b_mat = ck.ab_from_st((x + x.conj().T) / 2, _cnormal(rng, (m, n - m)), range(1, n + 1))
    cols = rng.permutation(n)
    a_mat, b_mat = a_mat[:, cols], b_mat[:, cols]
    unitary, _ = np.linalg.qr(_cnormal(rng, (n, n)))
    a_mat, b_mat = unitary @ a_mat, unitary @ b_mat
    return Coupling(name, {"n": n, "A": _mjson(a_mat), "B": _mjson(b_mat)}, (a_mat, b_mat))


def acceptance_couplings() -> list[Coupling]:
    """The four couplings of the acceptance suite, as the tests define them."""
    couplings = [
        delta_coupling(1.0, 3),
        delta_prime_coupling(1.0, 3),
        st_coupling("kirchhoff_perturbed", [[0.2]], [[1.0, 0.9]], (1, 2, 3)),
        st_coupling(
            "complex_t",
            [[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]],
            [[0.8 + 0.6j], [1.1 - 0.3j]],
            (1, 2, 3),
        ),
    ]
    for c in couplings:
        c.acceptance = True
    return couplings


# -- op builders ----------------------------------------------------------------

def sweep_op(c: Coupling, metric: str, d_arg: float | None = None, after=None) -> Op:
    """``qgraph sweep`` on the default grid, or at one d when ``d_arg`` is
    given; ``after`` names an earlier single-d op whose value must be larger."""
    tag = f"{c.name}-{metric}" + ("" if d_arg is None else f"-d{d_arg:g}")
    out = f"sweep-{tag}.csv"
    d_flag = [] if d_arg is None else ["--d", repr(d_arg)]

    def run(ctx):
        ctx.cli("sweep", ctx.path(f"{c.name}.json"), "--metric", metric, "--out", ctx.path(out), *d_flag)

    def check(ctx, _):
        points, slope = ck.read_sweep_csv(ctx.read(out))
        ctx.bump("skipped_points", sum(1 for _, v, _ in points if v is None))
        ctx.bump("quad_warnings", sum(1 for _, _, s in points if "quadrature unstable" in s))
        if d_arg is None:
            known = ck.KNOWN_EIG_DEFECT.get(c.name, ()) if c.acceptance else ()
            return ck.sweep_checks(f"sweep {metric} {c.name}", metric, points, slope, c.acceptance, known)
        (_, value, status), = points
        ok = status == "ok" and value is not None and value > 0
        if after is not None:
            prev = ck.read_sweep_csv(ctx.read(f"sweep-{c.name}-{metric}-d{after:g}.csv"))[0][0][1]
            ok = ok and prev is not None and value < prev
        return [ck.Check(f"sweep {metric} {c.name} d={d_arg:g} ok and below larger d", ok)]

    return Op(f"sweep {metric} {tag}", f"sweep_{metric}", run, check)


def build_op(c: Coupling, d: float, source: str | None = None) -> Op:
    """``qgraph build``; ``source`` names another document to build from
    (the output of ``convert``)."""
    src = source or f"{c.name}.json"
    out = f"graph-{c.name}-{d:g}.json"

    def run(ctx):
        ctx.cli("build", ctx.path(src), "--d", repr(d), "--out", ctx.path(out))

    def check(ctx, _):
        text = ctx.read(out)
        n = c.ab[0].shape[0]
        result = [ck.graph_shape_check(f"build {c.name}", text, n, d)]
        if c.delta_prime_beta is not None:
            result.append(ck.delta_prime_strengths_check(f"build {c.name}", text, n, c.delta_prime_beta, d))
        return result

    return Op(f"build {c.name} d={d:g}", "build", run, check)


def spectrum_op(c: Coupling, d: float | None) -> Op:
    """``qgraph spectrum`` of the star (d None) or of the graph built at d."""
    src = f"{c.name}.json" if d is None else f"graph-{c.name}-{d:g}.json"
    tag = "star" if d is None else f"d={d:g}"
    out = f"spectrum-{c.name}-{tag}.csv"

    def run(ctx):
        ctx.cli("spectrum", ctx.path(src), "--L", repr(L), "--count", str(SPECTRUM_COUNT),
                "--out", ctx.path(out))

    def check(ctx, _):
        values = ck.read_spectrum_csv(ctx.read(out))
        label = f"spectrum {c.name} {tag}"
        n = c.ab[0].shape[0]
        if d is None:
            result = ck.star_spectrum_checks(label, values, c.ab, L, SPECTRUM_COUNT)
            if c.delta_prime_beta is not None:
                result.append(ck.delta_prime_star_check(label, values, n, c.delta_prime_beta, L))
            return result
        result = [ck.spectrum_shape_check(label, values, SPECTRUM_COUNT)]
        if c.delta_prime_beta is not None:
            floor = -10.0 * max(1.0, n / c.delta_prime_beta) ** 2
            result.append(ck.symmetric_pattern_check(label, values, n, floor))
        return result

    return Op(f"spectrum {c.name} {tag}", "spectrum", run, check)


def convert_op(c: Coupling) -> Op:
    out = f"{c.name}-st.json"

    def run(ctx):
        ctx.cli("convert", ctx.path(f"{c.name}.json"), "--out", ctx.path(out))

    def check(ctx, _):
        return [ck.same_coupling(c.ab, ck.st_doc_to_ab(json.loads(ctx.read(out))))]

    return Op(f"convert {c.name}", "convert", run, check)


def scattering_op(c: Coupling, d: float, ks=(0.5, 1.0, 2.0)) -> Op:
    """No command prints S-matrices: load the built graph with
    ``serialize.loads`` and call ``effective_scattering``."""
    src = f"graph-{c.name}-{d:g}.json"

    def run(ctx):
        g = ctx.q.serialize.loads(ctx.read(src))
        return [ctx.q.solver.effective_scattering(g, k) for k in ks]

    def check(ctx, mats):
        return [ck.unitarity_check(f"scattering {c.name} k={k:g}", s) for k, s in zip(ks, mats)]

    return Op(f"scattering {c.name} d={d:g}", "scattering", run, check)


def form_bound_op(c: Coupling, d: float, eta: float, seed: int) -> Op:
    src = f"graph-{c.name}-{d:g}.json"

    def run(ctx):
        g = ctx.q.serialize.loads(ctx.read(src))
        return ctx.q.budget.verify_form_bound(g, eta, FORM_SAMPLES, seed)

    def check(ctx, report):
        ctx.bump("form_bound_samples", report.n_samples)
        return [ck.form_bound_check(f"form bound {c.name} d={d:g} eta={eta:g}", report, FORM_SAMPLES)]

    return Op(f"form-bound {c.name} d={d:g} eta={eta:g}", "form_bound", run, check)


def budget_op() -> Op:
    def run(ctx):
        return ctx.cli("budget")

    def check(ctx, text):
        ok = text.startswith("optimal alpha = 1/14 (") and "combined exponent = 1/28 (" in text
        return [ck.Check("budget optimum alpha 1/14, exponent 1/28", ok)]

    return Op("budget optimum", "budget", run, check)


# -- workloads ------------------------------------------------------------------

@dataclass
class Workload:
    couplings: list
    ops: list


def convergence_n3(seed: int) -> Workload:
    """The paper's experiment: every metric on the full default grid for the
    four acceptance couplings and one seeded random n = 3 normal form (m = 2,
    the general case with a coupling block T), plus truncated spectra."""
    rng = np.random.default_rng(seed)
    couplings = acceptance_couplings() + [random_st_coupling(rng, "random_n3", 3, 2)]
    ops = []
    for c in couplings:
        ops += [sweep_op(c, metric) for metric in ("scattering", "hs", "eig")]
        ops.append(spectrum_op(c, None))
        for d in (2.0**-2, 2.0**-4):
            ops += [build_op(c, d), spectrum_op(c, d)]
    return Workload(couplings, ops)


def wide_star(seed: int) -> Workload:
    """Large n, few spectral points: huge dense matching matrices."""
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.5, 2.0))
    dp16, dp24, dp64 = (delta_prime_coupling(beta, n) for n in (16, 24, 64))
    ops = [sweep_op(dp16, "scattering")]
    previous = None
    for p in (2, 5, 8):
        ops.append(sweep_op(dp24, "scattering", d_arg=2.0**-p, after=previous))
        previous = 2.0**-p
    ops.append(build_op(dp64, float(rng.uniform(0.01, 0.1))))
    couplings = [dp16, dp24, dp64]
    for n in (8, 12, 16):
        c = random_dense_coupling(rng, f"random_n{n}", n, n // 2)
        d = float(rng.uniform(0.05, 0.2))
        couplings.append(c)
        ops += [convert_op(c), build_op(c, d, source=f"{c.name}-st.json"), scattering_op(c, d)]
    return Workload(couplings, ops)


def form_bound(seed: int) -> Workload:
    """Acceptance criterion 8 at the workload seed, one larger delta'-s
    graph given as a matrix pair, and the exponent budget at its optimum."""
    rng = np.random.default_rng(seed)
    couplings = acceptance_couplings()
    ops = []
    sample_seed = int(rng.integers(2**31))
    for c in couplings:
        for d in (0.1, 0.05):
            ops.append(build_op(c, d))
            ops += [form_bound_op(c, d, eta, sample_seed) for eta in (0.5, 1.0)]
    big = delta_prime_coupling(float(rng.uniform(0.5, 2.0)), 7, as_matrices=True)
    couplings.append(big)
    ops += [build_op(big, 0.1), form_bound_op(big, 0.1, 0.5, sample_seed), budget_op()]
    return Workload(couplings, ops)


WORKLOADS = {
    "convergence-n3": convergence_n3,
    "wide-star": wide_star,
    "form-bound": form_bound,
}


def write_inputs(workload: Workload, work: Path) -> list[Path]:
    """Write every input document; returns their paths, in coupling order."""
    paths = []
    for c in workload.couplings:
        path = work / f"{c.name}.json"
        path.write_text(json.dumps(c.doc), encoding="utf-8")
        paths.append(path)
    return paths
