"""Output checks that share no machinery with the code they check.

Each check reads what qgraph wrote (CSV or JSON text) and compares it
against a closed form, a matrix identity or an acceptance window, using
plain numpy on matrices the benchmark built itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Tag of the one known defect: eigenvalue multiplicities at small d, where
#: genuinely nonzero singular values of the matching matrix fall below the
#: solver's fixed relative cutoffs (ROADMAP "Fix first").  Failed checks with
#: this tag still count in ``failed``; they do not make a run incorrect.
EIG_DEFECT = "eig-multiplicity-at-small-d"

#: The eigen-gap sweep points of the acceptance couplings where that defect
#: shows, by coupling: d -> 0 there makes the gap jump from below 0.6 to
#: about 16-18.  Only checks at these points carry the tag.
KNOWN_EIG_DEFECT = {"delta_prime_n3": (2.0**-10,), "complex_t": (2.0**-9, 2.0**-10)}


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    known: str | None = None


# -- parsing qgraph's outputs ----------------------------------------------

def read_sweep_csv(text: str):
    """(points, slope) from a sweep report: points are (d, value|None, status)."""
    lines = text.splitlines()
    if not lines or lines[0] != "d,metric,status":
        raise ValueError("sweep report header missing")
    points, fit = [], {}
    for line in lines[1:]:
        d_txt, rest = line.split(",", 1)
        if d_txt in ("slope", "intercept", "residual"):
            fit[d_txt] = float(rest)
            continue
        value_txt, status = rest.split(",", 1)
        points.append((float(d_txt), float(value_txt) if value_txt else None, status))
    return points, fit["slope"]


def read_spectrum_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "index,lambda":
        raise ValueError("spectrum header missing")
    rows = [line.split(",") for line in lines[1:]]
    if [int(i) for i, _ in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("spectrum indices are not 1..count")
    return np.array([float(v) for _, v in rows])


# -- sweeps -----------------------------------------------------------------

def sweep_checks(label: str, metric: str, points, slope: float, acceptance: bool,
                 known_d=()) -> list[Check]:
    """Per-point checks plus, for scattering and HS, a check of the slope.

    Every point must carry a plain ``ok`` status (a quadrature warning fails
    the point) and a finite positive value.

    For an acceptance coupling an eigen-gap point must also lie below every
    earlier point of the sweep: the gap shrinks as d halves, so a point that
    jumps back up has lost or duplicated an eigenvalue.  Only the checks at
    ``known_d`` carry the known defect's tag.  A random coupling need not be
    asymptotic on the default grid -- at seed 3 its gap rises from 33 at
    2^-2 to 129 at 2^-3 -- so its eigen-gap points get only the status check.

    For an acceptance coupling the slope must lie in the acceptance window
    (scattering >= 0.4, HS 0.35..0.65); for a random one it need only be
    positive.
    """
    checks = []
    best = math.inf
    for d, value, status in points:
        name = f"{label} d={d:g}"
        ok = status == "ok" and value is not None and math.isfinite(value) and value > 0
        if metric == "eig" and acceptance:
            ok = ok and value < best
            checks.append(Check(f"{name} eigengap shrinks", ok, EIG_DEFECT if d in known_d else None))
            if value is not None:
                best = min(best, value)
        else:
            checks.append(Check(f"{name} status ok", ok))
    if metric == "eig":
        return checks
    if not acceptance:
        ok, window = slope > 0, "> 0"
    elif metric == "scattering":
        ok, window = slope >= 0.4, ">= 0.4"
    else:
        ok, window = 0.35 <= slope <= 0.65, "in [0.35, 0.65]"
    checks.append(Check(f"{label} slope {slope:.3f} {window}", ok))
    return checks


# -- couplings --------------------------------------------------------------

def ab_from_st(S: np.ndarray, T: np.ndarray, perm) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the conditions [[I, T], [0, 0]] f' = [[S, 0], [-T*, I]] f,
    with column i of the normal form placed at original edge perm[i]."""
    m, rest = T.shape
    n = m + rest
    a_st = np.zeros((n, n), dtype=complex)
    b_st = np.zeros((n, n), dtype=complex)
    a_st[:m, :m] = -S
    a_st[m:, :m] = T.conj().T
    a_st[m:, m:] = -np.eye(rest)
    b_st[:m, :m] = np.eye(m)
    b_st[:m, m:] = T
    cols = np.asarray(perm) - 1
    a_mat = np.zeros_like(a_st)
    b_mat = np.zeros_like(b_st)
    a_mat[:, cols] = a_st
    b_mat[:, cols] = b_st
    return a_mat, b_mat


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(x["re"], x["im"]) for x in row] for row in rows], dtype=complex)


def st_doc_to_ab(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    body = doc["st"]
    n, m = len(body["perm"]), body["m"]
    S = _matrix(body["S"]).reshape(m, m)
    T = _matrix(body["T"]).reshape(m, n - m)
    return ab_from_st(S, T, body["perm"])


def same_coupling(ab1, ab2) -> Check:
    """Two pairs describe one coupling iff the rows of (A | B) span the same
    space: the stacked 2n x 2n matrix has rank n."""
    n = ab1[0].shape[0]
    stacked = np.block([[ab1[0], ab1[1]], [ab2[0], ab2[1]]])
    sv = np.linalg.svd(stacked, compute_uv=False)
    ratio = sv[n] / sv[0]
    return Check(f"convert keeps the coupling (rank gap {ratio:.1e})", ratio < 1e-9)


# -- spectra ----------------------------------------------------------------

def _groups(values: np.ndarray) -> list[tuple[float, int]]:
    groups: list[list[float]] = []
    for v in values:
        if groups and abs(v - groups[-1][0]) <= 1e-8 * max(1.0, abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(g[0], len(g)) for g in groups]


def star_spectrum_checks(label: str, values: np.ndarray, ab, L: float, count: int) -> list[Check]:
    """Each reported eigenvalue of the Dirichlet-truncated star is a root of
    det(A sin(kL)/k - B cos(kL)) of nullity equal to its multiplicity.

    On every edge the eigenfunction is c_j sin(k(L - x))/k, so the vertex
    condition A f(0) + B f'(0) = 0 reads (A sin(kL)/k - B cos(kL)) c = 0.
    """
    checks = [spectrum_shape_check(label, values, count)]
    a_mat, b_mat = ab
    groups = _groups(values)
    for index, (lam, mult) in enumerate(groups):
        if lam > 0:
            k = math.sqrt(lam)
            s, c = math.sin(k * L) / k, math.cos(k * L)
        elif lam < 0:
            kappa = math.sqrt(-lam)
            s, c = math.sinh(kappa * L) / kappa, math.cosh(kappa * L)
        else:
            s, c = L, 1.0
        scale = max(abs(s), abs(c))
        sv = np.linalg.svd((a_mat * s - b_mat * c) / scale, compute_uv=False)
        nullity = int(np.sum(sv < 1e-6 * sv[0]))
        last = index == len(groups) - 1
        ok = nullity >= mult if last else nullity == mult
        checks.append(Check(f"{label} lambda={lam:.6g} x{mult}: nullity {nullity}", ok))
    return checks


def delta_prime_star_values(n: int, beta: float, L: float, count: int) -> np.ndarray:
    """Closed-form spectrum of the truncated delta'-s star (beta > 0).

    Eigenfunctions with sum-zero amplitudes need cos(kL) = 0, each with
    multiplicity n - 1; the symmetric ones solve n sin(kL) + k beta cos(kL)
    = 0, one simple root in each ((j - 1/2) pi / L, j pi / L).
    """
    values = []
    for j in range(count):
        values.extend([((j + 0.5) * math.pi / L) ** 2] * (n - 1))
        lo, hi = (j + 0.5) * math.pi / L, (j + 1) * math.pi / L
        f = lambda k: n * math.sin(k * L) + k * beta * math.cos(k * L)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(lo) < 0) == (f(mid) < 0):
                lo = mid
            else:
                hi = mid
        values.append((0.5 * (lo + hi)) ** 2)
    return np.sort(np.array(values))[:count]


def delta_prime_star_check(label: str, values: np.ndarray, n: int, beta: float, L: float) -> Check:
    expected = delta_prime_star_values(n, beta, L, len(values))
    err = float(np.max(np.abs(values - expected) / np.maximum(1.0, np.abs(expected))))
    pattern = [m for _, m in _groups(values)]
    return Check(f"{label} limit values/multiplicities {pattern} (err {err:.1e})", err < 1e-8)


def symmetric_pattern_check(label: str, values: np.ndarray, n: int, floor: float) -> Check:
    """On the symmetric delta'-s approximating graph the levels above the
    floor come in groups of n - 1 and 1, alternating, as in the limit."""
    pattern = [m for lam, m in _groups(values) if lam > floor][:-1]
    expected = [n - 1 if i % 2 == 0 else 1 for i in range(len(pattern))]
    return Check(f"{label} multiplicities {pattern}", bool(pattern) and pattern == expected)


def spectrum_shape_check(label: str, values: np.ndarray, count: int) -> Check:
    ok = len(values) == count and bool(np.all(np.isfinite(values))) and bool(np.all(np.diff(values) >= 0))
    return Check(f"{label} {count} sorted finite eigenvalues", ok)


# -- builds -----------------------------------------------------------------

def graph_shape_check(label: str, text: str, n: int, d: float) -> Check:
    g = json.loads(text)
    numbers = list(g["w_vertex"].values()) + list(g["w_inner"].values()) + list(g["a_inner"].values())
    ok = g["n"] == n and g["d"] == d and all(math.isfinite(x) for x in numbers)
    return Check(f"{label} graph n={n} d={d:g} finite", ok)


def delta_prime_strengths_check(label: str, text: str, n: int, beta: float, d: float) -> Check:
    """Criterion 1 closed forms: every pair joined with strength
    -beta/d^2 - 2/d, every vertex (2 - n)/beta - (n - 1)/d."""
    g = json.loads(text)
    w_pair = -beta / d**2 - 2.0 / d
    w_vert = (2.0 - n) / beta - (n - 1.0) / d
    worst = max(
        max(abs(w - w_pair) / abs(w_pair) for w in g["w_inner"].values()),
        max(abs(w - w_vert) / abs(w_vert) for w in g["w_vertex"].values()),
    )
    pairs = len(g["w_inner"])
    ok = worst <= 1e-12 and pairs == n * (n - 1) // 2 and len(g["w_vertex"]) == n
    return Check(f"{label} delta' strengths (worst rel err {worst:.1e}, {pairs} pairs)", ok)


# -- scattering and form bound ----------------------------------------------

def unitarity_check(label: str, s_mat: np.ndarray) -> Check:
    defect = float(np.linalg.norm(s_mat.conj().T @ s_mat - np.eye(s_mat.shape[0]), 2))
    return Check(f"{label} S*S = I (defect {defect:.1e})", defect <= 1e-9)


def form_bound_check(label: str, report, n_samples: int) -> Check:
    ok = (
        report.ok
        and report.n_samples == n_samples
        and math.isfinite(report.c_eta)
        and math.isfinite(report.c_half)
    )
    return Check(f"{label} clean form-bound report ({len(report.violations)} violations)", ok)
