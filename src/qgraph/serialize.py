"""JSON encoding of couplings, normal forms, and approximating graphs.

The wire formats are fixed:

* complex numbers are always ``{"re": x, "im": y}`` objects,
* a raw coupling is ``{"n": int, "A": [[complex, ...], ...], "B": [[...]]}``,
* a normal form is ``{"st": {"m": int, "perm": [ints], "S": [[...]],
  "T": [[...]]}}`` with n implied by the permutation length,
* a named coupling is ``{"kind": "delta" | "delta_prime_s" | "kirchhoff"
  | "dirichlet", "n": int}`` plus ``"alpha"`` or ``"beta"`` where the
  family takes a strength,
* an approximating graph is ``{"n", "d", "neighbors": {"1": [2, ...]},
  "w_vertex": {"1": w}, "w_inner": {"1-2": w}, "a_inner": {"1-2": a}}``
  with inner-edge keys ``"j-k"``, j < k, and a_inner storing A_{(j,k)}
  for j < k only — the opposite orientation is its negative.

Loaders validate shapes and symmetry and raise :class:`InputError` or
:class:`StructuralError` on malformed data; ``loads``/``dumps`` wrap the
sniffing dispatch over all four shapes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._util import require_half_length
from .builder import ApproxGraph, NeighborSets
from .couplings import CouplingKind, NamedCoupling, STForm, VertexCoupling
from .errors import InputError, StructuralError

__all__ = ["dumps", "loads"]


# ---------------------------------------------------------------------------
# Scalars and matrices
# ---------------------------------------------------------------------------

def complex_to_json(value: complex) -> dict:
    value = complex(value)
    return {"re": float(value.real), "im": float(value.imag)}


def complex_from_json(obj, name: str = "value") -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise InputError(f'{name} must be a {{"re", "im"}} object, got {obj!r}')
    re, im = obj["re"], obj["im"]
    if isinstance(re, bool) or isinstance(im, bool):
        raise InputError(f"{name} components must be numbers")
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise InputError(f"{name} components must be numbers, got {obj!r}")
    value = complex(float(re), float(im))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InputError(f"{name} must be finite, got {obj!r}")
    return value


def matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[complex_to_json(entry) for entry in row] for row in mat]


def matrix_from_json(rows, name: str, shape: tuple[int, int]) -> np.ndarray:
    n_rows, n_cols = shape
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise InputError(f"{name} must be a list of {n_rows} rows, got {rows!r}")
    out = np.zeros(shape, dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise InputError(f"{name} row {i} must have {n_cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = complex_from_json(entry, f"{name}[{i}][{j}]")
    return out


def _real_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise InputError(f"{name} must be finite, got {value!r}")
    return out


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def _require_keys(data: dict, keys: set[str], what: str) -> None:
    if set(data) != keys:
        raise InputError(
            f"{what} must have exactly the fields {sorted(keys)}, got {sorted(data)}"
        )


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------

def coupling_to_json(c: VertexCoupling) -> dict:
    return {"n": c.n, "A": matrix_to_json(c.A), "B": matrix_to_json(c.B)}


def coupling_from_json(data: dict) -> VertexCoupling:
    _require_keys(data, {"n", "A", "B"}, "coupling")
    n = _integer(data["n"], "n")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return VertexCoupling(
        n=n,
        A=matrix_from_json(data["A"], "A", (n, n)),
        B=matrix_from_json(data["B"], "B", (n, n)),
    )


def st_to_json(st: STForm) -> dict:
    return {
        "st": {
            "m": st.m,
            "perm": list(st.perm),
            "S": matrix_to_json(st.S),
            "T": matrix_to_json(st.T),
        }
    }


def st_from_json(data: dict) -> STForm:
    _require_keys(data, {"st"}, "normal form")
    body = data["st"]
    if not isinstance(body, dict):
        raise InputError(f'"st" must be an object, got {body!r}')
    _require_keys(body, {"m", "perm", "S", "T"}, "st")
    perm = body["perm"]
    if not isinstance(perm, list) or not perm:
        raise InputError(f"perm must be a nonempty list, got {perm!r}")
    n = len(perm)
    m = _integer(body["m"], "m")
    if not 0 <= m <= n:
        raise InputError(f"m must satisfy 0 <= m <= n={n}, got {m}")
    return STForm(
        n=n,
        m=m,
        perm=tuple(_integer(p, "perm entry") for p in perm),
        S=matrix_from_json(body["S"], "S", (m, m)),
        T=matrix_from_json(body["T"], "T", (m, n - m)),
    )


_NAMED_KINDS = {
    "kirchhoff": CouplingKind.KIRCHHOFF,
    "delta": CouplingKind.DELTA,
    "delta_prime_s": CouplingKind.DELTA_PRIME_S,
    "dirichlet": CouplingKind.DIRICHLET,
}


def named_from_json(data: dict) -> NamedCoupling:
    if "kind" not in data:
        raise InputError('named coupling needs a "kind" field')
    kind_name = data["kind"]
    kind = _NAMED_KINDS.get(kind_name)
    if kind is None:
        raise InputError(
            f"unknown coupling kind {kind_name!r}; expected one of {sorted(_NAMED_KINDS)}"
        )
    allowed = {"kind", "n"}
    if kind is CouplingKind.DELTA:
        allowed.add("alpha")
    if kind is CouplingKind.DELTA_PRIME_S:
        allowed.add("beta")
    _require_keys(data, allowed, f"{kind_name} coupling")
    n = _integer(data["n"], "n")
    alpha = _real_number(data["alpha"], "alpha") if "alpha" in data else None
    beta = _real_number(data["beta"], "beta") if "beta" in data else None
    return NamedCoupling(kind=kind, n=n, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# Approximating graphs
# ---------------------------------------------------------------------------

def _pair_key(j: int, k: int) -> str:
    return f"{j}-{k}"


def approx_to_json(g: ApproxGraph) -> dict:
    pairs = g.neighbors.pairs()
    return {
        "n": g.n,
        "d": g.d,
        "neighbors": {
            str(j): sorted(g.neighbors.sets[j]) for j in range(1, g.n + 1)
        },
        "w_vertex": {str(j): g.w_vertex[j] for j in range(1, g.n + 1)},
        "w_inner": {_pair_key(j, k): g.w_inner[(j, k)] for j, k in pairs},
        "a_inner": {_pair_key(j, k): g.a_inner[(j, k)] for j, k in pairs},
    }


def _parse_pair_key(key: str, n: int, name: str) -> tuple[int, int]:
    parts = key.split("-")
    if len(parts) != 2:
        raise InputError(f'{name} key {key!r} is not of the form "j-k"')
    try:
        j, k = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"{name} key {key!r} is not an integer pair") from exc
    if not (1 <= j < k <= n):
        raise InputError(f"{name} key {key!r} must satisfy 1 <= j < k <= {n}")
    return j, k


def approx_from_json(data: dict) -> ApproxGraph:
    _require_keys(
        data, {"n", "d", "neighbors", "w_vertex", "w_inner", "a_inner"}, "approx graph"
    )
    n = _integer(data["n"], "n")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    d = require_half_length(_real_number(data["d"], "d"))
    raw_sets = data["neighbors"]
    if not isinstance(raw_sets, dict) or set(raw_sets) != {str(j) for j in range(1, n + 1)}:
        raise InputError(f'neighbors must have exactly the keys "1".."{n}"')
    sets: dict[int, frozenset[int]] = {}
    for j in range(1, n + 1):
        members = raw_sets[str(j)]
        if not isinstance(members, list):
            raise InputError(f"neighbors[{j!r}] must be a list")
        checked = set()
        for k in members:
            k = _integer(k, f"neighbors[{j}] entry")
            if not 1 <= k <= n or k == j:
                raise StructuralError(f"neighbor {k} of {j} out of range")
            checked.add(k)
        sets[j] = frozenset(checked)
    for j in range(1, n + 1):
        for k in sets[j]:
            if j not in sets[k]:
                raise StructuralError(
                    f"neighbor sets are not symmetric: {k} in N_{j} but {j} not in N_{k}"
                )
    nbrs = NeighborSets(n=n, m=None, sets=sets)
    pair_keys = {_pair_key(j, k) for j, k in nbrs.pairs()}
    raw_wv = data["w_vertex"]
    if not isinstance(raw_wv, dict) or set(raw_wv) != {str(j) for j in range(1, n + 1)}:
        raise InputError(f'w_vertex must have exactly the keys "1".."{n}"')
    w_vertex = {j: _real_number(raw_wv[str(j)], f"w_vertex[{j}]") for j in range(1, n + 1)}
    tables: dict[str, dict[tuple[int, int], float]] = {}
    for field in ("w_inner", "a_inner"):
        raw = data[field]
        if not isinstance(raw, dict) or set(raw) != pair_keys:
            raise InputError(
                f"{field} must have exactly the inner-edge keys {sorted(pair_keys)}"
            )
        table = {}
        for key, value in raw.items():
            pair = _parse_pair_key(key, n, field)
            table[pair] = _real_number(value, f"{field}[{key!r}]")
        tables[field] = table
    a_inner = dict(tables["a_inner"])
    for (j, k), a in tables["a_inner"].items():
        a_inner[(k, j)] = -a
    return ApproxGraph(
        n=n,
        d=d,
        neighbors=nbrs,
        w_vertex=w_vertex,
        w_inner=tables["w_inner"],
        a_inner=a_inner,
        source_st=None,
    )


# ---------------------------------------------------------------------------
# Sniffing dispatch
# ---------------------------------------------------------------------------

def loads(text: str):
    """Parse any of the four JSON shapes, dispatching on the fields.

    Returns a :class:`VertexCoupling`, :class:`STForm`,
    :class:`NamedCoupling` or :class:`ApproxGraph`.  Malformed JSON
    raises ``json.JSONDecodeError``; structurally wrong data raises
    :class:`InputError` or :class:`StructuralError`.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InputError(f"top-level JSON must be an object, got {type(data).__name__}")
    if "st" in data:
        return st_from_json(data)
    if "kind" in data:
        return named_from_json(data)
    if "neighbors" in data:
        return approx_from_json(data)
    if {"A", "B"} <= set(data):
        return coupling_from_json(data)
    raise InputError(
        "unrecognized JSON shape: expected a coupling (A, B), a normal form (st), "
        "a named coupling (kind), or an approx graph (neighbors)"
    )


def dumps(obj) -> str:
    """Serialize a supported object to deterministic, indented JSON."""
    if isinstance(obj, VertexCoupling):
        data = coupling_to_json(obj)
    elif isinstance(obj, STForm):
        data = st_to_json(obj)
    elif isinstance(obj, ApproxGraph):
        data = approx_to_json(obj)
    elif isinstance(obj, dict):
        data = obj
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
