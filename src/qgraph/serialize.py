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

Loaders read JSON types, shapes and key formats, reading every number
through the library's one scalar rule, and raise :class:`InputError` on
malformed data; what a document means is checked by the objects it makes,
which raise :class:`InputError` or :class:`StructuralError`.
``loads``/``dumps`` wrap the sniffing dispatch over all four shapes.
"""

from __future__ import annotations

import json

import numpy as np

from ._util import require_finite_real
from .builder import ApproxGraph, NeighborSets
from .couplings import CouplingKind, NamedCoupling, STForm, VertexCoupling
from .errors import InputError

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
    return complex(require_finite_real(obj["re"], f"{name}.re"),
                   require_finite_real(obj["im"], f"{name}.im"))


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


def named_from_json(data: dict) -> NamedCoupling:
    if "kind" not in data:
        raise InputError('named coupling needs a "kind" field')
    kind_name = data["kind"]
    try:
        kind = CouplingKind(kind_name)
    except ValueError:
        raise InputError(
            f"unknown coupling kind {kind_name!r}; "
            f"expected one of {sorted(k.value for k in CouplingKind)}"
        ) from None
    allowed = {"kind", "n"}
    if kind is CouplingKind.DELTA:
        allowed.add("alpha")
    if kind is CouplingKind.DELTA_PRIME_S:
        allowed.add("beta")
    _require_keys(data, allowed, f"{kind_name} coupling")
    n = _integer(data["n"], "n")
    return NamedCoupling(kind=kind, n=n, alpha=data.get("alpha"), beta=data.get("beta"))


# ---------------------------------------------------------------------------
# Approximating graphs
# ---------------------------------------------------------------------------

def approx_to_json(g: ApproxGraph) -> dict:
    pairs = g.neighbors.pairs()
    return {
        "n": g.n,
        "d": g.d,
        "neighbors": {
            str(j): sorted(g.neighbors.sets[j]) for j in range(1, g.n + 1)
        },
        "w_vertex": {str(j): g.w_vertex[j] for j in range(1, g.n + 1)},
        "w_inner": {f"{j}-{k}": g.w_inner[(j, k)] for j, k in pairs},
        "a_inner": {f"{j}-{k}": g.a_inner[(j, k)] for j, k in pairs},
    }


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{name} must be an object, got {value!r}")
    return value


def _parse_key(key: str, name: str, pair: bool = False):
    """The vertex j of a key "j", or the pair (j, k), j < k, of a key
    "j-k", written as :func:`approx_to_json` writes them."""
    try:
        if pair:
            j, k = key.split("-")
            parsed = int(j), int(k)
        else:
            parsed = int(key)
    except ValueError:
        parsed = None
    if parsed is None or (f"{parsed[0]}-{parsed[1]}" if pair else str(parsed)) != key:
        raise InputError(f'{name} key {key!r} is not of the form "{"j-k" if pair else "j"}"')
    if pair and not parsed[0] < parsed[1]:
        raise InputError(f"{name} key {key!r} must satisfy j < k")
    return parsed


def approx_from_json(data: dict) -> ApproxGraph:
    _require_keys(
        data, {"n", "d", "neighbors", "w_vertex", "w_inner", "a_inner"}, "approx graph"
    )
    n = _integer(data["n"], "n")
    sets = {}
    for key, members in _object(data["neighbors"], "neighbors").items():
        if not isinstance(members, list):
            raise InputError(f"neighbors[{key!r}] must be a list")
        sets[_parse_key(key, "neighbors")] = members
    tables = {
        field: {
            _parse_key(key, field, pair=field != "w_vertex"):
                require_finite_real(value, f"{field}[{key!r}]")
            for key, value in _object(data[field], field).items()
        }
        for field in ("w_vertex", "w_inner", "a_inner")
    }
    a_inner = {}
    for (j, k), a in tables["a_inner"].items():
        a_inner[(j, k)], a_inner[(k, j)] = a, -a
    return ApproxGraph(
        n=n,
        d=data["d"],
        neighbors=NeighborSets(n=n, sets=sets),
        w_vertex=tables["w_vertex"],
        w_inner=tables["w_inner"],
        a_inner=a_inner,
    )


# ---------------------------------------------------------------------------
# Sniffing dispatch
# ---------------------------------------------------------------------------

def loads(text: str):
    """Parse any of the four JSON shapes, dispatching on the fields.

    Returns a :class:`VertexCoupling`, :class:`STForm`,
    :class:`NamedCoupling` or :class:`ApproxGraph`.  Malformed JSON
    raises ``json.JSONDecodeError``; an integer of more digits than Python
    converts, nesting deeper than the parser's recursion limit, and
    structurally wrong data raise :class:`InputError` or
    :class:`StructuralError`.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise InputError("an integer has more digits than can be read") from None
    except RecursionError:
        raise InputError("the JSON nests too deeply to be read") from None
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
