"""Print ``name sha256`` for a fixed list of qgraph outputs.

Usage::

    python tools/output_digest.py [TREE]

TREE is a qgraph checkout (default: the one holding this script).  Its
``src`` is put first on the import path, as ``PYTHONPATH=TREE/src`` would,
and its ``demos`` are run.  Each output line names one run and the sha-256
of everything the run shows a user:

* a CLI run, in process through ``qgraph.cli.main``: its exit code,
  stdout, stderr, the warnings it raised (category and message) and the
  file its ``--out`` wrote.  The runs cover the three sweep metrics on the
  default grid for delta (n = 3), delta' n = 3/4/8, ``complex_t``,
  ``kirchhoff_perturbed``, a coupling whose pair strength is singular at
  d = 2^-5 (a d of the default grid that fails to build) and seeded random
  dense (A, B) pairs at n = 3/5/8; HS sweeps at z = 2 and z = 1 + 0.5i;
  every metric at ``--d-range 11:16`` and at the one, non-dyadic d 0.3;
  the spectra of the stars and of the graphs built at d = 2^-4; the
  builds; and the error paths (L = 0, z = 0, count 0, k < 0, a missing
  file, an HS square sum that overflows at L = 1e200).
* a demo of ``TREE/demos``: its stdout and warnings.

The inputs are written by this script into a fresh temporary directory,
from numpy's seeded generator, so two trees see the same bytes.  Comparing
two trees is a ``diff`` of two runs::

    python tools/output_digest.py old > old.txt
    python tools/output_digest.py new > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("scattering", "hs", "eig")


def _cjson(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _mjson(mat) -> list:
    return [[_cjson(x) for x in row] for row in np.asarray(mat)]


def _st_doc(S, T, perm) -> dict:
    S = np.asarray(S, dtype=complex)
    return {"st": {"m": len(S), "perm": list(perm), "S": _mjson(S), "T": _mjson(T)}}


def _random_dense_doc(n: int) -> dict:
    """A random admissible (A, B) pair: the conditions [[I, T], [0, 0]] f' =
    [[S, 0], [-T*, I]] f of a random normal form, its edges shuffled and
    both matrices mixed by a random unitary (seed n)."""
    rng = np.random.default_rng(n)

    def normal(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m = n // 2 + 1
    x = normal((m, m))
    t_mat = normal((m, n - m))
    a_mat = np.zeros((n, n), dtype=complex)
    b_mat = np.zeros((n, n), dtype=complex)
    a_mat[:m, :m] = -(x + x.conj().T) / 2
    a_mat[m:, :m] = t_mat.conj().T
    a_mat[m:, m:] = -np.eye(n - m)
    b_mat[:m, :m] = np.eye(m)
    b_mat[:m, m:] = t_mat
    cols = rng.permutation(n)
    unitary, _ = np.linalg.qr(normal((n, n)))
    return {"n": n, "A": _mjson(unitary @ a_mat[:, cols]), "B": _mjson(unitary @ b_mat[:, cols])}


def couplings() -> dict[str, dict]:
    """The input documents, by name."""
    docs = {"delta": {"kind": "delta", "n": 3, "alpha": 1.0}}
    for n in (3, 4, 8):
        docs[f"delta_prime_n{n}"] = {"kind": "delta_prime_s", "n": n, "beta": 1.0}
    docs["complex_t"] = _st_doc(
        [[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]], [[0.8 + 0.6j], [1.1 - 0.3j]], (1, 2, 3)
    )
    docs["kirchhoff_perturbed"] = _st_doc([[0.2]], [[1.0, 0.9]], (1, 2, 3))
    # The pair quantity d S_12 + T_1 conj(T_2) = 1 - 32 d vanishes at d = 2^-5,
    # a point of the default grid, so that d fails to build mid-family.
    docs["singular_at_2^-5"] = _st_doc([[0.0, -32.0], [-32.0, 0.0]], [[1.0], [1.0]], (1, 2, 3))
    for n in (3, 5, 8):
        docs[f"random_dense_n{n}"] = _random_dense_doc(n)
    return docs


def cli_runs(names) -> list[tuple[str, list[str], str | None]]:
    """(output name, argv, the file argv writes or None), in run order; a
    later run may read a file an earlier one wrote."""
    runs = []
    for name in names:
        src = f"{name}.json"
        for metric in METRICS:
            tag = f"sweep-{metric}-{name}"
            runs.append((tag, ["sweep", src, "--metric", metric, "--out", f"{tag}.csv"], f"{tag}.csv"))
            tag = f"sweep-{metric}-{name}-d11-16"
            runs.append((tag, ["sweep", src, "--metric", metric, "--d-range", "11:16",
                               "--out", f"{tag}.csv"], f"{tag}.csv"))
            tag = f"sweep-{metric}-{name}-d0.3"
            runs.append((tag, ["sweep", src, "--metric", metric, "--d", "0.3",
                               "--out", f"{tag}.csv"], f"{tag}.csv"))
        for label, z in (("z2", ["--z-re", "2"]), ("z1+0.5i", ["--z-re", "1", "--z-im", "0.5"])):
            tag = f"sweep-hs-{name}-{label}"
            runs.append((tag, ["sweep", src, "--metric", "hs", *z, "--out", f"{tag}.csv"], f"{tag}.csv"))
        runs.append((f"spectrum-{name}", ["spectrum", src], None))
        graph = f"graph-{name}.json"
        runs.append((f"build-{name}", ["build", src, "--d", "0.0625", "--out", graph], graph))
        runs.append((f"spectrum-{name}-d0.0625", ["spectrum", graph], None))
    src = "delta_prime_n3.json"
    runs += [
        ("error-L0", ["sweep", src, "--metric", "hs", "--L", "0"], None),
        ("error-z0", ["sweep", src, "--metric", "hs", "--z-re", "0"], None),
        ("error-count0", ["spectrum", src, "--count", "0"], None),
        ("error-k-negative", ["sweep", src, "--k", "-1"], None),
        ("error-hs-overflow", ["sweep", src, "--metric", "hs", "--z-re", "2", "--L", "1e200"], None),
        ("error-missing-file", ["spectrum", "missing.json"], None),
    ]
    return runs


def _captured(run) -> tuple[bytes, object]:
    """What ``run()`` shows: stdout, stderr and warnings, as bytes, with its
    return value."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        result = run()
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    text = "\0".join([out.getvalue(), err.getvalue(), *shown])
    return text.encode(), result


def main(argv: list[str]) -> int:
    tree = Path(argv[0]).resolve() if argv else ROOT
    sys.path.insert(0, str(tree / "src"))
    from qgraph import cli

    docs = couplings()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, doc in docs.items():
            Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for name, args, written in cli_runs(docs):
            shown, code = _captured(lambda args=args: cli.main(args))
            digest = hashlib.sha256(f"{code}\0".encode() + shown)
            if written is not None and Path(written).exists():
                digest.update(Path(written).read_bytes())
            print(f"{name} {digest.hexdigest()}", flush=True)
        for demo in sorted((tree / "demos").glob("*.py")):
            shown, _ = _captured(lambda demo=demo: runpy.run_path(str(demo), run_name="__main__"))
            print(f"demo-{demo.stem} {hashlib.sha256(shown).hexdigest()}", flush=True)
        os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
