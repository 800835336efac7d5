"""One timed set-up in a fresh interpreter.

Usage::

    python3 perfbench/setup_probe.py SRC_DIR DOCUMENT...

Imports qgraph from ``SRC_DIR`` -- and with it numpy and scipy, as a
user's first ``qgraph`` command does -- then reads every input document,
parses it and brings it to ST normal form.  Prints the seconds that took.
Only the standard library is loaded before the clock starts, so a heavier
or lazier import anywhere under qgraph shows in the figure.

``run.py`` also imports this module for :func:`import_qgraph` and
:func:`normalize_inputs`, which its ops and its traced pass use.
"""

import importlib
import sys
import time
import types
from pathlib import Path

MODULES = ("cli", "serialize", "couplings", "solver", "budget")


def import_qgraph():
    """The qgraph modules the ops call, as one namespace."""
    return types.SimpleNamespace(**{n: importlib.import_module(f"qgraph.{n}") for n in MODULES})


def normalize_inputs(q, texts):
    """Set-up work a user's first command pays: parse every document and
    bring it to ST normal form."""
    forms = []
    for text in texts:
        obj = q.serialize.loads(text)
        if isinstance(obj, q.couplings.NamedCoupling):
            obj = q.couplings.named_to_st(obj)
        elif isinstance(obj, q.couplings.VertexCoupling):
            obj = q.couplings.st_from_ab(obj)
        forms.append(obj)
    return forms


def main(argv) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[1])
    q = import_qgraph()
    normalize_inputs(q, [Path(p).read_text(encoding="utf-8") for p in argv[2:]])
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
