"""The package surface and what importing it loads."""

import os
import subprocess
import sys

import qgraph

SUBMODULES = ("couplings", "builder", "graphs", "solver", "convergence", "budget", "serialize", "errors")


def test_public_names_are_the_submodules_lists():
    union = ["__version__"]
    for name in SUBMODULES:
        union += getattr(qgraph, name).__all__
    assert qgraph.__all__ == union
    assert len(set(union)) == len(union)
    for name in union:
        assert hasattr(qgraph, name), name


def test_import_loads_only_numpy_and_scipy_linalg():
    """qgraph and its CLI load no scipy module beyond scipy.linalg; the
    names a tracer rebinds still resolve on request."""
    script = (
        "import sys, qgraph, qgraph.cli\n"
        "heavy = ('scipy.interpolate', 'scipy.optimize', 'scipy.special')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "from qgraph import budget, solver\n"
        "print(callable(solver.brentq), callable(solver.minimize_scalar), callable(budget.CubicSpline))\n"
    )
    src = os.path.dirname(os.path.dirname(qgraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout.splitlines()
    assert out == ["[]", "True True True"]
