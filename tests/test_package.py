"""The package surface and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never uses, apart from ``__future__``
    imports and the names its ``__all__`` re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in getattr(node.value, "elts", ())
        if isinstance(elt, ast.Constant)
    }
    return sorted(imported - used - exported)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(qgraph.__file__).parent
    unused = {path.name: _unused_imports(path) for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
