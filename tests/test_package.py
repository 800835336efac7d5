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


def _run_python(script: str) -> list[str]:
    """Stdout lines of ``script`` run in a fresh interpreter that imports
    qgraph from this source tree."""
    src = os.path.dirname(os.path.dirname(qgraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout.splitlines()


def test_import_loads_only_numpy_and_scipy_linalg():
    """qgraph and its CLI load no scipy module at all; the names a tracer
    rebinds still resolve on request."""
    script = (
        "import sys, qgraph, qgraph.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "from qgraph import budget, solver\n"
        "names = ('lu_factor', 'lu_solve', 'brentq', 'minimize_scalar')\n"
        "print(*(callable(getattr(solver, n)) for n in names), callable(budget.CubicSpline))\n"
    )
    assert _run_python(script) == ["[]", "True True True True True"]


# Every command, each printing its name and the scipy modules loaded so far.
_COMMANDS = (
    "def run(*argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert qgraph.cli.main(list(argv)) == 0, argv\n"
    "    report(' '.join(argv[:1] + argv[3:4] if argv[0] == 'sweep' else argv[:1]))\n"
    "def report(name):\n"
    "    print(name, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    "run('convert', 'delta.json', '--out', 'st.json')\n"
    "run('build', 'st.json', '--d', '0.25', '--out', 'g.json')\n"
    "run('budget')\n"
    "run('spectrum', 'g.json', '--count', '3')\n"
    "for metric in ('scattering', 'hs', 'eig'):\n"
    "    run('sweep', 'delta.json', '--metric', metric, '--d', '0.25')\n"
    "g = serialize.loads(open('g.json').read())\n"
    "assert not budget.verify_form_bound(g, eta=0.5, n_samples=20, rng=1).violations\n"
    "report('verify_form_bound')\n"
)

_NO_SCIPY = [
    "convert []",
    "build []",
    "budget []",
    "spectrum []",
    "sweep scattering []",
    "sweep hs []",
    "sweep eig []",
    "verify_form_bound []",
]


def _run_commands(tmp_path, prelude: str = "") -> list[str]:
    """Every command in one fresh interpreter, in ``tmp_path``, after
    ``prelude``."""
    (tmp_path / "delta.json").write_text('{"kind": "delta", "n": 3, "alpha": 1.0}')
    return _run_python(
        prelude
        + "import contextlib, io, os, sys\n"
        "import qgraph, qgraph.cli\n"
        "from qgraph import budget, serialize\n"
        f"os.chdir({str(tmp_path)!r})\n" + _COMMANDS
    )


def test_only_lu_factorizations_load_scipy_linalg(tmp_path):
    """No command loads any scipy module: convert, build, budget, spectrum,
    a sweep of each metric and the form-bound check.  Scattering and
    resolvent solves go through numpy alone."""
    assert _run_commands(tmp_path) == _NO_SCIPY


def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path):
    """scipy is optional at runtime: with an import hook that refuses scipy
    and every scipy submodule, every command still exits 0."""
    prelude = (
        "import sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ModuleNotFoundError(f'{name} is refused', name=name)\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
    )
    assert _run_commands(tmp_path, prelude) == _NO_SCIPY


def _module_level_scipy_imports(path: Path) -> list[str]:
    """The scipy modules a module imports when it loads: every import
    outside a function body."""
    found = []
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(name for name in found if name == "scipy" or name.startswith("scipy."))


def test_no_module_imports_scipy_at_module_level():
    """scipy is imported inside the functions that need it, never when a
    qgraph module loads."""
    package = Path(qgraph.__file__).parent
    found = {path.name: _module_level_scipy_imports(path) for path in sorted(package.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


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
    """The package and its tests, so that a deletion leaves no dead import."""
    paths = [
        *sorted(Path(qgraph.__file__).parent.glob("*.py")),
        *sorted(Path(__file__).parent.glob("*.py")),
    ]
    unused = {str(path): _unused_imports(path) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for every private name (one leading underscore, not
    a dunder) that a statement of a module body binds: functions, classes
    and assignments."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [
            (name, node) for name in names if name.startswith("_") and not name.startswith("__")
        ]
    return found


def _reads(node: ast.AST) -> list[str]:
    """Every name ``node`` reads: loaded names, attribute names and the names
    a ``from`` import takes."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names += [alias.name for alias in sub.names]
    return names


def test_every_private_module_level_name_is_read():
    """Every private name a module of the package defines at module level is
    read somewhere in the package outside its own definition, so that a
    rewrite leaves no dead helper or constant behind."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qgraph.__file__).parent.glob("*.py"))}
    dead = []
    for path, tree in trees.items():
        for name, definition in _private_definitions(tree):
            outside = [
                read
                for other_path, other in trees.items()
                for node in other.body
                if not (other_path == path and node is definition)
                for read in _reads(node)
            ]
            if name not in outside:
                dead.append(f"{path.name}:{name}")
    assert dead == []
