"""The package surface and what importing it loads."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
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


def test_import_loads_no_scipy():
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


def test_no_command_loads_scipy(tmp_path):
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


def test_every_method_of_a_private_class_and_every_private_method_is_read():
    """Every method of a private class, and every private method of any
    class, that the package defines (dunders aside) is read somewhere in the
    package outside its own definition, so that a rewrite leaves no dead
    method, alias or orphaned helper behind."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qgraph.__file__).parent.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    checked, dead = [], []
    for path, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not method.name.startswith("__")
                    and (cls.name.startswith("_") or method.name.startswith("_"))
                ):
                    checked.append(method.name)
                    if reads[method.name] == _reads(method).count(method.name):
                        dead.append(f"{path.name}:{cls.name}.{method.name}")
    assert checked and dead == []


def _read_names(paths) -> set[str]:
    """Every name the Python files ``paths`` read (see :func:`_reads`)."""
    return {name for path in paths for name in _reads(ast.parse(path.read_text(encoding="utf-8")))}


# Public names that nothing outside their own module reads, each with the
# reason it stays public ("settled": kept by the decision recorded under
# Settled in ROADMAP.md).
_KEPT_PUBLIC = {
    "coupling_distance": "(A, B) pairs define one coupling only up to left multiplication; "
    "criterion 5 reports this distance",
    "neighbor_sets": "the paper's neighbor sets N_j",
    "dirichlet_condition": "read by truncate, in its own module",
    "scattering_matrix": "S(k) of any open system",
    "fit_rate": "the fit that run_sweep reports",
    "c_eta_edge": "the paper's C_{eta,e}",
    "eps0_manifold": "the paper's eps_0",
    "delta_eps": "the paper's delta(eps)",
    "order_check": "settled: the paper's order law of the inner strengths",
    "inner_delta_schedule": "settled: a per-pair schedule of the paper",
    "vertex_delta_schedule": "settled: a per-pair schedule of the paper",
    "magnetic_schedule": "settled: a per-pair schedule of the paper",
    "gauge_transform": "settled: the paper's gauge transformation",
    "eps0_statement": "settled: the paper's statement of eps_0",
}

# Public data types that a public function takes or returns, or that
# another public data type holds.
_PUBLIC_DATA_TYPES = (
    "ValidationResult",
    "Order",
    "Edge",
    "Vertex",
    "SweepPoint",
    "ConvergenceReport",
    "FormBoundInputs",
    "VertexBlock",
    "ManifoldConstants",
    "ExponentBudget",
    "FormBoundViolation",
    "FormBoundReport",
)


def _annotations(obj) -> str:
    """The annotations of a public function, or of a class's fields and
    methods, as one string."""
    if not inspect.isclass(obj):
        return " ".join(map(str, getattr(obj, "__annotations__", {}).values()))
    texts = [str(v) for v in getattr(obj, "__annotations__", {}).values()]
    for member in vars(obj).values():
        member = getattr(member, "__func__", getattr(member, "fget", member))
        if inspect.isfunction(member):
            texts += map(str, member.__annotations__.values())
    return " ".join(texts)


def test_every_public_name_is_read_or_kept_for_a_reason():
    """Every name of ``qgraph.__all__`` is read outside its own module, in
    the package, the demos, the benchmark or the README, or is kept for a
    reason: a paper-named or settled function, or a data type that another
    public name takes, returns or holds.  So a public function that only
    tests call fails here."""
    repo = Path(qgraph.__file__).parents[2]
    owner = {name: module for module in SUBMODULES for name in getattr(qgraph, module).__all__}
    package = {path.stem: _read_names([path]) for path in Path(qgraph.__file__).parent.glob("*.py")}
    elsewhere = _read_names([*repo.glob("demos/*.py"), *repo.glob("perfbench/*.py")])
    readme = (repo / "README.md").read_text(encoding="utf-8")

    def read(name):
        return (
            any(name in names for module, names in package.items() if module != owner.get(name))
            or name in elsewhere
            or re.search(rf"\b{name}\b", readme)
        )

    def held(name):
        others = (_annotations(getattr(qgraph, other)) for other in qgraph.__all__ if other != name)
        return re.search(rf"\b{name}\b", " ".join(others))

    unread = [
        name for name in qgraph.__all__
        if not (read(name) or name in _KEPT_PUBLIC or (name in _PUBLIC_DATA_TYPES and held(name)))
    ]
    assert unread == []
    assert [name for name in (*_KEPT_PUBLIC, *_PUBLIC_DATA_TYPES) if name not in qgraph.__all__] == []


def _resolves(base, dotted: str) -> bool:
    """Whether the attribute path ``dotted`` exists on ``base``."""
    try:
        for part in dotted.split("."):
            base = getattr(base, part)
    except AttributeError:
        return False
    return True


def test_docstring_cross_references_resolve():
    """Every :func:, :meth: and :class: reference in the package names
    something that exists: a name of its module, a qgraph-qualified path,
    a method of a class its module defines, or a name of qgraph.  So a
    deletion leaves no reference to what it deleted."""
    broken = []
    for path in sorted(Path(qgraph.__file__).parent.glob("*.py")):
        module = qgraph if path.stem == "__init__" else importlib.import_module(f"qgraph.{path.stem}")
        classes = [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        text = path.read_text(encoding="utf-8")
        for role, target in re.findall(r":(func|meth|class):`~?([^`]+)`", text):
            if not (
                (target.startswith("qgraph.") and _resolves(qgraph, target[len("qgraph."):]))
                or _resolves(module, target)
                or any(_resolves(cls, target) for cls in classes)
                or _resolves(qgraph, target)
            ):
                broken.append(f"{path.name}: :{role}:`{target}`")
    assert broken == []
