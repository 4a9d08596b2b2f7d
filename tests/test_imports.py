"""seqloc imports no scipy: scipy is a test dependency, and importing
scipy.linalg alone roughly doubles the resident memory of a run. Every seqloc
name the benchmark in perfbench/ imports or patches exists."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import seqloc

IMPORT_ALL = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_seqloc_module_imports_scipy():
    modules = [f"seqloc.{m.name}" for m in pkgutil.iter_modules(seqloc.__path__)]
    assert {"seqloc.geometry", "seqloc.pgo", "seqloc.solver"} <= set(modules)
    src = os.path.dirname(os.path.dirname(os.path.abspath(seqloc.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, *modules],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_names_perfbench_uses_exist():
    """Read from perfbench's source, so that a renamed or deleted name fails here
    rather than only in a benchmark run."""
    modules = {}  # local name -> seqloc module, from "from seqloc import x as y"
    checked = 0
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, name)) as f:
            tree = ast.parse(f.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "seqloc":
                        importlib.import_module(alias.name)
                        checked += 1
            elif isinstance(node, ast.ImportFrom) and node.module == "seqloc":
                for alias in node.names:
                    modules[alias.asname or alias.name] = importlib.import_module(f"seqloc.{alias.name}")
                    checked += 1
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqloc."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked >= 10

    with open(os.path.join(PERFBENCH, "chain.py")) as f:
        tree = ast.parse(f.read())
    (inner,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "INNER_FUNCTIONS" for t in node.targets)
    ]
    targets = [(pair.elts[0].id, pair.elts[1].value) for pair in inner.elts]
    assert targets
    for module_name, attr in targets:
        assert hasattr(modules[module_name], attr), f"chain.INNER_FUNCTIONS: {module_name}.{attr}"
