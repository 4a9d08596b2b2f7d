"""seqloc imports no scipy: scipy is a test dependency, and importing
scipy.linalg alone roughly doubles the resident memory of a run."""

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
