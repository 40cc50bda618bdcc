"""The runtime dependency stays numpy only.

Every import statement in the package, at module level or inside a
function, must name a standard-library module, numpy or the package
itself (relative imports count as the package).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steinclt"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "steinclt"}


def imported_packages(source: str) -> set[str]:
    """Top-level package name of every import in one module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("steinclt" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = {path.name: sorted(imported_packages(path.read_text(encoding="utf-8")) - ALLOWED)
               for path in sources}
    assert {name: found for name, found in outside.items() if found} == {}


def test_import_scan_sees_nested_and_relative_imports():
    source = ("from __future__ import annotations\nfrom . import rows\nimport os.path\n"
              "from numpy.linalg import norm\n"
              "def f():\n    import scipy.special\n    from hypothesis import given\n")
    assert imported_packages(source) - ALLOWED == {"scipy", "hypothesis"}
