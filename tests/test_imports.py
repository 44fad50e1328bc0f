"""Every name a module of the package imports is used in it, and the
package defines one dataclass.

A deletion that leaves an import behind fails here.  A name the module
lists in `__all__` is a re-export and counts as used, as does the
`annotations` of a `from __future__` import.
"""

import ast
import importlib
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acorns"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}  # bound name -> line
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts}
    # `a.b` is a Name `a` under an Attribute, so a module used as a prefix counts
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport re as regex\nfrom x import a, b\n__all__ = ['b']\n"
                     "def f():\n    return os.sep\n")
    assert _unused_imports(tree) == [(2, "regex"), (3, "a")]


def test_the_derivative_bundle_is_the_only_dataclass():
    # each dataclass generates its methods when acorns is imported, which
    # every command-line run pays for; the other classes are records
    found = set()
    for path in _PACKAGE.glob("*.py"):
        module = importlib.import_module("acorns" if path.stem == "__init__" else f"acorns.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__.startswith("acorns")
                    and hasattr(obj, "__dataclass_fields__")):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == {"acorns.derivatives.DerivativeBundle"}
