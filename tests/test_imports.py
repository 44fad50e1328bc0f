"""Every name a module of the package imports is used in it, every private
name it defines is read somewhere, the package defines no dataclass, and the
command line starts without the heavy modules.

A deletion that leaves an import or a private helper behind fails here.  A
name the module lists in `__all__` is a re-export and counts as used, as
does the `annotations` of a `from __future__` import.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "acorns"


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


def _dead_private_names(modules: dict, readers) -> list:
    """The `(module, name)` of each private top-level name (`_x`, not a
    dunder) that the trees `modules` (module -> tree) define and none of
    the trees `readers` reads, as a name or an attribute."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(dead)


def test_no_private_name_is_dead():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in _PACKAGE.glob("*.py")}
    others = [ast.parse(p.read_text(encoding="utf-8"))
              for folder in ("tests", "perfbench") for p in (_ROOT / folder).glob("*.py")]
    assert _dead_private_names(modules, [*modules.values(), *others]) == []


def test_a_dead_private_name_is_found():
    tree = ast.parse("import m\n_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _f():\n    return _A\ndef _g():\n    return m._h\nclass _C:\n    pass\n")
    assert _dead_private_names({"mod": tree}, [tree]) == [("mod", "_B"), ("mod", "_C"),
                                                          ("mod", "_f"), ("mod", "_g")]


def test_no_class_is_a_dataclass():
    # each dataclass generates its methods when acorns is imported, which
    # every command-line run pays for; the classes are records instead
    found = set()
    for path in _PACKAGE.glob("*.py"):
        module = importlib.import_module("acorns" if path.stem == "__init__" else f"acorns.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__.startswith("acorns")
                    and hasattr(obj, "__dataclass_fields__")):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == set()


def test_the_command_line_imports_no_heavy_module():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, numpy
    # is for `verify` alone, and `typing` would serve annotations alone, so
    # generating imports none of them; -S keeps the site's .pth files, which
    # may import anything, out of it
    code = ("import sys\nimport acorns.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'numpy', 'typing'} & sys.modules.keys()))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(_PACKAGE.parent)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
