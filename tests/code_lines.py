"""Count code lines: lines that hold a token that is not a comment, not
part of a module, class or function docstring, and not layout (line
breaks, indentation, blank lines).

Run as a script, it prints the count of each module under `src/acorns`
and their total:

    python tests/code_lines.py [OTHER_SRC]

With `OTHER_SRC`, another tree's `src` (for example that of a checkout of
the parent commit), it prints each module's count there and here, side by
side, and both totals; a module one side lacks counts `-` there.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "acorns"


def _docstring_lines(source: str) -> set:
    """The lines of the module's, classes' and functions' docstrings."""
    lines: set = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text `source`."""
    docs = _docstring_lines(source)
    lines: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start[0] in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(package: pathlib.Path) -> dict:
    """Each module of `package` -> its code lines."""
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        raise SystemExit("usage: python tests/code_lines.py [OTHER_SRC]")
    here = counts(PACKAGE)
    if not args:
        for name, n in here.items():
            print(f"{name:16} {n:5}")
        print(f"{'total':16} {sum(here.values()):5}")
        return
    other = counts(pathlib.Path(args[0]) / "acorns")
    print(f"{'':16} {'other':>6} {'here':>6}")
    for name in sorted(other.keys() | here.keys()):
        print(f"{name:16} {other.get(name, '-'):>6} {here.get(name, '-'):>6}")
    print(f"{'total':16} {sum(other.values()):6} {sum(here.values()):6}")


if __name__ == "__main__":
    main()
