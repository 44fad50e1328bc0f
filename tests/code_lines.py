"""Count code lines: lines that hold a token that is not a comment, not
part of a module, class or function docstring, and not layout (line
breaks, indentation, blank lines).

Run as a script, it prints the count of each module under `src/acorns`
and their total:

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
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


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
