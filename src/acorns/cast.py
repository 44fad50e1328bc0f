"""Expression and statement trees for the supported C99 subset.

Expression nodes are immutable and compare structurally; the optional
source span is carried for diagnostics but ignored by equality, so a
re-parsed pretty-print of a tree compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import SourceSpan

# intrinsic name -> arity
INTRINSICS = {
    "pow": 2,
    "log": 1,
    "exp": 1,
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "sqrt": 1,
}

BINARY_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=")
COMPARISON_OPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass(frozen=True)
class Constant:
    """Numeric literal; `text` is the exact source spelling."""

    text: str
    value: float
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class ArrayRef:
    base: str
    indices: tuple  # one Expr per dimension
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # only "-"
    operand: "Expr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    span: Optional[SourceSpan] = field(default=None, compare=False)


Expr = Union[Constant, Var, ArrayRef, Unary, Binary, Call]


def const(value: float, text: str | None = None) -> Constant:
    """Make a constant with a round-tripping literal text."""
    if text is None:
        if float(value) == int(value) and abs(value) < 1e15:
            text = str(int(value))
        else:
            text = repr(float(value))
    return Constant(text, float(value))


ZERO = const(0.0, "0")
ONE = const(1.0, "1")


def is_const(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Constant):
        return False
    return value is None or e.value == value


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Declaration:
    name: str
    elem_type: str  # "double" or "int"
    extents: tuple = ()  # constant Exprs for local arrays
    init: Optional[Expr] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Assignment:
    """Plain `=` assignment; compound forms are desugared by the parser."""

    lvalue: Expr  # Var or ArrayRef
    rhs: Expr
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class ForLoop:
    counter: str
    init: Expr
    cond: Expr  # comparison over the counter
    update: Expr  # new counter value, e.g. i + 1
    body: tuple = ()
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class If:
    cond: Expr
    then_body: tuple = ()
    else_body: tuple = ()
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Return:
    value: Optional[Expr] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)


Stmt = Union[Declaration, Assignment, ForLoop, If, Return]


@dataclass(frozen=True)
class Param:
    name: str
    rank: int  # 0 = scalar, k = k-dimensional array
    extents: tuple = ()  # per-dimension int or None when not declared


@dataclass(frozen=True)
class FunctionIR:
    name: str
    params: tuple
    energy_var: str
    body: tuple


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {
    "==": 1, "!=": 1,
    "<": 2, "<=": 2, ">": 2, ">=": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
}
_UNARY_PREC = 5


def to_source(e: Expr) -> str:
    """Render an expression as C source, parenthesized by precedence.

    Re-parsing the result yields a structurally identical tree.  Uses an
    explicit stack so arbitrarily deep trees print without recursion.
    """
    out: list[str] = []
    # work items: ("expr", node, parent_prec, is_right) or ("text", s)
    work: list[tuple] = [("expr", e, 0, False)]
    while work:
        kind, *rest = work.pop()
        if kind == "text":
            out.append(rest[0])
            continue
        node, parent_prec, is_right = rest
        if isinstance(node, Constant):
            out.append(node.text)
        elif isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, ArrayRef):
            out.append(node.base)
            for ix in reversed(node.indices):
                work.append(("text", "]"))
                work.append(("expr", ix, 0, False))
                work.append(("text", "["))
        elif isinstance(node, Unary):
            need = parent_prec > _UNARY_PREC or (parent_prec == _UNARY_PREC)
            if need:
                work.append(("text", ")"))
            work.append(("expr", node.operand, _UNARY_PREC, False))
            work.append(("text", "-"))
            if need:
                out.append("(")
        elif isinstance(node, Binary):
            prec = _PRECEDENCE[node.op]
            need = prec < parent_prec or (prec == parent_prec and is_right)
            if need:
                work.append(("text", ")"))
            work.append(("expr", node.rhs, prec, True))
            work.append(("text", f" {node.op} "))
            work.append(("expr", node.lhs, prec, False))
            if need:
                out.append("(")
        elif isinstance(node, Call):
            work.append(("text", ")"))
            for i, a in enumerate(reversed(node.args)):
                work.append(("expr", a, 0, False))
                if i != len(node.args) - 1:
                    work.append(("text", ", "))
            out.append(node.name + "(")
        else:
            raise TypeError(f"not an expression: {node!r}")
    return "".join(out)


def children(node: Expr) -> tuple:
    """The direct subexpressions of `node`, left to right."""
    if isinstance(node, Binary):
        return (node.lhs, node.rhs)
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, ArrayRef):
        return node.indices
    return ()


def post_order(root: Expr, done) -> Iterator[Expr]:
    """Yield each node under `root` whose id() is not in `done`, children first.

    A node is yielded once all its children are in `done`, and the caller
    must record it in `done` before asking for the next node, so a shared
    subtree is visited once.  Uses an explicit stack, so depth is not
    bounded by the recursion limit.
    """
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [k for k in children(node) if id(k) not in done]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            yield node


def count_nodes(e: Expr) -> int:
    """Tree-expanded node count; shared subtrees are counted once per use."""
    counts: dict[int, int] = {}

    def walk(node: Expr) -> int:
        got = counts.get(id(node))
        if got is not None:
            return got
        if isinstance(node, (Constant, Var)):
            n = 1
        elif isinstance(node, ArrayRef):
            n = 1 + sum(walk(ix) for ix in node.indices)
        elif isinstance(node, Unary):
            n = 1 + walk(node.operand)
        elif isinstance(node, Binary):
            n = 1 + walk(node.lhs) + walk(node.rhs)
        else:
            n = 1 + sum(walk(a) for a in node.args)
        counts[id(node)] = n
        return n

    return walk(e)
