"""Expression and statement trees for the supported C99 subset.

Expression nodes are immutable and compare structurally; the optional
source span is carried for diagnostics but ignored by equality, so a
re-parsed pretty-print of a tree compares equal to the original.  Equality,
hashing, `repr` and pickling walk with explicit stacks, so they work at any
depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


class _Node:
    """Structural `==` and `hash`, `repr`, copying and pickling for the
    expression nodes.

    `==` and `hash` read every field but `span`, and `repr` writes every
    field, as the generated dataclass methods would, but with an explicit
    stack instead of one frame per level.  The nodes are immutable, so a
    copy is the node itself, and a pickle is the flat list of `_unflatten`.
    """

    __slots__ = ()

    def __repr__(self):
        out: list[str] = []
        work: list = [self]  # text, or a node still to write
        while work:
            item = work.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            items = [f"{type(item).__qualname__}("]
            for i, f in enumerate(fields(item)):
                items.append(f"{', ' if i else ''}{f.name}=")
                items += _repr_items(getattr(item, f.name))
            items.append(")")
            work += reversed(items)
        return "".join(out)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        records = []  # (class, field values), children first
        index: dict = {}  # id(node) -> its position in records
        for node in post_order(self, index):
            index[id(node)] = len(records)
            records.append((type(node), tuple(_flat(getattr(node, f.name), index)
                                              for f in fields(node))))
        return _unflatten, (records,)

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        seen = set()  # id pairs already compared or on the stack
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if not (isinstance(a, _Node) and isinstance(b, _Node)):
                if a != b:
                    return False
                continue
            if type(a) is not type(b) or _fields(a) != _fields(b):
                return False
            pair = (id(a), id(b))
            if pair not in seen:
                seen.add(pair)
                stack.extend(zip(children(a), children(b)))
        return True

    def __hash__(self):
        hashes: dict = {}  # id(node) -> hash
        for node in post_order(self, hashes):
            if isinstance(node, _Node):
                hashes[id(node)] = hash((type(node), _fields(node),
                                         tuple(hashes[id(k)] for k in children(node))))
            else:
                hashes[id(node)] = hash(node)
        return hashes[id(self)]


@dataclass(frozen=True, eq=False, repr=False)
class Constant(_Node):
    """Numeric literal; `text` is the exact source spelling."""

    text: str
    value: float
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class ArrayRef(_Node):
    base: str
    indices: tuple  # one Expr per dimension
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    op: str  # only "-"
    operand: "Expr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    name: str
    args: tuple
    span: Optional[SourceSpan] = field(default=None, compare=False)


Expr = Union[Constant, Var, ArrayRef, Unary, Binary, Call]


def _repr_items(value) -> list:
    """`repr(value)` as `_Node.__repr__`'s work items, in order."""
    if isinstance(value, _Node):
        return [value]
    if not isinstance(value, tuple):
        return [repr(value)]
    items = ["("]
    for i, v in enumerate(value):
        if i:
            items.append(", ")
        items += _repr_items(v)
    items.append(",)" if len(value) == 1 else ")")
    return items


def _flat(value, index: dict):
    """A field value with each node in it replaced by `[its index]`; no
    field holds a list, so a list marks a node."""
    if isinstance(value, _Node):
        return [index[id(value)]]
    if isinstance(value, tuple):
        return tuple(_flat(v, index) for v in value)
    return value


def _unflatten(records: list) -> Expr:
    """The last node of `_Node.__reduce__`'s records, rebuilt."""
    nodes: list = []

    def thaw(value):
        if isinstance(value, list):
            return nodes[value[0]]
        if isinstance(value, tuple):
            return tuple(thaw(v) for v in value)
        return value

    for cls, values in records:
        nodes.append(cls(*(thaw(v) for v in values)))
    return nodes[-1]


def _fields(node: Expr) -> tuple:
    """`node`'s compared fields other than its subexpressions."""
    if isinstance(node, Constant):
        return (node.text, node.value)
    if isinstance(node, Var):
        return (node.name,)
    if isinstance(node, (Unary, Binary)):
        return (node.op,)
    if isinstance(node, ArrayRef):
        return (node.base, len(node.indices))
    return (node.name, len(node.args))


def const(value: float, text: str | None = None) -> Constant:
    """Make a constant with a round-tripping literal text."""
    if text is None:
        # -0.0 takes repr's "-0.0": the integer spelling "0" would drop its sign
        negative_zero = value == 0 and math.copysign(1.0, value) < 0
        if float(value) == int(value) and abs(value) < 1e15 and not negative_zero:
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
_ATOM_PREC = 6


def _prec(node: Expr) -> int:
    """How tightly `node`'s text binds.

    A child is parenthesized when it binds less tightly than its context,
    or equally tightly as a right operand or the operand of a unary minus.
    """
    if isinstance(node, Binary):
        return _PRECEDENCE[node.op]
    if isinstance(node, Unary):
        return _UNARY_PREC
    if isinstance(node, Constant) and node.text.startswith("-"):
        return _UNARY_PREC  # a negative literal is a unary minus: -(-1), never --1
    return _ATOM_PREC


_ATOMS = (Constant, Var, ArrayRef)
_SUMS = ("+", "-")

# terms per line of a long sum written as a running accumulator (bound form)
ACCUMULATOR_TERMS = 32


class SharedText:
    """The C text of several expressions, rendering each DAG node once.

    The constructor counts each node's uses over the union DAG of `roots`:
    one per parent edge, plus one per appearance in `roots`.  Rendering a
    root writes a node with one use straight into its user's text.  A node
    with several uses is rendered once, on its first use, into `text`, and
    its last use takes it out.  So `uses` and `text` hold only what is still
    to be used, and both are empty once every root has been rendered as
    many times as it appears in `roots`.

    With a `temp` prefix the text is bound (SSA form): a node that is not an
    atom and has several uses is a temporary.  Its first use appends
    `const double <temp>K = <its text>;` to `decls`, K being the number of
    lines in `decls` before it, and every use, that first one included,
    prints `<temp>K`.  `deps[K]` lists the lines that line reads, and after
    each `render`, `reads` holds the lines of earlier renders that the
    root's text or its new lines read.

    A sum whose left spine holds more than `ACCUMULATOR_TERMS` `+`/`-`
    nodes that render inline is bound too, as a running accumulator: the
    line `double <temp>K = <first ACCUMULATOR_TERMS terms>;`, then lines
    `<temp>K = <temp>K - <next ACCUMULATOR_TERMS terms>;`, each reading the
    one before, and its users print `<temp>K`.  The additions happen in the
    same order, so the value is the same; written as one expression, gcc
    makes every call of a long sum's terms before its first addition and
    spills all their results.
    """

    def __init__(self, roots, temp: str | None = None):
        self.roots = tuple(roots)  # keeps every node alive, so ids stay unique
        self.uses: dict[int, int] = {}  # id(node) -> uses not yet rendered
        for root in self.roots:
            for node in post_order(root, self.uses):
                self.uses[id(node)] = 0  # its parents come after it
                for k in children(node):
                    self.uses[id(k)] += 1
            self.uses[id(root)] += 1
        self.text: dict[int, str] = {}  # id(node) -> text of a node with uses left
        self.temp = temp
        self.decls: list[str] = []
        self.deps: list[tuple] = []
        self.reads: frozenset = frozenset()
        self._index: dict[int, int] = {}  # id(node) -> K, for temporaries with uses left

    def _take(self, key: int) -> str:
        left = self.uses[key] - 1
        if left:
            self.uses[key] = left
            return self.text[key]
        del self.uses[key]
        self._index.pop(key, None)
        return self.text.pop(key)

    def render(self, root: Expr) -> str:
        """`root`'s text.  Uses an explicit stack, so depth is not bounded by
        the recursion limit."""
        out: list[str] = []
        first = len(self.decls)
        reads: list[set] = [set()]  # temporaries read by the root, then by each open declaration
        # work items: text, (node, context precedence, is right operand),
        # (None, id(node), start, named): out[start:] is the whole text of a
        # shared node, or (_Sum, start, is last line): out[start:] is the
        # text of one line of a running accumulator
        work: list = [(root, 0, False)]
        while work:
            item = work.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if isinstance(item[0], _Sum):  # one line of a running accumulator ends here
                acc, start, last = item
                text = "".join(out[start:])
                del out[start:]
                deps = reads.pop()
                k = len(self.decls)
                if acc.name is None:
                    acc.name = f"{self.temp}{k}"
                    self.decls.append(f"double {acc.name} = {text};")
                else:
                    deps.add(acc.line)
                    self.decls.append(f"{acc.name} = {acc.name}{text};")
                self.deps.append(tuple(sorted(deps)))
                acc.line = k
                if not last:
                    reads.append(set())
                    continue
                reads[-1].add(k)
                if acc.key in self.uses:  # a shared sum: a temporary
                    self.text[acc.key] = acc.name
                    self._index[acc.key] = k
                    out.append(self._take(acc.key))
                else:
                    out.append(acc.name)
                continue
            if item[0] is None:  # a shared node's first use ends here
                _, key, start, named = item
                text = "".join(out[start:])
                del out[start:]
                if named:
                    k = len(self.decls)
                    self.decls.append(f"const double {self.temp}{k} = {text};")
                    self.deps.append(tuple(sorted(reads.pop())))
                    self._index[key] = k
                    reads[-1].add(k)
                    text = f"{self.temp}{k}"
                self.text[key] = text
                out.append(self._take(key))
                continue
            node, outer, right = item
            key = id(node)
            # the top of a sum's left spine, not the inline left operand of a sum
            if (self.temp is not None and isinstance(node, Binary) and node.op in _SUMS
                    and key not in self.text
                    and not (outer == _PRECEDENCE["+"] and not right and self.uses[key] == 1)
                    and self._bind_sum(node, work, len(out), reads)):
                continue
            # whether `node` is, or is about to become, a temporary
            named = (self.temp is not None and not isinstance(node, _ATOMS)
                     and (key in self.text or self.uses[key] > 1))
            if named:
                outer = 0  # a name, or the right side of its declaration
            prec = _prec(node)
            if prec < outer or (prec == outer and right):
                out.append("(")
                work.append(")")
            if key in self.text:
                if key in self._index:
                    reads[-1].add(self._index[key])
                out.append(self._take(key))
                continue
            if self.uses[key] > 1:
                work.append((None, key, len(out), named))
                if named:
                    reads.append(set())
            else:
                del self.uses[key]
            if isinstance(node, Constant):
                out.append(node.text)
            elif isinstance(node, Var):
                out.append(node.name)
            elif isinstance(node, ArrayRef):
                out.append(node.base)
                for ix in reversed(node.indices):
                    work += ("]", (ix, 0, False), "[")
            elif isinstance(node, Unary):
                out.append("-")
                work.append((node.operand, _UNARY_PREC, True))
            elif isinstance(node, Binary):
                work += ((node.rhs, prec, True), f" {node.op} ", (node.lhs, prec, False))
            elif isinstance(node, Call):
                out.append(node.name + "(")
                work.append(")")
                for i, a in enumerate(reversed(node.args)):
                    if i:
                        work.append(", ")
                    work.append((a, 0, False))
            else:
                raise TypeError(f"not an expression: {node!r}")
        new = range(first, len(self.decls))
        self.reads = frozenset(k for k in reads[0].union(*(self.deps[j] for j in new))
                               if k < first)
        return "".join(out)

    def _bind_sum(self, top: Binary, work: list, start: int, reads: list) -> bool:
        """Queue the sum down `top`'s left spine as running-accumulator
        lines, if more than `ACCUMULATOR_TERMS` of its `+`/`-` nodes render
        inline; `start` is where its text begins in the render's output."""
        spine = [top]
        lhs = top.lhs
        while (isinstance(lhs, Binary) and lhs.op in _SUMS and id(lhs) not in self.text
               and self.uses[id(lhs)] == 1):
            spine.append(lhs)
            lhs = lhs.lhs
        if len(spine) <= ACCUMULATOR_TERMS:
            return False
        if self.uses[id(top)] == 1:
            del self.uses[id(top)]  # a shared top keeps its uses, to be named like a temporary
        for node in spine[1:]:
            del self.uses[id(node)]
        terms = [(None, lhs)] + [(node.op, node.rhs) for node in reversed(spine)]
        acc = _Sum(id(top))
        last = True
        for lo in reversed(range(0, len(terms), ACCUMULATOR_TERMS)):
            work.append((acc, start, last))
            last = False
            for op, term in reversed(terms[lo:lo + ACCUMULATOR_TERMS]):
                work.append((term, _PRECEDENCE["+"], op is not None))
                if op is not None:
                    work.append(f" {op} ")
        reads.append(set())
        return True


@dataclass
class _Sum:
    """A sum being rendered as running-accumulator lines."""

    key: int  # id() of its top node
    name: str | None = None  # set by its first line
    line: int | None = None  # its latest line's index in `decls`


def to_source(e: Expr, shared: SharedText | None = None) -> str:
    """Render an expression as C source, parenthesized by precedence.

    Re-parsing the text of a parsed tree yields a structurally identical
    tree.  `shared` renders several expressions over one DAG, each node
    once; without it `e` is rendered alone.
    """
    if shared is None:
        shared = SharedText((e,))
    return shared.render(e)


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


def post_order(root: Expr, done, kids=children) -> Iterator[Expr]:
    """Yield each node under `root` whose id() is not in `done`, children first.

    A node is yielded once all its `kids` are in `done`, and the caller
    must record it in `done` before asking for the next node, so a shared
    subtree is visited once.  Kids are finished right to left.  Uses an
    explicit stack, so depth is not bounded by the recursion limit.
    """
    stack = [root]  # None marks the end of the kids of the node below it
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is None:
            yield pop()
        elif id(node) not in done:
            push(node)
            push(None)
            for k in kids(node):
                if id(k) not in done:
                    push(k)


def operands(node: Expr) -> tuple:
    """The operands of a parsed node, right to left.

    `post_order(root, done, operands)` finishes a parsed tree's nodes in
    source order, as a left-to-right recursive walk would, so a walk that
    raises reports the leftmost fault.  An array reference's indices are
    compile-time addresses, not operands.
    """
    if isinstance(node, Binary):
        return (node.rhs, node.lhs)
    return () if isinstance(node, ArrayRef) else children(node)[::-1]


def rebuild(node: Expr, new: dict) -> Expr:
    """`node` over the operands `new[id(operand)]`, keeping its span.

    Constants, variables and array references are returned as they are.
    """
    if isinstance(node, Binary):
        return Binary(node.op, new[id(node.lhs)], new[id(node.rhs)], node.span)
    if isinstance(node, Unary):
        return Unary(node.op, new[id(node.operand)], node.span)
    if isinstance(node, Call):
        return Call(node.name, tuple(new[id(a)] for a in node.args), node.span)
    return node


def count_nodes(e: Expr, counts: dict | None = None) -> int:
    """Tree-expanded node count; shared subtrees are counted once per use.

    `counts` maps id(node) -> (size, node); a caller that keeps it across
    calls walks each shared subtree once.
    """
    if counts is None:
        counts = {}
    for node in post_order(e, counts):
        counts[id(node)] = (1 + sum(counts[id(k)][0] for k in children(node)), node)
    return counts[id(e)][0]
