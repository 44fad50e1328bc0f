"""Expression and statement trees for the supported C99 subset.

Expression nodes are immutable and compare structurally; the optional
source span is carried for diagnostics but ignored by equality, so a
re-parsed pretty-print of a tree compares equal to the original.  Equality,
hashing and `repr` walk with explicit stacks, so they work at any depth.
"""

from __future__ import annotations

import math
import re
from array import array

from .errors import SourceSpan
from .record import Record, set_field

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


class _Node(Record):
    """Structural `==` and `hash`, and `repr`, for the expression nodes,
    each a frozen `Record` whose `__init__` sets its fields with
    `set_field`.

    `==` and `hash` read every field but `span`, and `repr` writes every
    field of the class's field tuple as `Name(field=value, ...)`, each with
    an explicit stack instead of one frame per level.
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
            for i, f in enumerate(item._fields):
                items.append(f"{', ' if i else ''}{f}=")
                items += _repr_items(getattr(item, f))
            items.append(")")
            work += reversed(items)
        return "".join(out)

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
            if type(a) is not type(b) or _own_fields(a) != _own_fields(b):
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
                hashes[id(node)] = hash((type(node), _own_fields(node),
                                         tuple(hashes[id(k)] for k in children(node))))
            else:
                hashes[id(node)] = hash(node)
        return hashes[id(self)]


class Constant(_Node):
    """Numeric literal; `text` is the exact source spelling."""

    __slots__ = ("text", "value", "span")

    def __init__(self, text: str, value: float, span: SourceSpan | None = None):
        set_field(self, "text", text)
        set_field(self, "value", value)
        set_field(self, "span", span)


class Var(_Node):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: SourceSpan | None = None):
        set_field(self, "name", name)
        set_field(self, "span", span)


class ArrayRef(_Node):
    __slots__ = ("base", "indices", "span")

    def __init__(self, base: str, indices: tuple, span: SourceSpan | None = None):
        set_field(self, "base", base)
        set_field(self, "indices", indices)  # one Expr per dimension
        set_field(self, "span", span)


class Unary(_Node):
    __slots__ = ("op", "operand", "span")

    def __init__(self, op: str, operand: Expr, span: SourceSpan | None = None):
        set_field(self, "op", op)  # only "-"
        set_field(self, "operand", operand)
        set_field(self, "span", span)


class Binary(_Node):
    __slots__ = ("op", "lhs", "rhs", "span")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, span: SourceSpan | None = None):
        set_field(self, "op", op)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "span", span)


class Call(_Node):
    __slots__ = ("name", "args", "span")

    def __init__(self, name: str, args: tuple, span: SourceSpan | None = None):
        set_field(self, "name", name)
        set_field(self, "args", args)
        set_field(self, "span", span)


Expr = (Constant, Var, ArrayRef, Unary, Binary, Call)


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


def _own_fields(node: Expr) -> tuple:
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


def is_integer_literal(text: str) -> bool:
    """Whether a numeric literal's spelling is an integer's: no point, no exponent."""
    return "." not in text and "e" not in text and "E" not in text


def is_const(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Constant):
        return False
    return value is None or e.value == value


def is_plus_zero(e: Expr) -> bool:
    """Whether `e` is the constant +0, a derivative entry that the kernels
    do not write (a -0 keeps its statement and sign)."""
    return is_const(e, 0) and math.copysign(1.0, e.value) > 0


# ---------------------------------------------------------------------------
# Statements


# A statement's span locates it for diagnostics; `==` and `hash` skip it.


class Declaration(Record, uncompared=("span",)):
    __slots__ = ("name", "elem_type", "extents", "init", "span")

    def __init__(self, name: str, elem_type: str, extents: tuple = (),
                 init: Expr | None = None, span: SourceSpan | None = None):
        # elem_type is "double" or "int"; extents are constant Exprs for local arrays
        super().__init__(name, elem_type, extents, init, span)


class Assignment(Record, uncompared=("span",)):
    """Plain `=` assignment; compound forms are desugared by the parser."""

    __slots__ = ("lvalue", "rhs", "span")

    def __init__(self, lvalue: Expr, rhs: Expr, span: SourceSpan | None = None):
        super().__init__(lvalue, rhs, span)  # lvalue is a Var or an ArrayRef


class ForLoop(Record, uncompared=("span",)):
    __slots__ = ("counter", "init", "cond", "update", "body", "span")

    def __init__(self, counter: str, init: Expr, cond: Expr, update: Expr,
                 body: tuple = (), span: SourceSpan | None = None):
        # cond compares the counter; update is its new value, e.g. i + 1
        super().__init__(counter, init, cond, update, body, span)


class If(Record, uncompared=("span",)):
    __slots__ = ("cond", "then_body", "else_body", "span")

    def __init__(self, cond: Expr, then_body: tuple = (), else_body: tuple = (),
                 span: SourceSpan | None = None):
        super().__init__(cond, then_body, else_body, span)


class Return(Record, uncompared=("span",)):
    __slots__ = ("value", "span")

    def __init__(self, value: Expr | None = None, span: SourceSpan | None = None):
        super().__init__(value, span)


class Block(Record, uncompared=("span",)):
    """A bare `{ ... }` inside a body: its declarations end with it."""

    __slots__ = ("body", "span")

    def __init__(self, body: tuple = (), span: SourceSpan | None = None):
        super().__init__(body, span)


Stmt = (Declaration, Assignment, ForLoop, If, Return, Block)


class Param(Record):
    __slots__ = ("name", "rank", "extents", "elem_type")

    def __init__(self, name: str, rank: int, extents: tuple = (), elem_type: str = "double"):
        # rank 0 is a scalar, k a k-dimensional array; extents holds an int
        # per dimension, or None where it is not declared; elem_type is the
        # type of the scalar or of an element, as spelled ("double", "int")
        super().__init__(name, rank, extents, elem_type)


class FunctionIR(Record):
    __slots__ = ("name", "params", "energy_var", "body")

    def __init__(self, name: str, params: tuple, energy_var: str, body: tuple):
        super().__init__(name, params, energy_var, body)


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

    Each node's uses over the union DAG of `roots`, one per parent edge
    plus one per appearance in `roots`, are read from `lin.uses`.  `lin`
    must be `linearize(roots)`: `emit` passes the one its bundle built for
    the stage, and the constructor makes one when none is given.  Rendering
    a root writes a node with one use straight into its user's text.  A node
    with several uses is rendered once, on its first use, into `text`, and
    its last use takes it out.  So `uses` and `text` hold only what is still
    to be used, and both are empty once every root has been rendered as
    many times as it appears in `roots`.

    With a `temp` prefix the text is bound (SSA form): a node that is not an
    atom and has several uses is a temporary.  Its first use appends
    `const double <temp>K = <its text>;` to `decls`, K being the number of
    lines in `decls` before it, and every use, that first one included,
    prints `<temp>K`.

    A sum whose left spine holds more than `ACCUMULATOR_TERMS` `+`/`-`
    nodes that render inline is bound too, as a running accumulator: its
    top and some nodes down its spine are named like temporaries, all under
    one name.  The lowest, `ACCUMULATOR_TERMS` terms up from the bottom,
    appends `double <temp>K = <its text>;`, and each later one appends
    `<temp>K = <its text>;`, its text starting `<temp>K` since its left
    operand is the line before.  The additions happen in the same order, so
    the value is the same; written as one expression, gcc makes every call
    of a long sum's terms before its first addition and spills all their
    results.  The lines reassign one `double` on purpose: as a chain of
    distinct names, `const` or not, the 800-term loss of the grad_steps
    benchmark takes a 7,232 B stack frame under gcc -O2 instead of 2,112 B,
    and compiles a quarter to a half slower.

    With `names`, a map from each variable's name to the text that stands
    for it, a `Var` prints as `names[its name]`; without it, as its name.
    """

    def __init__(self, roots, temp: str | None = None, lin: Linearized | None = None,
                 names: dict | None = None):
        self.roots = tuple(roots)  # keeps every node alive, so ids stay unique
        if lin is None:
            lin = linearize(self.roots)
        self.names = names
        # id(node) -> uses not yet rendered
        self.uses: dict[int, int] = dict(zip(map(id, lin.nodes), lin.uses))
        self.text: dict[int, str] = {}  # id(node) -> text of a node with uses left
        self.temp = temp
        self.decls: list[str] = []
        # id(node) -> [its accumulator's name] once the first line is written, else []
        self._lines: dict[int, list] = {}

    def _take(self, key: int) -> str:
        left = self.uses[key] - 1
        if left:
            self.uses[key] = left
            return self.text[key]
        del self.uses[key]
        return self.text.pop(key)

    def render(self, root: Expr) -> str:
        """`root`'s text.  Uses an explicit stack, so depth is not bounded by
        the recursion limit."""
        out: list[str] = []
        # work items: text, (node, context precedence, is right operand), or
        # (None, id(node), start, named, acc): out[start:] is the whole text
        # of a shared or named node, and `acc` is None or, for a running
        # accumulator's line, the `_lines` list that holds its name
        work: list = [(root, 0, False)]
        while work:
            item = work.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if item[0] is None:  # a shared or named node's first use ends here
                _, key, start, named, acc = item
                text = "".join(out[start:])
                del out[start:]
                if named:
                    k = len(self.decls)
                    if acc:  # a later accumulator line: its text starts with the name
                        self.decls.append(f"{acc[0]} = {text};")
                    elif acc is None:
                        self.decls.append(f"const double {self.temp}{k} = {text};")
                    else:
                        acc.append(f"{self.temp}{k}")
                        self.decls.append(f"double {acc[0]} = {text};")
                    text = acc[0] if acc else f"{self.temp}{k}"
                self.text[key] = text
                out.append(self._take(key))
                continue
            node, outer, right = item
            key = id(node)
            # the top of a sum's left spine, not the inline left operand of a sum
            if (self.temp is not None and isinstance(node, Binary) and node.op in _SUMS
                    and key not in self.text
                    and not (outer == _PRECEDENCE["+"] and not right and self.uses[key] == 1)):
                self._mark_sum(node)
            acc = self._lines.pop(key, None)
            # whether `node` is, or is about to become, a temporary or an accumulator line
            named = (self.temp is not None and not isinstance(node, _ATOMS)
                     and (key in self.text or self.uses[key] > 1 or acc is not None))
            if named:
                outer = 0  # a name, or the right side of its declaration
            prec = _prec(node)
            if prec < outer or (prec == outer and right):
                out.append("(")
                work.append(")")
            if key in self.text:
                out.append(self._take(key))
                continue
            if named or self.uses[key] > 1:
                work.append((None, key, len(out), named, acc))
            else:
                del self.uses[key]
            if isinstance(node, Constant):
                out.append(node.text)
            elif isinstance(node, Var):
                out.append(node.name if self.names is None else self.names[node.name])
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
        return "".join(out)

    def _mark_sum(self, top: Binary):
        """Mark the lines of a running accumulator down `top`'s left spine,
        if more than `ACCUMULATOR_TERMS` of its `+`/`-` nodes render inline.
        Lines end at `top` and at the (k * ACCUMULATOR_TERMS - 1)-th node
        up from the bottom, so that each holds `ACCUMULATOR_TERMS` terms
        but the last; the marks share one name."""
        spine = [top]
        lhs = top.lhs
        while (isinstance(lhs, Binary) and lhs.op in _SUMS and id(lhs) not in self.text
               and self.uses[id(lhs)] == 1):
            spine.append(lhs)
            lhs = lhs.lhs
        if len(spine) > ACCUMULATOR_TERMS:
            name: list = []  # set by the first line
            for node in [top, *spine[1 - ACCUMULATOR_TERMS::-ACCUMULATOR_TERMS]]:
                self._lines[id(node)] = name


def temp_pattern(temp: str) -> re.Pattern:
    """The pattern of the names `SharedText` gives its temporaries under the
    prefix `temp`, `<temp>K`, with K as group 1."""
    return re.compile(rf"\b{re.escape(temp)}(\d+)\b")


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


def post_order(root: Expr, done, kids=children):
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


def replace_vars(e: Expr, replace) -> Expr:
    """`e` with each variable `v` replaced by `replace(v)`, the nodes above
    them rebuilt (`rebuild`)."""
    done: dict[int, Expr] = {}
    for node in post_order(e, done):
        done[id(node)] = replace(node) if isinstance(node, Var) else rebuild(node, done)
    return done[id(e)]


class Linearized:
    """The union DAG of `roots` as arrays: each node once, children first.

    `nodes` is in the order `post_order` yields them when the roots are
    walked in turn over one `done`, so a node's operands come before it.
    The arrays are indexed by position in `nodes`.  Two linearisations are
    equal only when they are the same object.
    """

    __slots__ = ("roots", "nodes", "at", "start", "operands", "uses", "sizes")

    def __init__(self, roots: tuple, nodes: list, at: array, start: array, operands: array,
                 uses: array, sizes: array | list):
        self.roots = roots
        self.nodes = nodes
        self.at = at  # at[r] is the position of roots[r]
        self.start = start  # operands[start[i]:start[i + 1]] are node i's operands, left to right
        self.operands = operands
        self.uses = uses  # node i's parent edges plus its appearances in roots
        # node i's tree-expanded size, a shared subtree counted once per use;
        # a list when a size overflows int64
        self.sizes = sizes

    def masks(self, bits: dict, call: int = 0) -> list:
        """Each node's mask: a variable's `bits.get(name, 0)`, any other
        node's the OR of its operands' masks, and a `Call` node's holds the
        bit `call` too."""
        out: list = []
        append = out.append
        operand = iter(self.operands).__next__  # node by node, in order
        start = self.start
        for node, a, b in zip(self.nodes, start, start[1:]):
            if a == b:
                append(bits.get(node.name, 0) if isinstance(node, Var) else 0)
                continue
            if b - a == 2:
                mask = out[operand()] | out[operand()]
            else:
                mask = 0
                for _ in range(b - a):
                    mask |= out[operand()]
            append(mask | call if type(node) is Call else mask)
        return out

    def order(self, root: int, masks: list, wanted: int, skip=None) -> list:
        """The positions of the nodes under the one at `root` whose mask
        meets `wanted`, in the order `post_order` yields them from that node
        alone; `masks` is a result of the method of that name.  With `skip`,
        a container of node ids, the walk enters no node whose id is in it.

        A parent's mask holds its operands', so every path to such a node
        passes through such nodes, and the walk enters no other.  It keeps
        an explicit stack and costs the size of what it selects, except
        under a sole root with nothing to skip, whose order is the
        linearisation's own.
        """
        if not skip and len(self.roots) == 1 and root == len(self.nodes) - 1:
            return [i for i, mask in enumerate(masks) if mask & wanted]
        nodes, start, operands = self.nodes, self.start, self.operands
        out: list = []
        done: set = set()
        stack = [root]  # a position, or ~position once its operands are pushed
        while stack:
            i = stack.pop()
            if i < 0:
                out.append(~i)
            elif i not in done and masks[i] & wanted and not (skip and id(nodes[i]) in skip):
                done.add(i)
                stack.append(~i)
                stack.extend(k for k in operands[start[i]:start[i + 1]] if k not in done)
        return out


def linearize(roots) -> Linearized:
    """`Linearized` of the union DAG of `roots`.  Uses an explicit stack,
    so depth is not bounded by the recursion limit."""
    roots = tuple(roots)
    nodes: list = []
    position: dict[int, int] = {}  # id(node) -> its position in nodes
    start, operands, uses = array("i", [0]), array("i"), array("i")
    sizes: list = []
    at = array("i")
    for root in roots:
        stack = [root]  # a node to visit, or (node, its operands) to finish
        pop, push = stack.pop, stack.append
        while stack:
            item = pop()
            size = 1
            if type(item) is tuple:
                node, kids = item
                for k in kids:
                    i = position[id(k)]
                    operands.append(i)
                    uses[i] += 1
                    size += sizes[i]
            elif id(item) in position:
                continue
            else:
                node, kids = item, children(item)
                if kids:
                    push((node, kids))
                    for k in kids:
                        if id(k) not in position:
                            push(k)
                    continue
            position[id(node)] = len(nodes)
            nodes.append(node)
            start.append(len(operands))
            uses.append(0)
            sizes.append(size)
        i = position[id(root)]
        at.append(i)
        uses[i] += 1
    try:
        sizes = array("q", sizes)
    except OverflowError:
        pass
    return Linearized(roots, nodes, at, start, operands, uses, sizes)


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
