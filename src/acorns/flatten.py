"""Control-flow elimination: loop unrolling, conditional resolution, and
the straight-line intermediate format.

After unrolling, every value is a scalar slot.  Input slots are labelled
with their flattened element name (``x``, ``a[0][1]``); locals that are
assigned more than once get one versioned slot per definition
(``loss@1``, ``loss@2``, ...), so def-before-use holds by construction.
Expression leaves in the straight-line program are ``Var`` nodes naming
either an input slot or an earlier versioned target.

The unroller keeps one slot table from source label to live slot, and
every read resolves through it: a scalar or an array element reads the
slot its last assignment wrote, and a parameter element that no assignment
has written yet reads its input slot.  Every index is a constant checked
against its array's rank and declared extents.  A program's input slots,
grouped by parameter, are `StraightLineProgram.param_slots`.
"""

from __future__ import annotations

import itertools
import operator
import struct
from functools import cached_property

from .cast import (
    ArrayRef,
    Assignment,
    Binary,
    Block,
    Call,
    Constant,
    Declaration,
    Expr,
    ForLoop,
    FunctionIR,
    If,
    Return,
    Unary,
    Var,
    children,
    const,
    is_integer_literal,
    operands,
    post_order,
    rebuild,
    to_source,
)
from .errors import (
    BoundExplosion,
    FormatError,
    MissingEnergyVar,
    NotConstant,
    UnsupportedConstruct,
)
from .record import Record, set_field

VERSION_SEP = "@"
DEFAULT_ASSIGN_CAP = 10**7


class InputSlot(Record):
    __slots__ = ("param", "indices", "label")

    def __init__(self, param: str, indices: tuple, label: str):
        super().__init__(param, indices, label)  # indices is () for scalars


class SlpAssign(Record):
    __slots__ = ("target", "display", "rhs", "from_decl")

    def __init__(self, target: str, display: str, rhs: Expr, from_decl: bool = False):
        set_field(self, "target", target)  # versioned slot name
        set_field(self, "display", display)  # source-level name, e.g. "loss" or "t[1]"
        set_field(self, "rhs", rhs)
        set_field(self, "from_decl", from_decl)  # true for a declaration initializer


class StraightLineProgram(Record):
    __slots__ = ("inputs", "assigns", "output", "__dict__")  # __dict__ holds param_slots

    def __init__(self, inputs: tuple, assigns: tuple, output: str):
        super().__init__(inputs, assigns, output)

    @property
    def body_assigns(self) -> tuple:
        """Assignments proper, excluding declaration initializers."""
        return tuple(a for a in self.assigns if not a.from_decl)

    @cached_property
    def param_slots(self) -> dict:
        """Each parameter's input slots, row-major, the parameters in
        declaration order; a parameter without slots is absent."""
        groups: dict[str, list] = {}
        for s in self.inputs:
            groups.setdefault(s.param, []).append(s)
        return groups

    def input_labels(self) -> list[str]:
        return [s.label for s in self.inputs]


def strip_version(name: str) -> str:
    return name.split(VERSION_SEP, 1)[0]


def display_expr(e: Expr) -> Expr:
    """Replace versioned slot references by their source-level names."""
    done: dict[int, Expr] = {}
    for node in post_order(e, done):
        if isinstance(node, Var) and VERSION_SEP in node.name:
            done[id(node)] = Var(strip_version(node.name))
        else:
            done[id(node)] = rebuild(node, done)
    return done[id(e)]


def pretty_assign(a: SlpAssign) -> str:
    lead = "double " if a.from_decl else ""
    return f"{lead}{a.display} = {to_source(display_expr(a.rhs))};"


def dump_text(p: StraightLineProgram) -> str:
    lines = [f"input {s.label}" for s in p.inputs]
    lines += [f"{a.target} = {to_source(a.rhs)}" for a in p.assigns]
    lines.append(f"output {p.output}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compile-time evaluation


def eval_const(expr: Expr, env: dict, order: list | None = None):
    """Evaluate an integer/boolean expression over the given bindings.

    `order` is `const_order(expr)`, for a caller that evaluates `expr` many
    times, as a loop does its condition and update, and walks it once.
    """
    done: dict[int, object] = {}
    if order is None:
        if not isinstance(expr, (Unary, Binary)):  # most indices: a leaf needs no walk
            return _const_value(expr, done, env)
        order = const_order(expr)
    for node in order:
        done[id(node)] = _const_value(node, done, env)
    return done[id(expr)]


def const_order(expr: Expr) -> list:
    """The nodes of `expr` in the order `eval_const` evaluates them: source
    order, so an evaluation that raises reports the leftmost fault."""
    done: set = set()
    order = []
    for node in post_order(expr, done, operands):
        done.add(id(node))
        order.append(node)
    return order


def _c_int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # C integer division truncates toward zero
    return q if (a >= 0) == (b >= 0) else -q


# the binary operators over compile-time integers, as C computes them
_INT_BINARY_FN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _c_int_div,
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def int_value(e: Expr, ints: dict, env: dict):
    """`e`'s value as C computes it if `e` is integer-typed, else None;
    `ints` holds the values of `e`'s integer-typed operands, and gets `e`'s.

    An integer literal, a name bound in `env` (a loop counter or an `int`
    local), and a negation, arithmetic or a comparison whose operands are
    all integer-typed, are integer-typed.  C computes such a subexpression
    in integers, dividing with truncation, and converts the result where a
    `double` operand or argument meets it: `x * (1 / 2)` is `x * 0`.
    """
    if isinstance(e, Constant):
        if not is_integer_literal(e.text):
            return None
        value = int(e.text)
    elif isinstance(e, Var):
        if e.name not in env:
            return None
        value = env[e.name]
    elif isinstance(e, Unary):
        if id(e.operand) not in ints:
            return None
        value = -ints[id(e.operand)]
    elif isinstance(e, Binary) and e.op in _INT_BINARY_FN:
        if id(e.lhs) not in ints or id(e.rhs) not in ints:
            return None
        value = int(_const_value(e, ints, env))
    else:
        return None
    ints[id(e)] = value
    return value


def _const_value(e: Expr, done: dict, env: dict):
    if isinstance(e, Constant):
        if not is_integer_literal(e.text):
            raise NotConstant(e.span, f"non-integer literal {e.text!r} in constant context")
        return int(e.text)
    if isinstance(e, Var):
        if e.name not in env:
            raise NotConstant(e.span, f"{e.name!r} is not compile-time constant")
        return env[e.name]
    if isinstance(e, Unary):
        return -done[id(e.operand)]
    if isinstance(e, Binary) and e.op in _INT_BINARY_FN:
        a, b = done[id(e.lhs)], done[id(e.rhs)]
        if e.op == "/" and b == 0:
            raise NotConstant(e.span, "division by zero in constant expression")
        return _INT_BINARY_FN[e.op](a, b)
    raise NotConstant(getattr(e, "span", None), "expression is not compile-time constant")


# ---------------------------------------------------------------------------
# Unrolling


class _Unroller:
    def __init__(self, ir: FunctionIR, cap: int):
        self.cap = cap
        self.arrays: dict[str, tuple] = {}  # array -> extents, None where undeclared
        self.reach: dict[str, list] = {}  # parameter -> the extents of its input slots
        self.versions: dict[str, int] = {}  # slot label -> last version number
        self.current: dict[str, str] = {}  # slot label -> live slot name
        self.assigns: list[SlpAssign] = []
        for p in ir.params:
            self.reach[p.name] = [n or 0 for n in p.extents]
            if p.rank:
                self.arrays[p.name] = p.extents
            else:
                self.current[p.name] = p.name

    # -- slot bookkeeping ---------------------------------------------------

    def element(self, ref: ArrayRef, env: dict) -> str:
        """The label of the element `ref` names, its indices checked against
        the array's rank and extents.  A parameter element enters the slot
        table as its input slot when first named, and widens the parameter's
        undeclared extents to cover it."""
        extents = self.arrays.get(ref.base)
        if extents is None:
            raise NotConstant(ref.span, f"unknown array {ref.base!r}")
        indices = tuple(eval_const(ix, env) for ix in ref.indices)
        if len(indices) != len(extents):
            raise UnsupportedConstruct(ref.span, f"{len(indices)} index(es) into "
                                                 f"{len(extents)}-dimensional {ref.base!r}")
        for ix, n in zip(indices, extents):
            if ix < 0 or n is not None and ix >= n:
                raise NotConstant(ref.span, f"index {ix} out of range for {ref.base!r}")
        label = slot_label(ref.base, indices)
        reach = self.reach.get(ref.base)
        if reach is not None and label not in self.current:
            self.current[label] = label
            reach[:] = map(max, reach, (ix + 1 for ix in indices))
        return label

    def new_version(self, label: str) -> str:
        v = self.versions.get(label, 0) + 1
        self.versions[label] = v
        return f"{label}{VERSION_SEP}{v}"

    def unassign(self, labels):
        """Drop `labels` from the slot table: a declaration run again, in a
        loop or a block, starts unassigned."""
        for label in labels:
            self.current.pop(label, None)

    def emit(self, label: str, rhs: Expr, from_decl: bool = False):
        if len(self.assigns) >= self.cap:
            raise BoundExplosion(len(self.assigns) + 1, self.cap)
        target = self.new_version(label)
        self.assigns.append(SlpAssign(target, label, rhs, from_decl))
        self.current[label] = target

    # -- expression rewriting ------------------------------------------------

    def rewrite(self, e: Expr, env: dict) -> Expr:
        """`e` over live slots, each integer-typed subexpression folded to
        the constant C computes for it (`int_value`); an integer literal
        stays as it is spelled."""
        done: dict[int, Expr] = {}
        ints: dict[int, int] = {}  # id(node) -> its value, for the integer-typed nodes
        for node in post_order(e, done, operands):
            done[id(node)] = self._rewrite_node(node, done, env, ints)
        return done[id(e)]

    def _rewrite_node(self, e: Expr, done: dict, env: dict, ints: dict) -> Expr:
        value = int_value(e, ints, env)
        if value is not None:
            return e if isinstance(e, Constant) else const(float(value))
        if isinstance(e, Var):
            label = e.name
        elif isinstance(e, ArrayRef):
            label = self.element(e, env)
        else:
            return rebuild(e, done)
        live = self.current.get(label)
        if live is None:
            raise NotConstant(e.span, f"{label!r} used before assignment")
        return Var(live)

    # -- statement execution -------------------------------------------------

    def run_block(self, stmts, env: dict):
        for s in stmts:
            self.run_stmt(s, env)

    def run_stmt(self, s, env: dict):
        if isinstance(s, Declaration):
            # the name starts unassigned, also where a loop runs the
            # declaration again or a sibling block declared it, as an array
            # or a scalar
            self.unassign([s.name, *element_labels(s.name, self.arrays.pop(s.name, ()))])
            if s.elem_type == "int":
                if s.init is None:
                    raise NotConstant(s.span, f"int local {s.name!r} needs a constant initializer")
                env[s.name] = eval_const(s.init, env)
            elif s.extents:
                self.arrays[s.name] = tuple(eval_const(x, env) for x in s.extents)
                if s.init is not None:
                    raise UnsupportedConstruct(s.span, "array initializer")
            elif s.init is not None:
                self.emit(s.name, self.rewrite(s.init, env), from_decl=True)
        elif isinstance(s, Assignment):
            rhs = self.rewrite(s.rhs, env)
            lv = s.lvalue
            if isinstance(lv, Var):
                if lv.name in env:
                    raise UnsupportedConstruct(lv.span, "assignment to a loop counter")
                self.emit(lv.name, rhs)
            else:
                self.emit(self.element(lv, env), rhs)
        elif isinstance(s, ForLoop):
            value = eval_const(s.init, env)
            cond, update = const_order(s.cond), const_order(s.update)
            iterations = 0
            while True:
                inner = dict(env)
                inner[s.counter] = value
                if not eval_const(s.cond, inner, cond):
                    break
                iterations += 1
                if iterations > self.cap:
                    raise BoundExplosion(iterations, self.cap)
                self.run_block(s.body, inner)
                value = eval_const(s.update, inner, update)
        elif isinstance(s, If):
            taken = s.then_body if eval_const(s.cond, env) else s.else_body
            self.run_block(taken, dict(env))
        elif isinstance(s, Block):
            self.run_block(s.body, dict(env))
        elif isinstance(s, Return):
            pass  # the energy variable, not the return value, is differentiated
        else:
            raise TypeError(f"not a statement: {s!r}")

    # -- finalization ----------------------------------------------------------

    def input_slots(self) -> list[InputSlot]:
        slots = []
        for name, extents in self.reach.items():  # in declaration order
            for indices in itertools.product(*map(range, extents)):
                slots.append(InputSlot(name, indices, slot_label(name, indices)))
        return slots


def slot_label(name: str, indices) -> str:
    """The source label of an element, `a[1][0]`; a scalar's, with no
    indices, is its name."""
    return name + "".join(f"[{ix}]" for ix in indices)


def element_labels(name: str, extents) -> list[str]:
    """The labels of an array's elements, row-major: `a[0][0]`, `a[0][1]`,
    ...; a scalar's, with no extents, is its name."""
    return [slot_label(name, indices) for indices in itertools.product(*map(range, extents))]


def unroll(ir: FunctionIR, cap: int = DEFAULT_ASSIGN_CAP) -> StraightLineProgram:
    """Flatten a function to straight-line form (pre: validate_subset empty).

    Every read, of a scalar or of an array element, resolves through one
    slot table from source label to live slot, so a parameter element reads
    its input slot only until an assignment writes it.  Every index is
    checked against its array's rank and declared extents; a parameter's
    undeclared extent is one past the largest index used.
    """
    u = _Unroller(ir, cap)
    u.run_block(ir.body, {})
    output = u.current.get(ir.energy_var)
    if output is None:
        raise MissingEnergyVar(ir.energy_var)
    return StraightLineProgram(tuple(u.input_slots()), tuple(u.assigns), output)


# ---------------------------------------------------------------------------
# Intermediate binary format (.slp)

_MAGIC = b"SLP1"
_FORMAT_VERSION = 1

_TAG_CONST = 0
_TAG_VAR = 1
_TAG_UNARY = 2
_TAG_BINARY = 3
_TAG_CALL = 4
_TAG_ARRAYREF = 5

_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=")
_OP_CODE = {op: i for i, op in enumerate(_OPS)}


def _w_str(out: list, s: str):
    b = s.encode("utf-8")
    out.append(struct.pack("<I", len(b)))
    out.append(b)


def _w_expr(out: list, e: Expr):
    """Write `e` in prefix order: each node's tag and fields, then its operands."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Constant):
            out.append(bytes([_TAG_CONST]))
            _w_str(out, e.text)
        elif isinstance(e, Var):
            out.append(bytes([_TAG_VAR]))
            _w_str(out, e.name)
        elif isinstance(e, Unary):
            out.append(bytes([_TAG_UNARY]))
        elif isinstance(e, Binary):
            out.append(bytes([_TAG_BINARY, _OP_CODE[e.op]]))
        elif isinstance(e, Call):
            out.append(bytes([_TAG_CALL, len(e.args)]))
            _w_str(out, e.name)
        elif isinstance(e, ArrayRef):
            out.append(bytes([_TAG_ARRAYREF, len(e.indices)]))
            _w_str(out, e.base)
        else:
            raise TypeError(f"not an expression: {e!r}")
        stack.extend(reversed(children(e)))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated .slp data")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def str_(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def head(self):
        """Read one node's tag and fields: (make, arity), where `make` builds
        the node from the list of its `arity` operands, which follow."""
        tag = self.u8()
        if tag == _TAG_CONST:
            text = self.str_()
            return (lambda _: Constant(text, float(text))), 0
        if tag == _TAG_VAR:
            name = self.str_()
            return (lambda _: Var(name)), 0
        if tag == _TAG_UNARY:
            return (lambda ops: Unary("-", ops[0])), 1
        if tag == _TAG_BINARY:
            code = self.u8()
            if code >= len(_OPS):
                raise FormatError(f"unknown operator code {code}")
            return (lambda ops: Binary(_OPS[code], *ops)), 2
        if tag == _TAG_CALL:
            argc = self.u8()
            name = self.str_()
            return (lambda ops: Call(name, tuple(ops))), argc
        if tag == _TAG_ARRAYREF:
            n = self.u8()
            base = self.str_()
            return (lambda ops: ArrayRef(base, tuple(ops))), n
        raise FormatError(f"unknown expression tag {tag}")

    def expr(self) -> Expr:
        """Read one prefix-encoded expression with an explicit stack."""
        waiting: list = []  # (make, arity, operands read) of nodes still reading operands
        while True:
            make, arity = self.head()
            ops: list = []
            while len(ops) == arity:  # the node is complete: hand it to its parent
                node = make(ops)
                if not waiting:
                    return node
                make, arity, ops = waiting.pop()
                ops.append(node)
            waiting.append((make, arity, ops))


def serialize(p: StraightLineProgram) -> bytes:
    out: list[bytes] = [_MAGIC, struct.pack("<I", _FORMAT_VERSION)]
    out.append(struct.pack("<I", len(p.inputs)))
    for s in p.inputs:
        _w_str(out, s.param)
        out.append(bytes([len(s.indices)]))
        for ix in s.indices:
            out.append(struct.pack("<I", ix))
        _w_str(out, s.label)
    out.append(struct.pack("<I", len(p.assigns)))
    for a in p.assigns:
        _w_str(out, a.target)
        _w_str(out, a.display)
        out.append(bytes([1 if a.from_decl else 0]))
        _w_expr(out, a.rhs)
    _w_str(out, p.output)
    return b"".join(out)


def deserialize(data: bytes) -> StraightLineProgram:
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise FormatError("not a .slp file (bad magic)")
    version = r.u32()
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported .slp version {version}")
    inputs = []
    for _ in range(r.u32()):
        param = r.str_()
        ndims = r.u8()
        indices = tuple(r.u32() for _ in range(ndims))
        inputs.append(InputSlot(param, indices, r.str_()))
    assigns = []
    for _ in range(r.u32()):
        target = r.str_()
        display = r.str_()
        from_decl = bool(r.u8())
        assigns.append(SlpAssign(target, display, r.expr(), from_decl))
    output = r.str_()
    if r.pos != len(r.data):
        raise FormatError("trailing bytes after .slp payload")
    return StraightLineProgram(tuple(inputs), tuple(assigns), output)
