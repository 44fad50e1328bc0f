"""Control-flow elimination: loop unrolling, conditional resolution, and
the straight-line intermediate format.

After unrolling, every value is a scalar slot.  Input slots are labelled
with their flattened element name (``x``, ``a[0][1]``); locals that are
assigned more than once get one versioned slot per definition
(``loss@1``, ``loss@2``, ...), so def-before-use holds by construction.
Expression leaves in the straight-line program are ``Var`` nodes naming
either an input slot or an earlier versioned target.
"""

from __future__ import annotations

import itertools
import operator
import struct
from dataclasses import dataclass

from .cast import (
    ArrayRef,
    Assignment,
    Binary,
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

VERSION_SEP = "@"
DEFAULT_ASSIGN_CAP = 10**7


@dataclass(frozen=True)
class InputSlot:
    param: str
    indices: tuple  # () for scalars
    label: str


@dataclass(frozen=True)
class SlpAssign:
    target: str  # versioned slot name
    display: str  # source-level name, e.g. "loss" or "t[1]"
    rhs: Expr
    from_decl: bool = False  # true when this is a declaration initializer


@dataclass(frozen=True)
class StraightLineProgram:
    inputs: tuple
    assigns: tuple
    output: str

    @property
    def body_assigns(self) -> tuple:
        """Assignments proper, excluding declaration initializers."""
        return tuple(a for a in self.assigns if not a.from_decl)

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


def eval_const(expr: Expr, env: dict):
    """Evaluate an integer/boolean expression over the given bindings."""
    done: dict[int, object] = {}
    if not isinstance(expr, (Unary, Binary)):  # most indices: a leaf needs no walk
        return _const_value(expr, done, env)
    for node in post_order(expr, done, operands):
        done[id(node)] = _const_value(node, done, env)
    return done[id(expr)]


def _c_int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # C integer division truncates toward zero
    return q if (a >= 0) == (b >= 0) else -q


# the binary operators over compile-time integers, as C computes them
_INT_BINARY_FN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _c_int_div,
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def _const_value(e: Expr, done: dict, env: dict):
    if isinstance(e, Constant):
        if any(ch in e.text for ch in ".eE"):
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
        self.ir = ir
        self.cap = cap
        self.params = {p.name: p for p in ir.params}
        self.observed: dict[str, list[int]] = {}  # param -> max index per dim
        self.local_scalars: set[str] = set()
        self.local_arrays: dict[str, tuple] = {}  # name -> extents
        self.versions: dict[str, int] = {}  # slot label -> last version number
        self.current: dict[str, str] = {}  # slot label -> live slot name
        self.assigns: list[SlpAssign] = []
        for p in ir.params:
            if p.rank == 0:
                self.current[p.name] = p.name

    # -- slot bookkeeping ---------------------------------------------------

    def observe(self, param: str, indices: tuple):
        dims = self.observed.setdefault(param, [-1] * len(indices))
        if len(dims) != len(indices):
            raise UnsupportedConstruct(None, f"inconsistent indexing depth for {param!r}")
        for d, ix in enumerate(indices):
            if ix < 0:
                raise NotConstant(None, f"negative index {ix} into {param!r}")
            dims[d] = max(dims[d], ix)

    def new_version(self, label: str) -> str:
        v = self.versions.get(label, 0) + 1
        self.versions[label] = v
        return f"{label}{VERSION_SEP}{v}"

    def emit(self, label: str, rhs: Expr, from_decl: bool = False):
        if len(self.assigns) >= self.cap:
            raise BoundExplosion(len(self.assigns) + 1, self.cap)
        target = self.new_version(label)
        self.assigns.append(SlpAssign(target, label, rhs, from_decl))
        self.current[label] = target

    # -- expression rewriting ------------------------------------------------

    def rewrite(self, e: Expr, env: dict) -> Expr:
        done: dict[int, Expr] = {}
        for node in post_order(e, done, operands):
            done[id(node)] = self._rewrite_node(node, done, env)
        return done[id(e)]

    def _rewrite_node(self, e: Expr, done: dict, env: dict) -> Expr:
        if isinstance(e, Var):
            if e.name in env:
                return const(float(env[e.name]))
            live = self.current.get(e.name)
            if live is None:
                raise NotConstant(e.span, f"{e.name!r} used before assignment")
            return Var(live)
        if isinstance(e, ArrayRef):
            indices = tuple(eval_const(ix, env) for ix in e.indices)
            label = e.base + "".join(f"[{ix}]" for ix in indices)
            if e.base in self.params:
                p = self.params[e.base]
                if len(indices) != p.rank:
                    raise UnsupportedConstruct(e.span, f"partial indexing of {e.base!r}")
                self.observe(e.base, indices)
                return Var(label)
            if e.base in self.local_arrays:
                live = self.current.get(label)
                if live is None:
                    raise NotConstant(e.span, f"{label!r} used before assignment")
                return Var(live)
            raise NotConstant(e.span, f"unknown array {e.base!r}")
        return rebuild(e, done)

    # -- statement execution -------------------------------------------------

    def run_block(self, stmts, env: dict):
        for s in stmts:
            self.run_stmt(s, env)

    def run_stmt(self, s, env: dict):
        if isinstance(s, Declaration):
            if s.elem_type == "int":
                if s.init is None:
                    raise NotConstant(s.span, f"int local {s.name!r} needs a constant initializer")
                env[s.name] = eval_const(s.init, env)
            elif s.extents:
                extents = tuple(eval_const(x, env) for x in s.extents)
                self.local_arrays[s.name] = extents
                if s.init is not None:
                    raise UnsupportedConstruct(s.span, "array initializer")
            else:
                self.local_scalars.add(s.name)
                if s.init is not None:
                    self.emit(s.name, self.rewrite(s.init, env), from_decl=True)
        elif isinstance(s, Assignment):
            rhs = self.rewrite(s.rhs, env)
            lv = s.lvalue
            if isinstance(lv, Var):
                if lv.name in env:
                    raise UnsupportedConstruct(lv.span, "assignment to a loop counter")
                self.emit(lv.name, rhs)
            else:
                indices = tuple(eval_const(ix, env) for ix in lv.indices)
                label = lv.base + "".join(f"[{ix}]" for ix in indices)
                if lv.base in self.params:
                    self.observe(lv.base, indices)
                self.emit(label, rhs)
        elif isinstance(s, ForLoop):
            value = eval_const(s.init, env)
            iterations = 0
            while True:
                inner = dict(env)
                inner[s.counter] = value
                if not eval_const(s.cond, inner):
                    break
                iterations += 1
                if iterations > self.cap:
                    raise BoundExplosion(iterations, self.cap)
                self.run_block(s.body, inner)
                value = eval_const(s.update, inner)
        elif isinstance(s, If):
            taken = s.then_body if eval_const(s.cond, env) else s.else_body
            self.run_block(taken, dict(env))
        elif isinstance(s, Return):
            pass  # the energy variable, not the return value, is differentiated
        else:
            raise TypeError(f"not a statement: {s!r}")

    # -- finalization ----------------------------------------------------------

    def input_slots(self) -> list[InputSlot]:
        slots = []
        for p in self.ir.params:
            if p.rank == 0:
                slots.append(InputSlot(p.name, (), p.name))
                continue
            extents = []
            observed = self.observed.get(p.name)
            for d in range(p.rank):
                declared = p.extents[d] if d < len(p.extents) else None
                if declared is not None:
                    extents.append(declared)
                elif observed is not None and observed[d] >= 0:
                    extents.append(observed[d] + 1)
                else:
                    extents.append(0)  # never referenced: no slots
            for indices in itertools.product(*(range(n) for n in extents)):
                label = p.name + "".join(f"[{ix}]" for ix in indices)
                slots.append(InputSlot(p.name, indices, label))
        return slots


def unroll(ir: FunctionIR, cap: int = DEFAULT_ASSIGN_CAP) -> StraightLineProgram:
    """Flatten a function to straight-line form (pre: validate_subset empty)."""
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
