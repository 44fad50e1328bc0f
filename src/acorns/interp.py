"""In-process expression evaluation.

Two evaluators over the same scalar semantics:

* ``eval_expr`` — direct scalar interpreter, the reference oracle.
* ``evaluate`` — expressions compiled to a flat instruction tape over a
  register file, run for a chunk of points at once: each instruction is
  one array operation over the chunk.  Arithmetic and comparisons are
  numpy ufuncs; the libm intrinsics map the same scalar functions
  ``eval_expr`` calls (numpy's SIMD transcendentals can differ by an ulp),
  so the two agree bitwise except for NaN payloads.

The scalar intrinsics follow C99 Annex F: domain errors give NaN, poles
and overflow give a signed infinity, and nothing raises.

numpy is imported on first use, not with the module, so generating code
(which never evaluates) does not pay for loading it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cast import Binary, Call, Constant, Expr, Unary, Var, children, post_order
from .errors import UnboundSlot
from .flatten import StraightLineProgram

if TYPE_CHECKING:
    import numpy as np

HAVE_NATIVE = False  # no compiled evaluator; kept for callers that record it


def _c_div(a: float, b: float) -> float:
    """IEEE division matching C semantics (no ZeroDivisionError)."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _c_log(u: float) -> float:
    if u > 0.0:
        return math.log(u)
    return -math.inf if u == 0.0 else math.nan


def _c_sqrt(u: float) -> float:
    return math.sqrt(u) if u >= 0.0 else math.nan


def _odd_integer(y: float) -> bool:
    return float(y).is_integer() and math.fmod(y, 2.0) != 0.0


def _c_pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except ValueError:
        if a == 0.0:  # pole: pow(±0, y < 0)
            return math.copysign(math.inf, a) if _odd_integer(b) else math.inf
        return math.nan
    except OverflowError:
        return -math.inf if a < 0.0 and _odd_integer(b) else math.inf


def _c_exp(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _c_trig(fn):
    def f(u: float) -> float:
        return math.nan if math.isinf(u) else fn(u)

    return f


_INTRINSIC_FN = {
    "log": _c_log,
    "exp": _c_exp,
    "sin": _c_trig(math.sin),
    "cos": _c_trig(math.cos),
    "tan": _c_trig(math.tan),
    "sqrt": _c_sqrt,
}


def _compare(test):
    return lambda a, b: 1.0 if test(a, b) else 0.0


_BINARY_FN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _c_div,
    "<": _compare(operator.lt), "<=": _compare(operator.le), ">": _compare(operator.gt),
    ">=": _compare(operator.ge), "==": _compare(operator.eq), "!=": _compare(operator.ne),
}


def _apply(node: Expr, args: list) -> float:
    """The value of a constant, or of an operation over the values `args`
    of its operands, left to right."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Unary):
        return -args[0]
    if isinstance(node, Binary):
        return _BINARY_FN[node.op](*args)
    if isinstance(node, Call):
        return _c_pow(*args) if node.name == "pow" else _INTRINSIC_FN[node.name](*args)
    raise TypeError(f"cannot evaluate {node!r}")


def eval_expr(e: Expr, bindings: dict) -> float:
    """IEEE-754 evaluation of each node once; slots are looked up in `bindings`."""
    memo: dict[int, float] = {}
    for node in post_order(e, memo):
        if isinstance(node, Var):
            try:
                memo[id(node)] = bindings[node.name]
            except KeyError:
                raise UnboundSlot(node.name) from None
        else:
            memo[id(node)] = _apply(node, [memo[id(k)] for k in children(node)])
    return memo[id(e)]


# ---------------------------------------------------------------------------
# Tape compilation

OP_LOAD_SLOT = 0
OP_LOAD_CONST = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_NEG = 6
OP_POW = 7
OP_LOG = 8
OP_EXP = 9
OP_SIN = 10
OP_COS = 11
OP_TAN = 12
OP_SQRT = 13
OP_LT = 14
OP_LE = 15
OP_GT = 16
OP_GE = 17
OP_EQ = 18
OP_NE = 19

_BINOP_CODE = {
    "+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV,
    "<": OP_LT, "<=": OP_LE, ">": OP_GT, ">=": OP_GE, "==": OP_EQ, "!=": OP_NE,
}
_CALL_CODE = {
    "log": OP_LOG, "exp": OP_EXP, "sin": OP_SIN,
    "cos": OP_COS, "tan": OP_TAN, "sqrt": OP_SQRT,
}


@dataclass
class Tape:
    ops: np.ndarray  # (m, 3) int32: opcode, a, b
    consts: np.ndarray  # float64 pool
    out_regs: np.ndarray  # int32, one register per output expression
    slots: tuple  # slot labels; points are laid out in this order

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def n_out(self) -> int:
        return len(self.out_regs)


class _TapeBuilder:
    def __init__(self, slots):
        self.slot_index = {label: i for i, label in enumerate(slots)}
        self.slots = tuple(slots)
        self.ops: list[tuple[int, int, int]] = []
        self.consts: list[float] = []
        self.const_index: dict[float, int] = {}
        self.reg_of: dict[int, int] = {}  # id(node) -> register
        self.named: dict[str, int] = {}  # assigned slot name -> register

    def instr(self, op: int, a: int = 0, b: int = 0) -> int:
        self.ops.append((op, a, b))
        return len(self.ops) - 1

    def const_slot(self, value: float) -> int:
        got = self.const_index.get(value)
        if got is None:
            got = len(self.consts)
            self.consts.append(value)
            self.const_index[value] = got
        return got

    def compile(self, e: Expr) -> int:
        """The register of `e`, compiling each node not yet on the tape."""
        reg_of = self.reg_of
        for node in post_order(e, reg_of):
            if isinstance(node, Binary):
                reg = self.instr(_BINOP_CODE[node.op], reg_of[id(node.lhs)], reg_of[id(node.rhs)])
            elif isinstance(node, Constant):
                reg = self.instr(OP_LOAD_CONST, self.const_slot(node.value))
            elif isinstance(node, Var):
                reg = self.named.get(node.name)
                if reg is None:
                    slot = self.slot_index.get(node.name)
                    if slot is None:
                        raise UnboundSlot(node.name)
                    reg = self.instr(OP_LOAD_SLOT, slot)
            elif isinstance(node, Unary):
                reg = self.instr(OP_NEG, reg_of[id(node.operand)])
            elif isinstance(node, Call):
                code = OP_POW if node.name == "pow" else _CALL_CODE[node.name]
                reg = self.instr(code, *[reg_of[id(a)] for a in node.args])
            else:
                raise TypeError(f"cannot compile {node!r}")
            reg_of[id(node)] = reg
        return reg_of[id(e)]

    def finish(self, out_regs) -> Tape:
        import numpy as np

        ops = np.asarray(self.ops, dtype=np.int32).reshape(-1, 3)
        return Tape(
            ops=np.ascontiguousarray(ops),
            consts=np.asarray(self.consts, dtype=np.float64),
            out_regs=np.asarray(out_regs, dtype=np.int32),
            slots=self.slots,
        )


def compile_exprs(exprs, slots) -> Tape:
    """Compile expressions over input-slot labels into one shared tape."""
    b = _TapeBuilder(slots)
    out_regs = [b.compile(e) for e in exprs]
    return b.finish(out_regs)


def compile_program(p: StraightLineProgram) -> Tape:
    """Compile a straight-line program; the single output is the energy."""
    b = _TapeBuilder(p.input_labels())
    for a in p.assigns:
        b.named[a.target] = b.compile(a.rhs)
    try:
        out = b.named[p.output]
    except KeyError:
        raise UnboundSlot(p.output) from None
    return b.finish([out])


# Registers x points per evaluation chunk; bounds `evaluate`'s working set
# (every instruction keeps its register for the chunk) at 32 MiB.
CHUNK_CELLS = 1 << 22

_COMPARISONS = frozenset((OP_LT, OP_LE, OP_GT, OP_GE, OP_EQ, OP_NE))
# libm calls go through eval_expr's scalar functions, one call per point
_UNARY_FN = {_CALL_CODE[name]: fn for name, fn in _INTRINSIC_FN.items()}


@functools.cache
def _ufuncs() -> dict:
    """Opcode -> the numpy ufunc that runs it."""
    import numpy as np

    return {
        OP_ADD: np.add, OP_SUB: np.subtract, OP_MUL: np.multiply, OP_DIV: np.divide,
        OP_LT: np.less, OP_LE: np.less_equal, OP_GT: np.greater,
        OP_GE: np.greater_equal, OP_EQ: np.equal, OP_NE: np.not_equal,
    }


def _run_chunk(ops: list, consts: np.ndarray, cols: np.ndarray) -> list:
    """Execute the tape over one chunk; `cols` is (n_slots, n). Returns the registers."""
    import numpy as np

    ufuncs = _ufuncs()
    n = cols.shape[1]
    regs: list[np.ndarray] = []
    for op, a, b in ops:
        if op == OP_LOAD_SLOT:
            r = cols[a]
        elif op == OP_LOAD_CONST:
            r = np.full(n, consts[a])
        elif op == OP_NEG:
            r = np.negative(regs[a])
        elif op == OP_POW:
            r = np.fromiter(map(_c_pow, regs[a].tolist(), regs[b].tolist()), np.float64, n)
        elif op in _UNARY_FN:
            r = np.fromiter(map(_UNARY_FN[op], regs[a].tolist()), np.float64, n)
        else:
            r = ufuncs[op](regs[a], regs[b])
            if op in _COMPARISONS:
                r = r.astype(np.float64)
        regs.append(r)
    return regs


def evaluate(tape: Tape, points) -> np.ndarray:
    """Evaluate a tape at many points.

    `points` is (num_points, n_slots); returns (num_points, n_out).
    """
    import numpy as np

    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.shape[1] != tape.n_slots:
        raise ValueError(f"expected {tape.n_slots} slots per point, got {points.shape[1]}")
    out = np.empty((points.shape[0], tape.n_out), dtype=np.float64)
    ops = tape.ops.tolist()
    out_regs = tape.out_regs.tolist()
    chunk = max(1, CHUNK_CELLS // max(1, len(ops)))
    with np.errstate(all="ignore"):
        for lo in range(0, points.shape[0], chunk):
            hi = lo + chunk
            regs = _run_chunk(ops, tape.consts, points[lo:hi].T.copy())
            for j, r in enumerate(out_regs):
                out[lo:hi, j] = regs[r]
    return out
