"""In-process expression evaluation.

Two evaluators over the same scalar semantics:

* ``eval_expr`` — direct scalar interpreter, the reference oracle.
* ``evaluate`` — expressions compiled to a flat instruction tape over a
  register file, run for a chunk of points at once: each instruction is
  one array operation over the chunk.  Arithmetic and comparisons are
  numpy ufuncs; the libm intrinsics map the same scalar functions
  ``eval_expr`` calls (numpy's SIMD transcendentals can differ by an ulp),
  so the two agree bitwise except for NaN payloads.

A tape instruction is a tuple ``(op, a, b)`` whose result is the register
numbered by its position, and ``op`` is the node's own operator name:

* ``("slot", i, 0)`` loads input slot i, and ``("const", value, 0)`` the
  constant value;
* a ``Binary.op`` such as ``"+"`` or ``"<"``, and ``"pow"``, read
  registers a and b;
* ``"neg"`` and the other ``Call.name`` intrinsics read register a only,
  with b = 0.

Instructions are in topological order, so every operand register comes
before its user.

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

from .cast import INTRINSICS, Binary, Call, Constant, Expr, Unary, Var, children, post_order
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
    "pow": _c_pow,
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
        return _INTRINSIC_FN[node.name](*args)
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


@dataclass
class Tape:
    ops: list  # (op, a, b) per instruction; see the module docstring
    out_regs: list  # one register per output expression
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
        self.ops: list[tuple] = []
        self.reg_of: dict[int, int] = {}  # id(node) -> register
        self.named: dict[str, int] = {}  # assigned slot name -> register

    def compile(self, e: Expr) -> int:
        """The register of `e`, compiling each node not yet on the tape."""
        reg_of = self.reg_of
        for node in post_order(e, reg_of):
            if isinstance(node, Binary):
                instr = (node.op, reg_of[id(node.lhs)], reg_of[id(node.rhs)])
            elif isinstance(node, Constant):
                instr = ("const", node.value, 0)
            elif isinstance(node, Var):
                reg = self.named.get(node.name)
                if reg is not None:
                    reg_of[id(node)] = reg
                    continue
                slot = self.slot_index.get(node.name)
                if slot is None:
                    raise UnboundSlot(node.name)
                instr = ("slot", slot, 0)
            elif isinstance(node, Unary):
                instr = ("neg", reg_of[id(node.operand)], 0)
            elif isinstance(node, Call):
                regs = [reg_of[id(a)] for a in node.args] + [0]
                instr = (node.name, regs[0], regs[1])
            else:
                raise TypeError(f"cannot compile {node!r}")
            reg_of[id(node)] = len(self.ops)
            self.ops.append(instr)
        return reg_of[id(e)]


def compile_exprs(exprs, slots) -> Tape:
    """Compile expressions over input-slot labels into one shared tape."""
    b = _TapeBuilder(slots)
    out_regs = [b.compile(e) for e in exprs]
    return Tape(b.ops, out_regs, b.slots)


def compile_program(p: StraightLineProgram) -> Tape:
    """Compile a straight-line program; the single output is the energy."""
    b = _TapeBuilder(p.input_labels())
    for a in p.assigns:
        b.named[a.target] = b.compile(a.rhs)
    try:
        out = b.named[p.output]
    except KeyError:
        raise UnboundSlot(p.output) from None
    return Tape(b.ops, [out], b.slots)


# Registers x points per evaluation chunk; bounds `evaluate`'s working set
# (every instruction keeps its register for the chunk) at 32 MiB.
CHUNK_CELLS = 1 << 22


@functools.cache
def _array_fn() -> dict:
    """Operator -> its function over a chunk's operand registers (a, b); a
    unary operator ignores b."""
    import numpy as np

    def compare(ufunc):
        return lambda a, b: ufunc(a, b).astype(np.float64)

    def per_point(fn, arity):  # eval_expr's scalar function, called once per point
        if arity == 2:
            return lambda a, b: np.fromiter(map(fn, a.tolist(), b.tolist()), np.float64, len(a))
        return lambda a, _: np.fromiter(map(fn, a.tolist()), np.float64, len(a))

    table = {
        "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "<": compare(np.less), "<=": compare(np.less_equal), ">": compare(np.greater),
        ">=": compare(np.greater_equal), "==": compare(np.equal), "!=": compare(np.not_equal),
        "neg": lambda a, _: np.negative(a),
    }
    for name, fn in _INTRINSIC_FN.items():
        table[name] = per_point(fn, INTRINSICS[name])
    return table


def _run_chunk(ops: list, cols: np.ndarray) -> list:
    """Execute the tape over one chunk; `cols` is (n_slots, n). Returns the registers."""
    import numpy as np

    fns = _array_fn()
    n = cols.shape[1]
    regs: list[np.ndarray] = []
    for op, a, b in ops:
        if op == "slot":
            r = cols[a]
        elif op == "const":
            r = np.full(n, a, np.float64)
        else:
            r = fns[op](regs[a], regs[b])
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
    chunk = max(1, CHUNK_CELLS // max(1, len(tape.ops)))
    with np.errstate(all="ignore"):
        for lo in range(0, points.shape[0], chunk):
            hi = lo + chunk
            regs = _run_chunk(tape.ops, points[lo:hi].T.copy())
            for j, r in enumerate(tape.out_regs):
                out[lo:hi, j] = regs[r]
    return out
