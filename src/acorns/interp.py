"""In-process expression evaluation.

Two evaluators over the same scalar semantics:

* ``eval_expr`` — direct scalar interpreter, the reference oracle.
* ``evaluate`` — expressions compiled to a flat instruction tape over a
  register file, run for a chunk of points at once: each instruction is
  one array operation over the chunk.  Arithmetic and comparisons are
  numpy ufuncs; the libm intrinsics map the same scalar functions
  ``eval_expr`` calls (numpy's SIMD transcendentals can differ by an ulp),
  so the two agree bitwise except for NaN payloads.

Both tapes, ``compile_exprs``'s over expressions and ``compile_program``'s
over a straight-line program, are built from a ``cast.linearize`` of their
roots by one instruction per node.  A tape instruction is a tuple
``(op, a, b)`` whose result is the register numbered by its position, and
``op`` is the node's own operator name:

* ``("slot", i, 0)`` loads input slot i, and ``("const", value, 0)`` the
  constant value;
* ``("reg", k, 0)`` is register k again: a program's read of a slot that
  an earlier assignment wrote, k being that assignment's right-hand side;
* a ``Binary.op`` such as ``"+"`` or ``"<"``, and ``"pow"``, read
  registers a and b;
* ``"neg"`` and the other ``Call.name`` intrinsics read register a only,
  with b = 0.

Instructions are in topological order, so every operand register comes
before its user.

A chunk keeps a register only while a later instruction reads it: `Tape`
works out once the instruction after which each register is dead, and the
most registers alive at once, its `peak`; a chunk drops each dead register
and holds `CHUNK_CELLS // peak` points.  An intrinsic calls its scalar
function for the chunk's first point, and again only at a point whose
operands differ from that point's in some bit: the finite-difference
oracle's points differ from its first, the unstepped point, in one or two
slots, so most of an intrinsic's operands repeat.  Equal operand bits give
equal result bits, so this changes no value.

The scalar intrinsics follow C99 Annex F: domain errors give NaN, poles
and overflow give a signed infinity, and nothing raises.

numpy is imported on first use, not with the module, so generating code
(which never evaluates) does not pay for loading it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .cast import (INTRINSICS, Binary, Call, Constant, Expr, Linearized, Unary, Var, children,
                   linearize, post_order)
from .errors import UnboundSlot
from .flatten import StraightLineProgram
from .record import Record

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


# the instructions that read no register, and those that read register b too
_READS_NONE = frozenset(("slot", "const"))
_READS_B = frozenset(_BINARY_FN) | {name for name, arity in INTRINSICS.items() if arity == 2}


class Tape(Record):
    __slots__ = ("ops", "out_regs", "slots", "__dict__")

    def __init__(self, ops: list, out_regs: list, slots: tuple):
        # ops holds (op, a, b) per instruction (see the module docstring),
        # out_regs a register per output expression, and slots the slot
        # labels, in the order points are laid out
        super().__init__(ops, out_regs, slots)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def n_out(self) -> int:
        return len(self.out_regs)

    @functools.cached_property
    def frees(self) -> list:
        """Per instruction, the registers it is the last reader of: a tuple,
        most often empty.  A register that nothing reads is dead after its
        own instruction; an output register is never dead."""
        ops = self.ops
        last = list(range(len(ops)))
        for i, (op, a, b) in enumerate(ops):
            if op not in _READS_NONE:
                last[a] = i
                if op in _READS_B:
                    last[b] = i
        for r in self.out_regs:
            last[r] = len(ops)
        frees = [()] * (len(ops) + 1)
        for k, i in enumerate(last):
            frees[i] += (k,)
        return frees[:-1]

    @functools.cached_property
    def peak(self) -> int:
        """The most registers alive at once: at instruction i, the i + 1
        made so far less those dead before it.  At least 1."""
        dead = itertools.accumulate(map(len, self.frees), initial=0)
        return max(map(operator.sub, range(1, len(self.ops) + 1), dead), default=1)


def _instructions(lin: Linearized, slots, named: dict) -> list:
    """The instruction of each node of `lin`, in its order, so a node's
    register is its position.  A `Var` whose name `named` maps to a register
    before it reads that register; any other names an input slot."""
    slot_index = {label: i for i, label in enumerate(slots)}
    start, operands = lin.start, lin.operands
    ops: list = []
    for node, a, b in zip(lin.nodes, start, start[1:]):
        if isinstance(node, Binary):
            instr = (node.op, operands[a], operands[a + 1])
        elif isinstance(node, Constant):
            instr = ("const", node.value, 0)
        elif isinstance(node, Var):
            reg = named.get(node.name)
            if reg is not None and reg < len(ops):
                instr = ("reg", reg, 0)
            else:
                slot = slot_index.get(node.name)
                if slot is None:
                    raise UnboundSlot(node.name)
                instr = ("slot", slot, 0)
        elif isinstance(node, Unary):
            instr = ("neg", operands[a], 0)
        elif isinstance(node, Call):
            instr = (node.name, operands[a], operands[a + 1] if b - a > 1 else 0)
        else:
            raise TypeError(f"cannot compile {node!r}")
        ops.append(instr)
    return ops


def compile_exprs(exprs, slots, lin: Linearized | None = None) -> Tape:
    """Compile expressions over input-slot labels into one shared tape.

    The tape holds an instruction per node of `lin`, which must be
    `linearize(exprs)` (one is made when it is not given), in its order, so
    a node's register is its position.
    """
    if lin is None:
        lin = linearize(exprs)
    return Tape(_instructions(lin, slots, {}), list(lin.at), tuple(slots))


def compile_program(p: StraightLineProgram) -> Tape:
    """Compile a straight-line program; the single output is the energy.

    The tape is that of the linearised right-hand sides, in program order:
    a slot that an earlier assignment wrote reads the register of that
    assignment's right-hand side.
    """
    slots = p.input_labels()
    lin = linearize([a.rhs for a in p.assigns])
    named = {a.target: reg for a, reg in zip(p.assigns, lin.at)}
    ops = _instructions(lin, slots, named)
    try:
        out = named[p.output]
    except KeyError:
        raise UnboundSlot(p.output) from None
    return Tape(ops, [out], tuple(slots))


# Live registers x points per evaluation chunk: bounds the registers a
# chunk holds at once (`Tape.peak` of them per point) at 32 MiB.
CHUNK_CELLS = 1 << 22


@functools.cache
def _array_fn() -> dict:
    """Operator -> its function over a chunk's operand registers (a, b); a
    unary operator ignores b."""
    import numpy as np

    def compare(ufunc):
        return lambda a, b: ufunc(a, b).astype(np.float64)

    def shared_rows(fn, arity):
        """eval_expr's scalar function, called for row 0 and for each row
        whose operands differ from row 0's in some bit; the other rows take
        row 0's result."""
        def call(*args):
            out = np.empty(len(args[0]))
            if not len(out):
                return out
            differ = np.zeros(len(out), bool)
            for x in args:
                bits = x.view(np.uint64)
                differ |= bits != bits[0]
            rows = np.flatnonzero(differ)
            out[:] = fn(*(x.item(0) for x in args))
            out[rows] = np.fromiter(map(fn, *(x[rows].tolist() for x in args)), np.float64,
                                    len(rows))
            return out

        return call if arity == 2 else lambda a, _: call(a)

    table = {
        "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "<": compare(np.less), "<=": compare(np.less_equal), ">": compare(np.greater),
        ">=": compare(np.greater_equal), "==": compare(np.equal), "!=": compare(np.not_equal),
        "neg": lambda a, _: np.negative(a),
    }
    for name, fn in _INTRINSIC_FN.items():
        table[name] = shared_rows(fn, INTRINSICS[name])
    return table


def _run_chunk(ops: list, frees, cols) -> list:
    """Execute the tape `ops` over one chunk; `cols[i]` is slot i's values,
    and `frees` yields per instruction the registers to drop after it.
    Returns the registers, a dropped one as None."""
    import numpy as np

    fns = _array_fn()
    n = cols.shape[1]
    regs: list[np.ndarray | None] = []
    for (op, a, b), dead in zip(ops, frees):
        if op == "slot":
            r = cols[a]
        elif op == "reg":
            r = regs[a]
        elif op == "const":
            r = np.full(n, a, np.float64)
        else:
            r = fns[op](regs[a], regs[b])
        regs.append(r)
        for k in dead:
            regs[k] = None
    return regs


def evaluate(tape: Tape, points) -> np.ndarray:
    """Evaluate a tape at many points.

    `points` is (num_points, n_slots); returns (num_points, n_out).  Points
    laid out slot by slot (Fortran order) are read in place, others copied
    so.
    """
    import numpy as np

    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.shape[1] != tape.n_slots:
        raise ValueError(f"expected {tape.n_slots} slots per point, got {points.shape[1]}")
    points = np.asfortranarray(points)
    out = np.empty((points.shape[0], tape.n_out), dtype=np.float64)
    chunk = max(1, CHUNK_CELLS // tape.peak)
    with np.errstate(all="ignore"):
        for lo in range(0, points.shape[0], chunk):
            hi = lo + chunk
            regs = _run_chunk(tape.ops, tape.frees, points[lo:hi].T)
            for j, r in enumerate(tape.out_regs):
                out[lo:hi, j] = regs[r]
    return out
