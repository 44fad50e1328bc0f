"""Control-flow elimination: loop unrolling, conditional resolution, and
the straight-line intermediate format.

After unrolling, every value is a scalar slot.  Input slots are labelled
with their flattened element name (``x``, ``a[0][1]``); locals that are
assigned more than once get one versioned slot per definition
(``loss@1``, ``loss@2``, ...), so def-before-use holds by construction.
Expression leaves in the straight-line program are ``Var`` nodes naming
either an input slot or an earlier versioned target.

One statement runner (`_Unroller`) runs the function's statements, and
the element path's loop bodies (`elements`), into one slot table
(`SlotTable`), which owns the versions, each source label's live slot and
the assignments; every read resolves through it: a scalar or an array
element reads the slot its last assignment wrote, and a parameter element
that no assignment has written yet reads its input slot.  Every index is a
constant checked against its array's rank and declared extents, except in
a loop body run once over symbolic counters, loop counters that have no
value, where a parameter element keeps its index expressions.  A
program's input slots, grouped by parameter, are
`StraightLineProgram.param_slots`; `input_slots` counts them, then lays
them out from each parameter's reach, for the unroller and for the
element path (`elements.element_loops`), which does not unroll.

A loop runs the same statements again with new counter values, so what
does not change between runs is compiled once: an integer expression into
a step list (`const_order`), a loop's header into the step lists of
`loop_heads`, and each expression the unroller rewrites into a fold plan
(`fold_plan`), which records which nodes are integer-typed, which are
reads, with their indices' step lists, and which are rebuilt.  The
unroller keys each compiled form on its node alone: binding is lexical,
and `parser._check_scopes` rejects every declaration that shadows or
redeclares a visible name, so the names bound to integers where a node
stands are the same each time the unroller reaches it.  An iteration then
costs the counters' values, the reads and the new nodes.  Integer
arithmetic is C's: `int` arithmetic whose result leaves `int`'s range is a
located error, as a division by zero is, and a literal above `INT_MAX` is
a `long`.  A value stored into an `int` name, an `int` local or a loop
counter, must be in `int`'s range (`to_int`), where C would convert it.
"""

from __future__ import annotations

import itertools
import math
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
    replace_vars,
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
        return param_slots(self.inputs)

    def input_labels(self) -> list[str]:
        return [s.label for s in self.inputs]


def param_slots(inputs) -> dict:
    """Each parameter's input slots, row-major, the parameters in
    declaration order; a parameter without slots is absent."""
    groups: dict[str, list] = {}
    for s in inputs:
        groups.setdefault(s.param, []).append(s)
    return groups


def input_slots(reach: dict, cap: int) -> tuple:
    """The input slots of parameters that reach `reach[name]`, a list of
    extents (empty for a scalar), in declaration order: each array's
    slots are the product of its extents, row-major.  Raise BoundExplosion
    when there are more than `cap`, before making any."""
    count = sum(math.prod(extents) for extents in reach.values())
    if count > cap:
        raise BoundExplosion(count, cap, "input slot count")
    return tuple(InputSlot(name, indices, slot_label(name, indices))
                 for name, extents in reach.items()
                 for indices in itertools.product(*map(range, extents)))


def pretty_assign(a: SlpAssign) -> str:
    """`a` as source, each versioned slot read by its source-level name."""
    lead = "double " if a.from_decl else ""
    rhs = replace_vars(a.rhs, lambda v: Var(v.name.split(VERSION_SEP, 1)[0]))
    return f"{lead}{a.display} = {to_source(rhs)};"


def dump_text(p: StraightLineProgram) -> str:
    lines = [f"input {s.label}" for s in p.inputs]
    lines += [f"{a.target} = {to_source(a.rhs)}" for a in p.assigns]
    lines.append(f"output {p.output}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compile-time evaluation (see the module docstring)

# the range of C's `int`
INT_MIN, INT_MAX = -2**31, 2**31 - 1


class _NotInteger(Exception):
    """A step reached a node that has no compile-time integer value."""


def _refuse(_a, _b):
    raise _NotInteger


def _c_int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # C integer division truncates toward zero; b == 0 raises
    return q if (a >= 0) == (b >= 0) else -q


# C's `int` arithmetic: a result outside `int`'s range raises OverflowError,
# as signed overflow is undefined in C
def _add(a, b):
    r = a + b
    if INT_MIN <= r <= INT_MAX:
        return r
    raise OverflowError


def _sub(a, b):
    r = a - b
    if INT_MIN <= r <= INT_MAX:
        return r
    raise OverflowError


def _mul(a, b):
    r = a * b
    if INT_MIN <= r <= INT_MAX:
        return r
    raise OverflowError


def _div(a, b):
    r = _c_int_div(a, b)
    if r <= INT_MAX:  # only INT_MIN / -1 leaves the range
        return r
    raise OverflowError


def _negate(a, _b):
    if a != INT_MIN:
        return -a
    raise OverflowError


def _negate_long(a, _b):
    return -a


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

# the binary operators over compile-time integers, as C computes them in
# `int`, and in `long`, where an operand is a `long`
_INT_FN = {"+": _add, "-": _sub, "*": _mul, "/": _div, **_COMPARE}
_LONG_FN = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _c_int_div,
            **_COMPARE}


def int_typed(node: Expr, typed, bound) -> bool:
    """Whether `node` is integer-typed, `typed` holding the ids of its
    integer-typed operands and `bound` the names bound to integers (loop
    counters and `int` locals).

    An integer literal, a bound name, and a negation, arithmetic or a
    comparison whose operands are all integer-typed, are integer-typed.  C
    computes such a subexpression in integers, dividing with truncation,
    and converts the result where a `double` operand or argument meets
    it: `x * (1 / 2)` is `x * 0`.  The one rule for `fold_plan`, and so
    for the unroller, its runs over symbolic counters and `verify.run_ir`,
    and, by `int_expr`, for the parser's constant checks.
    """
    if isinstance(node, Constant):
        return is_integer_literal(node.text)
    if isinstance(node, Var):
        return node.name in bound
    if isinstance(node, Unary):
        return id(node.operand) in typed
    if isinstance(node, Binary):
        return node.op in _INT_FN and id(node.lhs) in typed and id(node.rhs) in typed
    return False


def int_expr(e: Expr, bound) -> bool:
    """Whether every node of `e` is integer-typed (`int_typed`) where the
    names in `bound` are bound to integers: whether `e` is a compile-time
    integer there.  The parser asks it of loop headers, conditions, array
    extents and `int` initializers, and the unroller of each index it
    folds over symbolic counters."""
    typed: set = set()
    for node in post_order(e, typed, operands):
        if not int_typed(node, typed, bound):
            return False
        typed.add(id(node))
    return True


class ConstOrder:
    """The step list `const_order` compiles.

    `regs` holds the registers before the first step: the environment's
    place, then each integer literal's value and each name.  Each step is
    `(fn, a, b)`, whose value `fn(regs[a], regs[b])` is the next register:
    a name's looks the name up in the environment, and an operator's is
    its C function.  `nodes` holds each step's node, for its diagnostic,
    and `roots` each expression's register.
    """

    __slots__ = ("regs", "steps", "nodes", "roots")

    def __init__(self, regs: list, steps: list, nodes: list, roots: list):
        self.regs, self.steps, self.nodes, self.roots = regs, steps, nodes, roots


def const_order(*exprs: Expr) -> ConstOrder:
    """The step list that evaluates the integer expressions `exprs`, each
    node once: in source order, so an evaluation that raises reports the
    leftmost fault.  A literal above `INT_MAX` is a `long` in C, as is an
    operation with a `long` operand; `int` arithmetic whose result leaves
    `int`'s range raises, as a division by zero does.  A caller that
    evaluates `exprs` many times, a loop header or the indices of a
    statement the unroller runs again, keeps the list: it is keyed on the
    expression nodes alone, whatever the bindings."""
    consts: list = [None]  # register 0 is the environment
    steps: list = []  # (fn, a, b); a register below 0 is step ~r, placed after the constants
    nodes: list = []
    at: dict[int, int] = {}  # id(node) -> its register
    wide: set = set()  # ids of the nodes of type `long`
    for expr in exprs:
        if id(expr) in at:
            continue
        # a leaf, as most indices are, needs no walk
        walk = (expr,) if isinstance(expr, (Constant, Var)) else post_order(expr, at, operands)
        for node in walk:
            if isinstance(node, Constant) and is_integer_literal(node.text):
                value = int(node.text)
                if value > INT_MAX:
                    wide.add(id(node))
                at[id(node)] = len(consts)
                consts.append(value)
                continue
            is_long = False
            if isinstance(node, Var):
                step = (operator.getitem, 0, len(consts))
                consts.append(node.name)
            elif isinstance(node, Unary):
                a = at[id(node.operand)]
                is_long = id(node.operand) in wide
                step = (_negate_long if is_long else _negate, a, a)
            elif isinstance(node, Binary) and node.op in _INT_FN:
                is_long = node.op not in _COMPARE and (id(node.lhs) in wide or id(node.rhs) in wide)
                step = ((_LONG_FN if is_long else _INT_FN)[node.op],
                        at[id(node.lhs)], at[id(node.rhs)])
            else:
                step = (_refuse, 0, 0)
            if is_long:
                wide.add(id(node))
            at[id(node)] = ~len(steps)
            steps.append(step)
            nodes.append(node)
    roots = [at[id(e)] for e in exprs]
    if steps:
        base = len(consts)
        steps = [(fn, a if a >= 0 else base + ~a, b if b >= 0 else base + ~b)
                 for fn, a, b in steps]
        roots = [r if r >= 0 else base + ~r for r in roots]
    return ConstOrder(consts, steps, nodes, roots)


def _run(order: ConstOrder, env: dict) -> list:
    """The registers of `order` run over the bindings `env`."""
    regs = order.regs.copy()
    regs[0] = env
    push = regs.append
    try:
        for fn, a, b in order.steps:
            push(fn(regs[a], regs[b]))
    except (KeyError, ZeroDivisionError, OverflowError, _NotInteger) as exc:
        raise _fault(order.nodes[len(regs) - len(order.regs)], exc) from None
    return regs


def _fault(node: Expr, exc: Exception) -> NotConstant:
    """The diagnostic for the step at `node` that raised `exc`."""
    if isinstance(exc, KeyError):
        return NotConstant(node.span, f"{node.name!r} is not compile-time constant")
    if isinstance(exc, ZeroDivisionError):
        return NotConstant(node.span, "division by zero in constant expression")
    if isinstance(exc, OverflowError):
        return NotConstant(node.span, "int overflow in constant expression")
    if isinstance(node, Constant):
        return NotConstant(node.span, f"non-integer literal {node.text!r} in constant context")
    return NotConstant(getattr(node, "span", None), "expression is not compile-time constant")


def eval_const(expr: Expr, env: dict):
    """Evaluate an integer/boolean expression over the given bindings, as C
    does (`const_order`); raise NotConstant on a fault.  A caller that
    evaluates an expression many times compiles it once, by `const_order`,
    and runs it by `eval_consts`."""
    return _value(const_order(expr), env)


def eval_consts(order: ConstOrder, env: dict) -> list:
    """The values of the expressions `order = const_order(*exprs)`
    evaluates, in one run: a node they share is evaluated once."""
    regs = _run(order, env)
    return [regs[r] for r in order.roots]


def _value(order: ConstOrder, env: dict):
    """The value of the one expression `order` evaluates."""
    return _run(order, env)[order.roots[0]]


def to_int(value: int, expr: Expr) -> int:
    """`value`, which `expr` computes, as an `int` name stores it: C would
    convert a value outside `int`'s range, so it is a located error, as
    `int` overflow is.  A comparison's `True` is stored as 1."""
    if INT_MIN <= value <= INT_MAX:
        return int(value)
    raise NotConstant(expr.span, f"value {value} out of range for int")


def loop_heads(loops) -> tuple:
    """The headers of the perfect nest `loops`, outermost first, for
    `iterations`: each loop and the step lists of its initializer,
    condition and update."""
    return tuple((lp, const_order(lp.init), const_order(lp.cond), const_order(lp.update))
                 for lp in loops)


def iterations(heads: tuple, env: dict, cap: int):
    """Run the headers `heads = loop_heads(loops)` of a perfect nest from
    the bindings `env`, and yield `env`, binding every counter, at each
    iteration of the innermost body; raise BoundExplosion past `cap`
    iterations of a loop.  A counter stores its values as an `int`
    (`to_int`).  The headers are compiled once, by `loop_heads`, and a
    caller that runs a nest again keeps them: the unroller keys them on the
    `for` statement, which it runs by this one loop at a time; the element
    path's walk (`elements`) and `verify` compile each nest once."""
    innermost = len(heads) - 1

    def run(depth: int):
        lp, init, cond, update = heads[depth]
        env[lp.counter] = to_int(_value(init, env), lp.init)
        count = 0
        while _value(cond, env):
            count += 1
            if count > cap:
                raise BoundExplosion(count, cap, "loop iteration count")
            if depth < innermost:
                yield from run(depth + 1)
            else:
                yield env
            env[lp.counter] = to_int(_value(update, env), lp.update)

    return run(0)


# the kinds of a fold plan's actions
_INT, _READ, _BINARY, _UNARY, _CALL, _SYMBOL = range(6)


class FoldPlan(Record):
    """The fold plan `fold_plan` compiles.

    `values` holds a place per node of the expression, in source order:
    a literal's holds the literal, which stays as it is spelled, and every
    other's None until an action makes it (none makes a node that is part
    of a larger integer-typed one).  Each action is `(kind, k, node, a,
    b)`, making `values[k]`: `_INT` folds an integer-typed `node` by the
    step list `a`; `_READ` reads a variable or an array element, `a` being
    the step list of its indices; `_BINARY`, `_UNARY` and `_CALL` rebuild
    `node` over the operands at `a` and `b`, or at the positions `a`; and
    `_SYMBOL` stands for an array element, or an integer-typed node that
    reads a symbolic counter, in a plan over symbolic counters.  `root` is
    the expression's place.
    """

    __slots__ = ("values", "actions", "root")

    def __init__(self, values: list, actions: list, root: int):
        super().__init__(values, actions, root)


def fold_plan(e: Expr, bound, symbolic=frozenset()) -> FoldPlan:
    """The fold plan of `e` where the names in `bound` are bound to
    integers (`fold`), and those in `symbolic` are too but have no value
    (`_Unroller`).  In a plan over symbolic counters, every array element,
    and each integer-typed node that reads a symbolic counter and is not
    part of a larger one, is a `_SYMBOL` action, the latter placed just
    before its parent's action, after every read its parent's operands
    make.  A caller that folds `e` many times keys the plan on `e` alone,
    as the unroller does: binding is lexical and `parser._check_scopes`
    rejects every declaration that shadows or redeclares a visible name, so
    the names bound to integers where `e` stands are the same each time it
    is reached."""
    names = {*bound, *symbolic} if symbolic else bound
    at: dict[int, int] = {}  # id(node) -> its place
    typed: set = set()  # ids of the integer-typed nodes
    reads_symbol: set = set()  # ids of the integer-typed nodes that read a symbolic counter
    folds: dict = {}  # id(node) -> the index in `actions` of an integer-typed node's fold
    values: list = []
    actions: list = []  # a fold stays None where its node is part of a larger one

    for node in post_order(e, at, operands):
        k = at[id(node)] = len(values)
        if isinstance(node, Constant):  # a literal stays as it is spelled
            values.append(node)
            if int_typed(node, typed, names):
                typed.add(id(node))
            continue
        values.append(None)
        if int_typed(node, typed, names):
            typed.add(id(node))
            if symbolic and (node.name in symbolic if isinstance(node, Var)
                             else any(id(kid) in reads_symbol for kid in operands(node))):
                reads_symbol.add(id(node))
            folds[id(node)] = len(actions)
            actions.append(None)
            continue
        if folds:
            # an integer-typed operand is not part of a larger one; left to
            # right, as a symbolic one's input slot is made in that order
            for kid in reversed(operands(node)):
                got = folds.get(id(kid))
                if got is None:
                    continue
                if id(kid) in reads_symbol:
                    actions.append((_SYMBOL, at[id(kid)], kid, None, None))
                else:
                    actions[got] = (_INT, at[id(kid)], kid, const_order(kid), None)
        if isinstance(node, Var):
            actions.append((_READ, k, node, None, None))
        elif isinstance(node, ArrayRef):
            actions.append((_SYMBOL, k, node, None, None) if symbolic else
                           (_READ, k, node, const_order(*node.indices), None))
        elif isinstance(node, Binary):
            actions.append((_BINARY, k, node, at[id(node.lhs)], at[id(node.rhs)]))
        elif isinstance(node, Unary):
            actions.append((_UNARY, k, node, at[id(node.operand)], None))
        elif isinstance(node, Call):
            actions.append((_CALL, k, node, tuple(at[id(a)] for a in node.args), None))
    got = folds.get(id(e))
    if got is not None:
        actions[got] = ((_SYMBOL, at[id(e)], e, None, None) if id(e) in reads_symbol else
                        (_INT, at[id(e)], e, const_order(e), None))
    return FoldPlan(values, [a for a in actions if a is not None], at[id(e)])


def run_fold(plan: FoldPlan, env: dict, read, symbol=None) -> Expr:
    """The expression `plan` folds over the bindings `env`: each
    integer-typed node that is not part of a larger one folded to the
    constant C computes for it, an integer literal staying as it is
    spelled, each other variable or array element replaced by
    `read(node, env, indices)`, `indices` being the step list of an array
    element's indices and None for a variable, and, in a plan over
    symbolic counters, each `_SYMBOL` node by `symbol(node, env)`."""
    values = plan.values.copy()
    for kind, k, node, a, b in plan.actions:
        if kind == _BINARY:
            values[k] = Binary(node.op, values[a], values[b], node.span)
        elif kind == _READ:
            values[k] = read(node, env, a)
        elif kind == _INT:
            values[k] = const(float(_value(a, env)))
        elif kind == _UNARY:
            values[k] = Unary(node.op, values[a], node.span)
        elif kind == _CALL:
            values[k] = Call(node.name, tuple([values[i] for i in a]), node.span)
        else:
            values[k] = symbol(node, env)
    return values[plan.root]


def fold(e: Expr, env: dict, read) -> Expr:
    """`e` folded once over the bindings `env` (`run_fold`), by a plan
    built for it (`fold_plan`)."""
    return run_fold(fold_plan(e, env), env, read)


# ---------------------------------------------------------------------------
# Unrolling


class SlotTable:
    """The slots of a straight-line program being built: each source
    label's live slot, and the assignments so far.  An assignment to a
    label writes the label's next version, `label@1`, `label@2`, ..., and
    makes it live, so a read of the label resolves to the last write before
    it.  The unroller builds its programs by it."""

    def __init__(self, cap: int):
        self.cap = cap  # the most assignments
        self.live: dict[str, str] = {}  # slot label -> live slot name
        self.versions: dict[str, int] = {}  # slot label -> last version number
        self.assigns: list[SlpAssign] = []

    def unassign(self, labels):
        """Drop `labels` from the table: a declaration run again, in a loop
        or a block, starts unassigned."""
        for label in labels:
            self.live.pop(label, None)

    def emit(self, label: str, rhs: Expr, from_decl: bool = False):
        """Assign `rhs` to the next version of `label`; raise BoundExplosion
        past `cap` assignments."""
        if len(self.assigns) >= self.cap:
            raise BoundExplosion(len(self.assigns) + 1, self.cap)
        v = self.versions[label] = self.versions.get(label, 0) + 1
        target = f"{label}{VERSION_SEP}{v}"
        self.assigns.append(SlpAssign(target, label, rhs, from_decl))
        self.live[label] = target


class Refused(Exception):
    """A run over symbolic counters (`_Unroller`) reached what has no form
    over them: an element index of the wrong rank or not an integer, a
    write to a parameter or a counter, or the energy variable read outside
    its accumulation."""


def _unbound(node: Expr, env: dict, indices) -> Expr:
    return node  # a name the fold leaves: a symbolic counter, or what makes no integer expression


class _Unroller:
    """The statement runner: runs a function's statements into a slot
    table (`SlotTable`).

    A counter in `symbolic` is bound to integers but has no value, as a
    loop counter does where a loop body is run once for every iteration
    (`elements`).  Then the energy variable's value before the run is an
    input slot, read only as the first operand of its own accumulation
    (`accumulate`), parameters are only read, and every parameter element,
    and each integer-typed node that reads a symbolic counter and is not
    part of a larger one (`fold_plan`), is an input slot (`symbol`): an
    element keeps its index expressions and an integer-typed node its
    expression, each folded over the counters (`fold`).  `inputs` holds
    each input slot in the order first read; anything else that has no
    form over the counters raises Refused.
    """

    def __init__(self, ir: FunctionIR, cap: int, symbolic=frozenset()):
        self.table = SlotTable(cap)
        self.arrays: dict[str, tuple] = {}  # array -> extents, None where undeclared
        self.reach: dict[str, list] = {}  # parameter -> the extents of its input slots
        # id(node) -> what is compiled for it (`compiled`); the function's
        # nodes outlive the unroller
        self.forms: dict[int, object] = {}
        self.symbolic = symbolic
        self.energy = ir.energy_var if symbolic else None
        # with symbolic counters, each input slot's (label, parameter, key),
        # the parameter None and the key its expression for an integer slot
        self.inputs: list = []
        if symbolic:
            self.table.live[self.energy] = self.energy
        for p in ir.params:
            self.reach[p.name] = [n or 0 for n in p.extents]
            if p.rank:
                self.arrays[p.name] = p.extents
            elif not symbolic:
                self.table.live[p.name] = p.name

    def element(self, ref: ArrayRef, env: dict, indices: ConstOrder) -> str:
        """The label of the element `ref` names, its indices, which
        `indices` evaluates, checked against the array's rank and extents.
        A parameter element enters the slot table as its input slot when
        first named, and widens the parameter's undeclared extents to cover
        it."""
        extents = self.arrays.get(ref.base)
        if extents is None:
            raise NotConstant(ref.span, f"unknown array {ref.base!r}")
        indices = eval_consts(indices, env)
        if len(indices) != len(extents):
            raise UnsupportedConstruct(ref.span, f"{len(indices)} index(es) into "
                                                 f"{len(extents)}-dimensional {ref.base!r}")
        for ix, n in zip(indices, extents):
            if ix < 0 or n is not None and ix >= n:
                raise NotConstant(ref.span, f"index {ix:d} out of range for {ref.base!r}")
        label = slot_label(ref.base, indices)
        reach = self.reach.get(ref.base)
        if reach is not None and label not in self.table.live:
            self.table.live[label] = label
            reach[:] = map(max, reach, (ix + 1 for ix in indices))
        return label

    def compiled(self, node, make, *args):
        """`make(*args)`, compiled once for `node`: a statement's or an
        lvalue's step list (`const_order`), a `for` statement's header
        (`loop_heads`) or an expression's fold plan (`fold_plan`).  Keyed
        on the node alone: binding is lexical and `parser._check_scopes`
        rejects every declaration that shadows or redeclares a visible
        name, so each run of a node sees the same names bound to
        integers."""
        got = self.forms.get(id(node))
        if got is None:
            got = self.forms[id(node)] = make(*args)
        return got

    def rewrite(self, e: Expr, env: dict) -> Expr:
        """`e` over live slots, its integer-typed subexpressions folded."""
        plan = self.compiled(e, fold_plan, e, env, self.symbolic)
        return run_fold(plan, env, self.read, self.symbol)

    def read(self, e: Expr, env: dict, indices: ConstOrder | None) -> Var:
        """The live slot a variable or an array element reads.  In a run
        over symbolic counters a scalar parameter, whose reach is `[]`,
        enters the slot table as its input slot when first read, so `inputs`
        lists it in read order; otherwise each is live from the start."""
        label = e.name if indices is None else self.element(e, env, indices)
        live = self.table.live.get(label)
        if live is None:
            if self.reach.get(label) != []:
                raise NotConstant(e.span, f"{label!r} used before assignment")
            live = self.enter(label, label, ())
        elif label == self.energy:
            raise Refused  # the energy variable read outside its accumulation
        return Var(live)

    def symbol(self, node: Expr, env: dict) -> Var:
        """The input slot of a parameter element, or of an integer-typed
        node that reads a symbolic counter, in a run over symbolic
        counters."""
        if not isinstance(node, ArrayRef):
            key = fold(node, env, _unbound)
            label, param = to_source(key), None
        else:
            key = tuple(fold(ix, env, _unbound) for ix in node.indices)
            if len(key) != len(self.arrays.get(node.base, ())) or \
                    not all(int_expr(ix, self.symbolic) for ix in key):
                raise Refused  # an index of the wrong rank, or not an integer
            label, param = node.base + "".join(f"[{to_source(ix)}]" for ix in key), node.base
        return Var(self.table.live.get(label) or self.enter(label, param, key))

    def enter(self, label: str, param: str | None, key) -> str:
        """Make `label` an input slot, of the parameter `param`, read first
        here."""
        self.table.live[label] = label
        if self.symbolic:
            self.inputs.append((label, param, key))
        return label

    def assigned(self, lv: Expr, rhs: Expr, env: dict) -> Expr:
        """`rhs`, assigned to `lv` in a run over symbolic counters, over
        live slots."""
        name = lv.name if isinstance(lv, Var) else lv.base
        if name in self.symbolic or name in self.reach:
            raise Refused  # a write to a counter or a parameter
        return self.accumulate(rhs, env) if name == self.energy else self.rewrite(rhs, env)

    def accumulate(self, rhs: Expr, env: dict) -> Expr:
        """`rhs` of the energy variable `E`'s accumulation `E = E + a - b
        ...`, a left spine of sums down to `E`, over live slots; `E` is read
        nowhere else in a run over symbolic counters."""
        spine = []
        while isinstance(rhs, Binary) and rhs.op in ("+", "-"):
            spine.append(rhs)
            rhs = rhs.lhs
        if not (spine and isinstance(rhs, Var) and rhs.name == self.energy):
            raise Refused
        value = Var(self.table.live[self.energy])
        for node in reversed(spine):
            value = Binary(node.op, value, self.rewrite(node.rhs, env))
        return value

    # -- statement execution -------------------------------------------------

    def run_block(self, stmts, env: dict):
        for s in stmts:
            self.run_stmt(s, env)

    def run_stmt(self, s, env: dict):
        if isinstance(s, Declaration):
            # the name starts unassigned, also where a loop runs the
            # declaration again or a sibling block declared it, as an array
            # or a scalar
            self.table.unassign([s.name, *element_labels(s.name, self.arrays.pop(s.name, ()))])
            if s.elem_type == "int":
                if s.init is None:
                    raise NotConstant(s.span, f"int local {s.name!r} needs a constant initializer")
                env[s.name] = to_int(_value(self.compiled(s, const_order, s.init), env), s.init)
            elif s.extents:
                extents = self.compiled(s, const_order, *s.extents)
                self.arrays[s.name] = tuple(eval_consts(extents, env))
                if s.init is not None:
                    raise UnsupportedConstruct(s.span, "array initializer")
            elif s.init is not None:
                self.table.emit(s.name, self.rewrite(s.init, env), from_decl=True)
        elif isinstance(s, Assignment):
            lv = s.lvalue
            rhs = self.assigned(lv, s.rhs, env) if self.symbolic else self.rewrite(s.rhs, env)
            if isinstance(lv, Var):
                if lv.name in env:
                    raise UnsupportedConstruct(lv.span, "assignment to a loop counter")
                self.table.emit(lv.name, rhs)
            else:
                indices = self.compiled(lv, const_order, *lv.indices)
                self.table.emit(self.element(lv, env, indices), rhs)
        elif isinstance(s, ForLoop):
            for inner in iterations(self.compiled(s, loop_heads, (s,)), dict(env), self.table.cap):
                self.run_block(s.body, dict(inner))
        elif isinstance(s, If):
            cond = self.compiled(s, const_order, s.cond)
            self.run_block(s.then_body if _value(cond, env) else s.else_body, dict(env))
        elif isinstance(s, Block):
            self.run_block(s.body, dict(env))
        elif isinstance(s, Return):
            pass  # the energy variable, not the return value, is differentiated
        else:
            raise TypeError(f"not a statement: {s!r}")


def slot_label(name: str, indices) -> str:
    """The source label of an element, `a[1][0]`; a scalar's, with no
    indices, is its name.  A comparison's `True` as an index is 1."""
    return name + "".join(f"[{ix:d}]" for ix in indices)


def element_labels(name: str, extents) -> list[str]:
    """The labels of an array's elements, row-major: `a[0][0]`, `a[0][1]`,
    ...; a scalar's, with no extents, is its name."""
    return [slot_label(name, indices) for indices in itertools.product(*map(range, extents))]


def unroll(ir: FunctionIR, cap: int | None = None) -> StraightLineProgram:
    """Flatten a function to straight-line form (pre: validate_subset empty).

    Every read, of a scalar or of an array element, resolves through one
    slot table from source label to live slot, so a parameter element reads
    its input slot only until an assignment writes it.  Every index is
    checked against its array's rank and declared extents; a parameter's
    undeclared extent is one past the largest index used.  `cap` bounds
    the assignments, `DEFAULT_ASSIGN_CAP` when None.
    """
    u = _Unroller(ir, DEFAULT_ASSIGN_CAP if cap is None else cap)
    u.run_block(ir.body, {})
    output = u.table.live.get(ir.energy_var)
    if output is None:
        raise MissingEnergyVar(ir.energy_var)
    return StraightLineProgram(input_slots(u.reach, u.table.cap), tuple(u.table.assigns), output)


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
