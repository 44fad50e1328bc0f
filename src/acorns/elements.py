"""The element path: differentiate a loop body once and emit the loop.

An energy that sums a term over mesh elements, `E = E + t;` in a loop
nest, unrolls to one copy of the term per element, and gcc then spends
most of its time on that straight-line C.  `element_loops` recognises such
a function and describes each loop nest by one iteration of its innermost
body, a small `StraightLineProgram` that `derive_bundle` differentiates
like any other; `codegen.emit` writes the loops back around it.  A function
takes this path when all of these hold:

- its body is `double E = <constant>;`, `int` declarations, one or more
  loop nests and returns (which the unroller ignores too);
- each nest is perfect, every loop's body but the innermost's being the
  next loop, and the innermost body holds only declarations and
  assignments of `double` scalars local to it, and accumulations
  `E = E + t;` or `E = E - t;`, at least one, whose right side may go on
  adding and subtracting terms (`E = E + a - b;`);
- neither `t` nor a local reads `E`, parameters are only read, each
  element at integer index expressions over the counters and `int`
  locals, and there is no `if`, no array local and no other local outside
  the loops, so nothing but `E` is carried from one iteration to the next.

Anything else, the `e = e * t` product loop, conditionals and rollouts
among them, is unrolled.  `element_path` owns the choice for both the
command line and `verify`: only a simplified run without a Hessian takes
this path; `--no-simplify` and every `--mode` with `hessian` are
unrolled, whatever the input.

A body's program is what the unroller's one statement runner
(`flatten._Unroller`) makes of one run of the body with the nest's
counters symbolic, bound to integers but with no value.  It has one
input slot per distinct `(parameter, index expressions)` read, one per
maximal integer-typed subexpression over the counters that meets a
`double` (`(t + 1)` in `0.001 * (t + 1)`), and one, named like `E`, for
`E`'s value before the iteration.  A read of an element of a
differentiated parameter is a differentiation variable.  The run folds
integers as unrolling does, over the `int` locals (`flatten.fold`): each
maximal integer-typed subexpression (`flatten.int_typed`) and each index
that reads no counter becomes the constant the unroller prints (`1` for a
true comparison), and one that does, its parts that read none folded, is
an integer expression over the counters.  The runner refuses what has no
form over symbolic counters (`flatten.Refused`): a write to a parameter or
a counter, and `E` read outside its accumulation.

The function is not unrolled.  One walk over each nest's iteration space
(`_Recogniser.walk`, over the iterations `flatten.iterations` yields, the
runner the unroller runs each `for` by) evaluates, in each iteration of
the innermost body, every read's index expressions and every integer
slot.  The reads' largest indices give each parameter's reach, from which
`flatten.input_slots` lays out `vals` as the unrolled program's input
slots are laid out.  Where unrolling would fail, on an index out of range
or of the wrong rank, a division by zero, an `int` value out of range, a
bound that is not constant, or more assignments, loop iterations or input
slots than `flatten.DEFAULT_ASSIGN_CAP` allows, `element_loops` returns
None, and the caller's `unroll` reports the fault as it always has.  A
walk costs integer arithmetic per iteration, not an expression tree per
element.

Each nest is described once, over the source's names (`ElementNest`):
its loops, its body's program, and each read's position in `vals` and
each integer slot as integer expressions over the loop counters.
`codegen` spells that in C, and `verify` runs the same loops by
`flatten.iterations` and reads each value at the same position.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import flatten
from .cast import Assignment, Binary, Declaration, Expr, ForLoop, FunctionIR, Return, const
from .derivatives import VarIndexMap, layout_slots
from .errors import BoundExplosion, NotConstant, UnsupportedConstruct
from .flatten import (
    InputSlot,
    Refused,
    StraightLineProgram,
    const_order,
    eval_const,
    eval_consts,
    fold,
    input_slots,
    iterations,
    loop_heads,
    param_slots,
    to_int,
)
from .record import Record


class ElementNest(Record):
    """One loop nest of the element path, over the source's names.

    `loops` are the nest's `ForLoop`s, outermost first, entered with the
    `int` locals `start`, and `program` one iteration of its innermost
    body, whose first input slot is `E`'s.  `reads` holds each parameter
    read's `(label, position)`, the position being its index in `vals`,
    which is its index in the gradient too when it is one of `vars_`, and
    `ints` each integer slot's `(label, expression)`.  Both are in slot
    order, and each position and expression is an integer expression over
    the counters that `flatten.iterations` binds.
    """

    __slots__ = ("program", "vars_", "loops", "start", "reads", "ints")

    def __init__(self, program: StraightLineProgram, vars_: VarIndexMap, loops: tuple,
                 start: dict, reads: tuple, ints: tuple):
        super().__init__(program, vars_, loops, start, reads, ints)


class ElementLoops(Record):
    """A function on the element path: `init` is `E`'s initial value, a
    constant expression, `nests` its loop nests in source order, `inputs` its
    input slots, those the unrolled program would have, so
    `VarIndexMap.from_names`, `layout_slots` and `codegen.emit` take it in
    place of that program, and `vars_` the differentiated parameters'
    slots among them."""

    __slots__ = ("init", "nests", "inputs", "vars_", "__dict__")  # __dict__ holds param_slots

    def __init__(self, init: Expr, nests: tuple, inputs: tuple, vars_: VarIndexMap | None):
        super().__init__(init, nests, inputs, vars_)

    @cached_property
    def param_slots(self) -> dict:
        return param_slots(self.inputs)


def element_path(ir: FunctionIR, names, simplified: bool, modes) -> ElementLoops | None:
    """The element form that generating `modes` emits, and `verify` in the
    mode `modes` holds scores, or None where both unroll `ir`: a run
    without simplification, one with `hessian` among `modes`, or a
    function `element_loops` does not take."""
    if not simplified or "hessian" in modes:
        return None
    return element_loops(ir, names)


def element_loops(ir: FunctionIR, names) -> ElementLoops | None:
    """The element form of `ir` with the parameters `names` differentiated,
    or None when it must be unrolled (see the module docstring).  A name
    with no input slot, or a repeated one, raises as
    `VarIndexMap.from_names` does."""
    rec = _Recogniser(ir)
    try:
        rec.run()
        inputs = input_slots(rec.reach, flatten.DEFAULT_ASSIGN_CAP)
    # not this path, or a fault unroll reports
    except (Refused, NotConstant, UnsupportedConstruct, BoundExplosion):
        return None
    loops = ElementLoops(rec.init, (), inputs, None)
    vars_ = VarIndexMap.from_names(loops, names, {p.name for p in ir.params})
    try:
        return loops.replace(nests=rec.nests(loops, vars_), vars_=vars_)
    except Refused:
        return None


def _no_read(node: Expr, env: dict, indices):
    raise Refused  # E's initial value reads a name


class _Recogniser:
    def __init__(self, ir: FunctionIR):
        self.ir = ir
        self.energy = ir.energy_var
        self.params = {p.name: p for p in ir.params}
        self.int_locals: dict[str, int] = {}  # the `int` locals outside the loops -> their values
        self.init: Expr | None = None  # E's initial value, as the unroller folds it
        # each parameter's extents, as `flatten._Unroller` widens them
        self.reach = {p.name: [n or 0 for n in p.extents] for p in ir.params}
        self.assigns = 0  # the unrolled program's assignments so far
        self.bodies: list = []  # (program, reads, ints, loops, start) of each nest

    def run(self):
        """Recognise the function's shape and walk its nests (`walk`)."""
        for s in self.ir.body:
            if isinstance(s, Declaration) and s.elem_type == "int" and not s.extents:
                if s.init is None:
                    raise Refused
                self.int_locals[s.name] = to_int(eval_const(s.init, self.int_locals), s.init)
            elif (isinstance(s, Declaration) and s.name == self.energy and self.init is None
                    and s.elem_type == "double" and not s.extents and s.init is not None):
                self.init = fold(s.init, self.int_locals, _no_read)
                self.assigns += 1
            elif isinstance(s, ForLoop) and self.init is not None:
                self.bodies.append(self.nest(s))
            elif not isinstance(s, Return):
                raise Refused
        if not self.bodies:
            raise Refused

    def nest(self, loop: ForLoop) -> tuple:
        """A nest's innermost body, run once by the unroller over its
        counters (`flatten._Unroller`), and walked."""
        loops = [loop]
        while len(loops[-1].body) == 1 and isinstance(loops[-1].body[0], ForLoop):
            loops.append(loops[-1].body[0])
        body = loops[-1].body
        if not all(isinstance(s, Assignment) or isinstance(s, Declaration)
                   and s.elem_type == "double" and not s.extents for s in body):
            raise Refused
        counters = frozenset(lp.counter for lp in loops)
        run = flatten._Unroller(self.ir, flatten.DEFAULT_ASSIGN_CAP, counters)
        run.run_block(body, dict(self.int_locals))
        output = run.live[self.energy]
        if output == self.energy:  # no accumulation
            raise Refused
        energy = InputSlot(self.energy, (), self.energy)
        program = StraightLineProgram(
            (energy, *(InputSlot(param or label, (), label) for label, param, _ in run.inputs)),
            tuple(run.assigns), output)
        reads = [(label, param, key) for label, param, key in run.inputs if param is not None]
        ints = [(label, key) for label, param, key in run.inputs if param is None]
        start = dict(self.int_locals)
        self.walk(loops, start, reads, ints, len(program.assigns))
        return program, reads, ints, tuple(loops), start

    def walk(self, loops: list, start: dict, reads: list, ints: list, per_iteration: int):
        """In each iteration of the nest `loops`, entered with the `int`
        locals `start`, evaluate the indices of the body's `reads` and its
        integer slots `ints`, then widen `reach` by the indices; raise Refused,
        NotConstant on a division by zero, or BoundExplosion, where
        unrolling would fail: an index out of range, or more than
        `flatten.DEFAULT_ASSIGN_CAP` assignments or loop iterations.  The
        headers and the expressions are compiled once, by `loop_heads` and
        `const_order`, and the expressions run together by `eval_consts`."""
        cap = flatten.DEFAULT_ASSIGN_CAP
        # each read's parameter and the least and largest value of each index
        boxes = [(name, [[math.inf, -math.inf] for _ in indices])
                 for _, name, indices in reads]
        dims = [box for _, read in boxes for box in read]
        exprs = [ix for _, _, indices in reads for ix in indices]
        order = const_order(*exprs, *(e for _, e in ints))
        for env in iterations(loop_heads(loops), dict(start), cap):
            self.assigns += per_iteration
            if self.assigns > cap:
                raise Refused
            for v, box in zip(eval_consts(order, env), dims):
                if v < box[0]:
                    box[0] = v
                if v > box[1]:
                    box[1] = v
        for name, read in boxes:
            extents, reach = self.params[name].extents, self.reach[name]
            for d, (lo, hi) in enumerate(read):
                if lo > hi:  # never read
                    continue
                if lo < 0 or extents[d] is not None and hi >= extents[d]:
                    raise Refused
                reach[d] = max(reach[d], hi + 1)

    def nests(self, loops: ElementLoops, vars_: VarIndexMap) -> tuple:
        """Each nest, its reads placed in `loops`' `vals` layout."""
        chosen = set(vars_.labels)
        var_params = {s.param for s in loops.inputs if s.label in chosen}
        # each parameter's first slot's position in `vals`, and its extents
        layout = {label: i for i, label in enumerate(layout_slots(loops, vars_))}
        shape = {name: (layout[slots[0].label], tuple(ix + 1 for ix in slots[-1].indices))
                 for name, slots in loops.param_slots.items()}
        nests = []
        for program, reads, ints, source_loops, start in self.bodies:
            var_labels = tuple(label for label, name, _ in reads if name in var_params)
            nests.append(ElementNest(program, VarIndexMap(var_labels), source_loops, start,
                                     tuple((label, _flat(shape, name, indices))
                                           for label, name, indices in reads), tuple(ints)))
        return tuple(nests)


def _flat(shape: dict, name: str, indices: tuple) -> Expr:
    """The position in `vals` of `name[indices]`, row-major after the
    parameter's first slot."""
    got = shape.get(name)
    if got is None:
        raise Refused  # a parameter no executed iteration read
    base, extents = got
    terms = []
    stride = 1
    for ix, n in zip(reversed(indices), reversed(extents)):
        terms.append(ix if stride == 1 else Binary("*", ix, const(stride, str(stride))))
        stride *= n
    if base or not terms:
        terms.append(const(base, str(base)))
    flat = terms[-1]
    for t in reversed(terms[:-1]):
        flat = Binary("+", flat, t)
    return flat
