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
among them, is unrolled.  The caller takes this path only for a
simplified run without a Hessian; `--no-simplify` and every `--mode` with
`hessian` are unrolled, whatever the input.

A body's program has one input slot per distinct `(parameter, index
expressions)` read, one per maximal integer-typed subexpression over the
counters that meets a `double` (`(t + 1)` in `0.001 * (t + 1)`), and one,
named like `E`, for `E`'s value before the iteration.  A read of an
element of a differentiated parameter is a differentiation variable.
`flatten.unroll` still runs first: it gives the input-slot layout and
every index and use-before-assignment diagnostic, so a nest only runs
reads that the unrolled program checked.
"""

from __future__ import annotations

from .cast import (
    ArrayRef,
    Assignment,
    Binary,
    Constant,
    Declaration,
    Expr,
    ForLoop,
    FunctionIR,
    Return,
    SharedText,
    Unary,
    Var,
    children,
    operands,
    post_order,
    rebuild,
    to_source,
)
from .derivatives import VarIndexMap, layout_slots
from .flatten import (
    _INT_BINARY_FN,
    VERSION_SEP,
    InputSlot,
    SlpAssign,
    StraightLineProgram,
    eval_const,
    int_value,
)
from .record import Record

# the C name of the energy's running value in an element chunk
ENERGY_NAME = "e"


class ElementNest(Record):
    """One loop nest of the element path.

    `headers` are its loops' C headers, outermost first, and `program` one
    iteration of its innermost body, whose first input slot is `E`'s.
    `names` maps each input slot to its C name, `positions` each parameter
    read to the C expression of its index in `vals`, which is its index in
    the gradient too when it is one of `vars_`, and `ints` each integer
    subexpression's slot to its C expression.
    """

    __slots__ = ("headers", "program", "vars_", "names", "positions", "ints")

    def __init__(self, headers: tuple, program: StraightLineProgram, vars_: VarIndexMap,
                 names: dict, positions: dict, ints: dict):
        super().__init__(headers, program, vars_, names, positions, ints)


class ElementLoops(Record):
    """A function on the element path: `init` is the C text of `E`'s
    initial value, and `nests` its loop nests in source order."""

    __slots__ = ("init", "nests")

    def __init__(self, init: str, nests: tuple):
        super().__init__(init, nests)


class _Unrolled(Exception):
    """The function is not on the element path."""


def _int_const(value: int) -> Constant:
    """An integer literal, spelled as C reads an `int`."""
    return Constant(str(value), float(value))


def element_loops(ir: FunctionIR, program: StraightLineProgram,
                  vars_: VarIndexMap) -> ElementLoops | None:
    """The element form of `ir`, whose unrolled program is `program` and
    whose differentiation variables are `vars_`, or None when it must be
    unrolled (see the module docstring)."""
    try:
        return _Recogniser(ir, program, vars_).run()
    except _Unrolled:
        return None


class _Recogniser:
    def __init__(self, ir: FunctionIR, program: StraightLineProgram, vars_: VarIndexMap):
        self.ir = ir
        self.program = program
        self.energy = ir.energy_var
        self.params = {p.name for p in ir.params}
        chosen = set(vars_.labels)
        self.var_params = {s.param for s in program.inputs if s.label in chosen}
        # each parameter's first slot's position in `vals`, and its extents
        layout = {label: i for i, label in enumerate(layout_slots(program, vars_))}
        self.shape = {name: (layout[slots[0].label], tuple(ix + 1 for ix in slots[-1].indices))
                      for name, slots in program.param_slots.items()}
        self.int_locals: dict[str, int] = {}  # the `int` locals outside the loops -> their values

    def run(self) -> ElementLoops:
        declared = False
        nests = []
        for s in self.ir.body:
            if isinstance(s, Declaration) and s.elem_type == "int" and not s.extents:
                self.int_locals[s.name] = eval_const(s.init, self.int_locals)
            elif (isinstance(s, Declaration) and s.name == self.energy and not declared
                    and s.elem_type == "double" and not s.extents and s.init is not None):
                declared = True
            elif isinstance(s, ForLoop) and declared:
                nests.append(self.nest(s))
            elif not isinstance(s, Return):
                raise _Unrolled
        if not nests:
            raise _Unrolled
        first = self.program.assigns[0]  # E's declaration, as the unroller rewrote it
        if first.display != self.energy or _reads_a_name(first.rhs):
            raise _Unrolled
        return ElementLoops(to_source(first.rhs), tuple(nests))

    def nest(self, loop: ForLoop) -> ElementNest:
        loops = [loop]
        while len(loops[-1].body) == 1 and isinstance(loops[-1].body[0], ForLoop):
            loops.append(loops[-1].body[0])
        counters = {lp.counter: f"i{depth}" for depth, lp in enumerate(loops)}
        body = _Body(self, counters)
        for s in loops[-1].body:
            body.statement(s)
        program = body.program()
        headers = []
        for lp in loops:
            c = counters[lp.counter]
            update = lp.update
            if (isinstance(update, Binary) and update.op == "+" and _is_var(update.lhs, lp.counter)
                    and isinstance(update.rhs, Constant) and update.rhs.text == "1"):
                step = f"++{c}"
            else:
                step = f"{c} = {body.c_int(update)}"
            headers.append(f"for (int {c} = {body.c_int(lp.init)}; {body.c_int(lp.cond)}; {step})")
        var_labels = tuple(label for label, param in body.reads if param in self.var_params)
        return ElementNest(tuple(headers), program, VarIndexMap(var_labels), body.names,
                           body.positions, body.ints)


def _is_var(e: Expr, name: str) -> bool:
    return isinstance(e, Var) and e.name == name


def _reads_a_name(e: Expr) -> bool:
    seen: set = set()
    for node in post_order(e, seen):
        if isinstance(node, Var):
            return True
        seen.add(id(node))
    return False


class _Body:
    """One iteration of a nest's innermost body, built as a program."""

    def __init__(self, rec: _Recogniser, counters: dict):
        self.rec = rec
        self.counters = counters  # source name -> C name
        energy = rec.energy
        self.slots: dict = {}  # (param, index expressions) or an integer expression -> label
        self.inputs = [InputSlot(energy, (), energy)]
        self.names = {energy: ENERGY_NAME}
        self.positions: dict[str, str] = {}  # a parameter read's label -> its position in vals
        self.ints: dict[str, str] = {}  # an integer subexpression's label -> its C text
        self.reads: list = []  # (label, parameter) of each parameter read, in slot order
        self.assigns: list[SlpAssign] = []
        self.versions: dict[str, int] = {}
        self.current = {energy: energy}  # name -> live slot
        self.locals: set = set()

    # -- statements ----------------------------------------------------------

    def statement(self, s):
        energy = self.rec.energy
        if isinstance(s, Declaration) and s.elem_type == "double" and not s.extents:
            self.locals.add(s.name)
            self.current.pop(s.name, None)  # a declaration run again starts unassigned
            if s.init is not None:
                self.emit(s.name, self.rewrite(s.init), True)
        elif isinstance(s, Assignment) and isinstance(s.lvalue, Var):
            name, rhs = s.lvalue.name, s.rhs
            if name == energy:  # E = E + a - b ..., a left spine of sums down to E
                spine = []
                while isinstance(rhs, Binary) and rhs.op in ("+", "-"):
                    spine.append(rhs)
                    rhs = rhs.lhs
                if not (spine and _is_var(rhs, energy)):
                    raise _Unrolled
                value = Var(self.current[energy])
                for node in reversed(spine):
                    value = Binary(node.op, value, self.rewrite(node.rhs))
                self.emit(energy, value)
            elif name in self.locals:
                self.emit(name, self.rewrite(rhs))
            else:
                raise _Unrolled  # a write to a parameter or a counter
        else:
            raise _Unrolled

    def emit(self, name: str, rhs: Expr, from_decl: bool = False):
        v = self.versions.get(name, 0) + 1
        self.versions[name] = v
        target = f"{name}{VERSION_SEP}{v}"
        self.assigns.append(SlpAssign(target, name, rhs, from_decl))
        self.current[name] = target

    def program(self) -> StraightLineProgram:
        output = self.current[self.rec.energy]
        if output == self.rec.energy:  # no accumulation
            raise _Unrolled
        return StraightLineProgram(tuple(self.inputs), tuple(self.assigns), output)

    # -- expressions ---------------------------------------------------------

    def rewrite(self, e: Expr) -> Expr:
        """`e` over the body's slots.  An integer-typed subexpression that
        reads no counter is folded as the unroller folds it; a maximal one
        that does becomes an input slot."""
        new: dict[int, Expr] = {}
        known: dict[int, int] = {}  # id(node) -> value, integer-typed without a counter
        counted: dict[int, Expr] = {}  # id(node) -> its integer expression, over counters
        seen: set = set()

        def value(k: Expr) -> Expr:
            got = counted.get(id(k))
            return new[id(k)] if got is None else self.slot(got, got)

        for node in post_order(e, seen, operands):
            seen.add(id(node))
            folded = int_value(node, known, self.rec.int_locals)
            if folded is not None:
                new[id(node)] = node if isinstance(node, Constant) else _int_const(folded)
                continue
            symbolic = self.integer(node, known, counted)
            if symbolic is not None:
                counted[id(node)] = symbolic
                continue
            if isinstance(node, Var):
                new[id(node)] = self.var(node)
            elif isinstance(node, ArrayRef):
                if node.base not in self.rec.params:
                    raise _Unrolled  # a local array
                indices = tuple(self.index(ix) for ix in node.indices)
                new[id(node)] = self.slot((node.base, indices), node.base)
            else:
                new[id(node)] = rebuild(node, {id(k): value(k) for k in children(node)})
        return value(e)

    def integer(self, node: Expr, known: dict, counted: dict) -> Expr | None:
        """`node` as an integer expression over the counters, with the
        other integer-typed operands folded, if it reads a counter and is
        integer-typed; else None."""
        if isinstance(node, Var):
            return node if node.name in self.counters else None
        if not (isinstance(node, Unary)
                or isinstance(node, Binary) and node.op in _INT_BINARY_FN):
            return None
        kids = children(node)
        if not all(id(k) in known or id(k) in counted for k in kids):
            return None
        return rebuild(node, {id(k): counted.get(id(k)) or _int_const(known[id(k)])
                              for k in kids})

    def index(self, ix: Expr) -> Expr:
        """An index as an integer expression over the counters."""
        known: dict[int, int] = {}
        counted: dict[int, Expr] = {}
        seen: set = set()
        for node in post_order(ix, seen, operands):
            seen.add(id(node))
            if int_value(node, known, self.rec.int_locals) is None:
                got = self.integer(node, known, counted)
                if got is None:
                    raise _Unrolled
                counted[id(node)] = got
        return counted.get(id(ix)) or _int_const(known[id(ix)])

    def var(self, node: Var) -> Var:
        name = node.name
        if name == self.rec.energy:
            raise _Unrolled  # E read outside its accumulation
        if name in self.locals:
            live = self.current.get(name)
            if live is None:
                raise _Unrolled
            return Var(live)
        if name in self.rec.params:
            return self.slot((name, ()), name)
        raise _Unrolled

    def slot(self, key, param) -> Var:
        """The input slot of a parameter read `(param, indices)`, or, with
        `key` an integer expression, of its value as a double."""
        label = self.slots.get(key)
        if label is None:
            if isinstance(key, tuple):
                name, indices = key
                label = name + "".join(f"[{to_source(ix)}]" for ix in indices)
                self.positions[label] = self.c_int(self.flat(name, indices))
                self.reads.append((label, name))
            else:
                label = to_source(key)
                self.ints[label] = self.c_int(key)
            self.slots[key] = label
            self.names[label] = f"v{len(self.inputs)}"
            self.inputs.append(InputSlot(param, (), label))
        return Var(label)

    def flat(self, name: str, indices: tuple) -> Expr:
        """The position in `vals` of `name[indices]`, row-major after the
        parameter's first slot."""
        shape = self.rec.shape.get(name)
        if shape is None:
            raise _Unrolled  # a parameter no executed iteration read
        base, extents = shape
        terms = []
        stride = 1
        for ix, n in zip(reversed(indices), reversed(extents)):
            terms.append(ix if stride == 1 else Binary("*", ix, _int_const(stride)))
            stride *= n
        if base or not terms:
            terms.append(_int_const(base))
        flat = terms[-1]
        for t in reversed(terms[:-1]):
            flat = Binary("+", flat, t)
        return flat

    def c_int(self, e: Expr) -> str:
        """An integer expression's C text: `int` locals are their values
        and counters their C names."""
        done: dict[int, Expr] = {}
        for node in post_order(e, done):
            if isinstance(node, Var) and node.name in self.rec.int_locals:
                done[id(node)] = _int_const(self.rec.int_locals[node.name])
            else:
                done[id(node)] = rebuild(node, done)
        root = done[id(e)]
        return to_source(root, SharedText((root,), names=self.counters))
