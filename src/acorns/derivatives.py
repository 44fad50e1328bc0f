"""Symbolic differentiation of straight-line programs.

All transforms work on a shared-subtree DAG: results are memoized by node
identity, so repeated subexpressions (which unrolled programs produce in
abundance) are differentiated once.  `substitute`, `simplify` and the
zero skeletons of the forward passes are each one `cast.post_order` loop
whose per-node rule reads its operands' results from the memo.
`derive_bundle` linearises each stage once it is built (`f`, then the
gradient, then the Hessian) with `cast.linearize`: one explicit-stack
walk that lists the stage's nodes children first, with their operand
positions, use counts and tree sizes.  The activity masks, the order of
every sweep and forward pass, and the cap read those arrays, and the
bundle carries them to emission and the tape.  So the depth of an
expression, which grows with the length of an unrolled loop, is bounded
by memory, not by the recursion limit.

Tree-expanded node counts are checked against a cap because emission
re-expands the DAG: `substitute` records the plain (unsimplified) tree
size of each node as it builds `f` and checks `f`'s, and `derive_bundle`
checks each finished stage of derivatives by its linearisation's sizes,
so the engines only build them.

A simplified bundle (the default) is built in reverse mode.  `f` is
simplified where it is built, in `substitute`'s one walk; the gradient
comes from one adjoint sweep over it, `_adjoint_gradient`, and Hessian row
i from one sweep over gradient entry i restricted to variables 0..i, the
lower triangle.  That walk and every sweep build each node with the
`_SIMPLIFYING` constructors, which apply `simplify`'s local rewrites to
operands that are already simplified, so neither `f` nor a derivative is
walked again.  A sweep costs O(|f|) where forward passes cost O(n |f|) on a
chain, and a node that reads no wanted variable gets no adjoint: its
derivative is an exact zero, never a `0 / u` that is NaN where u is 0.

A `--no-simplify` bundle keeps the forward rules' raw shape, which
acceptance test 1 pins: one `differentiate` pass per variable for the
gradient and one per lower entry for the Hessian.  Activity analysis keeps
most of each pass, and of each sweep, off the nodes that do not read its
variables:

- Every node gets an activity mask, an int whose bit j is set when the
  node reads independent variable j.  One pass over the arrays of the
  stage being differentiated computes them, shared by every pass and
  sweep that starts from that stage.  A pass or sweep visits only the
  nodes under its root whose mask meets its variables, in `post_order`
  (`cast.Linearized.order`).
- A forward pass that reaches a node whose mask lacks its variable's bit
  uses the node's zero skeleton: the tree the rules build when no variable
  matches (`_rule` with no active variable).  It depends on the node alone,
  so it is built once and reused by every pass.  It is not folded to a bare
  zero, because `--no-simplify` output keeps its `u * 0` factors; the
  derivatives are structurally identical to a walk of every node in every
  pass.
"""

from __future__ import annotations

import math

from .cast import (
    ONE,
    ZERO,
    Binary,
    Call,
    Constant,
    Expr,
    Linearized,
    Unary,
    Var,
    children,
    const,
    count_nodes,
    is_const,
    linearize,
    post_order,
    rebuild,
)
from .errors import AcornsError, ExpressionExplosion
from .flatten import StraightLineProgram
from .interp import _BINARY_FN
from .record import Record

DEFAULT_NODE_CAP = 10**8


class VarIndexMap(Record):
    """Ordered independent scalar slots; index j is differentiation variable j."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple):
        super().__init__(labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_names(cls, program: StraightLineProgram, names) -> "VarIndexMap":
        labels: list[str] = []
        for name in names:
            if name not in program.param_slots:
                raise AcornsError(f"--vars name {name!r} is not an input parameter")
            labels.extend(s.label for s in program.param_slots[name])
        if len(set(labels)) != len(labels):
            raise AcornsError(f"duplicate differentiation variables in {list(names)!r}")
        return cls(tuple(labels))


def layout_slots(program: StraightLineProgram, vars_: VarIndexMap) -> list:
    """Per-point slot order: independent vars first, then remaining inputs."""
    chosen = set(vars_.labels)
    rest = [s.label for s in program.inputs if s.label not in chosen]
    return list(vars_.labels) + rest


# the bundle's stages, named as the emitted drivers are
STAGES = ("function", "gradient", "hessian")


class DerivativeBundle(Record):
    """Energy expression, gradient, and lower-triangular Hessian.

    `linearized` keeps each stage's `Linearized` in the bundle's
    `__dict__`, keyed by the stage, which is not a field: `derive_bundle`
    stores the three it built there, and a bundle made by `replace`, a copy
    or a pickle starts without them and is linearised afresh.
    """

    __slots__ = ("f", "grad", "hess_lower", "simplified", "__dict__")

    def __init__(self, f: Expr, grad: tuple, hess_lower: tuple, simplified: bool = False):
        # hess_lower is row-major, entry (i, j) with i >= j at i*(i+1)//2 + j;
        # a simplified bundle was built by the simplifying sweeps and is
        # emitted in bound form
        super().__init__(f, grad, hess_lower, simplified)

    @property
    def n(self) -> int:
        return len(self.grad)

    def hess_entry(self, i: int, j: int) -> Expr:
        if j > i:
            i, j = j, i  # the upper triangle mirrors the lower
        return self.hess_lower[i * (i + 1) // 2 + j]

    def exprs(self, stage: str) -> tuple:
        """The expressions of a stage of `STAGES`, in order."""
        return {"function": (self.f,), "gradient": self.grad, "hessian": self.hess_lower}[stage]

    def linearized(self, stage: str) -> Linearized:
        """`linearize(self.exprs(stage))`, made once per bundle."""
        lin = self.__dict__.get(stage)
        if lin is None:
            lin = self.__dict__[stage] = linearize(self.exprs(stage))
        return lin


def _check_cap(lin: Linearized, cap: int):
    """Raise ExpressionExplosion at the first root of `lin` that
    tree-expands past `cap` nodes.

    `count_nodes` sizes each root from a memo that `lin`'s sizes fill, so
    it walks nothing.
    """
    sizes = {id(r): (lin.sizes[i], r) for r, i in zip(lin.roots, lin.at)}
    for e in lin.roots:
        n = count_nodes(e, sizes)
        if n > cap:
            raise ExpressionExplosion(n, cap)


def substitute(p: StraightLineProgram, cap: int = DEFAULT_NODE_CAP,
               simple: bool = False) -> Expr:
    """Inline every intermediate definition into one expression for the output.

    With `simple`, the one walk rebuilds each node with the `_SIMPLIFYING`
    constructors, so it returns `simplify` of the plain result.  Either way
    it records each node's tree-expanded size in the plain result, and
    checks the result's against `cap`, in that unit, so the cap on `f` is
    the same whichever form is built.
    """
    build = _simple_rebuild if simple else rebuild
    env: dict[str, tuple] = {}  # target -> (its expression, its plain tree size)
    for a in p.assigns:
        memo: dict[int, Expr] = {}
        sizes: dict[int, int] = {}  # id(node) -> plain tree size
        for node in post_order(a.rhs, memo):
            if isinstance(node, Var):
                got = env.get(node.name)  # unmapped names are input slots
                if got is not None:
                    memo[id(node)], sizes[id(node)] = got
                    continue
            memo[id(node)] = build(node, memo)
            size = 1
            for k in children(node):
                size += sizes[id(k)]
            sizes[id(node)] = size
        env[a.target] = (memo[id(a.rhs)], sizes[id(a.rhs)])
    got = env.get(p.output)
    if got is None:
        raise AcornsError(f"output slot {p.output!r} is never assigned")
    result, size = got
    if size > cap:
        raise ExpressionExplosion(size, cap)
    return result


class _Activity:
    """Differentiation state shared by every pass and sweep of one `derive_bundle`.

    `mark` takes the stage the next passes and sweeps differentiate, a
    `Linearized` whose roots they start from: `masks` holds each of its
    nodes' activity mask, bit j set when the node reads independent
    variable j, and `at` each root's position.  `skeletons` holds each
    inactive node's zero skeleton for the forward passes, built from its
    operands' skeletons by a `post_order` walk; it is keyed by id() and
    keeps its key node alive, so an id cannot be reused while it lives.
    """

    def __init__(self, labels):
        self.bit = {label: 1 << j for j, label in enumerate(labels)}
        self.skeletons: dict[int, tuple] = {}  # id(node) -> (skeleton, node)
        self.lin: Linearized | None = None
        self.masks: list = []
        self.at: dict[int, int] = {}  # id(root) -> its position

    def mark(self, lin: Linearized):
        """Make `lin` the stage to differentiate."""
        self.lin, self.masks = lin, lin.masks(self.bit)
        self.at = dict(zip(map(id, lin.roots), lin.at))

    def skeleton(self, node: Expr) -> Expr:
        """The derivative `_rule` builds for `node` when no variable matches."""
        skeletons = self.skeletons
        got = skeletons.get(id(node))
        if got is not None:
            return got[0]

        def d(k: Expr) -> Expr:
            return skeletons[id(k)][0]

        for n in post_order(node, skeletons):
            skeletons[id(n)] = (_rule(n, d, None), n)
        return skeletons[id(node)][0]


def differentiate(e: Expr, v: str, activity: _Activity | None = None) -> Expr:
    """Exact symbolic derivative of `e` with respect to the slot named `v`,
    built from raw nodes (`simplify` tidies it).

    `activity` is shared by the passes of one bundle; `v` must be one of
    its variables and `e` a root of its stage.  The rule is applied to
    each node that reads `v`, children first, in the stage's positions;
    the other nodes take their zero skeletons.
    """
    if activity is None:
        activity = _Activity((v,))
        activity.mark(linearize((e,)))
    nodes = activity.lin.nodes
    skeleton = activity.skeleton
    memo: dict[int, Expr] = {}  # id(node) -> derivative, for the nodes that read v

    def d(k: Expr) -> Expr:
        got = memo.get(id(k))
        return skeleton(k) if got is None else got

    for i in activity.lin.order(activity.at[id(e)], activity.masks, activity.bit[v]):
        node = nodes[i]
        memo[id(node)] = _rule(node, d, v)
    return d(e)


def _rule(node: Expr, d, v: str | None) -> Expr:
    """One forward rule application; `d` gives the operands' derivatives."""
    if isinstance(node, Constant):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.name == v else ZERO
    if isinstance(node, Unary):
        return Unary("-", d(node.operand))
    if isinstance(node, Binary):
        if node.op in ("+", "-"):
            da = d(node.lhs)
            db = d(node.rhs)
            if is_const(da, 0.0) and is_const(db, 0.0):
                # a sum of two structural zeros collapses even without
                # simplification; the `u * 0` factors are kept
                return ZERO
            return Binary(node.op, da, db)
        if node.op == "*":
            return Binary("+", Binary("*", d(node.lhs), node.rhs),
                          Binary("*", node.lhs, d(node.rhs)))
        if node.op == "/":
            num = Binary("-", Binary("*", d(node.lhs), node.rhs),
                         Binary("*", node.lhs, d(node.rhs)))
            return Binary("/", num, Binary("*", node.rhs, node.rhs))
        return ZERO  # comparisons are piecewise constant
    if isinstance(node, Call):
        return _call_rule(node, d, Binary, Unary, Call)
    raise TypeError(f"cannot differentiate {node!r}")


def _call_rule(node: Call, d, binary, unary, call) -> Expr:
    name = node.name
    if name == "pow":
        base, expo = node.args
        if isinstance(expo, Constant):
            # c * pow(u, c-1) * u'; an exponent whose c-1 no literal spells
            # (c = 1e309) keeps the subtraction for the C runtime
            down_value = expo.value - 1.0
            down_expo = (const(down_value) if math.isfinite(down_value)
                         else binary("-", expo, ONE))
            down = call("pow", (base, down_expo))
            return binary("*", binary("*", expo, down), d(base))
        # pow(u, w) * (w' * log(u) + w * u' / u), valid for positive base
        bracket = binary(
            "+",
            binary("*", d(expo), call("log", (base,))),
            binary("/", binary("*", expo, d(base)), base),
        )
        return binary("*", node, bracket)
    u = node.args[0]
    du = d(u)
    if name == "log":
        # (1/u) * u', the shape the emitted derivative code shows
        return binary("*", binary("/", ONE, u), du)
    if name == "exp":
        return binary("*", node, du)
    if name == "sin":
        return binary("*", call("cos", (u,)), du)
    if name == "cos":
        return unary("-", binary("*", call("sin", (u,)), du))
    if name == "tan":
        cos_u = call("cos", (u,))
        return binary("/", du, binary("*", cos_u, cos_u))
    if name == "sqrt":
        return binary("/", du, binary("*", const(2.0, "2"), node))
    raise TypeError(f"cannot differentiate call to {name!r}")


_FOLDABLE = ("+", "-", "*", "/")


def _fold(op: str, a: Constant, b: Constant) -> Expr | None:
    """The constant `a op b`, or None to leave it for the C runtime: a
    result that is not finite, x / 0 among them, which no literal spells."""
    value = _BINARY_FN[op](a.value, b.value)
    return const(value) if math.isfinite(value) else None


# The simplifying constructors.  Each takes operands that are already
# simplified and returns the simplified node; `node`, when given, is an
# existing node of the same kind, returned instead of a new one when no
# rule applies and the operands are its own.


def _simple_binary(op: str, a: Expr, b: Expr, node: Binary | None = None) -> Expr:
    """Identity/annihilator elimination and constant folding."""
    if op == "*":
        if is_const(a, 0.0) or is_const(b, 0.0):
            return ZERO
        if is_const(a, 1.0):
            return b
        if is_const(b, 1.0):
            return a
    elif op == "+":
        if is_const(a, 0.0):
            return b
        if is_const(b, 0.0):
            return a
    elif op == "-":
        if is_const(b, 0.0):
            return a
    elif op == "/":
        if is_const(b, 1.0):
            return a
    if op in _FOLDABLE and isinstance(a, Constant) and isinstance(b, Constant):
        folded = _fold(op, a, b)
        if folded is not None:
            return folded
    if node is not None and a is node.lhs and b is node.rhs:
        return node
    return Binary(op, a, b)


def _simple_unary(op: str, u: Expr, node: Unary | None = None) -> Expr:
    """Double negation."""
    if isinstance(u, Unary):
        return u.operand  # -(-u) -> u
    if node is not None and u is node.operand:
        return node
    return Unary(op, u)


def _simple_call(name: str, args: tuple, node: Call | None = None) -> Expr:
    """Trivial pow exponents."""
    if name == "pow":
        base, expo = args
        if is_const(expo, 1.0):
            return base
        if is_const(expo, 0.0):
            return ONE
    if node is not None and all(a is b for a, b in zip(args, node.args)):
        return node
    return Call(name, args)


_SIMPLIFYING = (_simple_binary, _simple_unary, _simple_call)


def simplify(e: Expr) -> Expr:
    """Value-preserving local rewrites: identity/annihilator elimination,
    trivial pow exponents, double negation, and constant folding.

    One explicit-stack pass rebuilds each node, children first, with the
    `_SIMPLIFYING` constructors that the reverse sweep also builds with.  No
    reassociation, distribution, or cancellation; subtrees the rules do not
    touch are returned as the same objects, so the result is a fixed point:
    `simplify(simplify(e)) is simplify(e)`.
    """
    done: dict[int, Expr] = {}
    for node in post_order(e, done):
        done[id(node)] = _simple_rebuild(node, done, node)
    return done[id(e)]


def _simple_rebuild(node: Expr, new: dict, reuse: Expr | None = None) -> Expr:
    """`node` over the simplified operands `new[id(operand)]`, built by the
    `_SIMPLIFYING` constructors with `reuse` as their `node`.

    Constants and variables are returned as they are.  `substitute` leaves
    `reuse` None, so, as `rebuild` does, it makes a new node wherever no
    rule applies, and its result shares nodes as `simplify` of the plain
    result does.
    """
    if isinstance(node, (Constant, Var)):
        return node
    if isinstance(node, Binary):
        return _simple_binary(node.op, new[id(node.lhs)], new[id(node.rhs)], reuse)
    if isinstance(node, Unary):
        return _simple_unary(node.op, new[id(node.operand)], reuse)
    if isinstance(node, Call):
        return _simple_call(node.name, tuple(new[id(a)] for a in node.args), reuse)
    raise TypeError(f"not an expression: {node!r}")


def gradient(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
) -> tuple:
    return derive_bundle(p, vars_, do_simplify, cap, want_hessian=False).grad


def _unit(_operand: Expr) -> Expr:
    return ONE


def _signed_sum(terms: list) -> tuple:
    """Sum (negated, expression) pairs left to right, as one such pair.

    -a + b is built as -(a - b), and -a - b as -(a + b), which IEEE
    arithmetic rounds to the same value, since negation is exact."""
    neg, acc = terms[0]
    for term_neg, e in terms[1:]:
        acc = _simple_binary("+" if term_neg == neg else "-", acc, e)
    return neg, acc


def _adjoint_gradient(activity: _Activity, root: int, vars_: VarIndexMap,
                      wanted: int = -1) -> tuple:
    """The gradient of the simplified expression at position `root` of
    `activity`'s stage, from one reverse (adjoint) sweep, over the
    variables whose bits are set in the mask `wanted` (all of them by
    default), in `vars_` order.

    The sweep walks the expression's nodes in reverse `post_order`
    (`Linearized.order`), which reaches every parent of a node before the
    node, so a node's adjoint is complete when it is pushed on to its
    operands.  An adjoint is a pair (negated, expression): `-` and unary
    minus flip the sign rather than build `-1 *` factors.  Only nodes that
    read a wanted variable receive adjoints, and the order holds no other,
    so an inactive subtree's derivative is an exact zero.  A parent reads
    every variable its operands read, so the entries equal those of the
    unmasked sweep.  A node's contributions, and a variable's across its
    `Var` nodes, are summed in the order they arrive, left operand first,
    which is the order the forward rules add them in a chain of sums:
    there the entries equal the forward passes' bitwise, up to the sign of
    zero.  The cost is O(|f|) rather than O(n |f|), and the sweep does not
    recurse.
    """
    lin, masks = activity.lin, activity.masks
    nodes, start, operands = lin.nodes, lin.start, lin.operands
    binary, unary, call = _SIMPLIFYING
    terms: dict[int, list] = {}  # position -> contributions to its node's adjoint
    by_var: dict[str, list] = {label: [] for label in vars_.labels
                               if activity.bit[label] & wanted}

    def push(i: int, neg: bool, e: Expr):
        if not masks[i] & wanted or is_const(e, 0.0):
            return
        node = nodes[i]
        if isinstance(node, Var):
            by_var[node.name].append((neg, e))
        else:
            terms.setdefault(i, []).append((neg, e))

    push(root, False, ONE)
    for i in reversed(lin.order(root, masks, wanted)):
        got = terms.pop(i, None)
        if got is None:
            continue
        neg, a = _signed_sum(got)
        node, k = nodes[i], start[i]
        if isinstance(node, Unary):
            push(operands[k], not neg, a)
        elif isinstance(node, Binary):
            lhs, rhs, op = operands[k], operands[k + 1], node.op
            if op in ("+", "-"):
                push(lhs, neg, a)
                push(rhs, neg != (op == "-"), a)
            elif op == "*":
                if masks[lhs] & wanted:
                    push(lhs, neg, binary("*", a, node.rhs))
                if masks[rhs] & wanted:
                    push(rhs, neg, binary("*", a, node.lhs))
            elif op == "/":
                if masks[lhs] & wanted:
                    push(lhs, neg, binary("/", a, node.rhs))
                if masks[rhs] & wanted:
                    push(rhs, not neg, binary("/", binary("*", a, node.lhs),
                                              binary("*", node.rhs, node.rhs)))
            # comparisons are piecewise constant: nothing flows back
        elif isinstance(node, Call):
            base = node.args[0]
            if node.name == "pow" and not isinstance(node.args[1], Constant):
                expo, b, x = node.args[1], operands[k], operands[k + 1]
                if masks[b] & wanted:
                    push(b, neg, binary("*", a, binary("*", node, binary("/", expo, base))))
                if masks[x] & wanted:
                    push(x, neg, binary("*", a, binary("*", node, call("log", (base,)))))
            else:
                # the forward rule with a unit operand derivative is the partial
                partial = _call_rule(node, _unit, binary, unary, call)
                if isinstance(partial, Unary):  # cos: -sin(u)
                    neg, partial = not neg, partial.operand
                push(operands[k], neg, binary("*", a, partial))

    grad = []
    for got in by_var.values():
        g = ZERO
        if got:
            neg, g = _signed_sum(got)
            if neg and not is_const(g, 0.0):
                g = unary("-", g)
        grad.append(g)
    return tuple(grad)


def hessian(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
) -> tuple:
    return derive_bundle(p, vars_, do_simplify, cap).hess_lower


def derive_bundle(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
    want_gradient: bool = True,
    want_hessian: bool = True,
) -> DerivativeBundle:
    """Run substitute/differentiate once and share the gradient with the Hessian.

    `do_simplify` alone picks the engine, so the gradient is the same
    whichever entries are wanted.  With it, `substitute` builds `f`
    simplified in its one walk and the reverse sweeps build every
    derivative node simplified; their entries equal `simplify` of the raw
    derivatives up to rounding wherever both are finite, and an inactive
    subtree's derivative is an exact zero.  Without it, the forward passes
    build the raw derivatives.

    Each stage is linearised once it is built (`f`, the gradient, the
    Hessian), and the bundle carries the linearisations for emission and
    the tape.  The passes and sweeps of the next stage read the activity
    masks of this one.  `substitute` checks `f` against the cap by the plain
    tree size it records while building `f`, in either engine.  This
    function alone checks the derivatives, each stage from its
    linearisation's sizes: the gradient before the Hessian is built from
    it, then the Hessian.  The first entry past the cap, in bundle order,
    raises.
    """
    f = substitute(p, cap, simple=do_simplify)
    linear = {"function": linearize((f,))}
    activity = _Activity(vars_.labels)
    grad = hess = ()
    if want_gradient or want_hessian:
        activity.mark(linear["function"])
        if do_simplify:
            grad = _adjoint_gradient(activity, activity.lin.at[0], vars_)
        else:
            grad = tuple(differentiate(f, label, activity) for label in vars_.labels)
        linear["gradient"] = lin = linearize(grad)
        _check_cap(lin, cap)
    if want_hessian:
        activity.mark(linear["gradient"])
        if do_simplify:
            # row i, the lower triangle's, from one sweep over grad[i] for variables 0..i
            hess = tuple(h for i, at in enumerate(activity.lin.at)
                         for h in _adjoint_gradient(activity, at, vars_, (2 << i) - 1))
        else:
            hess = tuple(differentiate(g, label, activity)
                         for i, label in enumerate(vars_.labels) for g in grad[:i + 1])
        linear["hessian"] = lin = linearize(hess)
        _check_cap(lin, cap)
    bundle = DerivativeBundle(f, grad, hess, do_simplify)
    bundle.__dict__.update(linear)
    return bundle
