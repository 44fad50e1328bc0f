"""Symbolic differentiation of straight-line programs.

All transforms work on a shared-subtree DAG: results are memoized by node
identity, so repeated subexpressions (which unrolled programs produce in
abundance) are differentiated once.  Tree-expanded node counts are checked
against a cap because emission re-expands the DAG.  Each transform is one
`cast.post_order` loop whose per-node rule reads its operands' results
from the memo, so the depth of an expression, which grows with the length
of an unrolled loop, is bounded by memory, not by the recursion limit.

A simplified bundle (the default) is built in reverse mode.  `f` is
simplified once; the gradient comes from one adjoint sweep over it,
`_adjoint_gradient`, and Hessian row i from one sweep over gradient entry i
restricted to variables 0..i, the lower triangle.  A sweep builds every node
with the `_SIMPLIFYING` constructors, which apply `simplify`'s local
rewrites to operands that are already simplified, so no derivative is
walked again.  A sweep costs O(|f|) where forward passes cost O(n |f|) on a
chain, and a node that reads no wanted variable gets no adjoint: its
derivative is an exact zero, never a `0 / u` that is NaN where u is 0.

A `--no-simplify` bundle keeps the forward rules' raw shape, which
acceptance test 1 pins: one `differentiate` pass per variable for the
gradient and one per lower entry for the Hessian.  Activity analysis keeps
most of each pass, and of each sweep, off the nodes that do not read its
variables:

- Every node gets an activity mask, an int whose bit j is set when the
  node reads independent variable j.  One explicit-stack walk per
  differentiated expression computes it, shared by every pass of a
  `derive_bundle`.
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
from dataclasses import dataclass

from .cast import (
    ONE,
    ZERO,
    Binary,
    Call,
    Constant,
    Expr,
    Unary,
    Var,
    children,
    const,
    count_nodes,
    is_const,
    post_order,
    rebuild,
)
from .errors import AcornsError, ExpressionExplosion
from .flatten import StraightLineProgram
from .interp import _BINARY_FN

DEFAULT_NODE_CAP = 10**8


@dataclass(frozen=True)
class VarIndexMap:
    """Ordered independent scalar slots; index j is differentiation variable j."""

    labels: tuple

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_names(cls, program: StraightLineProgram, names) -> "VarIndexMap":
        by_param: dict[str, list[str]] = {}
        for slot in program.inputs:
            by_param.setdefault(slot.param, []).append(slot.label)
        labels: list[str] = []
        for name in names:
            if name not in by_param:
                raise AcornsError(f"--vars name {name!r} is not an input parameter")
            labels.extend(by_param[name])  # slots are already row-major
        if len(set(labels)) != len(labels):
            raise AcornsError(f"duplicate differentiation variables in {list(names)!r}")
        return cls(tuple(labels))


@dataclass(frozen=True)
class DerivativeBundle:
    """Energy expression, gradient, and lower-triangular Hessian."""

    f: Expr
    grad: tuple
    hess_lower: tuple  # row-major, entry (i, j) with i >= j at i*(i+1)//2 + j
    simplified: bool = False  # built by the simplifying sweeps; emitted in bound form

    @property
    def n(self) -> int:
        return len(self.grad)

    def hess_entry(self, i: int, j: int) -> Expr:
        if j > i:
            i, j = j, i  # the upper triangle mirrors the lower
        return self.hess_lower[i * (i + 1) // 2 + j]


def _check_cap(e: Expr, cap: int, sizes: dict | None = None):
    """Raise ExpressionExplosion when `e` tree-expands past `cap` nodes.

    `sizes` is `count_nodes`' memo, kept by the caller across the entries
    of one bundle so a subtree they share is counted once.
    """
    n = count_nodes(e, sizes)
    if n > cap:
        raise ExpressionExplosion(n, cap)


def substitute(p: StraightLineProgram, cap: int = DEFAULT_NODE_CAP) -> Expr:
    """Inline every intermediate definition into one expression for the output."""
    env: dict[str, Expr] = {}
    for a in p.assigns:
        memo: dict[int, Expr] = {}
        for node in post_order(a.rhs, memo):
            if isinstance(node, Var):
                memo[id(node)] = env.get(node.name, node)  # unmapped names are input slots
            else:
                memo[id(node)] = rebuild(node, memo)
        env[a.target] = memo[id(a.rhs)]
    result = env.get(p.output)
    if result is None:
        raise AcornsError(f"output slot {p.output!r} is never assigned")
    _check_cap(result, cap)
    return result


class _Activity:
    """Differentiation state shared by every pass and sweep of one `derive_bundle`.

    `masks` holds each node's activity mask: bit j is set when the node
    reads independent variable j.  `skeletons` holds each inactive node's
    zero skeleton for the forward passes, built from its operands' skeletons
    by a `post_order` walk.  `sizes` is the tree-size memo of
    `_check_cap`.  The three memos are keyed by id() and keep their key node
    alive, so an id cannot be reused while the memo lives.
    """

    def __init__(self, labels):
        self.bit = {label: 1 << j for j, label in enumerate(labels)}
        self.masks: dict[int, tuple] = {}  # id(node) -> (mask, node)
        self.skeletons: dict[int, tuple] = {}  # id(node) -> (skeleton, node)
        self.sizes: dict[int, tuple] = {}  # id(node) -> (tree size, node)

    def mark(self, root: Expr):
        """Give every node under `root` its activity mask."""
        masks, bit = self.masks, self.bit
        for node in post_order(root, masks):
            if isinstance(node, Var):
                mask = bit.get(node.name, 0)
            else:
                mask = 0
                for k in children(node):
                    mask |= masks[id(k)][0]
            masks[id(node)] = (mask, node)

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
    its variables.  One `post_order` walk applies the rule to each node that
    reads `v`, children first; it does not enter the other nodes, which take
    their zero skeletons.
    """
    if activity is None:
        activity = _Activity((v,))
    activity.mark(e)
    bit = activity.bit[v]
    masks = activity.masks
    memo: dict[int, Expr] = {}

    def active_children(node: Expr) -> tuple:
        return children(node) if masks[id(node)][0] & bit else ()

    def d(k: Expr) -> Expr:
        return memo[id(k)]

    for node in post_order(e, memo, active_children):
        if masks[id(node)][0] & bit:
            memo[id(node)] = _rule(node, d, v)
        else:
            memo[id(node)] = activity.skeleton(node)
    return memo[id(e)]


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
        if isinstance(node, (Constant, Var)):
            out = node
        elif isinstance(node, Binary):
            out = _simple_binary(node.op, done[id(node.lhs)], done[id(node.rhs)], node)
        elif isinstance(node, Unary):
            out = _simple_unary(node.op, done[id(node.operand)], node)
        elif isinstance(node, Call):
            out = _simple_call(node.name, tuple(done[id(a)] for a in node.args), node)
        else:
            raise TypeError(f"not an expression: {node!r}")
        done[id(node)] = out
    return done[id(e)]


def gradient(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
) -> tuple:
    return derive_bundle(p, vars_, do_simplify, cap, want_hessian=False).grad


def _gradient_of(f: Expr, vars_: VarIndexMap, cap: int, activity: _Activity) -> tuple:
    out = []
    for label in vars_.labels:
        g = differentiate(f, label, activity)
        _check_cap(g, cap, activity.sizes)
        out.append(g)
    return tuple(out)


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


def _adjoint_gradient(f: Expr, vars_: VarIndexMap, cap: int, activity: _Activity,
                      wanted: int = -1) -> tuple:
    """The gradient of a simplified `f` from one reverse (adjoint) sweep,
    over the variables whose bits are set in the mask `wanted` (all of
    them by default), in `vars_` order.

    One `post_order` pass lists `f`'s nodes; walking the list backwards
    reaches every parent of a node before the node, so a node's adjoint is
    complete when it is pushed on to its operands.  An adjoint is a pair
    (negated, expression): `-` and unary minus flip the sign rather than
    build `-1 *` factors.  Only nodes that read a wanted variable receive
    adjoints, and the listing does not enter the others, so an inactive
    subtree's derivative is an exact zero.  A parent reads every variable
    its operands read, so the entries equal those of the unmasked sweep.
    A node's contributions, and a variable's across its `Var` nodes, are
    summed in the order they arrive, left operand first, which is the order
    the forward rules add them in a chain of sums: there the entries equal
    the forward passes' bitwise, up to the sign of zero.  The cost is
    O(|f|) rather than O(n |f|), and the sweep does not recurse.
    """
    activity.mark(f)
    masks = activity.masks
    binary, unary, call = _SIMPLIFYING

    def active(node: Expr) -> int:
        return masks[id(node)][0] & wanted

    def active_children(node: Expr) -> tuple:
        return children(node) if active(node) else ()

    order: list = []
    done: set = set()
    for node in post_order(f, done, active_children):
        done.add(id(node))
        order.append(node)
    terms: dict[int, list] = {}  # id(node) -> contributions to its adjoint
    by_var: dict[str, list] = {label: [] for label in vars_.labels
                               if activity.bit[label] & wanted}

    def push(node: Expr, neg: bool, e: Expr):
        if not active(node) or is_const(e, 0.0):
            return
        if isinstance(node, Var):
            by_var[node.name].append((neg, e))
        else:
            terms.setdefault(id(node), []).append((neg, e))

    push(f, False, ONE)
    for node in reversed(order):
        got = terms.pop(id(node), None)
        if got is None:
            continue
        neg, a = _signed_sum(got)
        if isinstance(node, Unary):
            push(node.operand, not neg, a)
        elif isinstance(node, Binary):
            lhs, rhs, op = node.lhs, node.rhs, node.op
            if op in ("+", "-"):
                push(lhs, neg, a)
                push(rhs, neg != (op == "-"), a)
            elif op == "*":
                if active(lhs):
                    push(lhs, neg, binary("*", a, rhs))
                if active(rhs):
                    push(rhs, neg, binary("*", a, lhs))
            elif op == "/":
                if active(lhs):
                    push(lhs, neg, binary("/", a, rhs))
                if active(rhs):
                    push(rhs, not neg,
                         binary("/", binary("*", a, lhs), binary("*", rhs, rhs)))
            # comparisons are piecewise constant: nothing flows back
        elif isinstance(node, Call):
            base = node.args[0]
            if node.name == "pow" and not isinstance(node.args[1], Constant):
                expo = node.args[1]
                if active(base):
                    push(base, neg, binary("*", a, binary("*", node, binary("/", expo, base))))
                if active(expo):
                    push(expo, neg, binary("*", a, binary("*", node, call("log", (base,)))))
            else:
                # the forward rule with a unit operand derivative is the partial
                partial = _call_rule(node, _unit, binary, unary, call)
                if isinstance(partial, Unary):  # cos: -sin(u)
                    neg, partial = not neg, partial.operand
                push(base, neg, binary("*", a, partial))

    grad = []
    for got in by_var.values():
        g = ZERO
        if got:
            neg, g = _signed_sum(got)
            if neg and not is_const(g, 0.0):
                g = unary("-", g)
        _check_cap(g, cap, activity.sizes)
        grad.append(g)
    return tuple(grad)


def hessian(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
) -> tuple:
    return derive_bundle(p, vars_, do_simplify, cap).hess_lower


def _hessian_of(grad: tuple, vars_: VarIndexMap, cap: int, activity: _Activity) -> tuple:
    lower = []
    for i in range(vars_.n):
        for j in range(i + 1):
            h = differentiate(grad[j], vars_.labels[i], activity)
            _check_cap(h, cap, activity.sizes)
            lower.append(h)
    return tuple(lower)


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
    whichever entries are wanted.  With it, `f` is simplified once and the
    reverse sweeps build every derivative node simplified; their entries
    equal `simplify` of the raw derivatives up to rounding wherever both are
    finite, and an inactive subtree's derivative is an exact zero.  Without
    it, the forward passes build the raw derivatives.
    """
    f = substitute(p, cap)
    if do_simplify:
        f = simplify(f)
    activity = _Activity(vars_.labels)
    grad = hess = ()
    if want_gradient or want_hessian:
        grad = (_adjoint_gradient if do_simplify else _gradient_of)(f, vars_, cap, activity)
    if want_hessian and do_simplify:
        # row i, the lower triangle's, from one sweep over grad[i] for variables 0..i
        hess = tuple(h for i, g in enumerate(grad)
                     for h in _adjoint_gradient(g, vars_, cap, activity, (2 << i) - 1))
    elif want_hessian:
        hess = _hessian_of(grad, vars_, cap, activity)
    return DerivativeBundle(f, grad, hess, do_simplify)
