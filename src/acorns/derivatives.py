"""Symbolic differentiation of straight-line programs.

All transforms work on a shared-subtree DAG: results are memoized by node
identity, so repeated subexpressions (which unrolled programs produce in
abundance) are differentiated and simplified once.  Tree-expanded node
counts are checked against a cap because emission re-expands the DAG.

Forward mode differentiates once per independent variable: n passes for
the gradient and n(n+1)/2 for the Hessian.  Activity analysis keeps most
of each pass off the nodes that do not read its variable:

- Every node gets an activity mask, an int whose bit j is set when the
  node reads independent variable j.  One explicit-stack walk per
  differentiated expression computes it, shared by every pass of a
  `derive_bundle`.
- A pass that reaches a node whose mask lacks its variable's bit uses the
  node's zero skeleton: the tree the rules build when no variable matches
  (`_rule` with no active variable).  It depends on the node alone, so it
  is built once and reused by every gradient and Hessian pass, and its
  simplified form is memoised once too.

The skeleton is not folded to a bare zero, because `--no-simplify` output
keeps its `u * 0` factors and `simplify` keeps `-(0)`; the derivatives are
structurally identical to a walk of every node in every pass.
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
)
from .errors import AcornsError, ExpressionExplosion
from .flatten import StraightLineProgram

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

    @property
    def n(self) -> int:
        return len(self.grad)

    def hess_entry(self, i: int, j: int) -> Expr:
        if j > i:
            i, j = j, i  # the upper triangle mirrors the lower
        return self.hess_lower[i * (i + 1) // 2 + j]

    def hess_full(self) -> list:
        return [[self.hess_entry(i, j) for j in range(self.n)] for i in range(self.n)]


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

    def subst(e: Expr, memo: dict) -> Expr:
        got = memo.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Var):
            out = env.get(e.name, e)  # unmapped names are input slots
        elif isinstance(e, Unary):
            out = Unary(e.op, subst(e.operand, memo))
        elif isinstance(e, Binary):
            out = Binary(e.op, subst(e.lhs, memo), subst(e.rhs, memo))
        elif isinstance(e, Call):
            out = Call(e.name, tuple(subst(a, memo) for a in e.args))
        else:
            out = e
        memo[id(e)] = out
        return out

    for a in p.assigns:
        env[a.target] = subst(a.rhs, {})
    result = env.get(p.output)
    if result is None:
        raise AcornsError(f"output slot {p.output!r} is never assigned")
    _check_cap(result, cap)
    return result


class _Activity:
    """Differentiation state shared by every pass of one `derive_bundle`.

    `masks` holds each node's activity mask: bit j is set when the node
    reads independent variable j.  `skeletons` holds each inactive node's
    zero skeleton, and `simplified` maps each skeleton root to its simplified
    form (None until the first `simplify` pass reaches it).  `sizes` is
    the tree-size memo of `_check_cap`.  All four are keyed by id() and keep
    their key node alive, so an id cannot be reused while the memo lives.
    """

    def __init__(self, labels):
        self.bit = {label: 1 << j for j, label in enumerate(labels)}
        self.masks: dict[int, tuple] = {}  # id(node) -> (mask, node)
        self.skeletons: dict[int, tuple] = {}  # id(node) -> (skeleton, node)
        self.simplified: dict[int, tuple] = {}  # id(skeleton) -> (skeleton, simplified or None)
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
        got = self.skeletons.get(id(node))
        if got is not None:
            return got[0]
        out = _rule(node, self.skeleton, None)
        self.skeletons[id(node)] = (out, node)
        self.simplified.setdefault(id(out), (out, None))
        return out


def differentiate(e: Expr, v: str, activity: _Activity | None = None) -> Expr:
    """Exact symbolic derivative of `e` with respect to the slot named `v`.

    `activity` is shared by the passes of one bundle; `v` must be one of
    its variables.
    """
    if activity is None:
        activity = _Activity((v,))
    activity.mark(e)
    bit = activity.bit[v]
    masks = activity.masks
    memo: dict[int, Expr] = {}

    def d(node: Expr) -> Expr:
        got = memo.get(id(node))
        if got is not None:
            return got
        if masks[id(node)][0] & bit:
            out = _rule(node, d, v)
        else:
            out = activity.skeleton(node)
        memo[id(node)] = out
        return out

    try:
        return d(e)
    finally:
        # `d` reaches itself through its closure; breaking the cycle frees
        # the memo and the closure's hold on `activity` now rather than at
        # some later cycle collection
        del d


def _rule(node: Expr, d, v: str | None) -> Expr:
    """One forward rule application; `d` differentiates the operands."""
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
            return Binary(
                "+",
                Binary("*", d(node.lhs), node.rhs),
                Binary("*", node.lhs, d(node.rhs)),
            )
        if node.op == "/":
            num = Binary(
                "-",
                Binary("*", d(node.lhs), node.rhs),
                Binary("*", node.lhs, d(node.rhs)),
            )
            return Binary("/", num, Binary("*", node.rhs, node.rhs))
        return ZERO  # comparisons are piecewise constant
    if isinstance(node, Call):
        return _call_rule(node, d)
    raise TypeError(f"cannot differentiate {node!r}")


def _call_rule(node: Call, d) -> Expr:
    name = node.name
    if name == "pow":
        base, expo = node.args
        if isinstance(expo, Constant):
            # c * pow(u, c-1) * u'
            down = Call("pow", (base, const(expo.value - 1.0)))
            return Binary("*", Binary("*", expo, down), d(base))
        # pow(u, w) * (w' * log(u) + w * u' / u), valid for positive base
        bracket = Binary(
            "+",
            Binary("*", d(expo), Call("log", (base,))),
            Binary("/", Binary("*", expo, d(base)), base),
        )
        return Binary("*", node, bracket)
    u = node.args[0]
    du = d(u)
    if name == "log":
        # (1/u) * u', the shape the emitted derivative code shows
        return Binary("*", Binary("/", ONE, u), du)
    if name == "exp":
        return Binary("*", node, du)
    if name == "sin":
        return Binary("*", Call("cos", (u,)), du)
    if name == "cos":
        return Unary("-", Binary("*", Call("sin", (u,)), du))
    if name == "tan":
        cos_u = Call("cos", (u,))
        return Binary("/", du, Binary("*", cos_u, cos_u))
    if name == "sqrt":
        return Binary("/", du, Binary("*", const(2.0, "2"), node))
    raise TypeError(f"cannot differentiate call to {name!r}")


_FOLDABLE = ("+", "-", "*", "/")


def _fold(op: str, a: Constant, b: Constant) -> Expr | None:
    """The constant `a op b`, or None to leave it for the C runtime: x / 0,
    and any result that is not finite, which no literal spells."""
    if op == "+":
        value = a.value + b.value
    elif op == "-":
        value = a.value - b.value
    elif op == "*":
        value = a.value * b.value
    elif b.value == 0.0:
        return None
    else:
        value = a.value / b.value
    return const(value) if math.isfinite(value) else None


def simplify(e: Expr, activity: _Activity | None = None) -> Expr:
    """Value-preserving local rewrites: identity/annihilator elimination,
    trivial pow exponents, double negation, and constant folding.

    No reassociation, distribution, or cancellation; subtrees the rules do
    not touch are returned as the same objects.  With `activity`, the
    simplified form of each zero skeleton is computed once and reused.
    """
    memo: dict[int, Expr] = {}
    roots = activity.simplified if activity is not None else {}

    def s(node: Expr) -> Expr:
        got = memo.get(id(node))
        if got is not None:
            return got
        root = roots.get(id(node))
        if root is None:
            out = _rewrite(node)
        elif root[1] is not None:
            out = root[1]
        else:
            out = _rewrite(node)
            roots[id(node)] = (node, out)
        memo[id(node)] = out
        return out

    def _rewrite(node: Expr) -> Expr:
        if isinstance(node, (Constant, Var)):
            return node
        if isinstance(node, Unary):
            u = s(node.operand)
            if isinstance(u, Unary):
                return u.operand  # -(-u) -> u
            return node if u is node.operand else Unary("-", u)
        if isinstance(node, Call):
            args = tuple(s(a) for a in node.args)
            if node.name == "pow":
                base, expo = args
                if is_const(expo, 1.0):
                    return base
                if is_const(expo, 0.0):
                    return ONE
            if all(a is b for a, b in zip(args, node.args)):
                return node
            return Call(node.name, args)
        if isinstance(node, Binary):
            a = s(node.lhs)
            b = s(node.rhs)
            op = node.op
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
            if a is node.lhs and b is node.rhs:
                return node
            return Binary(op, a, b)
        raise TypeError(f"not an expression: {node!r}")

    try:
        return s(e)
    finally:
        del s, _rewrite  # the two call each other; see `differentiate`


def gradient(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
) -> tuple:
    f = substitute(p, cap)
    return _gradient_of(f, vars_, do_simplify, cap, _Activity(vars_.labels))


def _gradient_of(f: Expr, vars_: VarIndexMap, do_simplify: bool, cap: int,
                 activity: _Activity) -> tuple:
    out = []
    for label in vars_.labels:
        g = differentiate(f, label, activity)
        if do_simplify:
            g = simplify(g, activity)
        _check_cap(g, cap, activity.sizes)
        out.append(g)
    return tuple(out)


def hessian(
    p: StraightLineProgram,
    vars_: VarIndexMap,
    do_simplify: bool = True,
    cap: int = DEFAULT_NODE_CAP,
) -> tuple:
    f = substitute(p, cap)
    activity = _Activity(vars_.labels)
    grad = _gradient_of(f, vars_, do_simplify, cap, activity)
    return _hessian_of(grad, vars_, do_simplify, cap, activity)


def _hessian_of(grad: tuple, vars_: VarIndexMap, do_simplify: bool, cap: int,
                activity: _Activity) -> tuple:
    lower = []
    for i in range(vars_.n):
        for j in range(i + 1):
            h = differentiate(grad[j], vars_.labels[i], activity)
            if do_simplify:
                h = simplify(h, activity)
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
    """Run substitute/differentiate once and share the gradient with the Hessian."""
    f = substitute(p, cap)
    if do_simplify:
        f = simplify(f)
    activity = _Activity(vars_.labels)
    grad = (_gradient_of(f, vars_, do_simplify, cap, activity)
            if (want_gradient or want_hessian) else ())
    hess = _hessian_of(grad, vars_, do_simplify, cap, activity) if want_hessian else ()
    return DerivativeBundle(f, grad, hess)
