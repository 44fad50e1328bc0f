"""`cast.linearize` against the walks it replaced, and its edge cases.

Each stage of a bundle (`f`, the gradient, the Hessian) is linearised
once, and the activity masks, the cap, `SharedText`'s use counts, the
chunk-parameter masks and the tape read its arrays.  The per-consumer
`post_order` walks that computed the same things before are kept here,
short, as oracles.
"""

import random
import sys

import pytest

from acorns import codegen, derivatives
from acorns.cast import (Binary, Call, Constant, SharedText, Unary, Var, children, const,
                         count_nodes, linearize, post_order, to_source)
from acorns.codegen import EmitConfig, emit
from acorns.derivatives import STAGES, DerivativeBundle, VarIndexMap, derive_bundle
from acorns.errors import UnboundSlot
from acorns.flatten import unroll
from acorns.interp import compile_exprs, eval_expr, evaluate
from acorns.parser import parse_source
from acorns.verify import CORPUS, corpus_function, corpus_program

from randgen import random_loop_program

# --- the walks linearize replaced ---------------------------------------------


def _walk_nodes(roots) -> list:
    """The nodes of `roots`' union DAG, as the walks met them."""
    done: dict = {}
    nodes = []
    for root in roots:
        for node in post_order(root, done):
            done[id(node)] = node
            nodes.append(node)
    return nodes


def _walk_uses(roots) -> dict:
    """`SharedText`'s former constructor: id(node) -> uses."""
    uses: dict = {}
    for root in roots:
        for node in post_order(root, uses):
            uses[id(node)] = 0
            for k in children(node):
                uses[id(k)] += 1
        uses[id(root)] += 1
    return uses


def _walk_masks(roots, bits: dict) -> dict:
    """`_Activity.mark` and `codegen._param_mask`: id(node) -> mask."""
    masks: dict = {}
    for root in roots:
        for node in post_order(root, masks):
            mask = bits.get(node.name, 0) if isinstance(node, Var) else 0
            for k in children(node):
                mask |= masks[id(k)]
            masks[id(node)] = mask
    return masks


def _walk_order(root, masks: dict, wanted: int) -> list:
    """The former listing of a sweep or a forward pass: the nodes under
    `root` that read a wanted variable, in `post_order`."""
    def active_children(node):
        return children(node) if masks[id(node)] & wanted else ()

    done: set = set()
    order = []
    for node in post_order(root, done, active_children):
        done.add(id(node))
        if masks[id(node)] & wanted:
            order.append(node)
    return order


def _walk_tape(exprs, slots) -> tuple:
    """The tape as the former per-node walk built it, before `compile_exprs`
    and `compile_program` both read a linearisation: (ops, out_regs)."""
    slot_index = {label: i for i, label in enumerate(slots)}
    ops: list = []
    reg_of: dict = {}
    out_regs = []
    for e in exprs:
        for node in post_order(e, reg_of):
            if isinstance(node, Binary):
                instr = (node.op, reg_of[id(node.lhs)], reg_of[id(node.rhs)])
            elif isinstance(node, Constant):
                instr = ("const", node.value, 0)
            elif isinstance(node, Var):
                if node.name not in slot_index:
                    raise UnboundSlot(node.name)
                instr = ("slot", slot_index[node.name], 0)
            elif isinstance(node, Unary):
                instr = ("neg", reg_of[id(node.operand)], 0)
            else:
                regs = [reg_of[id(a)] for a in node.args] + [0]
                instr = (node.name, regs[0], regs[1])
            reg_of[id(node)] = len(ops)
            ops.append(instr)
        out_regs.append(reg_of[id(e)])
    return ops, out_regs


# --- equivalence ----------------------------------------------------------------


def _cases():
    for name in CORPUS:
        _, program, vars_ = corpus_program(corpus_function(name))
        yield name, program, vars_
    rng = random.Random(1717)
    for k in range(50):
        program = unroll(parse_source(*random_loop_program(rng)))
        params = {slot.param for slot in program.inputs}
        yield f"random {k}", program, VarIndexMap.from_names(
            program, [p for p in ("u", "a") if p in params])


def _refuse_linearize(roots):
    raise AssertionError("linearised again")


@pytest.mark.parametrize("do_simplify", [False, True], ids=["raw", "simplified"])
def test_linearization_matches_the_walks_it_replaced(do_simplify, monkeypatch):
    for case, program, vars_ in _cases():
        bundle = derive_bundle(program, vars_, do_simplify=do_simplify)
        activity = {label: 1 << j for j, label in enumerate(vars_.labels)}
        params = codegen._param_bits(codegen.layout_slots(program, vars_))
        slots = program.input_labels()
        for stage in STAGES:
            roots = bundle.exprs(stage)
            with monkeypatch.context() as m:  # derive_bundle's is handed out
                m.setattr(derivatives, "linearize", _refuse_linearize)
                lin = bundle.linearized(stage)
            assert [id(n) for n in lin.nodes] == [id(n) for n in _walk_nodes(roots)], case
            ids = list(map(id, lin.nodes))
            assert dict(zip(ids, lin.uses)) == _walk_uses(roots), case
            sizes: dict = {}
            assert list(lin.sizes) == [count_nodes(n, sizes) for n in lin.nodes], case
            assert [lin.nodes[i] for i in lin.at] == list(roots), case
            for bits in (activity, params):
                assert dict(zip(ids, lin.masks(bits))) == _walk_masks(roots, bits), case
            tape = compile_exprs(roots, slots, lin)
            assert (tape.ops, tape.out_regs) == _walk_tape(roots, slots), case
            if stage == "hessian":
                continue
            # the sweeps and passes that start from this stage: the gradient's
            # from f, over every variable and each one; row i of the Hessian's
            # from gradient entry i, over variables 0..i and each one
            masks, walked = lin.masks(activity), _walk_masks(roots, activity)
            for i, (root, at) in enumerate(zip(roots, lin.at)):
                row = vars_.n - 1 if stage == "function" else i
                for wanted in ((2 << row) - 1, *(1 << j for j in range(row + 1))):
                    got = [lin.nodes[p] for p in lin.order(at, masks, wanted)]
                    assert got == _walk_order(root, walked, wanted), (case, stage, i)


# --- edge cases -----------------------------------------------------------------


def test_repeated_root():
    x, y = Var("x"), Var("y")
    s = Binary("+", x, y)
    p = Binary("*", s, s)
    roots = (p, s, p)
    lin = linearize(roots)
    assert lin.nodes == [y, x, s, p] and [lin.nodes[i] for i in lin.at] == [p, s, p]
    assert list(lin.uses) == [1, 1, 3, 2]  # s: two edges and one root; p: two roots
    assert list(lin.sizes) == [1, 1, 3, 7]
    shared = SharedText(roots, "t", lin)
    assert [to_source(r, shared) for r in roots] == ["t1", "t0", "t1"]
    assert shared.decls == ["const double t0 = x + y;", "const double t1 = t0 * t0;"]
    assert shared.uses == {} and shared.text == {}
    tape = compile_exprs(roots, ["x", "y"])
    assert tape.out_regs == [3, 2, 3]
    assert evaluate(tape, [[1.0, 2.0]]).tolist() == [[9.0, 3.0, 9.0]]


def _sources(bundle, vars_, program):
    art = emit(bundle, vars_, EmitConfig(basename="d"), program)
    return art.header, art.sources


def test_entries_that_are_nodes_of_the_stage_before():
    program = unroll(parse_source(
        "double f(double x, double y){ double e = x * sin(y); return 0; }", "f", "e"))
    vars_ = VarIndexMap.from_names(program, ["x", "y"])
    bundle = derive_bundle(program, vars_)
    sin_y = bundle.f.rhs
    assert bundle.grad[0] is sin_y  # d/dx is a node of f
    assert bundle.hess_entry(1, 0) is bundle.grad[1].rhs  # d2/dydx is a node of grad[1]
    for stage in STAGES:
        roots = bundle.exprs(stage)
        lin = bundle.linearized(stage)
        assert dict(zip(map(id, lin.nodes), lin.uses)) == _walk_uses(roots)
    header, sources = _sources(bundle, vars_, program)
    lines = [ln.strip() for _, text in sources for ln in text.splitlines()
             if ln.strip().startswith(("out[", "const double t"))]
    assert lines == ["out[0] = x * sin(y);",
                     "out[0] = sin(y);", "out[1] = x * cos(y);",
                     "out[2] = cos(y);", "out[3] = -(x * sin(y));"]
    point = {"x": 0.7, "y": 1.3}
    tape = compile_exprs(bundle.hess_lower, ["x", "y"], bundle.linearized("hessian"))
    assert evaluate(tape, [[0.7, 1.3]])[0].tolist() == [eval_expr(h, point)
                                                        for h in bundle.hess_lower]


def test_deep_chain_linearizes_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    n = 200_000
    x, y = Var("x"), Var("y")
    chain = x
    for _ in range(n):
        chain = Binary("+", chain, y)
    lin = linearize((chain,))
    assert sys.getrecursionlimit() == limit
    # the right operand is finished first
    assert len(lin.nodes) == n + 2 and lin.nodes[0] is y and lin.nodes[1] is x
    assert lin.nodes[-1] is chain and lin.at[0] == n + 1 and lin.sizes[-1] == 2 * n + 1
    assert lin.uses[0] == n and lin.uses[1] == 1 and lin.uses[-1] == 1
    masks = lin.masks({"x": 1, "y": 2})
    assert masks[-1] == 3
    assert len(lin.order(lin.at[0], masks, 1)) == n + 1  # every sum and x, not y
    # a second root forces the walk, which reaches the same nodes
    lin = linearize((chain, x))
    assert len(lin.order(lin.at[0], lin.masks({"x": 1}), 1)) == n + 1


def test_sizes_past_int64_stay_exact():
    square = Var("x")
    for _ in range(70):
        square = Binary("*", square, square)
    lin = linearize((square,))
    assert lin.sizes[-1] == 2 ** 71 - 1 == count_nodes(square)


@pytest.mark.parametrize("do_simplify", [False, True], ids=["raw", "simplified"])
def test_replaced_expressions_are_linearized_afresh(do_simplify, monkeypatch):
    fn = corpus_function("eq3", s=3)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, do_simplify=do_simplify)
    grad = tuple(Binary("*", const(2.0), Call("sin", (g,))) for g in bundle.grad)
    changed = bundle.replace(grad=grad)
    lin = changed.linearized("gradient")
    assert lin is not bundle.linearized("gradient") and lin.roots == grad
    assert changed.linearized("gradient") is lin  # made once
    hess = changed.linearized("hessian")
    assert hess is not bundle.linearized("hessian") and hess.roots == bundle.hess_lower
    with monkeypatch.context() as m:  # derive_bundle's are the ones emit reads
        m.setattr(derivatives, "linearize", _refuse_linearize)
        before = _sources(bundle, vars_, program)
    fresh = DerivativeBundle(bundle.f, grad, bundle.hess_lower, do_simplify)
    got = _sources(changed, vars_, program)
    assert got == _sources(fresh, vars_, program) != before
    assert "sin(" in got[1][0][1]


def test_repr_of_a_bundle_is_the_same_from_run_to_run():
    _, program, vars_ = corpus_program(corpus_function("eq3", s=3))
    texts = [repr(derive_bundle(program, vars_)) for _ in range(2)]
    assert texts[0] == texts[1] and "0x" not in texts[0]
    assert texts[0].startswith("DerivativeBundle(f=")
