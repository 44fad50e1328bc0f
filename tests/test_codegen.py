import collections
import hashlib
import math
import random
import re
import subprocess

import numpy as np
import pytest

from acorns import codegen
from acorns.cast import (
    ACCUMULATOR_TERMS,
    ArrayRef,
    Binary,
    Call,
    Constant,
    SharedText,
    Unary,
    Var,
    const,
    is_plus_zero,
    to_source,
)
from acorns.codegen import (
    DEFAULT_SPLIT_TARGET,
    MIN_SPLIT_TARGET,
    MODE_ORDER,
    EmitConfig,
    Statement,
    emit,
    layout_slots,
    split,
)
from acorns.derivatives import VarIndexMap, derive_bundle, differentiate, simplify
from acorns.errors import AcornsError
from acorns.flatten import unroll
from acorns.interp import compile_exprs, eval_expr, evaluate
from acorns.parser import parse_source
from acorns.verify import CORPUS, CorpusFunction, corpus_function, corpus_program, sample_points

from cc_util import compile_and_run, compile_strict, run_drivers
from randgen import random_expr, random_loop_program


def _bundle(src, func, energy, var_names, do_simplify=True):
    program = unroll(parse_source(src, func, energy))
    vars_ = VarIndexMap.from_names(program, var_names)
    bundle = derive_bundle(program, vars_, do_simplify=do_simplify)
    return program, vars_, bundle


def _statement_lines(artifact):
    lines = []
    for _, text in artifact.sources:
        for ln in text.splitlines():
            ln = ln.strip()
            if ln.startswith("out[") and ln.endswith(";"):
                lines.append(ln)
    return lines


def _out_order(artifact):
    """The `out[k]` each statement line writes, in file order."""
    return [ln.split(" =")[0] for ln in _statement_lines(artifact)]


# --- config validation --------------------------------------------------------


def test_config_rejects_unknown_mode():
    with pytest.raises(AcornsError):
        EmitConfig(mode=frozenset({"jacobian"}))


def test_config_rejects_empty_mode():
    with pytest.raises(AcornsError):
        EmitConfig(mode=frozenset())


def test_config_rejects_tiny_split():
    with pytest.raises(AcornsError):
        EmitConfig(split_target_bytes=1024)


# --- emit shape ---------------------------------------------------------------


def test_emit_scalar_square():
    program, vars_, bundle = _bundle(
        "double f(double x){ double e = pow(x, 2); return 0; }", "f", "e", ["x"]
    )
    art = emit(bundle, vars_, EmitConfig(basename="sq", var_names=("x",)), program)
    assert len(art.sources) == 1
    assert art.sources[0][0] == "sq_part0.c"
    assert "void compute(const double* vals, int num_points, double* out);" in art.header
    assert "void compute_grad(const double* vals, int num_points, double* ders);" in art.header
    assert "void compute_hess(const double* vals, int num_points, double* hess);" in art.header
    body = art.sources[0][1]
    assert "const double x = vals[0];" in body
    assert art.n_statements == 3  # f, f', f''


def test_emit_modes_subset():
    program, vars_, bundle = _bundle(
        "double f(double x){ double e = pow(x, 2); return 0; }", "f", "e", ["x"]
    )
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"gradient"}), basename="g"), program)
    assert "compute_grad" in art.header
    assert "void compute(" not in art.header
    assert "compute_hess" not in art.header


def test_hessian_mirror_copy():
    src = "double f(const double x[2]){ double e = x[0] * x[0] * x[1] * x[1]; return 0; }"
    program, vars_, bundle = _bundle(src, "f", "e", ["x"])
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"hessian"}), basename="m"), program)
    body = art.sources[0][1]
    # n = 2: the chunk writes the lower entries out[0], out[2], out[3]; the
    # driver copies h[2] up to h[1] and writes no statement for it
    assert not any("= out[" in ln for ln in _statement_lines(art))
    assert [ln.split(" =")[0] for ln in _statement_lines(art)] == ["out[0]", "out[2]", "out[3]"]
    assert "for (int j = 0; j < i; ++j) h[j * 2 + i] = h[i * 2 + j];" in body


def test_header_declares_every_chunk():
    fn = corpus_function("eq3", s=6)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    cfg = EmitConfig(split_target_bytes=2**16, basename="eq3", var_names=("x",))
    art = emit(bundle, vars_, cfg, program)
    for _, text in art.sources:
        for ln in text.splitlines():
            if ln.startswith("void eq3_chunk_"):
                decl = ln.rstrip() + ";"
                assert decl.replace("\n", "") in art.header


def test_layout_independent_vars_first():
    fn = corpus_function("cross_entropy")
    _, program, vars_ = corpus_program(fn)
    layout = layout_slots(program, vars_)
    assert layout[:4] == ["a[0][0]", "a[0][1]", "a[1][0]", "a[1][1]"]
    assert layout[4:] == ["b[0][0]", "b[0][1]", "b[1][0]", "b[1][1]"]


def test_emit_deterministic():
    fn = corpus_function("eq3", s=4)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    cfg = EmitConfig(basename="d", var_names=("x",))
    a = emit(bundle, vars_, cfg, program)
    b = emit(bundle, vars_, cfg, program)
    assert a == b


# sha256 of every emitted file for fixed inputs: generated C must stay
# byte-stable across refactors of derivation and emission.  The tree layout
# of a simplified bundle is emitted from `bundle.replace(simplified=False)`.
GOLDEN_EMIT = {
    # (corpus name, s, simplify, split target, layout): {file: sha256}
    ("eq3", 5, False, 2**16, "tree"): {
        "golden.h": "09ab26712f5425525db9861b13bc8dcc721afa1c5edbe4bf556787e5eea75068",
        "golden_part0.c": "8a653d0ce12f4f18618c4dffd68e8643571b1e15a955d06212dc5189f8b510d3",
        "golden_part1.c": "3fe3930ff01fee902fd61059ffc8cfbb99285424945b0b953ee8c356a58d2847",
    },
    ("eq3", 5, True, DEFAULT_SPLIT_TARGET, "tree"): {
        "golden.h": "667372bf593b2b49b20635c949a870367dc9af348e65bf9be70b73d90f1ed0d0",
        "golden_part0.c": "088271a2ac91a141cb307c561ed99a03a8218243de7a4d38328ff0d362f5d02c",
    },
    ("cross_entropy", None, True, DEFAULT_SPLIT_TARGET, "tree"): {
        "golden.h": "1d0991d510033d73777d615d7088b61a1d0621da90d422f02b4c48ea4047912d",
        "golden_part0.c": "06acc21db65f6abbd63443771aaf3cc9c0386c97f6d8d0e589f8d84963a85d97",
    },
    ("grad_steps", 3, True, DEFAULT_SPLIT_TARGET, "ssa"): {
        "golden.h": "16bf24711b8335248b2353917a911660487589a5193aa827fb8cceb19cfd373b",
        "golden_part0.c": "517292d9e75de2f165eecc12871c4176e274aa748c4d547ddd32c2b6ad65ee67",
    },
    ("eq3", 5, True, DEFAULT_SPLIT_TARGET, "ssa"): {
        "golden.h": "667372bf593b2b49b20635c949a870367dc9af348e65bf9be70b73d90f1ed0d0",
        "golden_part0.c": "78d595b0d1083fec5f080d1614db4400937d973605145d403599f85d2bf82207",
    },
    ("cross_entropy", None, True, DEFAULT_SPLIT_TARGET, "ssa"): {
        "golden.h": "1d0991d510033d73777d615d7088b61a1d0621da90d422f02b4c48ea4047912d",
        "golden_part0.c": "b76dae4632748026b51e5b5fbdf279d1cddbc00a0606326247286049fd4b1cf5",
    },
    # a gradient cut into chunk functions, the later file reading part 0's
    # temporaries from the workspace
    ("long_sum", None, True, MIN_SPLIT_TARGET, "ssa"): {
        "golden.h": "f3086a23e645fb423dacd7b624ea0aa572afd72e29c04272c702f44bc28ab5ef",
        "golden_part0.c": "8057a4a44c0d045b1faa69688fe9711654d9770bba58b53e091cba5462bca2bd",
        "golden_part1.c": "1b6d47222190497a550e8242c2c780295084669d9d70f768bbf9812dab583886",
    },
    # one accumulator, in the function driver, and a Hessian cut into
    # chunk functions in one file
    ("barrier", 6, True, DEFAULT_SPLIT_TARGET, "ssa"): {
        "golden.h": "d87c02ec013e902fcdb209025415278c3aa368124cd554c8c71e9762577b89eb",
        "golden_part0.c": "7e46b8a0adde386bceb6a0bbbe1211f12a502faa3e3f7e28713b2514166f02ce",
    },
}


# the benchmark's grad_steps input shape at a small size: an accumulation
# loop whose every step subtracts a log term of each a[i][j]
_GRAD_STEPS_SRC = """\
double cross_entropy(const double **a, const double **b){{
    double loss = 0;
    for(int t = 0; t < {steps}; t++){{
        for(int i = 0; i < 4; i++){{
            for(int j = 0; j < 4; j++){{
                loss = loss - b[i][j] * log(a[i][j] + 0.001 * (t + 1));
            }}
        }}
    }}
    return loss;
}}
"""


def _golden_function(name, s):
    """(function, emitted modes): a corpus function, grad_steps with `s` steps,
    or the gradient of `_LONG_SUM_SRC`."""
    if name == "long_sum":
        return CorpusFunction(name, _LONG_SUM_SRC, name, "e", ("x",), {}), ("gradient",)
    if name == "grad_steps":
        fn = CorpusFunction(name, _GRAD_STEPS_SRC.format(steps=s), "cross_entropy", "loss",
                            ("a",), {}, s)
        return fn, ("function", "gradient")
    return corpus_function(name, s=s), MODE_ORDER


@pytest.mark.parametrize("name,s", [("cross_entropy", None), ("grad_steps", 3)])
def test_reverse_gradient_bitwise_on_sums(name, s):
    # a chain of sums: the reverse sweep adds the terms in the forward
    # passes' order, so the values agree bitwise up to the sign of zero
    # (`-(a + b)` where the forward passes build `0 - a - b`)
    fn, _ = _golden_function(name, s)
    _, program, vars_ = corpus_program(fn)
    reverse = derive_bundle(program, vars_, want_hessian=False)
    forward = [simplify(differentiate(reverse.f, v)) for v in vars_.labels]
    assert list(reverse.grad) != forward
    labels = [slot.label for slot in program.inputs]
    points = np.random.default_rng(500).uniform(0.01, 1.0, size=(500, len(labels)))
    got = evaluate(compile_exprs(reverse.grad, labels), points)
    want = evaluate(compile_exprs(forward, labels), points)
    assert np.isfinite(want).all()
    assert (got == want).all()


@pytest.mark.parametrize("case", list(GOLDEN_EMIT),
                         ids=["eq3_s5_raw_split64k", "eq3_s5_simplified", "cross_entropy",
                              "grad_steps_3", "eq3_s5_simplified_ssa", "cross_entropy_ssa",
                              "long_sum_gradient_split64k", "barrier_6_ssa"])
def test_emit_bytes_match_golden(case):
    name, s, do_simplify, split_target, layout = case
    fn, modes = _golden_function(name, s)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, do_simplify=do_simplify,
                           want_hessian="hessian" in modes)
    assert bundle.simplified == do_simplify
    if layout == "tree":
        bundle = bundle.replace(simplified=False)
    cfg = EmitConfig(mode=frozenset(modes), split_target_bytes=split_target, basename="golden",
                     simplified=do_simplify, source_name=f"{name}.c", var_names=fn.var_names)
    art = emit(bundle, vars_, cfg, program)
    files = [("golden.h", art.header), *art.sources]
    got = {f: hashlib.sha256(text.encode()).hexdigest() for f, text in files}
    assert got == GOLDEN_EMIT[case]


# --- printer ------------------------------------------------------------------

_REF_PRECEDENCE = {"==": 1, "!=": 1, "<": 2, "<=": 2, ">": 2, ">=": 2,
                   "+": 3, "-": 3, "*": 4, "/": 4}


def _reference_to_source(e):
    """The tree-expanding explicit-stack printer `to_source` replaced, kept
    as an oracle: it visits every node once per use.  It prints a negative
    literal under a unary minus as `--1`, so it is only given trees without
    negative literals."""
    out = []
    work = [("expr", e, 0, False)]
    while work:
        kind, *rest = work.pop()
        if kind == "text":
            out.append(rest[0])
            continue
        node, parent_prec, is_right = rest
        if isinstance(node, Constant):
            out.append(node.text)
        elif isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, ArrayRef):
            out.append(node.base)
            for ix in reversed(node.indices):
                work.append(("text", "]"))
                work.append(("expr", ix, 0, False))
                work.append(("text", "["))
        elif isinstance(node, Unary):
            need = parent_prec >= 5
            if need:
                work.append(("text", ")"))
            work.append(("expr", node.operand, 5, False))
            work.append(("text", "-"))
            if need:
                out.append("(")
        elif isinstance(node, Binary):
            prec = _REF_PRECEDENCE[node.op]
            need = prec < parent_prec or (prec == parent_prec and is_right)
            if need:
                work.append(("text", ")"))
            work.append(("expr", node.rhs, prec, True))
            work.append(("text", f" {node.op} "))
            work.append(("expr", node.lhs, prec, False))
            if need:
                out.append("(")
        else:
            work.append(("text", ")"))
            for i, a in enumerate(reversed(node.args)):
                work.append(("expr", a, 0, False))
                if i != len(node.args) - 1:
                    work.append(("text", ", "))
            out.append(node.name + "(")
    return "".join(out)


def test_to_source_matches_reference_printer():
    # random trees, plus derivatives of every fourth one: differentiation
    # shares primal subtrees, so those are DAGs with nodes of several uses
    # (unsimplified, as folding makes negative literals)
    rng = random.Random(2024)
    names = ["x", "y", "z"]
    exprs = [random_expr(rng, names, depth=rng.randint(1, 7)) for _ in range(2000)]
    exprs += [differentiate(e, v) for e in exprs[::4] for v in ("x", "y")]
    exprs += [ArrayRef("a", (Binary("+", Var("i"), const(1.0)), Var("j"))),
              Call("pow", (Unary("-", Var("x")), Binary("<", Var("x"), Var("y"))))]
    for e in exprs:
        assert to_source(e) == _reference_to_source(e)


def test_shared_text_matches_separate_calls():
    rng = random.Random(7)
    pool = [random_expr(rng, ["x", "y"], depth=4) for _ in range(30)]
    pool += [differentiate(e, "x") for e in pool[:10]]
    roots = [Binary(rng.choice("+-*/"), rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    roots += [pool[3], roots[5], Unary("-", roots[5]), pool[3]]  # a root under another, repeats
    shared = SharedText(roots)
    got = [to_source(r, shared) for r in roots]
    assert got == [to_source(r) for r in roots] == [_reference_to_source(r) for r in roots]
    assert shared.uses == {} and shared.text == {}


def test_shared_text_drops_text_after_last_use():
    s = Binary("*", Var("x"), Binary("+", Var("y"), Var("z")))
    first, second = Binary("+", s, Var("w")), Binary("-", Var("w"), s)
    shared = SharedText((first, second))
    assert to_source(first, shared) == "x * (y + z) + w"
    assert list(shared.text) == [id(s)]  # s still has a use left
    assert to_source(second, shared) == "w - x * (y + z)"
    assert shared.uses == {} and shared.text == {}


def test_negative_literal_under_unary_minus():
    minus_one = const(-1.0)
    assert minus_one.text == "-1"
    assert to_source(Unary("-", minus_one)) == "-(-1)"
    assert to_source(Binary("*", Var("x"), Unary("-", minus_one))) == "x * -(-1)"
    # elsewhere a negative literal prints as before
    assert to_source(Binary("-", Var("x"), minus_one)) == "x - -1"
    assert to_source(Binary("*", minus_one, Var("x"))) == "-1 * x"
    assert to_source(Call("sin", (minus_one,))) == "sin(-1)"
    assert to_source(Unary("-", Unary("-", Var("x")))) == "-(-x)"


# 0.0 / (1.0 - 2.0) folds to -0.0, so e is -inf at x = 2, not +inf (the
# integer 0 / (1 - 2) is 0, as in C)
_NEGATIVE_ZERO_SRC = "double f(double x){ double e = x / (0.0 / (1.0 - 2.0)); return 0; }"


def test_folded_negative_zero_keeps_its_sign():
    program, vars_, bundle = _bundle(_NEGATIVE_ZERO_SRC, "f", "e", ["x"])
    assert const(-0.0).text == "-0.0"
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"function"}), basename="nz"), program)
    assert _statement_lines(art) == ["out[0] = x / -0.0;"]
    assert eval_expr(bundle.f, {"x": 2.0}) == -math.inf


def test_folded_negative_zero_compiles_to_its_value(cc, tmp_path):
    program, vars_, bundle = _bundle(_NEGATIVE_ZERO_SRC, "f", "e", ["x"])
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"function"}), basename="nz"), program)
    got = compile_and_run(cc, art, str(tmp_path), "nz", "function", np.array([[2.0]]), 1)
    assert got[0, 0] == -math.inf


def test_deep_chains_render_without_recursion():
    n = 100_000
    x, y = Var("x"), Var("y")
    left, right, neg = x, x, x
    checkpoints = []
    for k in range(1, n + 1):
        left = Binary("+", left, y)
        right = Binary("-", y, right)
        neg = Unary("-", neg)
        if k % 10_000 == 0:
            checkpoints.append(left)
    assert to_source(right) == "y - (" * (n - 1) + "y - x" + ")" * (n - 1)
    assert to_source(neg) == "-(" * (n - 1) + "-x" + ")" * (n - 1)
    # each checkpoint is a root and a node of the chain above it
    shared = SharedText(checkpoints)
    for k, root in enumerate(checkpoints, 1):
        assert to_source(root, shared) == "x" + " + y" * (k * 10_000)
    assert shared.uses == {} and shared.text == {}
    # bound, each checkpoint's 10,000 additions are a running accumulator
    # that starts from the checkpoint below it
    bound = SharedText(checkpoints, "t")
    per = -(-10_001 // ACCUMULATOR_TERMS)  # lines per checkpoint
    rest = 10_001 - ACCUMULATOR_TERMS * (per - 1)  # terms on its last line
    decls = []
    for k, root in enumerate(checkpoints):
        name = f"t{k * per}"
        assert to_source(root, bound) == name
        below = f"t{(k - 1) * per}" if k else "x"
        decls.append(f"double {name} = {below}" + " + y" * (ACCUMULATOR_TERMS - 1) + ";")
        decls += [f"{name} = {name}" + " + y" * ACCUMULATOR_TERMS + ";"] * (per - 2)
        decls.append(f"{name} = {name}" + " + y" * rest + ";")
    assert bound.decls == decls
    assert bound.uses == {} and bound.text == {}
    # a chain whose every node is both operands of the next
    square = x
    for _ in range(n):
        square = Binary("*", square, square)
    bound = SharedText((square,), "t")
    assert to_source(square, bound) == f"t{n - 2} * t{n - 2}"
    assert bound.decls[0] == "const double t0 = x * x;"
    assert bound.decls[-1] == f"const double t{n - 2} = t{n - 3} * t{n - 3};"
    assert len(bound.decls) == n - 1 and bound.uses == {} and bound.text == {}


def test_bound_text_declares_each_shared_node_once():
    x, y = Var("x"), Var("y")
    s = Binary("+", x, y)  # three uses
    p = Binary("*", s, Call("sin", (s,)))  # used by both roots
    first = Binary("-", p, Unary("-", s))
    second = Binary("/", p, x)  # x has several uses, but atoms stay inline
    shared = SharedText((first, second), "t")
    assert to_source(first, shared) == "t1 - -t0"
    assert shared.decls == ["const double t0 = x + y;", "const double t1 = t0 * sin(t0);"]
    assert to_source(second, shared) == "t1 / x"
    assert len(shared.decls) == 2
    assert shared.uses == {} and shared.text == {}


def test_bound_text_writes_long_sums_as_accumulators():
    x, y = Var("x"), Var("y")

    def chain(first, term, nodes):
        for _ in range(nodes):
            first = Binary("+", first, term)
        return first

    short = chain(x, y, ACCUMULATOR_TERMS)
    shared = SharedText((short,), "t")
    assert to_source(short, shared) == "x" + " + y" * ACCUMULATOR_TERMS
    assert shared.decls == []
    # a long sum inside a term of another, under a product
    inner = chain(x, y, ACCUMULATOR_TERMS + 1)
    root = Binary("*", y, chain(Call("log", (inner,)), x, ACCUMULATOR_TERMS + 1))
    shared = SharedText((root,), "t")
    assert to_source(root, shared) == "y * t2"
    assert shared.decls == ["double t0 = x" + " + y" * (ACCUMULATOR_TERMS - 1) + ";",
                            "t0 = t0 + y + y;",
                            "double t2 = log(t0)" + " + x" * (ACCUMULATOR_TERMS - 1) + ";",
                            "t2 = t2 + x + x;"]
    assert shared.uses == {} and shared.text == {}


def _spine_sum(nodes, term):
    """x, then `nodes` sum nodes up a left spine; node k (from 1 at the
    bottom) subtracts `term(k)` when k is a multiple of 3, else adds it."""
    top = Var("x")
    for k in range(1, nodes + 1):
        top = Binary("-" if k % 3 == 0 else "+", top, term(k))
    return top


def _terms(lo, hi, name=lambda k: f"y{k}"):
    """The text that spine nodes lo..hi of `_spine_sum` add."""
    return "".join(f" {'-' if k % 3 == 0 else '+'} {name(k)}" for k in range(lo, hi + 1))


@pytest.mark.parametrize("nodes,ends", [(63, [31, 63]), (64, [31, 63, 64]), (65, [31, 63, 65]),
                                        (97, [31, 63, 95, 97])])
def test_bound_text_ends_accumulator_lines_every_32nd_spine_node(nodes, ends):
    # the first line holds x and the terms of nodes 1..31, each later line
    # the terms of the next 32 nodes, and the last line the rest
    top = _spine_sum(nodes, lambda k: Var(f"y{k}"))
    shared = SharedText((top,), "t")
    assert ACCUMULATOR_TERMS == 32
    assert to_source(top, shared) == "t0"
    assert shared.decls == ["double t0 = x" + _terms(1, 31) + ";"] + [
        "t0 = t0" + _terms(lo + 1, hi) + ";" for lo, hi in zip(ends, ends[1:])]
    assert shared.uses == {} and shared.text == {}


def test_bound_text_long_sum_read_by_two_roots():
    # a 70-node sum that two roots read, whose terms 40 and 70 are one
    # shared product: the product is a temporary declared between the
    # accumulator's lines, and both roots print the accumulator's name
    x, z = Var("x"), Var("z")
    s = Binary("*", x, Call("sin", (z,)))
    top = _spine_sum(70, lambda k: s if k in (40, 70) else Var(f"y{k}"))
    first, second = Binary("/", top, z), Binary("+", Call("log", (top,)), x)
    shared = SharedText((first, second), "t")

    def name(k):
        return "t1" if k in (40, 70) else f"y{k}"

    assert to_source(first, shared) == "t0 / z"
    assert shared.decls == ["double t0 = x" + _terms(1, 31) + ";",
                            "const double t1 = x * sin(z);",
                            "t0 = t0" + _terms(32, 63, name) + ";",
                            "t0 = t0" + _terms(64, 70, name) + ";"]
    assert to_source(second, shared) == "log(t0) + x"
    assert len(shared.decls) == 4
    assert shared.uses == {} and shared.text == {}


def test_emit_leaves_no_text_behind(monkeypatch):
    made = []

    class Recorded(SharedText):
        def __init__(self, roots, *temp):
            super().__init__(roots, *temp)
            made.append(self)

    monkeypatch.setattr(codegen, "SharedText", Recorded)
    fn = corpus_function("eq3", s=5)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, do_simplify=False)
    # either layout renders each mode over its own DAG: one SharedText per driver
    emit(bundle, vars_, EmitConfig(basename="t", var_names=fn.var_names), program)
    assert len(made) == 3
    assert all(m.uses == {} and m.text == {} for m in made)
    made.clear()
    emit(derive_bundle(program, vars_), vars_, EmitConfig(basename="t"), program)
    assert len(made) == 3
    assert all(m.uses == {} and m.text == {} for m in made)


# --- splitting ----------------------------------------------------------------


def _fake_statements(count, size):
    text = "out[0] = " + "x" * (size - 12) + ";"
    return [Statement("gradient", text, frozenset({"x"})) for _ in range(count)]


def test_split_respects_budget():
    cfg = EmitConfig(split_target_bytes=2**16)
    stmts = _fake_statements(100, 2**12)  # ~400 KiB total against 64 KiB files
    groups = split(stmts, cfg)
    assert len(groups) > 1
    assert [st for g in groups for st in g] == stmts
    budget = cfg.split_target_bytes - min(16384, cfg.split_target_bytes // 4)
    for g in groups:
        assert sum(len(st.text) + 16 for st in g) <= budget or len(g) == 1


def test_split_oversize_statement_gets_own_file():
    cfg = EmitConfig(split_target_bytes=2**16)
    small = _fake_statements(3, 100)
    big = _fake_statements(1, 2**17)
    groups = split(small + big + small, cfg)
    assert any(len(g) == 1 and g[0] is big[0] for g in groups)


def test_split_invariance_of_statement_sequence():
    fn = corpus_function("eq3", s=8)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, do_simplify=False)
    seqs = []
    for target in (2**16, 2**20, DEFAULT_SPLIT_TARGET):
        cfg = EmitConfig(mode=frozenset({"hessian"}), split_target_bytes=target,
                         basename="s", var_names=("x",))
        art = emit(bundle, vars_, cfg, program)
        seqs.append(_statement_lines(art))
    assert seqs[0] == seqs[1] == seqs[2]
    # the smallest target actually produced more files
    cfg_small = EmitConfig(mode=frozenset({"hessian"}), split_target_bytes=2**16,
                           basename="s", var_names=("x",))
    assert len(emit(bundle, vars_, cfg_small, program).sources) > 1


# --- parallel flag ------------------------------------------------------------


def test_parallel_adds_only_pragma_block():
    program, vars_, bundle = _bundle(
        "double f(double x){ double e = pow(x, 2); return 0; }", "f", "e", ["x"]
    )
    plain = emit(bundle, vars_, EmitConfig(basename="p"), program)
    par = emit(bundle, vars_, EmitConfig(basename="p", parallel=True), program)
    assert plain.header == par.header
    a = plain.sources[0][1].splitlines()
    b = par.sources[0][1].splitlines()
    extra = [ln for ln in b if ln not in ("#ifdef _OPENMP", "#pragma omp parallel for", "#endif")]
    assert extra == a
    assert b.count("#pragma omp parallel for") == 3


# --- compiled tier ------------------------------------------------------------


def test_strict_compile_clean(cc, tmp_path):
    fn = corpus_function("cross_entropy")
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    cfg = EmitConfig(basename="ce", var_names=("a",))
    art = emit(bundle, vars_, cfg, program)
    compile_strict(cc, art, str(tmp_path), "ce")


def test_compiled_matches_interpreter(cc, tmp_path):
    fn = corpus_function("eq3", s=4)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    cfg = EmitConfig(basename="eq3", var_names=("x",))
    art = emit(bundle, vars_, cfg, program)
    rng = np.random.default_rng(17)
    pts = sample_points(fn, program, 40, rng)
    layout = layout_slots(program, vars_)
    n = bundle.n

    got_f = compile_and_run(cc, art, str(tmp_path / "f"), "eq3", "function", pts, 1)
    got_g = compile_and_run(cc, art, str(tmp_path / "g"), "eq3", "gradient", pts, n)
    got_h = compile_and_run(cc, art, str(tmp_path / "h"), "eq3", "hessian", pts, n * n)

    tape_f = compile_exprs([bundle.f], layout)
    tape_g = compile_exprs(list(bundle.grad), layout)
    hess_full = [bundle.hess_entry(i, j) for i in range(n) for j in range(n)]
    tape_h = compile_exprs(hess_full, layout)
    ref_f = evaluate(tape_f, pts)
    ref_g = evaluate(tape_g, pts)
    ref_h = evaluate(tape_h, pts)

    np.testing.assert_allclose(got_f, ref_f, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(got_g, ref_g, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(got_h, ref_h, rtol=1e-12, atol=1e-14)
    # the mirrored upper triangle is exactly symmetric
    h = got_h.reshape(-1, n, n)
    assert (h == np.transpose(h, (0, 2, 1))).all()


# --- the Hessian driver: zero-fill, chunks, mirror -------------------------------


def _plus_zero(e):
    return isinstance(e, Constant) and e.value == 0 and math.copysign(1.0, e.value) > 0


@pytest.mark.parametrize("name,s", [(name, None) for name in CORPUS]
                         + [("springs", 4), ("barrier", 4)])
def test_compiled_hessian_is_full_and_symmetric(cc, tmp_path, name, s):
    # chunks write only the lower entries that are not +0: every other slot
    # of the poisoned buffer is the driver's zero-fill or its mirror copy
    fn = corpus_function(name, s=s)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    n = bundle.n
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"hessian"}), basename="k"), program)
    full = [bundle.hess_entry(i, j) for i in range(n) for j in range(n)]
    zero = np.array([_plus_zero(e) for e in full])
    points = sample_points(fn, program, 100, np.random.default_rng(14))
    want = evaluate(compile_exprs(full, layout_slots(program, vars_)), points)
    for opt in ("-O0", "-O2"):
        got = run_drivers(cc, art, str(tmp_path / opt), "k", points, n, (opt,))["hessian"]
        h = got.reshape(-1, n, n)
        assert h.tobytes() == np.ascontiguousarray(h.transpose(0, 2, 1)).tobytes(), opt
        assert got[:, zero].tobytes() == bytes(got[:, zero].nbytes), opt
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_hessian_of_one_variable_has_no_mirror_loop():
    program, vars_, bundle = _bundle(
        "double f(double x){ double e = pow(x, 2); return 0; }", "f", "e", ["x"]
    )
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"hessian"}), basename="k"), program)
    body = art.sources[0][1]
    assert _statement_lines(art) == ["out[0] = 2;"]
    assert "for (int i" not in body and "h[k] = 0" not in body


def test_negative_zero_lower_entry_is_written(cc, tmp_path):
    # only +0 is left to the zero-fill: a -0 entry keeps its statement and sign
    program, vars_, bundle = _bundle(
        "double f(const double x[2]){ double e = x[0] * x[1]; return 0; }", "f", "e", ["x"]
    )
    bundle = bundle.replace(hess_lower=(const(-0.0), bundle.hess_lower[1], const(0.0)))
    art = emit(bundle, vars_, EmitConfig(mode=frozenset({"hessian"}), basename="k"), program)
    assert _statement_lines(art) == ["out[0] = -0.0;", "out[2] = 1;"]
    assert "        for (int k = 0; k < 4; ++k) h[k] = 0;" in art.sources[0][1]
    got = run_drivers(cc, art, str(tmp_path), "k", np.ones((3, 2)), 2)["hessian"]
    assert got.tobytes() == np.tile([-0.0, 1.0, 1.0, 0.0], (3, 1)).tobytes()


# --- bound (SSA) layout against the tree layout ---------------------------------


def _ssa_and_tree(bundle, vars_, program, cfg):
    """Both layouts of one simplified bundle: the oracle is its tree layout."""
    assert bundle.simplified
    return (emit(bundle, vars_, cfg, program),
            emit(bundle.replace(simplified=False), vars_, cfg, program))


def _assert_kernels_match(cc, directory, ssa, tree, points, n, modes=MODE_ORDER):
    """Every driver of the two artifacts agrees bitwise at -O0 and at -O2."""
    for opt in ("-O0", "-O2"):
        got = run_drivers(cc, ssa, str(directory / f"ssa{opt}"), "k", points, n, (opt,))
        want = run_drivers(cc, tree, str(directory / f"tree{opt}"), "k", points, n, (opt,))
        assert got.keys() == want.keys() == set(modes)
        for mode in want:
            assert got[mode].tobytes() == want[mode].tobytes(), (opt, mode)


@pytest.mark.parametrize("name,s", [("eq1", None), ("eq2", None), ("eq3", 5), ("eq3", 10),
                                    ("eq3", 25), ("cross_entropy", None)])
def test_ssa_kernels_match_tree_kernels(cc, tmp_path, name, s):
    fn = corpus_function(name, s=s)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    ssa, tree = _ssa_and_tree(bundle, vars_, program, EmitConfig(basename="k"))
    if name == "eq3":  # its entries share the factors of the product
        assert "    const double t0 = " in ssa.sources[0][1]
    assert ssa.n_statements == tree.n_statements == len(_statement_lines(ssa))
    points = sample_points(fn, program, 300, np.random.default_rng(6))
    _assert_kernels_match(cc, tmp_path, ssa, tree, points, bundle.n)


@pytest.mark.parametrize("name,s", [("eq3", 25), ("cross_entropy", None), ("grad_steps", 3),
                                    ("grad_steps", 13), ("springs", 5), ("barrier", 6)])
def test_ssa_kernels_match_tree_kernels_reverse_gradient(cc, tmp_path, name, s):
    # a gradient-only bundle comes from the reverse sweep, whose entries
    # share adjoint nodes
    fn, _ = _golden_function(name, s)
    modes = ("function", "gradient")
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, want_hessian=False)
    cfg = EmitConfig(mode=frozenset(modes), basename="k")
    ssa, tree = _ssa_and_tree(bundle, vars_, program, cfg)
    if name == "eq3":  # the adjoints of the product's prefixes are shared
        assert "    const double t0 = " in ssa.sources[0][1]
    if name == "grad_steps":  # f is 0 less 16 s terms: a running accumulator
        lines = ssa.sources[0][1].splitlines()
        assert lines.count("    out[0] = t0;") == 1
        assert (sum(ln.startswith("    t0 = t0 - ") for ln in lines)
                == -(-(16 * s + 1) // ACCUMULATOR_TERMS) - 1)
    if name in ("springs", "barrier"):  # so are these energies, of 40 and 50 terms
        assert "\n    double t" in ssa.sources[0][1]
    points = sample_points(fn, program, 300, np.random.default_rng(7))
    _assert_kernels_match(cc, tmp_path, ssa, tree, points, bundle.n, modes)


# a long sum that the function reads three times and every gradient entry
# reads, so each driver binds it as one running accumulator
_LONG_SUM_SRC = """\
double long_sum(const double *x) {
    double e = 0;
    for (int i = 0; i < 280; i++) {
        e = e - x[i] * log(x[i] + 1.5);
    }
    e = e * log(e * e + 1);
    return 0;
}
"""


def test_long_sum_accumulator_kernels(cc, tmp_path):
    program = unroll(parse_source(_LONG_SUM_SRC, "long_sum", "e"))
    vars_ = VarIndexMap.from_names(program, ["x"])
    bundle = derive_bundle(program, vars_, want_hessian=False)
    points = np.random.default_rng(9).uniform(0.1, 2.0, size=(100, 280))
    # the function against its tree layout (the gradient's tree layout
    # expands the sum into each of its 280 entries)
    ssa, tree = _ssa_and_tree(bundle, vars_, program,
                              EmitConfig(mode=frozenset({"function"}), basename="k"))
    assert "    double t0 = 0 - x_0 * log(x_0 + 1.5) - " in ssa.sources[0][1]
    assert "    out[0] = t0 * log(t0 * t0 + 1);" in ssa.sources[0][1]
    _assert_kernels_match(cc, tmp_path / "f", ssa, tree, points, bundle.n, ("function",))
    # the gradient at the smallest split against one file: the accumulator
    # is computed once, in part 0, and a later file declares no temporary
    # but reads what it needs of part 0's from the workspace
    modes = frozenset({"gradient"})
    small, whole = (emit(bundle, vars_, EmitConfig(mode=modes, split_target_bytes=target,
                                                   basename="k"), program)
                    for target in (MIN_SPLIT_TARGET, DEFAULT_SPLIT_TARGET))
    assert _out_order(small) == _out_order(whole)
    lines = [text.splitlines() for _, text in small.sources]
    assert len(lines) >= 2
    assert sum(" = 0 - x_0 * " in ln for part in lines for ln in part) == 1
    assert sum(ln.startswith("    double t") for ln in lines[0]) == 1
    assert not any(ln.startswith(("    double t", "    const double t"))
                   for part in lines[1:] for ln in part)
    assert all("w[" in text for _, text in small.sources[1:])
    for opt in ("-O0", "-O2"):
        got = run_drivers(cc, small, str(tmp_path / f"small{opt}"), "k", points, 280, (opt,))
        want = run_drivers(cc, whole, str(tmp_path / f"whole{opt}"), "k", points, 280, (opt,))
        assert got["gradient"].tobytes() == want["gradient"].tobytes(), opt


def test_ssa_kernels_match_tree_kernels_random(cc, tmp_path):
    # 30 programs whose tree layout is at most 256 KB: gcc -O0 takes about
    # 25 s on the 1.3 MB tree layout of one program of this seed
    rng = random.Random(6006)
    nprng = np.random.default_rng(6006)
    checked = bound = 0
    while checked < 30:
        src, func, energy = random_loop_program(rng)
        program = unroll(parse_source(src, func, energy))
        params = {slot.param for slot in program.inputs}
        vars_ = VarIndexMap.from_names(program, [p for p in ("u", "a") if p in params])
        bundle = derive_bundle(program, vars_)
        ssa, tree = _ssa_and_tree(bundle, vars_, program, EmitConfig(basename="k"))
        if sum(len(text) for _, text in tree.sources) > 2**18:
            continue
        checked += 1
        if ssa == tree:
            continue  # nothing shared: the same source, so the same kernels
        bound += 1
        points = nprng.uniform(0.5, 2.0, size=(50, len(program.inputs)))
        _assert_kernels_match(cc, tmp_path / str(checked), ssa, tree, points, bundle.n)
    assert bound >= 15  # 20 with this seed


def test_ssa_strict_compile_clean(cc, tmp_path):
    fn = corpus_function("eq3", s=10)
    _, program, vars_ = corpus_program(fn)
    art = emit(derive_bundle(program, vars_), vars_, EmitConfig(basename="eq3"), program)
    assert "    const double t0 = " in art.sources[0][1]
    compile_strict(cc, art, str(tmp_path), "eq3")


# grid sizes at which these energies are running accumulators in bound form
_ACCUMULATED = {"springs": 5, "barrier": 6}


@pytest.mark.parametrize("name", list(CORPUS))
@pytest.mark.parametrize("layout", ["ssa", "tree"])
def test_corpus_strict_compile_clean(cc, tmp_path, layout, name):
    # an unused local would fail -Wall -Wextra -Werror
    fn = corpus_function(name, s=_ACCUMULATED.get(name) if layout == "ssa" else None)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    if layout == "tree":
        bundle = bundle.replace(simplified=False)
    art = emit(bundle, vars_, EmitConfig(basename="k", var_names=fn.var_names), program)
    if name in _ACCUMULATED and layout == "ssa":
        assert "\n    double t" in art.sources[0][1]
    _assert_exact_locals(art, program, vars_)
    compile_strict(cc, art, str(tmp_path), "k")


def test_temporaries_avoid_parameter_names(cc, tmp_path):
    # a parameter named t0 moves the temporaries to t_0, t_1, ..., and its
    # elements' locals to t0__0, t0__1, ...
    src = ("double f(const double *t0) {\n    double e = 1;\n"
           "    for (int i = 0; i < 3; i++) {\n        e = e * (4 * t0[i] * (1 - t0[i]));\n"
           "    }\n    return 0;\n}\n")
    program, vars_, bundle = _bundle(src, "f", "e", ["t0"])
    ssa, tree = _ssa_and_tree(bundle, vars_, program, EmitConfig(basename="k"))
    body = "".join(text for _, text in ssa.sources)
    assert "const double t0__0 = vals[0], t0__1 = vals[1], t0__2 = vals[2];" in body
    assert "const double t_0 = " in body
    assert "const double t0 = " not in body
    points = np.random.default_rng(3).uniform(0.05, 0.95, size=(50, 3))
    _assert_kernels_match(cc, tmp_path, ssa, tree, points, bundle.n)


# --- one scalar local per input slot a chunk reads ---------------------------------


def _chunks(artifact):
    """Each chunk function's body lines, over every file."""
    return [body.splitlines() for _, text in artifact.sources
            for body in re.findall(r"_chunk_\d+\(const double\* vals, double\* out(?:, double\* w)?\)"
                                   r"\n\{\n(.*?)\n\}\n", text, re.S)]


def _assert_exact_locals(artifact, program, vars_):
    """Each chunk declares, in one line, a local loaded from its slot of
    `vals` for exactly the input slots its other lines read."""
    layout = layout_slots(program, vars_)
    _, names = codegen._c_names(program)
    local = {names[label]: i for i, label in enumerate(layout)}
    for body in _chunks(artifact):
        loads = [ln for ln in body if "= vals[" in ln]
        declared = [(name, int(k)) for name, k in re.findall(r"(\w+) = vals\[(\d+)\]", "".join(loads))]
        read = set(re.findall(r"\w+", "\n".join(ln for ln in body if ln not in loads))) & local.keys()
        assert len(loads) <= 1 and [name for name, _ in declared] == sorted(read, key=local.get)
        assert all(local[name] == k for name, k in declared)


def _assert_matches_tape(cc, directory, artifact, bundle, program, vars_, points):
    """Every driver of `artifact` agrees with the tape at rtol 1e-12."""
    n = bundle.n
    layout = layout_slots(program, vars_)
    exprs = {"function": [bundle.f], "gradient": list(bundle.grad),
             "hessian": [bundle.hess_entry(i, j) for i in range(n) for j in range(n)]}
    got = run_drivers(cc, artifact, str(directory), "k", points, n)
    assert got.keys() == set(MODE_ORDER)
    for mode, values in got.items():
        want = evaluate(compile_exprs(exprs[mode], layout), points)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-14, err_msg=mode)


# (source, differentiated parameters, a local that must be declared, one
# that must not): the element locals clash with nothing, in either layout
_LOCALS_CASES = {
    "gap": ("double f(const double x[3]) {\n    double e = x[0] * x[2] + sin(x[2]);\n"
            "    return 0;\n}\n", ["x"], "const double x_0 = vals[0], x_2 = vals[2];", "x_1 ="),
    "scalar_x_1": ("double f(const double x[2], double x_1) {\n"
                   "    double e = x[0] * x[1] * x_1 + x[1] * x_1;\n    return 0;\n}\n",
                   ["x", "x_1"], "x__0 = vals[0], x__1 = vals[1], x_1 = vals[2];", "x_0 ="),
    "array_t_scalar_t0": ("double f(const double t[3], double t0) {\n    double e = t0;\n"
                          "    for (int i = 0; i < 3; i++) {\n"
                          "        e = e * (4 * t[i] * (1 - t[i]));\n    }\n"
                          "    return 0;\n}\n", ["t", "t0"], "const double t_0 = ", "t_0 = vals"),
    "two_dims": ("double f(const double a[2][3], const double b[2]) {\n    double e = 0;\n"
                 "    for (int i = 0; i < 2; i++) {\n        for (int j = 0; j < 3; j++) {\n"
                 "            e = e + b[i] * a[i][j] * a[1 - i][2 - j];\n        }\n    }\n"
                 "    return 0;\n}\n", ["a"], "a_1_2 = vals[5]", "a[1][2]"),
}


@pytest.mark.parametrize("case", list(_LOCALS_CASES))
@pytest.mark.parametrize("layout", ["ssa", "tree"])
def test_element_locals(cc, tmp_path, case, layout):
    src, var_names, present, absent = _LOCALS_CASES[case]
    program, vars_, bundle = _bundle(src, "f", "e", var_names)
    if layout == "tree":
        bundle = bundle.replace(simplified=False)
    art = emit(bundle, vars_, EmitConfig(basename="k"), program)
    body = "".join(text for _, text in art.sources)
    if layout == "ssa" or "t_0" not in present:
        assert present in body
    assert absent not in body
    _assert_exact_locals(art, program, vars_)
    compile_strict(cc, art, str(tmp_path / "strict"), "k")
    points = np.random.default_rng(20).uniform(0.1, 0.9, size=(40, len(program.inputs)))
    _assert_matches_tape(cc, tmp_path / "run", art, bundle, program, vars_, points)


def test_temporaries_and_elements_take_one_more_underscore_together():
    # a scalar t0 moves the temporaries to t_K, and so the elements of t,
    # which would be t_K too, to t__K
    program = unroll(parse_source(_LOCALS_CASES["array_t_scalar_t0"][0], "f", "e"))
    prefix, names = codegen._c_names(program)
    assert prefix == "t_"
    assert names == {"t[0]": "t__0", "t[1]": "t__1", "t[2]": "t__2", "t0": "t0"}
    # an array named like a <math.h> macro's stem: M_PI[2] is not M_PI_2
    src = "double f(const double M_PI[3]) {\n    double e = M_PI[2];\n    return 0;\n}\n"
    prefix, names = codegen._c_names(unroll(parse_source(src, "f", "e")))
    assert prefix == "t_" and names["M_PI[2]"] == "M_PI__2"
    # a 1-D x_1 beside a 2-D x: x[1][0] and x_1[0] would both be x_1_0
    src = ("double f(const double x[2][2], const double x_1[1]) {\n"
           "    double e = x[1][0] * x_1[0];\n    return 0;\n}\n")
    prefix, names = codegen._c_names(unroll(parse_source(src, "f", "e")))
    assert names["x[1][0]"] == "x__1__0" and names["x_1[0]"] == "x_1__0"
    assert len(set(names.values())) == len(names)


def _ssa_split_artifacts(name, s):
    fn = corpus_function(name, s=s)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    artifacts = {}
    for target in (2**16, 2**20, DEFAULT_SPLIT_TARGET):
        cfg = EmitConfig(mode=frozenset({"hessian"}), split_target_bytes=target,
                         basename="s50", var_names=("x",))
        artifacts[target] = emit(bundle, vars_, cfg, program)
    return fn, program, bundle, artifacts


@pytest.mark.parametrize("name,s", [("eq3", 50), ("springs", 6), ("barrier", 6)])
def test_ssa_split_invariance(cc, tmp_path, name, s):
    fn, program, bundle, artifacts = _ssa_split_artifacts(name, s)
    orders = [_out_order(a) for a in artifacts.values()]
    assert orders[0] == orders[1] == orders[2]
    count = sum(not is_plus_zero(e) for e in bundle.hess_lower)
    assert all(a.n_statements == len(orders[0]) == count for a in artifacts.values())
    small = artifacts[2**16]
    assert len(small.sources) >= 2
    # each part declares every temporary it reads
    for _, text in small.sources:
        declared = set(re.findall(r"^    (?:const )?double (t\d+) = ", text, re.M))
        assert set(re.findall(r"\bt\d+\b", text)) == declared
    # -O0: gcc -O2 takes about 40 s on eq3's 282 KB single-file layout
    points = sample_points(fn, program, 100, np.random.default_rng(50))
    results = [run_drivers(cc, art, str(tmp_path / str(target)), "s50", points, bundle.n,
                           ("-O0",))["hessian"]
               for target, art in artifacts.items()]
    assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()


# --- bounded chunk functions and the per-point workspace ----------------------------


def _called_lines(artifact, mode):
    """`mode`'s chunk functions in its driver's call order, as (chunk, file,
    line) for each line after the chunk's loads from `vals`."""
    texts = {int(cid): (fi, body.splitlines())
             for fi, (_, text) in enumerate(artifact.sources)
             for cid, body in re.findall(r"^void k_chunk_(\d+)\(const double\* vals, double\* out"
                                         r"(?:, double\* w)?\)\n\{\n(.*?)\n\}\n", text, re.M | re.S)}
    driver = re.search(rf"^void {codegen.DRIVER_NAME[mode]}\(.*?^\}}$", artifact.sources[0][1],
                       re.M | re.S).group(0)
    return [(cid, texts[cid][0], ln[4:]) for cid in map(int, re.findall(r"k_chunk_(\d+)\(", driver))
            for ln in texts[cid][1] if ln and "= vals[" not in ln and ln != "    (void) vals;"]


def _workspace_size(artifact, mode):
    driver = re.search(rf"^void {codegen.DRIVER_NAME[mode]}\(.*?^\}}$", artifact.sources[0][1],
                       re.M | re.S).group(0)
    found = re.findall(r"^        double w\[(\d+)\];$", driver, re.M)
    return int(found[0]) if found else 0


@pytest.mark.parametrize("name,s,split_target", [
    ("eq3", 50, 2**16), ("eq3", 20, DEFAULT_SPLIT_TARGET), ("barrier", 6, DEFAULT_SPLIT_TARGET),
    ("springs", 6, 2**16), ("long_sum", None, 2**16)])
def test_bound_chunks_read_crossing_temporaries_from_the_workspace(monkeypatch, name, s,
                                                                     split_target):
    # the bound output, each slot read as the temporary last stored in it,
    # is line for line the output of one function per driver
    fn, modes = _golden_function(name, s)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, want_hessian="hessian" in modes)
    cfg = EmitConfig(mode=frozenset(modes), split_target_bytes=split_target, basename="k")
    bound = emit(bundle, vars_, cfg, program)
    monkeypatch.setattr(codegen, "CHUNK_TARGET_BYTES", 2**40)
    whole = emit(bundle, vars_, cfg.replace(split_target_bytes=DEFAULT_SPLIT_TARGET), program)
    split_modes = 0
    for mode in modes:
        got, want = _called_lines(bound, mode), _called_lines(whole, mode)
        assert len(got) == len(want) and len({cid for cid, _, _ in want}) == 1
        held = {}  # slot -> the temporary stored in it last
        home = {}  # a temporary -> the chunk that computes it
        sizes = collections.Counter()  # chunk -> the `Statement.size` of its lines
        outs = collections.Counter()  # chunk -> its statements
        readers = collections.defaultdict(set)  # a slot's temporary -> the chunks that read it
        span = {}  # a slot's temporary -> its first and last line
        for at, ((cid, fi, line), (_, _, orig)) in enumerate(zip(got, want)):
            sizes[cid] += len(orig) + 16
            outs[cid] += orig.startswith("out[")

            def read(m):
                t = held[m.group(1)]
                readers[t].add(cid)
                span[t] = (span[t][0], at)
                return t

            target = re.match(r"(?:const double |double )?(t\d+) = ", orig)
            store = re.match(r"w\[(\d+)\] = (.*)", line)
            if store:
                rhs = re.sub(r"w\[(\d+)\]", read, store.group(2))
                t = held[store.group(1)] = target.group(1)
                span.setdefault(t, (at, at))
                line = f"{orig[:target.start(1)]}{t} = {rhs}"
            else:
                line = re.sub(r"w\[(\d+)\]", read, line)
            assert line == orig
            if target:
                home.setdefault(target.group(1), cid)
        # each function holds at most the bound, or one oversize statement
        assert all(size <= codegen.CHUNK_TARGET_BYTES or outs[cid] == 1
                   for cid, size in sizes.items())
        split_modes += len(sizes) > len({fi for _, fi, _ in got})
        # a temporary stays a local unless a later function reads it (and,
        # line for line, no file computes one that an earlier file computed)
        assert all(readers[t] - {home[t]} for t in span)
        # K slots: as many as temporaries live at one line, which is at
        # least as many as live across one boundary between functions
        live = [sum(first <= at <= last for first, last in span.values())
                for at in range(len(got))]
        order = list(dict.fromkeys(cid for cid, _, _ in got))
        spans = [(order.index(home[t]), max(map(order.index, readers[t]))) for t in span]
        across = [sum(a <= b < z for a, z in spans) for b in range(len(order) - 1)]
        size = _workspace_size(bound, mode)
        assert size == max(live, default=0) >= max(across, default=0)
        if (name, s, mode) == ("eq3", 50, "hessian"):
            assert size == max(across) > 0
    assert split_modes >= 1  # the bound closed some function inside a file


def test_workspace_kernels_match_one_function_kernels(cc, tmp_path, monkeypatch):
    # random programs cut at a tiny bound, so that slots are reused often
    rng = random.Random(3131)
    nprng = np.random.default_rng(3131)
    checked = used = 0
    while checked < 20:
        src, func, energy = random_loop_program(rng)
        program = unroll(parse_source(src, func, energy))
        params = {slot.param for slot in program.inputs}
        vars_ = VarIndexMap.from_names(program, [p for p in ("u", "a") if p in params])
        bundle = derive_bundle(program, vars_)
        cfg = EmitConfig(basename="k")
        whole = emit(bundle, vars_, cfg, program)
        if sum(len(text) for _, text in whole.sources) > 2**16:
            continue
        checked += 1
        monkeypatch.setattr(codegen, "CHUNK_TARGET_BYTES", 120)
        cut = emit(bundle, vars_, cfg, program)
        monkeypatch.undo()
        if "double* w" not in cut.header:
            continue
        used += 1
        points = nprng.uniform(0.5, 2.0, size=(50, len(program.inputs)))
        _assert_kernels_match(cc, tmp_path / str(checked), cut, whole, points, bundle.n)
        compile_strict(cc, cut, str(tmp_path / f"strict{checked}"), "k")
    assert used >= 10  # 10 of 20 with this seed


def test_workspace_avoids_an_input_named_w(cc, tmp_path, monkeypatch):
    src = ("double f(const double *x, double w) {\n    double e = w;\n"
           "    for (int i = 0; i < 6; i++) {\n        e = e * (4 * x[i] * (1 - x[i]));\n"
           "    }\n    return 0;\n}\n")
    program, vars_, bundle = _bundle(src, "f", "e", ["x", "w"])
    whole = emit(bundle, vars_, EmitConfig(basename="k"), program)
    monkeypatch.setattr(codegen, "CHUNK_TARGET_BYTES", 300)
    cut = emit(bundle, vars_, EmitConfig(basename="k"), program)
    assert "double* w_);" in cut.header and "double* w)" not in cut.header
    compile_strict(cc, cut, str(tmp_path / "strict"), "k")
    points = np.random.default_rng(4).uniform(0.05, 0.95, size=(40, 7))
    _assert_kernels_match(cc, tmp_path, cut, whole, points, bundle.n)


def test_parallel_workspace_kernels_match_serial(cc, tmp_path, monkeypatch):
    # under OpenMP each iteration of the point loop declares its own workspace
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run([cc, "-fopenmp", str(probe), "-o", str(tmp_path / "probe")],
                      capture_output=True).returncode:
        pytest.skip(f"{cc} cannot compile with -fopenmp")
    fn = corpus_function("eq3", s=20)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    n = bundle.n
    serial = emit(bundle, vars_, EmitConfig(basename="k"), program)
    parallel = emit(bundle, vars_, EmitConfig(basename="k", parallel=True), program)
    assert "        double w[" in parallel.sources[0][1]
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    points = sample_points(fn, program, 300, np.random.default_rng(31))
    for mode, stride in (("function", 1), ("gradient", n), ("hessian", n * n)):
        got = compile_and_run(cc, parallel, str(tmp_path / f"parallel_{mode}"), "k", mode, points,
                              stride, ("-fopenmp",))
        want = compile_and_run(cc, serial, str(tmp_path / f"serial_{mode}"), "k", mode, points,
                               stride)
        assert got.tobytes() == want.tobytes(), mode
