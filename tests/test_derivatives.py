import math
import random

import numpy as np
import pytest

from acorns import derivatives
from acorns.cast import (ONE, ZERO, Binary, Call, Constant, Unary, Var, const, count_nodes,
                         post_order, to_source)
from acorns.codegen import EmitConfig, emit
from acorns.derivatives import (
    VarIndexMap,
    derive_bundle,
    differentiate,
    gradient,
    hessian,
    simplify,
    substitute,
)
from acorns.errors import ExpressionExplosion
from acorns.flatten import unroll
from acorns.interp import compile_exprs, eval_expr, evaluate
from acorns.parser import parse_expr, parse_source
from acorns.verify import (CORPUS, CROSS_ENTROPY_SRC, CorpusFunction, corpus_function,
                           corpus_program, fd_gradient, verify)

from randgen import random_expr, random_loop_program


def _program(src, func="f", energy="e"):
    return unroll(parse_source(src, func, energy))


# --- substitute --------------------------------------------------------------


def test_substitute_identity():
    p = _program("double f(double x){ double e = x; return 0; }")
    assert substitute(p) == Var("x")


def test_substitute_shared_chain():
    p = _program("double f(double x){ double t = x * x; double e = t + t; return 0; }")
    e = substitute(p)
    xx = Binary("*", Var("x"), Var("x"))
    assert e == Binary("+", xx, xx)
    assert count_nodes(e) == 7


def test_count_nodes_memo_is_shared():
    p = _program("double f(double x){ double t = x * x; double e = t + t; return 0; }")
    e = substitute(p)
    counts = {}
    assert count_nodes(e.lhs, counts) == 3
    assert count_nodes(e, counts) == 7
    assert count_nodes(e, counts) == count_nodes(e) == 7
    assert counts[id(e.lhs)] == (3, e.lhs)  # the shared t, counted once


# eq3, and an input whose largest entry in both engines is a Hessian entry
_CAP_INPUTS = {
    "eq3_s4": corpus_function("eq3", s=4),
    "sin_of_product": CorpusFunction(
        "sin_of_product", "double f(double x, double y){ double e = sin(x * y); return 0; }",
        "f", "e", ("x", "y"), {}),
}


@pytest.mark.parametrize("do_simplify", [False, True])
@pytest.mark.parametrize("name", list(_CAP_INPUTS))
def test_bundle_cap_trips_at_the_largest_entry(name, do_simplify):
    _, program, vars_ = corpus_program(_CAP_INPUTS[name])
    bundle = derive_bundle(program, vars_, do_simplify=do_simplify)
    largest = max(count_nodes(e) for e in (bundle.f, *bundle.grad, *bundle.hess_lower))
    if name == "sin_of_product":
        assert max(count_nodes(e) for e in (bundle.f, *bundle.grad)) < largest
    derive_bundle(program, vars_, do_simplify=do_simplify, cap=largest)
    with pytest.raises(ExpressionExplosion) as exc:
        derive_bundle(program, vars_, do_simplify=do_simplify, cap=largest - 1)
    assert exc.value.count == largest


def test_substitute_cross_entropy_shape():
    ir = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    e = substitute(unroll(ir))
    # left-nested chain of four subtractions from the literal 0
    text = to_source(e)
    assert text.count("log") == 4
    assert text.startswith("0 - ")
    for i in (0, 1):
        for j in (0, 1):
            assert f"b[{i}][{j}] * log(a[{i}][{j}] + 0.00001)" in text


def test_substitute_node_cap():
    # doubling chain: tree-expanded size grows exponentially
    src = ["double f(double x){ double t0 = x + x;"]
    for k in range(40):
        src.append(f"double t{k + 1} = t{k} + t{k};")
    src.append("double e = t40; return 0; }")
    p = _program("\n".join(src))
    with pytest.raises(ExpressionExplosion):
        substitute(p, cap=10**6)


def _fused_walk_cases():
    for name in CORPUS:
        for s in (None, 3):
            fn = corpus_function(name, s=s)
            if s is None or fn.s is not None:
                yield f"{name} s={fn.s}", corpus_program(fn)[1]
    rng = random.Random(1616)
    for k in range(50):
        yield f"random {k}", _program(*random_loop_program(rng))


def test_simple_substitute_is_simplify_of_substitute():
    # one walk that builds the simplified f equals the two walks it replaces,
    # in structure and in what it shares, which the bound form prints
    for case, program in _fused_walk_cases():
        f = substitute(program, simple=True)
        want = simplify(substitute(program))
        assert f == want, case
        assert _dag_nodes((f,)) == _dag_nodes((want,)), case
        assert derive_bundle(program, VarIndexMap(()), want_gradient=False,
                             want_hessian=False).f == want, case


_TIMES_ONE = ("double f(double x){ double e = x; "
              "for (int i = 0; i < 40; i++) { e = e * 1; } return 0; }")


@pytest.mark.parametrize("do_simplify", [False, True])
def test_f_cap_counts_the_plain_tree(do_simplify):
    # x * 1 * ... * 1 simplifies to x, but the cap counts the 81 nodes of
    # the plain expression under both engines
    program = _program(_TIMES_ONE)
    assert count_nodes(substitute(program)) == 81
    assert substitute(program, simple=True) == Var("x")
    vars_ = VarIndexMap.from_names(program, ["x"])
    with pytest.raises(ExpressionExplosion) as exc:
        derive_bundle(program, vars_, do_simplify=do_simplify, cap=50)
    assert (exc.value.count, exc.value.cap) == (81, 50)
    substitute(program, cap=81, simple=do_simplify)


# --- differentiate -----------------------------------------------------------


def test_power_rule():
    d = differentiate(parse_expr("pow(x, 2)"), "x")
    assert eval_expr(d, {"x": 3.0}) == 6.0


def test_trig_derivative_at_zero():
    # sin(x) + cos(x) + x^2 at x = 0
    e = parse_expr("sin(x) + cos(x) + x * x")
    d = differentiate(e, "x")
    assert eval_expr(d, {"x": 0.0}) == 1.0


def test_long_poly_derivative_at_one():
    fn = corpus_function("eq1")
    _, program, vars_ = corpus_program(fn)
    f = substitute(program)
    d = differentiate(f, "x")
    got = eval_expr(d, {"x": 1.0})
    assert got == pytest.approx(164.0 / 7.0, rel=1e-12)
    # independent FD oracle
    point = np.array([1.0])
    fd = fd_gradient(program, vars_, point)
    assert got == pytest.approx(fd[0], rel=1e-7)


@pytest.mark.parametrize(
    "src,var,x,expected",
    [
        ("log(x)", "x", 2.0, 0.5),
        ("exp(x)", "x", 1.0, math.e),
        ("tan(x)", "x", 0.5, 1.0 / math.cos(0.5) ** 2),
        ("sqrt(x)", "x", 4.0, 0.25),
        ("x / (x + 1)", "x", 1.0, 0.25),
        ("-x * x", "x", 3.0, -6.0),
    ],
)
def test_rule_table(src, var, x, expected):
    d = differentiate(parse_expr(src), var)
    assert eval_expr(d, {var: x}) == pytest.approx(expected, rel=1e-12)


def test_pow_general_exponent():
    d = differentiate(parse_expr("pow(x, y)"), "x")
    # d/dx x^y = y x^(y-1)
    assert eval_expr(d, {"x": 2.0, "y": 3.0}) == pytest.approx(12.0, rel=1e-12)
    dy = differentiate(parse_expr("pow(x, y)"), "y")
    assert eval_expr(dy, {"x": 2.0, "y": 3.0}) == pytest.approx(8.0 * math.log(2.0), rel=1e-12)


def test_linearity_structure():
    a = parse_expr("x * x")
    b = parse_expr("sin(x)")
    d = differentiate(Binary("+", a, b), "x")
    assert isinstance(d, Binary) and d.op == "+"
    assert d.lhs == differentiate(a, "x")
    assert d.rhs == differentiate(b, "x")


# --- gradient / hessian ------------------------------------------------------


def test_gradient_eq3_s1_at_zero():
    fn = corpus_function("eq3", s=1)
    _, program, vars_ = corpus_program(fn)
    (g,) = gradient(program, vars_)
    assert eval_expr(g, {"x[0]": 0.0}) == 4.0


def test_gradient_of_constant_program():
    p = _program("double f(const double x[3]){ double e = 5; return 0; }")
    vars_ = VarIndexMap.from_names(p, ["x"])
    grads = gradient(p, vars_)
    assert len(grads) == 3
    assert all(g == Constant("0", 0.0) for g in grads)


def test_cross_entropy_gradient_value():
    fn = corpus_function("cross_entropy")
    _, program, vars_ = corpus_program(fn)
    grads = gradient(program, vars_)
    bindings = {s.label: (0.5 if s.param == "a" else 0.25) for s in program.inputs}
    got = eval_expr(grads[0], bindings)
    assert got == pytest.approx(-0.25 / 0.50001, rel=1e-12)
    assert got == pytest.approx(-0.49999, abs=1e-5)


def test_hessian_eq3_s2():
    fn = corpus_function("eq3", s=2)
    _, program, vars_ = corpus_program(fn)
    hl = hessian(program, vars_)
    assert len(hl) == 3
    bindings = {"x[0]": 0.5, "x[1]": 0.5}
    # lower-triangular row-major: (0,0), (1,0), (1,1)
    assert eval_expr(hl[0], bindings) == pytest.approx(-8.0, rel=1e-12)
    assert eval_expr(hl[1], bindings) == pytest.approx(0.0, abs=1e-12)
    assert eval_expr(hl[2], bindings) == pytest.approx(-8.0, rel=1e-12)


def test_hessian_of_linear_is_zero():
    p = _program("double f(double x){ double e = x; return 0; }")
    vars_ = VarIndexMap.from_names(p, ["x"])
    (h,) = hessian(p, vars_)
    assert h == Constant("0", 0.0)


def test_hessian_of_square_is_two():
    p = _program("double f(double x){ double e = pow(x, 2); return 0; }")
    vars_ = VarIndexMap.from_names(p, ["x"])
    (h,) = hessian(p, vars_)
    for x in (0.0, 1.0, -3.5, 17.0):
        assert eval_expr(h, {"x": x}) == 2.0


def test_bundle_symmetry_is_structural():
    fn = corpus_function("eq3", s=4)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_)
    assert len(bundle.hess_lower) == 4 * 5 // 2
    for i in range(4):
        for j in range(4):
            assert bundle.hess_entry(i, j) is bundle.hess_entry(j, i)


def test_schwarz_symmetry_numerically():
    rng = random.Random(7)
    for _ in range(20):
        e = random_expr(rng, ["x", "y"], depth=4)
        dxy = differentiate(differentiate(e, "x"), "y")
        dyx = differentiate(differentiate(e, "y"), "x")
        for _ in range(5):
            b = {"x": rng.uniform(0.5, 2.0), "y": rng.uniform(0.5, 2.0)}
            a = eval_expr(dxy, b)
            c = eval_expr(dyx, b)
            if not (math.isfinite(a) and abs(a) < 1e12):
                continue  # random denominator wandered near zero
            assert a == pytest.approx(c, rel=1e-8, abs=1e-10)


def test_fd_consistency_sample():
    rng = np.random.default_rng(3)
    for name, s in [("eq1", None), ("eq2", None), ("eq3", 3)]:
        fn = corpus_function(name, s=s)
        _, program, vars_ = corpus_program(fn)
        grads = gradient(program, vars_)
        from acorns.verify import sample_points

        pts = sample_points(fn, program, 25, rng)
        labels = [sl.label for sl in program.inputs]
        for p in range(pts.shape[0]):
            bindings = dict(zip(labels, pts[p]))
            fd = fd_gradient(program, vars_, pts[p])
            for j, g in enumerate(grads):
                analytic = eval_expr(g, bindings)
                assert abs(analytic - fd[j]) <= 1e-5 * max(1.0, abs(analytic))


# --- activity pruning --------------------------------------------------------


def _naive_differentiate(e, v):
    """Reference: the forward rule walk over every node, in every pass."""
    memo = {}

    def d(node):
        if id(node) not in memo:
            memo[id(node)] = rule(node)
        return memo[id(node)]

    def rule(node):
        if isinstance(node, Constant):
            return ZERO
        if isinstance(node, Var):
            return ONE if node.name == v else ZERO
        if isinstance(node, Unary):
            return Unary("-", d(node.operand))
        if isinstance(node, Binary):
            a, b = node.lhs, node.rhs
            if node.op in ("+", "-"):
                da, db = d(a), d(b)
                if all(isinstance(t, Constant) and t.value == 0.0 for t in (da, db)):
                    return ZERO
                return Binary(node.op, da, db)
            if node.op == "*":
                return Binary("+", Binary("*", d(a), b), Binary("*", a, d(b)))
            if node.op == "/":
                num = Binary("-", Binary("*", d(a), b), Binary("*", a, d(b)))
                return Binary("/", num, Binary("*", b, b))
            return ZERO
        name, u = node.name, node.args[0]
        if name == "pow":
            expo = node.args[1]
            if isinstance(expo, Constant):
                down = Call("pow", (u, const(expo.value - 1.0)))
                return Binary("*", Binary("*", expo, down), d(u))
            bracket = Binary("+", Binary("*", d(expo), Call("log", (u,))),
                             Binary("/", Binary("*", expo, d(u)), u))
            return Binary("*", node, bracket)
        du = d(u)
        if name == "log":
            return Binary("*", Binary("/", ONE, u), du)
        if name == "exp":
            return Binary("*", node, du)
        if name == "sin":
            return Binary("*", Call("cos", (u,)), du)
        if name == "cos":
            return Unary("-", Binary("*", Call("sin", (u,)), du))
        if name == "tan":
            return Binary("/", du, Binary("*", Call("cos", (u,)), Call("cos", (u,))))
        return Binary("/", du, Binary("*", const(2.0, "2"), node))  # sqrt

    return d(e)


def _reference_bundle(program, labels, do_simplify):
    """(gradient, lower Hessian) from the naive walk, in derive_bundle's order."""
    tidy = simplify if do_simplify else (lambda e: e)
    f = tidy(substitute(program))
    grad = [tidy(_naive_differentiate(f, v)) for v in labels]
    hess = [tidy(_naive_differentiate(grad[j], labels[i]))
            for i in range(len(labels)) for j in range(i + 1)]
    return grad, hess


def _assert_close_where_finite(got_exprs, want_exprs, labels, points):
    """The two lists of expressions agree within 1e-10 relative at every
    point where both are finite; returns the worst relative difference."""
    got = evaluate(compile_exprs(list(got_exprs), labels), points)
    want = evaluate(compile_exprs(list(want_exprs), labels), points)
    both = np.isfinite(got) & np.isfinite(want)
    scale = np.maximum(np.abs(got), np.abs(want))[both]
    diff = np.abs(got - want)[both]
    assert (diff <= 1e-10 * scale).all()
    return float(np.max(diff / np.where(scale > 0, scale, 1.0), initial=0.0))


@pytest.mark.parametrize("do_simplify", [False, True], ids=["raw", "simplified"])
def test_pruned_bundle_matches_naive_walk(do_simplify):
    # raw bundles equal the naive forward walk structurally; simplified
    # ones come from reverse sweeps, which add terms in another order, so
    # they equal `simplify` of the walk in value
    rng = random.Random(2024)
    names = ["x", "y", "z", "w"]
    for case in range(30):
        k = rng.choice([3, 4])  # w is a plain input when k == 3
        t = to_source(random_expr(rng, names, depth=4))
        e = to_source(random_expr(rng, names + ["t"], depth=4))
        src = (f"double f(double x, double y, double z, double w){{ double t = {t}; "
               f"double e = t * ({e}) + t; return 0; }}")
        program = _program(src)
        vars_ = VarIndexMap.from_names(program, names[:k])
        bundle = derive_bundle(program, vars_, do_simplify=do_simplify)
        grad, hess = _reference_bundle(program, names[:k], do_simplify)
        if do_simplify:
            points = np.random.default_rng(case).uniform(0.5, 2.0, size=(40, 4))
            _assert_close_where_finite(bundle.grad + bundle.hess_lower, grad + hess,
                                       names, points)
            continue
        assert list(bundle.grad) == grad, (case, src)
        assert list(bundle.hess_lower) == hess, (case, src)


@pytest.mark.parametrize("do_simplify", [False, True], ids=["raw", "simplified"])
def test_bundle_calls_module_globals_once_per_entry(monkeypatch, do_simplify):
    # one `differentiate` per raw gradient and Hessian entry, and none in a
    # simplified bundle, whose derivatives come from reverse sweeps that
    # build them simplified; no `simplify`, since `substitute` builds a
    # simplified f in its own walk; one `count_nodes` per derivative entry
    # and none for f, whose size `substitute` records as it builds it
    calls = {"differentiate": 0, "simplify": 0, "count_nodes": 0}

    def counting(name):
        real = getattr(derivatives, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(derivatives, name, counting(name))
    fn = corpus_function("eq3", s=4)
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, do_simplify=do_simplify)
    assert len(bundle.grad) == 4 and len(bundle.hess_lower) == 10
    assert calls == {"differentiate": 0 if do_simplify else 4 + 10, "simplify": 0,
                     "count_nodes": 4 + 10}
    calls.update(differentiate=0, count_nodes=0)
    derive_bundle(program, vars_, do_simplify=do_simplify, want_hessian=False)
    assert calls == {"differentiate": 0 if do_simplify else 4, "simplify": 0,
                     "count_nodes": 4}


def test_inactive_subtree_shares_one_skeleton():
    src = "double f(double x, double y, double w){ double e = x * y + sin(w * w); return 0; }"
    program = _program(src)
    vars_ = VarIndexMap.from_names(program, ["x", "y"])
    gx, gy = derive_bundle(program, vars_, do_simplify=False, want_hessian=False).grad
    # sin(w * w) reads neither x nor y: both passes reuse one derivative tree
    assert gx.rhs is gy.rhs
    # and it is the full rule walk's tree, not a bare zero
    inactive = parse_expr("sin(w * w)")
    assert gx.rhs == _naive_differentiate(inactive, "x") != ZERO


# --- reverse sweep ------------------------------------------------------------


def _forward_gradient(f, vars_):
    """The simplified gradient from forward passes, the reverse sweep's reference."""
    return [simplify(differentiate(f, v)) for v in vars_.labels]


def _assert_matches_forward(program, vars_, points):
    """The reverse-swept gradient is built simplified and equals the forward
    one within 1e-10 relative wherever both are finite; returns the worst
    relative difference."""
    bundle = derive_bundle(program, vars_, want_hessian=False)
    assert all(simplify(g) is g for g in bundle.grad)
    labels = [slot.label for slot in program.inputs]
    return _assert_close_where_finite(bundle.grad, _forward_gradient(bundle.f, vars_),
                                      labels, points)


@pytest.mark.parametrize("src", [
    "pow(x, y) + pow(y, 2.5) * x",
    "tan(x * y) - log(x) / y",
    "-cos(x) * sqrt(y) + exp(-x)",
    "x / x + (x < y) * y - (x - y) * (x + y)",
    "sin(x) * sin(x) - y * (0 - x)",
])
def test_reverse_sweep_rules_match_forward(src):
    program = _program(f"double f(double x, double y){{ double e = {src}; return 0; }}")
    vars_ = VarIndexMap.from_names(program, ["x", "y"])
    points = np.random.default_rng(5).uniform(0.5, 2.0, size=(50, 2))
    _assert_matches_forward(program, vars_, points)


def test_reverse_sweep_matches_forward_random():
    # loop programs (accumulations over + - * sin cos) and two-assignment
    # expression programs (/, unary minus, sqrt, exp, constant pow)
    rng = random.Random(7007)
    nprng = np.random.default_rng(7007)
    worst = 0.0
    for _ in range(60):
        src, func, energy = random_loop_program(rng)
        program = _program(src, func, energy)
        params = {slot.param for slot in program.inputs}
        vars_ = VarIndexMap.from_names(program, [p for p in ("u", "a") if p in params])
        points = nprng.uniform(0.5, 2.0, size=(40, len(program.inputs)))
        worst = max(worst, _assert_matches_forward(program, vars_, points))
    names = ["x", "y", "z", "w"]
    for _ in range(30):
        t = to_source(random_expr(rng, names, depth=4))
        e = to_source(random_expr(rng, names + ["t"], depth=4))
        program = _program(f"double f(double x, double y, double z, double w){{ "
                           f"double t = {t}; double e = t * ({e}) + t; return 0; }}")
        vars_ = VarIndexMap.from_names(program, names[:rng.choice([3, 4])])
        points = nprng.uniform(0.5, 2.0, size=(40, 4))
        worst = max(worst, _assert_matches_forward(program, vars_, points))
    assert worst > 0.0  # the engines do round differently somewhere


def _dag_nodes(roots):
    seen = set()
    for root in roots:
        for node in post_order(root, seen):
            seen.add(id(node))
    return len(seen)


def test_reverse_gradient_grows_linearly():
    # forward passes: 6,050 / 22,100 / 84,200 nodes for f and the gradient
    sizes = []
    for s in (100, 200, 400):
        _, program, vars_ = corpus_program(corpus_function("eq3", s=s))
        bundle = derive_bundle(program, vars_, want_hessian=False)
        sizes.append(_dag_nodes((bundle.f, *bundle.grad)))
    assert sizes[0] < 1500  # 1,197
    # doubling s at most doubles the increment
    assert sizes[2] - sizes[1] <= 2 * (sizes[1] - sizes[0])


# --- one engine per bundle kind ------------------------------------------------


def test_reverse_hessian_matches_forward_random():
    # Hessian rows from reverse sweeps against forward-over-forward entries,
    # on loop programs and on two-assignment expression programs
    rng = random.Random(9009)
    nprng = np.random.default_rng(9009)
    cases = []
    for _ in range(30):
        src, func, energy = random_loop_program(rng)
        program = _program(src, func, energy)
        params = {slot.param for slot in program.inputs}
        cases.append((program, [p for p in ("u", "a") if p in params]))
    names = ["x", "y", "z", "w"]
    for _ in range(20):
        t = to_source(random_expr(rng, names, depth=4))
        e = to_source(random_expr(rng, names + ["t"], depth=4))
        cases.append((_program(f"double f(double x, double y, double z, double w){{ "
                               f"double t = {t}; double e = t * ({e}) + t; return 0; }}"),
                      names[:rng.choice([3, 4])]))
    worst = 0.0
    for program, params in cases:
        vars_ = VarIndexMap.from_names(program, params)
        bundle = derive_bundle(program, vars_)
        grad = _forward_gradient(bundle.f, vars_)
        labels = vars_.labels
        hess = [simplify(differentiate(grad[j], labels[i]))
                for i in range(vars_.n) for j in range(i + 1)]
        points = nprng.uniform(0.5, 2.0, size=(40, len(program.inputs)))
        worst = max(worst, _assert_close_where_finite(
            bundle.hess_lower, hess, [slot.label for slot in program.inputs], points))
    assert worst > 0.0  # the engines do round differently somewhere


@pytest.mark.parametrize("name,s", [("eq3", 5), ("cross_entropy", None), ("eq1", None)])
def test_gradient_kernel_is_mode_independent(name, s):
    fn = corpus_function(name, s=s)
    _, program, vars_ = corpus_program(fn)
    cfg = EmitConfig(mode=frozenset(("function", "gradient")), basename="k")
    alone = derive_bundle(program, vars_, want_hessian=False)
    with_hessian = derive_bundle(program, vars_)
    assert emit(alone, vars_, cfg, program) == emit(with_hessian, vars_, cfg, program)


def _stencil(g):
    """The lower Hessian entries (i, j) a spring couples: each node's two
    coordinates, and the coordinates of the two ends of each edge."""
    node = range(g * g)
    edges = ([(k, k + 1) for k in node if k % g + 1 < g]
             + [(k, k + g) for k in node if k + g < g * g])
    pairs = set()
    for a, b in [(k, k) for k in node] + edges:
        for i in (2 * a, 2 * a + 1):
            for j in (2 * b, 2 * b + 1):
                pairs.add((max(i, j), min(i, j)))
    return pairs


def test_springs_hessian_is_the_grid_stencil():
    _, program, vars_ = corpus_program(corpus_function("springs", s=6))
    bundle = derive_bundle(program, vars_)
    nonzero = {(i, j) for i in range(vars_.n) for j in range(i + 1)
               if bundle.hess_entry(i, j) != ZERO}
    assert len(nonzero) == 348
    assert nonzero == _stencil(6)


@pytest.mark.parametrize("g", [3, 4])
def test_springs_verify_hessian(g):
    # seed 1 samples no spring near zero length in (0, 3): max relerr about 6e-5
    report = verify(corpus_function("springs", s=g), mode="hessian", points=20, seed=1)
    assert report.ok and len(report.entries) == (2 * g * g) * (2 * g * g + 1) // 2


def test_zero_length_spring_is_nan_only_at_its_ends():
    # nodes (0, 0) and (0, 1) coincide: sqrt is singular there, so the two
    # nodes' 4 gradient entries and the 10 lower Hessian entries among them
    # are NaN; every other entry is an exact zero or finite
    g = 3
    _, program, vars_ = corpus_program(corpus_function("springs", s=g))
    bundle = derive_bundle(program, vars_)
    point = np.array([[c + 0.1 * r, r + 0.05 * c] for r in range(g) for c in range(g)])
    point[1] = point[0]
    labels = [slot.label for slot in program.inputs]
    values = evaluate(compile_exprs(bundle.grad + bundle.hess_lower, labels),
                      point.reshape(1, -1))[0]
    nan = np.isnan(values)
    assert sorted(np.flatnonzero(nan[:vars_.n])) == [0, 1, 2, 3]
    assert nan[vars_.n:].sum() == 10
    assert np.isfinite(values[~nan]).all()


# --- simplify ----------------------------------------------------------------


def test_simplify_kills_zero_products():
    e = Binary("*", Binary("/", const(1.0, "1"), parse_expr("a + 0.00001")), const(0.0, "0"))
    assert simplify(e) == Constant("0", 0.0)


def test_simplify_additive_identity():
    assert simplify(parse_expr("x + 0")) == Var("x")
    assert simplify(parse_expr("0 + x")) == Var("x")
    assert simplify(parse_expr("x - 0")) == Var("x")


def test_simplify_multiplicative_identity():
    assert simplify(parse_expr("x * 1")) == Var("x")
    assert simplify(parse_expr("1 * x")) == Var("x")
    assert simplify(parse_expr("x / 1")) == Var("x")


def test_simplify_pow_exponents():
    assert simplify(parse_expr("pow(x, 1)")) == Var("x")
    assert simplify(parse_expr("pow(x, 0)")) == Constant("1", 1.0)


def test_simplify_double_negation():
    assert simplify(Unary("-", Unary("-", Var("x")))) == Var("x")


def test_simplify_constant_folding():
    assert simplify(parse_expr("2 * 3 + 1")).value == 7.0


def test_simplify_leaves_non_finite_folds():
    # no C literal spells inf or nan; the runtime computes them, as for x / 0
    for text in ("x * (1e308 * 10.0)", "x * (1e308 / 0.5)", "x * (1e309 + 1.0)",
                 "x * (1e309 - 1e309)"):
        e = parse_expr(text)
        assert simplify(e) == e


def test_simplify_no_cancellation():
    e = parse_expr("x - x")
    assert simplify(e) == e  # u - u is deliberately not rewritten


def test_simplify_untouched_subtrees_are_shared():
    inner = parse_expr("sin(x) * cos(x)")
    e = Binary("+", inner, const(0.0, "0"))
    assert simplify(e) is inner


def test_simplify_reduces_eq2_gradient_nodes():
    fn = corpus_function("eq2")
    _, program, vars_ = corpus_program(fn)
    f = substitute(program)
    raw = differentiate(f, "x")
    simp = simplify(raw)
    assert count_nodes(simp) < count_nodes(raw)
    rng = random.Random(11)
    for _ in range(100):
        b = {"x": rng.uniform(-2.0, 2.0)}
        a = eval_expr(raw, b)
        c = eval_expr(simp, b)
        assert c == pytest.approx(a, rel=1e-15, abs=1e-300) or a == c


def test_simplify_is_idempotent():
    # derivatives are built simplified on a simplified f; that equals
    # simplifying the raw derivative only because every simplified node is
    # a fixed point, returned as the same object
    rng = random.Random(5)
    for _ in range(1200):
        e = random_expr(rng, ["x", "y", "z"], depth=rng.randint(1, 7))
        # the raw derivative adds the 0 and 1 operands the rules remove
        for expr in (e, differentiate(e, "x")):
            once = simplify(expr)
            assert simplify(once) is once


def test_simplify_soundness_random():
    rng = random.Random(99)
    checked = 0
    while checked < 300:
        e = random_expr(rng, ["x", "y", "z"], depth=6)
        b = {n: rng.uniform(0.5, 2.0) for n in ("x", "y", "z")}
        raw = eval_expr(e, b)
        if not math.isfinite(raw) or abs(raw) > 1e12:
            continue
        simp = simplify(e)
        got = eval_expr(simp, b)
        assert got == pytest.approx(raw, rel=1e-12, abs=1e-300)
        assert count_nodes(simp) <= count_nodes(e)
        checked += 1
