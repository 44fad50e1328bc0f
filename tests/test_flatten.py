import hashlib
import operator
import random
import re
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from acorns.cast import Binary, Constant, Unary, Var, children, const, to_source
from acorns.cli import main
from acorns.derivatives import VarIndexMap, derive_bundle, substitute
from acorns.errors import (
    BoundExplosion,
    FormatError,
    NotConstant,
    UnboundSlot,
    UnsupportedConstruct,
)
from acorns.flatten import (
    StraightLineProgram,
    SlpAssign,
    InputSlot,
    const_order,
    deserialize,
    dump_text,
    eval_const,
    eval_consts,
    int_expr,
    int_typed,
    pretty_assign,
    serialize,
    unroll,
)
from acorns.interp import eval_expr
from acorns.parser import parse_expr, parse_source
from acorns.verify import CORPUS, CROSS_ENTROPY_SRC, corpus_function, run_ir


def _parse(src, func="f", energy="e"):
    return parse_source(src, func, energy)


# --- eval_const --------------------------------------------------------------


def test_eval_const_arithmetic():
    assert eval_const(parse_expr("2*3+1"), {}) == 7


def test_eval_const_comparison():
    assert eval_const(parse_expr("i < 2"), {"i": 1}) is True
    assert eval_const(parse_expr("i < 2"), {"i": 2}) is False


def test_eval_const_unbound():
    with pytest.raises(NotConstant):
        eval_const(parse_expr("j"), {})


def test_eval_const_rejects_float_literal():
    with pytest.raises(NotConstant):
        eval_const(parse_expr("1.5 + 1"), {})


def test_eval_const_truncating_division():
    assert eval_const(parse_expr("7/2"), {}) == 3
    assert eval_const(parse_expr("0 - 7/2"), {}) == -3  # C truncates toward zero


@given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(["+", "-", "*"]))
def test_eval_const_matches_python(a, b, op):
    e = Binary(op, const(float(a), str(a)), const(float(b), str(b)))
    expected = {"+": a + b, "-": a - b, "*": a * b}[op]
    assert eval_const(e, {}) == expected


@pytest.mark.parametrize("text, value", [
    ("2147483647 + 0", 2147483647),
    ("-2147483647 - 1", -2147483648),
    # a literal above INT_MAX is a `long` in C, and so is arithmetic on one
    ("3000000000 * 2", 6000000000),
    ("-2147483648", -2147483648),
    ("2147483648 / -1", -2147483648),
    ("(3000000000 > 2) + 2147483646", 2147483647),
])
def test_eval_const_computes_in_int_and_long(text, value):
    assert eval_const(parse_expr(text), {}) == value


@pytest.mark.parametrize("text, at", [
    ("2147483647 + 1", "+"),
    ("-2147483647 - 2", "- 2"),
    ("65536 * 65536", "*"),
    ("(-2147483647 - 1) / -1", "/ -1"),
    ("-(-2147483647 - 1)", "-("),
    ("i * 50000 * 50000 + 1", "* 50000 +"),
    ("i * 50000 * 50000 + 1 / 0", "* 50000 +"),  # the leftmost fault
])
def test_eval_const_int_overflow_is_located(text, at):
    # signed overflow is undefined in C: `int` arithmetic whose result leaves
    # `int`'s range fails where it stands, as a division by zero does
    with pytest.raises(NotConstant) as info:
        eval_const(parse_expr(text), {"i": 1})
    assert str(info.value) == f"1:{text.index(at) + 1}: int overflow in constant expression"


_INT_MIN, _INT_MAX = -2**31, 2**31 - 1
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
                "==": operator.eq, "!=": operator.ne}


def _reference(e, env):
    """`(value, is_long)` of the integer expression `e`, by recursion: C's
    `int` arithmetic, `long` where a literal above INT_MAX is an operand,
    and NotConstant at the first fault left to right."""
    if isinstance(e, Constant):
        if any(ch in e.text for ch in ".eE"):
            raise NotConstant(e.span, f"non-integer literal {e.text!r} in constant context")
        return int(e.text), int(e.text) > _INT_MAX
    if isinstance(e, Var):
        if e.name not in env:
            raise NotConstant(e.span, f"{e.name!r} is not compile-time constant")
        return env[e.name], False
    if isinstance(e, Unary):
        a, wide = _reference(e.operand, env)
        r = -a
    else:
        (a, wide_a), (b, wide_b) = _reference(e.lhs, env), _reference(e.rhs, env)
        if e.op in _COMPARISONS:
            return _COMPARISONS[e.op](a, b), False
        wide = wide_a or wide_b
        if e.op == "/":
            if b == 0:
                raise NotConstant(e.span, "division by zero in constant expression")
            r = int(Fraction(a, b))  # truncated toward zero
        else:
            r = {"+": a + b, "-": a - b, "*": a * b}[e.op]
    if not wide and not _INT_MIN <= r <= _INT_MAX:
        raise NotConstant(e.span, "int overflow in constant expression")
    return r, wide


def _int_source(rng, depth):
    """Random integer expression text: literals, bound and unbound names, a
    non-integer literal now and then, `+ - * /`, comparisons and negation."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.45:
            return rng.choice(["0", "1", "2", "3", "7", "46341", "65536", "2147483647",
                               "3000000000"])
        if r < 0.9:
            return rng.choice(["i", "j", "k", "m"])
        return rng.choice(["u", "1.5"])
    if rng.random() < 0.15:
        return f"-({_int_source(rng, depth - 1)})"
    op = rng.choice(["+", "-", "*", "/", "/", "<", "<=", ">", ">=", "==", "!="])
    return f"({_int_source(rng, depth - 1)} {op} {_int_source(rng, depth - 1)})"


def _outcome(run):
    try:
        return "value", run()
    except NotConstant as exc:
        return "fault", (type(exc), str(exc), exc.span)


def test_eval_const_matches_a_recursive_reference():
    # values and bool-ness equal, and every fault the reference's leftmost:
    # its type, its message and its span
    env = {"i": -7, "j": 3, "k": _INT_MIN, "m": _INT_MAX}
    rng = random.Random(27)
    kinds = set()
    for _ in range(3000):
        trees = [parse_expr(_int_source(rng, rng.randint(0, 5))) for _ in range(3)]
        want = _outcome(lambda: [_reference(t, env)[0] for t in trees])
        got = _outcome(lambda: eval_consts(const_order(*trees), env))
        assert got == want
        if want[0] == "value":
            assert [type(v) for v in got[1]] == [type(v) for v in want[1]]
        kinds.add(want[1][1].split(": ", 1)[1] if want[0] == "fault" else "value")
        one = _outcome(lambda: eval_const(trees[0], env))
        assert one == _outcome(lambda: _reference(trees[0], env)[0])
        if one[0] == "value":
            assert type(one[1]) is type(_reference(trees[0], env)[0])
    assert {"value", "division by zero in constant expression",
            "int overflow in constant expression", "'u' is not compile-time constant",
            "non-integer literal '1.5' in constant context"} <= kinds


def _mixed_source(rng, depth):
    """Random expression text mixing integer and double literals, bound and
    unbound names, negation, arithmetic, comparisons, array elements and
    calls."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.35:
            return rng.choice(["0", "2", "3000000000", "1.5", "2.0", "1e3", "00.5"])
        if r < 0.8:
            return rng.choice(["i", "j", "u", "v"])
        return rng.choice(["x[i]", "x[1.5]", "x[2 * j]"])
    r = rng.random()
    if r < 0.15:
        return f"-({_mixed_source(rng, depth - 1)})"
    if r < 0.2:
        return f"x[{_mixed_source(rng, depth - 1)}]"
    if r < 0.25:
        return f"sin({_mixed_source(rng, depth - 1)})"
    if r < 0.3:
        return f"pow({_mixed_source(rng, depth - 1)}, {_mixed_source(rng, depth - 1)})"
    op = rng.choice(["+", "-", "*", "/", "<", ">=", "==", "!="])
    return f"({_mixed_source(rng, depth - 1)} {op} {_mixed_source(rng, depth - 1)})"


def _every_node_int_typed(e, bound):
    kids = children(e)
    typed = {id(k) for k in kids if _every_node_int_typed(k, bound)}
    return len(typed) == len(kids) and int_typed(e, typed, bound)


def test_int_expr_matches_a_recursive_reference():
    bound = {"i", "j"}
    rng = random.Random(33)
    seen = set()
    for _ in range(3000):
        e = parse_expr(_mixed_source(rng, rng.randint(0, 5)))
        want = _every_node_int_typed(e, bound)
        assert int_expr(e, bound) == want, to_source(e)
        seen.add((want, isinstance(e, (Binary, Unary))))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# --- unroll ------------------------------------------------------------------


def test_cross_entropy_unrolls_to_four_assignments():
    ir = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    p = unroll(ir)
    body = p.body_assigns
    assert len(body) == 4
    expected = [
        "loss = loss - b[0][0] * log(a[0][0] + 0.00001);",
        "loss = loss - b[0][1] * log(a[0][1] + 0.00001);",
        "loss = loss - b[1][0] * log(a[1][0] + 0.00001);",
        "loss = loss - b[1][1] * log(a[1][1] + 0.00001);",
    ]
    assert [pretty_assign(a) for a in body] == expected
    # 2x2 row-major inference for the extent-less ** parameters
    assert [s.label for s in p.inputs] == [
        "a[0][0]", "a[0][1]", "a[1][0]", "a[1][1]",
        "b[0][0]", "b[0][1]", "b[1][0]", "b[1][1]",
    ]


def test_empty_iteration_space():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 0; i < 0; i++) { e = e + x; }
        return 0;
    }
    """
    p = unroll(_parse(src))
    assert len(p.body_assigns) == 0


@pytest.mark.parametrize("body", [
    "for (int i = 0; i < 0; i++) { e = e + x[i]; }",
    "if (0) { e = e + x[0]; }",
])
def test_an_energy_parameter_no_statement_assigns_is_its_input_slot(body):
    src = f"double f(const double *x, double e) {{ {body} return e; }}"
    p = unroll(_parse(src))
    assert p.output == "e"
    assert [s.label for s in p.inputs] == ["e"]
    assert p.body_assigns == ()


def test_nested_2x3_loop_counter_substitution():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 0; i < 2; i++) {
            for (int j = 0; j < 3; j++) { e = e + i * 10 + j + x; }
        }
        return 0;
    }
    """
    p = unroll(_parse(src))
    body = p.body_assigns
    assert len(body) == 6
    pairs = []
    for a in body:
        # i * 10 is an integer subexpression, folded as C computes it
        m = re.search(r"\+ (\d+) \+ (\d+) \+ x", pretty_assign(a))
        pairs.append((int(m.group(1)), int(m.group(2))))
    assert pairs == [(0, 0), (0, 1), (0, 2), (10, 0), (10, 1), (10, 2)]


def test_monotone_flattening():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 0; i < 3; i++) {
            e = e + x;
            for (int j = 0; j < 4; j++) { e = e * x; }
        }
        e = e + 1;
        return 0;
    }
    """
    p = unroll(_parse(src))
    # 3*1 + 3*4 + 1 body assignments
    assert len(p.body_assigns) == 3 + 12 + 1


def test_conditional_elimination():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 0; i < 3; i++) {
            if (i == 1) { e = e + x; } else { e = e - x; }
        }
        return 0;
    }
    """
    p = unroll(_parse(src))
    texts = [pretty_assign(a) for a in p.body_assigns]
    assert texts == ["e = e - x;", "e = e + x;", "e = e - x;"]


def test_downward_loop_and_step():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 6; i > 0; i -= 2) { e = e + i * x; }
        return 0;
    }
    """
    p = unroll(_parse(src))
    texts = [pretty_assign(a) for a in p.body_assigns]
    assert texts == ["e = e + 6 * x;", "e = e + 4 * x;", "e = e + 2 * x;"]


def test_bound_explosion():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 0; i < 1000; i++) { e = e + x; }
        return 0;
    }
    """
    with pytest.raises(BoundExplosion):
        unroll(_parse(src), cap=100)


def test_local_array_slots():
    src = """
    double f(double x) {
        double t[2];
        t[0] = x * x;
        t[1] = t[0] + 1;
        double e = t[1];
        return 0;
    }
    """
    p = unroll(_parse(src))
    assert [a.display for a in p.assigns] == ["t[0]", "t[1]", "e"]


def test_a_written_parameter_element_is_read_back():
    # a parameter element reads its input slot only until an assignment
    # writes it, as in C and in `run_ir`: here f = 5 * x[1], so 15 at (2, 3)
    ir = _parse("double f(double *x){ x[0] = 5; double e = x[0] * x[1]; return 0; }")
    program = unroll(ir)
    assert [s.label for s in program.inputs] == ["x[0]", "x[1]"]
    f = substitute(program)
    assert eval_expr(f, {"x[0]": 2.0, "x[1]": 3.0}) == 15.0
    rng = random.Random(18)
    for _ in range(50):
        bindings = {"x[0]": rng.uniform(-4, 4), "x[1]": rng.uniform(-4, 4)}
        assert struct.pack("<d", eval_expr(f, bindings)) == struct.pack("<d", run_ir(ir, bindings))
    bundle = derive_bundle(program, VarIndexMap.from_names(program, ["x"]))
    assert [to_source(g) for g in bundle.grad] == ["0", "5"]


def test_blocks_and_redeclared_locals_agree_with_run_ir():
    # sibling bare blocks each declare `d`, the last as an array; a
    # loop-local array is declared again in each iteration and written
    # before it is read
    ir = _parse("double f(double x){ double e = 0; { double d = x; e = e + d; } "
                "{ double d; d = x * x; e = e * d; } "
                "{ double d[2]; d[0] = x; d[1] = d[0] * e; e = d[1]; } for (int i = 0; i < 3; i++) "
                "{ double a[2]; a[i / 2] = x + i; e = e + a[i / 2]; } return 0; }")
    f = substitute(unroll(ir))
    rng = random.Random(19)
    for _ in range(20):
        bindings = {"x": rng.uniform(-4, 4)}
        assert struct.pack("<d", eval_expr(f, bindings)) == struct.pack("<d", run_ir(ir, bindings))
    with pytest.raises(UnboundSlot):  # the oracle forgets a redeclared local too
        run_ir(_parse("double f(double x){ double e = 0; for (int i = 0; i < 2; i++) "
                      "{ double t; if (i > 0) { e = t; } t = x; } return 0; }"), {"x": 1.0})
    for changed_rank in ("{ double d[2]; d[0] = x; d[1] = x; } { double d = x; e = d[0]; }",
                         "{ double d = x; } { double d[2]; e = d; }"):
        with pytest.raises(UnboundSlot):  # nor keeps a sibling block's `d` of the other rank
            run_ir(_parse(f"double f(double x){{ double e = 0; {changed_rank} return 0; }}"),
                   {"x": 1.0})


def test_a_name_is_an_int_in_one_block_and_a_slot_in_its_sibling():
    # which names are bound to integers where a node stands is fixed by the
    # scopes, so the unroller compiles each node once: here sibling blocks
    # declare `k` as an `int` and as a `double`, and the loop reaches each
    # block's nodes twice
    ir = _parse("double f(double x){ double e = 0; for (int i = 0; i < 2; i++) { "
                "{ int k = i + 1; e = e + x * k; } { double k = x * i; e = e + x * k; } } "
                "return 0; }")
    p = unroll(ir)
    assert [pretty_assign(a) for a in p.body_assigns] == [
        "e = e + x * 1;", "e = e + x * k;", "e = e + x * 2;", "e = e + x * k;"]
    assert [to_source(a.rhs) for a in p.assigns if a.display == "k"] == ["x * 0", "x * 1"]
    f = substitute(p)
    rng = random.Random(28)
    for _ in range(20):
        bindings = {"x": rng.uniform(-4, 4)}
        assert struct.pack("<d", eval_expr(f, bindings)) == struct.pack("<d", run_ir(ir, bindings))


_INT_OUT_OF_RANGE = {
    "local": ("double f(double x) {\n    int k = 3000000000;\n    double e = x * k;\n"
              "    return e;\n}\n", "2:13: value 3000000000 out of range for int"),
    # the update is computed in `long`, then stored into `int`
    "update": ("double f(const double *x) {\n    double e = 0;\n"
               "    for (int i = 0; i < 3; i = i + 2147483648) e = e + x[0];\n    return e;\n}\n",
               "3:34: value 2147483648 out of range for int"),
}


@pytest.mark.parametrize("name", list(_INT_OUT_OF_RANGE))
def test_an_int_name_refuses_a_value_out_of_its_range(name, tmp_path, monkeypatch, capsys):
    # C would convert the value where the `int` name stores it: a compiled
    # kernel would compute with another value, or loop forever
    src, want = _INT_OUT_OF_RANGE[name]
    ir = _parse(src)
    with pytest.raises(NotConstant) as unrolled:
        unroll(ir)
    with pytest.raises(NotConstant) as ran:
        run_ir(ir, {"x": 1.0, "x[0]": 1.0})
    assert str(unrolled.value) == str(ran.value) == want
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.c").write_text(src)
    assert main(["f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "d"]) == 1
    assert main(["verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x"]) == 1
    assert capsys.readouterr().err == (f"acorns_autodiff: f.c: {want}\n"
                                       f"acorns_autodiff verify: f.c: {want}\n")


def test_an_int_name_stores_int_min(tmp_path, monkeypatch):
    # a negated `long` literal whose value is in `int`'s range
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.c").write_text("double f(double x) {\n    int k = -2147483648;\n"
                                  "    double e = x * k;\n    return e;\n}\n")
    assert main(["f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "d",
                 "--mode", "gradient"]) == 0
    assert "    out[0] = -2147483648;\n" in (tmp_path / "d_part0.c").read_text()
    assert main(["verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x"]) == 0


# what the statement runner refuses, at the place it names: an `int` local
# or a loop counter is never assigned after its declaration
_RUNNER_FAULTS = {
    "int_local_write": ("double f(double x) {\n    int n = 2;\n    n = 3;\n"
                        "    double e = x * n;\n    return e;\n}\n",
                        "3:5: unsupported construct: assignment to an int local"),
    "int_local_write_in_a_loop": (
        "double f(const double *x) {\n    double e = 0;\n    for (int i = 0; i < 3; i++) {\n"
        "        int k = 2;\n        k = i;\n        e = e + x[i] * k;\n    }\n"
        "    return e;\n}\n", "5:9: unsupported construct: assignment to an int local"),
    "int_local_without_initializer": (
        "double f(double x) {\n    double e = x;\n    int n;\n    return e;\n}\n",
        "3:9: int local 'n' needs a constant initializer"),
    "array_initializer": (
        "double f(double x) {\n    double e = x;\n    double a[2] = 1;\n    return e;\n}\n",
        "3:12: unsupported construct: array initializer"),
}


@pytest.mark.parametrize("name", list(_RUNNER_FAULTS))
def test_runner_faults_exit_1_with_their_location(name, tmp_path, monkeypatch, capsys):
    src, want = _RUNNER_FAULTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.c").write_text(src)
    assert main(["f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "d"]) == 1
    assert main(["verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x"]) == 1
    assert capsys.readouterr().err == (f"acorns_autodiff: f.c: {want}\n"
                                       f"acorns_autodiff verify: f.c: {want}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "f.c"]


@pytest.mark.parametrize("blocks, want", [
    ("{ int k = 2; } for (int k = 0; k < 2; k++) { k = 1; }", "a loop counter"),
    ("for (int k = 0; k < 2; k++) { e = e + x; } { int k = 2; k = 1; }", "an int local"),
])
def test_a_write_names_the_binding_its_name_has_there(blocks, want):
    # sibling blocks may bind one name as a loop counter and as an `int` local
    with pytest.raises(UnsupportedConstruct, match=f"assignment to {want}$"):
        unroll(_parse(f"double f(double x){{ double e = x; {blocks} return 0; }}"))


def test_loop_condition_and_update_are_walked_once(monkeypatch):
    import acorns.flatten as flatten

    walks = []
    original = flatten.const_order
    monkeypatch.setattr(flatten, "const_order", lambda e: walks.append(e) or original(e))
    p = unroll(_parse("double f(double x){ double e = 0; for (int i = 0; i < 50; i++) "
                      "{ for (int j = 0; j < 2; j++) { e = e + x; } } return 0; }"))
    assert len(p.assigns) == 101
    # each loop's header, compiled once for its `for` statement: its
    # initializer, its condition and its update, though the inner loop runs
    # 50 times
    assert len(walks) == 2 * 3


_GUARD_SRC = """\
double f(const double *x, double *y) {{
    double e = 0;
    int k = 2;
    for (int i = 0; i < {n}; i++) {{
        for (int j = 0; j < 2; j++) {{
            double t = x[j + 1] * (i + k);
            if (j > 0) {{ y[j] = t; }}
            e = e + y[j] * t * (j - 1 / 2);
        }}
    }}
    return 0;
}}
"""


def test_unrolling_walks_each_statement_as_often_at_any_loop_length(monkeypatch):
    # a statement's tree is walked when its plan is built, not per
    # iteration: every walk in `flatten` is a `post_order`
    import acorns.flatten as flatten

    original = flatten.post_order
    walks = []

    def counted(*args):
        walks.append(args[0])
        return original(*args)

    monkeypatch.setattr(flatten, "post_order", counted)
    counts = []
    for n in (10, 1000):
        walks.clear()
        p = unroll(_parse(_GUARD_SRC.format(n=n)))
        assert len(p.assigns) == 1 + n * 5
        counts.append(len(walks))
    assert counts[0] == counts[1]


# sha256 of `serialize(unroll(ir))`: the unrolled program stays
# byte-identical across refactors of the unroller
_GRAD_STEPS_SRC = """\
double cross_entropy(const double **a, const double **b){
    double loss = 0;
    for(int t = 0; t < 8; t++){
        for(int i = 0; i < 10; i++){
            for(int j = 0; j < 10; j++){
                loss = loss - b[i][j] * log(a[i][j] + 0.001 * (t + 1));
            }
        }
    }
    return loss;
}
"""

GOLDEN_UNROLL = {
    ("eq1", None): "faee12d9d380a673f0e58f3fb452769524de83b9ef5734d8579fa6561a95cf57",
    ("eq2", None): "566ed68abea5a94fe25b359f2b1bf4d7ebb266f6959c071af1f70323c37ac3fa",
    ("eq3", None): "67401fe211357b5956fbd9d543c63d094851bbca682a36f282ac9fbd0924ef48",
    ("cross_entropy", None): "29c99fe87ca3e4350892ef2c36cf066e206315b67030afb46b8c1cebe5074a78",
    ("function_0", None): "422cd18898f0ae2d713d75d528624c234e6d8eab9b97cc14bdb7e5e5b854bd42",
    ("const_fn", None): "49f06691a63bf98c5f167c42fb6e54918f90c8f2ca8f7868ee4f83e79663c64e",
    ("springs", None): "e649543b6ae87d225bbc52d4071aed94a5cea6b5bc84722ab96e7d6e62e13ef4",
    ("barrier", None): "83b169d5c76d39ca445fd24c72c3f17ea2b6dba67be7c0ad22a7e10aacb7fff6",
    ("rollout", None): "24a39cab6ab94f1ae99f7beec6a9c0c70dc32e2dd4eb97b6b507243aaf986678",
    ("springs", 4): "dc4ded4965bc5b514dd28e9f19392ba3dca5009365df71b21391d965957a7dc3",
    ("barrier", 4): "44550dccfb06298be45f8633027dea801461146b4992f790f1ea22387d0be387",
    ("grad_steps", 8): "c96e6f816fb7d08ac82a002ccc978537f088dbd5b95153a3b766f9de1e0e0900",
}


@pytest.mark.parametrize("case", list(GOLDEN_UNROLL), ids=lambda c: f"{c[0]}_{c[1]}")
def test_unrolled_bytes_match_golden(case):
    name, s = case
    assert set(CORPUS) <= {n for n, size in GOLDEN_UNROLL if size is None}
    if name == "grad_steps":  # the benchmark's grad_steps input, 8 steps over 10 x 10
        ir = parse_source(_GRAD_STEPS_SRC, "cross_entropy", "loss")
    else:
        fn = corpus_function(name, s)
        ir = parse_source(fn.source, fn.func_name, fn.energy_var)
    assert hashlib.sha256(serialize(unroll(ir))).hexdigest() == GOLDEN_UNROLL[case]


def test_param_slots_group_the_inputs_in_declaration_order():
    ir = _parse("double f(double b, double *a, double c[2], double *z)"
                "{ double e = a[1] * b; return 0; }")
    program = unroll(ir)
    assert {name: [s.label for s in slots] for name, slots in program.param_slots.items()} \
        == {"b": ["b"], "a": ["a[0]", "a[1]"], "c": ["c[0]", "c[1]"]}  # `z` has no slots
    assert list(program.param_slots) == ["b", "a", "c"]


def test_unroll_idempotent_on_straight_line_ir():
    src = "double f(double x){ double e = x * x; e = e + 1; return 0; }"
    ir = _parse(src)
    p1 = unroll(ir)
    # a straight-line IR unrolls to the same assignment structure
    assert [a.display for a in p1.assigns] == ["e", "e"]
    assert [a.rhs for a in p1.assigns][0] == Binary("*", Var("x"), Var("x"))


# --- serialization -----------------------------------------------------------


def test_round_trip_cross_entropy():
    ir = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    p = unroll(ir)
    assert deserialize(serialize(p)) == p


def test_round_trip_empty_program():
    p = StraightLineProgram(
        (InputSlot("x", (), "x"),),
        (SlpAssign("e@1", "e", Var("x"), True),),
        "e@1",
    )
    assert deserialize(serialize(p)) == p


def test_large_program_reserializes_byte_identically():
    assigns = []
    prev = "x"
    for k in range(100_000):
        target = f"e@{k + 1}"
        assigns.append(SlpAssign(target, "e", Binary("+", Var(prev), Constant("1", 1.0))))
        prev = target
    p = StraightLineProgram((InputSlot("x", (), "x"),), tuple(assigns), prev)
    data = serialize(p)
    p2 = deserialize(data)
    assert serialize(p2) == data


def test_long_statement_round_trips_by_value():
    # a 3,000-term sum nests 3,000 levels deep: `==` and `hash` on the
    # programs walk it at the default recursion limit
    def program(first):
        terms = " + ".join([first] + [f"x[{i % 7}] * x[{(i + 1) % 7}]" for i in range(1, 3000)])
        src = f"double wide(const double *x) {{\n    double e = {terms};\n    return 0;\n}}\n"
        return unroll(parse_source(src, "wide", "e"))

    assert sys.getrecursionlimit() < 3000
    p = program("x[0] * x[1]")
    q = deserialize(serialize(p))
    assert q == p and hash(q) == hash(p)
    assert program("x[0] * x[2]") != p  # the terms differ only at the bottom


def test_magic_and_version_checked():
    ir = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    data = serialize(unroll(ir))
    with pytest.raises(FormatError):
        deserialize(b"XXXX" + data[4:])
    bad_version = data[:4] + struct.pack("<I", 99) + data[8:]
    with pytest.raises(FormatError):
        deserialize(bad_version)
    with pytest.raises(FormatError):
        deserialize(data[:-3])


def test_negations_round_trip():
    p = unroll(_parse("double f(const double *x){ double e = -x[0] * -(x[1] + 1); return 0; }"))
    assert to_source(p.assigns[0].rhs) == "-x[0] * -(x[1] + 1)"
    assert deserialize(serialize(p)) == p


def _slp_str(text):
    return struct.pack("<I", len(text)) + text.encode()


def test_an_unknown_expression_tag_is_refused():
    # one assignment `e@1 = <tag 5, rank 1, base "x", operand 0>`: an
    # unrolled program's leaves are `Var`s, and no node has tag 5
    data = (b"SLP1" + struct.pack("<III", 1, 0, 1) + _slp_str("e@1") + _slp_str("e") + b"\0"
            + bytes([5, 1]) + _slp_str("x") + b"\0" + _slp_str("0") + _slp_str("e@1"))
    with pytest.raises(FormatError, match="^unknown expression tag 5$"):
        deserialize(data)
    # the same stream with a `Var` in place of the tag-5 node reads
    ok = data.replace(bytes([5, 1]) + _slp_str("x") + b"\0" + _slp_str("0"), b"\1" + _slp_str("x"))
    assert deserialize(ok).assigns[0].rhs == Var("x")


def test_constant_text_survives_round_trip():
    src = "double f(double x){ double e = x + 0.00001; return 0; }"
    p = unroll(_parse(src))
    p2 = deserialize(serialize(p))
    assert "0.00001" in dump_text(p2)
