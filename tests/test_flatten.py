import random
import re
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from acorns.cast import Binary, Constant, Var, const, to_source
from acorns.derivatives import VarIndexMap, derive_bundle, substitute
from acorns.errors import BoundExplosion, FormatError, NotConstant, UnboundSlot
from acorns.flatten import (
    StraightLineProgram,
    SlpAssign,
    InputSlot,
    deserialize,
    dump_text,
    eval_const,
    pretty_assign,
    serialize,
    unroll,
)
from acorns.interp import eval_expr
from acorns.parser import parse_expr, parse_source
from acorns.verify import CROSS_ENTROPY_SRC, run_ir


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


def test_loop_condition_and_update_are_walked_once(monkeypatch):
    import acorns.flatten as flatten

    walks = []
    original = flatten.const_order
    monkeypatch.setattr(flatten, "const_order", lambda e: walks.append(e) or original(e))
    p = unroll(_parse("double f(double x){ double e = 0; for (int i = 0; i < 50; i++) "
                      "{ for (int j = 0; j < 2; j++) { e = e + x; } } return 0; }"))
    assert len(p.assigns) == 101
    assert len(walks) == 2 + 2 * 50  # each loop run: its condition and its update


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


def test_constant_text_survives_round_trip():
    src = "double f(double x){ double e = x + 0.00001; return 0; }"
    p = unroll(_parse(src))
    p2 = deserialize(serialize(p))
    assert "0.00001" in dump_text(p2)
