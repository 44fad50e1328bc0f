import copy
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from acorns.cast import (
    ArrayRef,
    Assignment,
    Binary,
    Call,
    Constant,
    Declaration,
    ForLoop,
    Unary,
    Var,
    to_source,
)
from acorns.errors import (MissingEnergyVar, MissingFunction, ParseError, SourceSpan,
                           UnsupportedConstruct)
from acorns.parser import Token, parse_expr, parse_source, tokenize, validate_subset
from acorns.verify import CROSS_ENTROPY_SRC, FUNCTION_0_SRC


def test_function_0_listing():
    ir = parse_source(FUNCTION_0_SRC, "function_0", "energy")
    assert [p.name for p in ir.params] == ["x"]
    assert ir.params[0].rank == 0
    decls = [s for s in ir.body if isinstance(s, Declaration)]
    assert len(decls) == 1
    init = decls[0].init
    # pow(x, 4) - 3*pow(x, 3) + 2
    assert init == Binary(
        "+",
        Binary(
            "-",
            Call("pow", (Var("x"), Constant("4", 4.0))),
            Binary("*", Constant("3", 3.0), Call("pow", (Var("x"), Constant("3", 3.0)))),
        ),
        Constant("2", 2.0),
    )


def test_identity_body():
    ir = parse_source("double f(double x){ double e = x; return 0; }", "f", "e")
    assert len(ir.body) == 2
    decl = ir.body[0]
    assert isinstance(decl, Declaration)
    assert decl.init == Var("x")


def test_cross_entropy_listing():
    ir = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    assert [(p.name, p.rank) for p in ir.params] == [("a", 2), ("b", 2)]
    decls = [s for s in ir.body if isinstance(s, Declaration)]
    assert len(decls) == 1
    loops = [s for s in ir.body if isinstance(s, ForLoop)]
    assert len(loops) == 1
    (inner,) = loops[0].body
    assert isinstance(inner, ForLoop)
    (assign,) = inner.body
    assert isinstance(assign, Assignment)
    assert assign.lvalue == Var("loss")


def test_array_param_declared_extents():
    ir = parse_source("double f(const double x[2][3]){ double e = x[0][0]; return 0; }", "f", "e")
    assert ir.params[0].rank == 2
    assert ir.params[0].extents == (2, 3)


def test_compound_assignment_desugars():
    ir = parse_source("double f(double x){ double e = 0; e += x; e *= 2; return 0; }", "f", "e")
    a1, a2 = ir.body[1], ir.body[2]
    assert a1.rhs == Binary("+", Var("e"), Var("x"))
    assert a2.rhs == Binary("*", Var("e"), Constant("2", 2.0))


def test_constant_text_preserved():
    ir = parse_source("double f(double x){ double e = x * 0.00001; return 0; }", "f", "e")
    rhs = ir.body[0].init
    assert rhs.rhs.text == "0.00001"
    assert rhs.rhs.value == 0.00001


@pytest.mark.parametrize(
    "source,construct",
    [
        ("double f(double x){ double e = x; while (1) { e = e; } return 0; }", "while"),
        ("double f(double x){ double e = g(x); return 0; }", "non-intrinsic"),
        ("double f(double x){ double e = x; switch (1) {} return 0; }", "switch"),
        ("double f(double x){ double e = !x; return 0; }", "'!'"),
        ("float f(double x){ double e = x; return 0; }", "float"),
        ("double f(double x){ double e = x % 2; return 0; }", "modulo"),
        ("double f(double x){ double e = x * 3 % 2 + 1; return 0; }", "modulo"),
    ],
)
def test_unsupported_constructs(source, construct):
    with pytest.raises(UnsupportedConstruct) as exc:
        parse_source(source, "f", "e")
    assert construct.strip("'") in str(exc.value)


def test_first_fault_in_source_order_is_reported():
    with pytest.raises(ParseError) as exc:
        parse_source("double f(double x){ double e = y * (x + z); return 0; }", "f", "e")
    assert "'y'" in str(exc.value)


def test_missing_function():
    with pytest.raises(MissingFunction):
        parse_source("double f(double x){ double e = x; return 0; }", "g", "e")


def test_missing_energy_var():
    with pytest.raises(MissingEnergyVar):
        parse_source("double f(double x){ double e = x; return 0; }", "f", "energy")


def test_undeclared_identifier():
    with pytest.raises(ParseError) as exc:
        parse_source("double f(double x){ double e = y; return 0; }", "f", "e")
    assert "y" in str(exc.value)


def test_syntax_error_has_span():
    src = "double f(double x){\n    double e = x +;\n    return 0;\n}"
    with pytest.raises(ParseError) as exc:
        parse_source(src, "f", "e")
    span = exc.value.span
    assert span.line == 2
    # the span points inside the input text
    lines = src.split("\n")
    assert 1 <= span.column <= len(lines[span.line - 1]) + 1


def test_token_kinds_and_spans():
    # a block comment over two lines, numbers that start or end with a dot,
    # `<=` next to `<`, and a line comment at the end of the input, which
    # leaves the end-of-input token at its first column
    src = "double a /* one\n  two */ = .5+1.e5;\n\tx.5 <=< x-- // end"
    got = [(t.kind, t.text, t.span.line, t.span.column, t.span.length) for t in tokenize(src)]
    assert got == [
        ("double", "double", 1, 1, 6), ("ident", "a", 1, 8, 1), ("=", "=", 2, 10, 1),
        ("number", ".5", 2, 12, 2), ("+", "+", 2, 14, 1), ("number", "1.e5", 2, 15, 4),
        (";", ";", 2, 19, 1), ("ident", "x", 3, 2, 1), ("number", ".5", 3, 3, 2),
        ("<=", "<=", 3, 6, 2), ("<", "<", 3, 8, 1), ("ident", "x", 3, 10, 1),
        ("--", "--", 3, 11, 2), ("eof", "", 3, 14, 0),
    ]


@pytest.mark.parametrize("src,message", [
    ("x /* open\n", "1:3: unterminated comment"),
    ("x;\n  #define y", "2:3: preprocessor directives are not supported; "
                        "preprocess the input first"),
    ("x @ y", "1:3: unexpected character '@'"),
])
def test_tokenize_errors(src, message):
    with pytest.raises(ParseError) as exc:
        tokenize(src)
    assert str(exc.value) == message


@pytest.mark.parametrize("src,message", [
    # after a comment over two lines, the column counts from the second
    ("double f(double x) {\n    double e = x; /* one\n   two */ e = e + x @ x;\n"
     "    return 0;\n}\n", "3:21: unexpected character '@'"),
    # a tab is one column
    ("double f(double x) {\n\tdouble e = x @ x;\n\treturn 0;\n}\n",
     "2:15: unexpected character '@'"),
    # a carriage return ends no line, and the line feed after it does
    ("double f(double x) {\r\n    double e = x @ x;\r\n    return 0;\r\n}\r\n",
     "2:18: unexpected character '@'"),
])
def test_diagnostics_locate_the_character_after_layout(src, message):
    with pytest.raises(ParseError) as exc:
        parse_source(src, "f", "e")
    assert str(exc.value) == message


def test_tokens_end_with_eof_after_any_layout():
    assert [(t.kind, str(t.span)) for t in tokenize("")] == [("eof", "1:1")]
    assert [(t.kind, str(t.span)) for t in tokenize("x")] == [("ident", "1:1"), ("eof", "1:2")]
    assert [(t.kind, str(t.span)) for t in tokenize("x /* a\n b */\t")] == [
        ("ident", "1:1"), ("eof", "2:7")]
    assert [(t.kind, str(t.span)) for t in tokenize("x\n  // end\n")] == [
        ("ident", "1:1"), ("eof", "3:1")]


def test_intrinsic_arity_checked():
    with pytest.raises(ParseError):
        parse_source("double f(double x){ double e = pow(x); return 0; }", "f", "e")
    with pytest.raises(ParseError):
        parse_source("double f(double x){ double e = sin(x, x); return 0; }", "f", "e")


def test_parse_determinism():
    ir1 = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    ir2 = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    assert ir1 == ir2


# --- validate_subset ---------------------------------------------------------


def test_validate_cross_entropy_clean():
    ir = parse_source(CROSS_ENTROPY_SRC, "cross_entropy", "loss")
    assert validate_subset(ir) == []


def test_validate_runtime_bound():
    src = """
    double f(double n) {
        double e = 0;
        for (int i = 0; i < n; i++) { e = e + 1; }
        return 0;
    }
    """
    ir = parse_source(src, "f", "e")
    (v,) = validate_subset(ir)
    assert "bound" in v.reason


def test_validate_variable_conditional():
    src = "double f(double x){ double e = 0; if (x > 0) { e = x; } return 0; }"
    ir = parse_source(src, "f", "e")
    (v,) = validate_subset(ir)
    assert "variable conditional" in v.reason


def test_validate_counter_bounds_ok():
    src = """
    double f(double x) {
        double e = 0;
        int n = 3;
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < i + 1; j++) { e = e + x; }
            if (i == 1) { e = e * 2; }
        }
        return 0;
    }
    """
    ir = parse_source(src, "f", "e")
    assert validate_subset(ir) == []


# --- expression round-trip ---------------------------------------------------

_names = st.sampled_from(["x", "y", "z0"])
_leaves = st.one_of(
    _names.map(Var),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
        lambda v: Constant(repr(v), v)
    ),
    st.integers(min_value=0, max_value=50).map(lambda v: Constant(str(v), float(v))),
    st.tuples(_names, st.integers(0, 3), st.integers(0, 3)).map(
        lambda t: ArrayRef(t[0], (Constant(str(t[1]), float(t[1])), Constant(str(t[2]), float(t[2]))))
    ),
)


def _compound(children):
    ops = st.sampled_from(["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="])
    return st.one_of(
        st.tuples(ops, children, children).map(lambda t: Binary(t[0], t[1], t[2])),
        children.map(lambda e: Unary("-", e)),
        st.tuples(st.sampled_from(["log", "exp", "sin", "cos", "tan", "sqrt"]), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(children, children).map(lambda t: Call("pow", t)),
    )


_exprs = st.recursive(_leaves, _compound, max_leaves=25)


@given(_exprs)
def test_print_parse_round_trip(e):
    assert parse_expr(to_source(e)) == e


# --- repr, copying and pickling of deep trees --------------------------------


def test_repr_writes_the_dataclass_text():
    e = parse_expr("-pow(a[i + 1], 2.5) * y")
    span = "SourceSpan(line=1, column={}, length={})".format
    assert repr(e) == (
        "Binary(op='*', lhs=Unary(op='-', operand=Call(name='pow', args=(ArrayRef(base='a', "
        "indices=(Binary(op='+', lhs=Var(name='i', span=" + span(8, 1) + "), "
        "rhs=Constant(text='1', value=1.0, span=" + span(12, 1) + "), span=" + span(10, 1)
        + "),), span=" + span(6, 1) + "), Constant(text='2.5', value=2.5, span=" + span(16, 3)
        + ")), span=" + span(2, 3) + "), span=" + span(1, 1) + "), rhs=Var(name='y', span="
        + span(23, 1) + "), span=" + span(21, 1) + ")")
    assert repr(Call("sqrt", (Var("x"),))) == (
        "Call(name='sqrt', args=(Var(name='x', span=None),), span=None)")


def test_deep_chain_repr_copy_and_pickle():
    x, y = Var("x"), Var("y")
    chain = x
    for _ in range(3000):
        chain = Binary("+", chain, y)
    assert sys.getrecursionlimit() < 3000
    assert repr(chain) == "Binary(op='+', lhs=" * 3000 + "Var(name='x', span=None)" + (
        ", rhs=Var(name='y', span=None), span=None)" * 3000)
    assert copy.deepcopy(chain) is chain and copy.copy(chain) is chain
    back = pickle.loads(pickle.dumps(chain))
    assert back is not chain and back == chain
    assert back.rhs is back.lhs.rhs  # one node per shared node, as pickled


def test_shared_dag_repr_copy_and_pickle():
    x = Var("x", SourceSpan(1, 2, 1))
    square = Binary("*", x, x)
    e = Binary("+", square, Call("pow", (square, Constant("2", 2.0))))
    square_text = ("Binary(op='*', lhs=Var(name='x', span=SourceSpan(line=1, column=2, length=1)), "
                   "rhs=Var(name='x', span=SourceSpan(line=1, column=2, length=1)), span=None)")
    assert repr(e) == (f"Binary(op='+', lhs={square_text}, rhs=Call(name='pow', args=("
                       f"{square_text}, Constant(text='2', value=2.0, span=None)), span=None), "
                       "span=None)")
    assert copy.deepcopy(e) is e and copy.copy(e) is e
    back = pickle.loads(pickle.dumps(e))
    assert back is not e and back == e and hash(back) == hash(e)
    assert back.lhs is back.rhs.args[0] and back.lhs.lhs is back.lhs.rhs  # still shared
    assert back.lhs.lhs.span == SourceSpan(1, 2, 1)


@pytest.mark.parametrize("obj, field", [
    (Constant("1", 1.0), "value"), (Var("x"), "name"), (ArrayRef("a", (Var("i"),)), "indices"),
    (Unary("-", Var("x")), "operand"), (Binary("+", Var("x"), Var("y")), "lhs"),
    (Call("sin", (Var("x"),)), "args"), (Var("x"), "span"), (SourceSpan(1, 2, 3), "line"),
    (Token("ident", "x", SourceSpan(1, 1, 1)), "text"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_nodes_spans_and_tokens_refuse_assignment(obj, field):
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.other = None
    assert repr(obj) == before


def test_span_checks_its_range_and_compares_by_value():
    span = SourceSpan(3, 4, 5)
    assert (str(span), span, hash(span)) == ("3:4", SourceSpan(3, 4, 5), hash(SourceSpan(3, 4, 5)))
    assert span != SourceSpan(3, 4) and SourceSpan(3, 4).length == 0
    for bad in ((0, 1), (1, 0), (1, 1, -1)):
        with pytest.raises(ValueError):
            SourceSpan(*bad)


def test_restrict_after_a_pointer_is_skipped_as_a_qualifier():
    ir = parse_source("double f(const double *restrict x, double *const restrict y)"
                      "{ double e = x[0] * y[1]; return 0; }", "f", "e")
    assert [(p.name, p.rank) for p in ir.params] == [("x", 1), ("y", 1)]


@pytest.mark.parametrize("keyword", ["auto", "register", "inline", "_Bool", "_Complex",
                                     "_Imaginary"])
def test_c99_keywords_outside_the_subset_are_rejected(keyword):
    with pytest.raises(UnsupportedConstruct) as exc:
        parse_source(f"double f(double x){{ {keyword} double e = x; return 0; }}", "f", "e")
    assert exc.value.span.column == 21


def test_energy_assigned_in_a_branch_or_loop_is_found():
    src = ("double f(double x){ double y = 0; if (1) { y = x; } else { double e = x; }"
           " for (int i = 0; i < 2; i++) { y = y + x; } return 0; }")
    assert parse_source(src, "f", "e").energy_var == "e"
    with pytest.raises(MissingEnergyVar):
        parse_source(src, "f", "z")


def test_scope_errors_come_before_a_missing_energy_variable():
    with pytest.raises(ParseError) as exc:
        parse_source("double f(double x){ double y = z; return 0; }", "f", "e")
    assert "'z'" in str(exc.value)


@pytest.mark.parametrize("body, name, at", [
    # an inner block's `t` would leak out of it: C computes e = 3 * x
    ("double t = x; for (int i = 0; i < 2; i++) { double t = 2 * x; } double e = t * 3;",
     "t", "t = 2"),
    ("double e = x; double e = 2;", "e", "e = 2"),
    ("double x = 1; double e = x;", "x", "x = 1"),
    ("double e = x; if (1) { double e = 2; }", "e", "e = 2"),
    ("double e = 0; for (int i = 0; i < 2; i++) { double i = 2; }", "i", "i = 2"),
    ("double e = 0; for (int i = 0; i < 2; i++) { for (int i = 0; i < 2; i++) { e = e + x; } }",
     "i", "for (int i = 0; i < 2; i++) { e"),
    ("double e = 0; double d = x; for (int d = 0; d < 2; d++) { e = e + x; }", "d", "for"),
])
def test_a_declaration_may_not_shadow_or_redeclare_a_visible_name(body, name, at):
    src = f"double f(double x){{ {body} return 0; }}"
    with pytest.raises(UnsupportedConstruct) as exc:
        parse_source(src, "f", "e")
    assert exc.value.construct == f"declaration of {name!r} shadows or redeclares a visible name"
    assert (exc.value.span.line, exc.value.span.column) == (1, src.index(at) + 1)


def test_sibling_blocks_may_each_declare_a_name():
    src = ("double f(double x){ double e = 0; for (int i = 0; i < 2; i++) { double d = x; "
           "e = e + d; } if (1) { double d = 2 * x; e = e + d; } else { double d = x; } "
           "for (int i = 0; i < 2; i++) { double d = x * x; e = e + d; } return 0; }")
    assert parse_source(src, "f", "e").energy_var == "e"
