import math
import random
import struct

import numpy as np
import pytest

from acorns.errors import UnboundSlot
from acorns.flatten import unroll
import acorns.interp
from acorns.interp import compile_exprs, compile_program, eval_expr, evaluate
from acorns.parser import parse_expr, parse_source
from acorns.verify import corpus_function, corpus_program

from randgen import random_expr


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --- eval_expr ---------------------------------------------------------------


def test_eval_trig_sum_at_zero():
    fn = corpus_function("eq2")
    _, program, _ = corpus_program(fn)
    labels = [s.label for s in program.inputs]
    from acorns.derivatives import substitute

    e = substitute(program)
    assert eval_expr(e, dict.fromkeys(labels, 0.0)) == 1.0


def test_eval_product_poly_midpoint():
    fn = corpus_function("eq3", s=2)
    _, program, _ = corpus_program(fn)
    from acorns.derivatives import substitute

    e = substitute(program)
    # 4^2 * 0.25 * 0.25 at x = (0.5, 0.5)
    assert eval_expr(e, {"x[0]": 0.5, "x[1]": 0.5}) == 1.0


def test_eval_cross_entropy_value():
    fn = corpus_function("cross_entropy")
    _, program, _ = corpus_program(fn)
    from acorns.derivatives import substitute

    e = substitute(program)
    bindings = {s.label: (0.5 if s.param == "a" else 0.25) for s in program.inputs}
    got = eval_expr(e, bindings)
    assert got == pytest.approx(-math.log(0.50001), rel=1e-15)
    assert got == pytest.approx(0.693127, abs=1e-6)


def test_eval_unbound_slot():
    with pytest.raises(UnboundSlot):
        eval_expr(parse_expr("x + y"), {"x": 1.0})


def test_eval_division_by_zero_matches_c():
    assert eval_expr(parse_expr("1 / x"), {"x": 0.0}) == math.inf
    assert eval_expr(parse_expr("-1 / x"), {"x": 0.0}) == -math.inf
    assert math.isnan(eval_expr(parse_expr("0 / x"), {"x": 0.0}))
    assert math.isnan(eval_expr(parse_expr("log(x)"), {"x": -1.0}))
    assert eval_expr(parse_expr("log(x)"), {"x": 0.0}) == -math.inf
    assert math.isnan(eval_expr(parse_expr("sqrt(x)"), {"x": -4.0}))


def test_eval_comparisons():
    assert eval_expr(parse_expr("x < 2"), {"x": 1.0}) == 1.0
    assert eval_expr(parse_expr("x == 2"), {"x": 1.0}) == 0.0


# --- tape compilation and evaluation -----------------------------------------


def test_tape_matches_eval_expr_on_corpus():
    for name, s in [("eq1", None), ("eq2", None), ("eq3", 3), ("cross_entropy", None)]:
        fn = corpus_function(name, s=s)
        _, program, _ = corpus_program(fn)
        tape = compile_program(program)
        labels = tape.slots
        rng = np.random.default_rng(5)
        from acorns.verify import sample_points

        pts = sample_points(fn, program, 30, rng)
        got = evaluate(tape, pts)
        from acorns.derivatives import substitute

        e = substitute(program)
        for p in range(pts.shape[0]):
            ref = eval_expr(e, dict(zip(labels, pts[p])))
            assert _bits(got[p, 0]) == _bits(ref)


def test_compile_exprs_multi_output():
    exprs = [parse_expr("x + y"), parse_expr("x * y"), parse_expr("pow(x, 2)")]
    tape = compile_exprs(exprs, ["x", "y"])
    out = evaluate(tape, np.array([[3.0, 4.0]]))
    assert out.tolist() == [[7.0, 12.0, 9.0]]


def test_compile_exprs_unbound_slot():
    with pytest.raises(UnboundSlot):
        compile_exprs([parse_expr("q")], ["x"])


def test_shared_subtrees_compile_once():
    from acorns.cast import Binary, Var

    x = Var("x")
    xx = Binary("*", x, x)
    e = Binary("+", xx, xx)
    tape = compile_exprs([e], ["x"])
    # load, mul, add: each shared object is emitted a single time
    assert tape.ops.shape[0] == 3


def _parity_case():
    rng = random.Random(42)
    exprs = [random_expr(rng, ["x", "y", "z"], depth=6) for _ in range(40)]
    # include singular operations on purpose
    exprs.append(parse_expr("1 / (x - x)"))
    exprs.append(parse_expr("log(x - y - y)"))
    exprs.append(parse_expr("sqrt(x - 10)"))
    exprs.append(parse_expr("pow(x - 2, 0.5)"))
    nprng = np.random.default_rng(42)
    return exprs, nprng.uniform(0.5, 2.0, size=(50, 3))


def test_evaluate_bitwise_parity_with_eval_expr():
    exprs, pts = _parity_case()
    tape = compile_exprs(exprs, ["x", "y", "z"])
    got = evaluate(tape, pts)
    ref = np.array([[eval_expr(e, dict(zip("xyz", row))) for e in exprs] for row in pts.tolist()])
    # bitwise equal except that NaN payloads may differ between numpy and Python
    nan = np.isnan(got) & np.isnan(ref)
    assert np.array_equal(np.isnan(got), np.isnan(ref)) and nan.sum() > 0
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def test_evaluate_chunks_match_single_chunk(monkeypatch):
    exprs, pts = _parity_case()
    tape = compile_exprs(exprs, ["x", "y", "z"])
    whole = evaluate(tape, pts)
    # 7 points per chunk: 50 points end in a partial chunk
    monkeypatch.setattr(acorns.interp, "CHUNK_CELLS", 7 * tape.ops.shape[0])
    assert evaluate(tape, pts).tobytes() == whole.tobytes()


_INF = math.inf


@pytest.mark.parametrize("src,x,y,expected", [
    ("exp(x)", 800.0, 0.0, _INF),
    ("sin(x)", _INF, 0.0, math.nan),
    ("sin(x)", -_INF, 0.0, math.nan),
    ("cos(x)", _INF, 0.0, math.nan),
    ("cos(x)", -_INF, 0.0, math.nan),
    ("tan(x)", _INF, 0.0, math.nan),
    ("tan(x)", -_INF, 0.0, math.nan),
    ("pow(x, y)", 0.0, -1.0, _INF),
    ("pow(x, y)", -0.0, -1.0, -_INF),
    ("pow(x, y)", -0.0, -2.0, _INF),
    ("pow(x, y)", -0.0, -0.5, _INF),
    ("pow(x, y)", -10.0, 400.0, _INF),
    ("pow(x, y)", -10.0, 400.5, math.nan),
    ("pow(x, y)", -10.0, 401.0, -_INF),
])
def test_intrinsics_follow_c99_annex_f(src, x, y, expected):
    e = parse_expr(src)
    tape = compile_exprs([e], ["x", "y"])
    for got in (eval_expr(e, {"x": x, "y": y}), evaluate(tape, np.array([[x, y]]))[0, 0]):
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(expected)


def test_evaluate_shape_checks():
    tape = compile_exprs([parse_expr("x")], ["x", "y"])
    with pytest.raises(ValueError):
        evaluate(tape, np.zeros((3, 5)))
    out = evaluate(tape, np.array([1.0, 2.0]))  # 1-D point promoted to one row
    assert out.shape == (1, 1)


def test_program_tape_local_reuse():
    src = """
    double f(double x) {
        double t = x * x;
        double e = t + t;
        e = e * t;
        return 0;
    }
    """
    p = unroll(parse_source(src, "f", "e"))
    tape = compile_program(p)
    out = evaluate(tape, np.array([[2.0]]))
    assert out[0, 0] == 32.0
