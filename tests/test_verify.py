import importlib
import math
import struct

import numpy as np
import pytest

from acorns.derivatives import VarIndexMap, derive_bundle, substitute
from acorns.errors import AcornsError
from acorns.flatten import unroll
from acorns.interp import eval_expr
from acorns.parser import parse_source
from acorns.verify import (
    CORPUS,
    GRAD_TOL,
    FdReport,
    HESS_TOL,
    corpus_function,
    corpus_program,
    fd_gradient,
    fd_hessian,
    run_ir,
    sample_points,
    verify,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --- run_ir -------------------------------------------------------------------


def test_run_ir_matches_substituted_expression():
    fn = corpus_function("cross_entropy")
    ir, program, _ = corpus_program(fn)
    e = substitute(program)
    rng = np.random.default_rng(1)
    labels = [s.label for s in program.inputs]
    for _ in range(10):
        bindings = dict(zip(labels, rng.uniform(0.05, 0.95, len(labels))))
        assert _bits(run_ir(ir, bindings)) == _bits(eval_expr(e, bindings))


def test_run_ir_conditional_path():
    src = """
    double f(double x) {
        double e = 0;
        for (int i = 0; i < 4; i++) {
            if (i == 2) { e = e + 10 * x; } else { e = e + x; }
        }
        return 0;
    }
    """
    ir = parse_source(src, "f", "e")
    assert run_ir(ir, {"x": 1.0}) == 13.0


# --- finite differences -------------------------------------------------------


def test_fd_gradient_square():
    program = unroll(parse_source(
        "double f(double x){ double e = pow(x, 2); return 0; }", "f", "e"))
    vars_ = VarIndexMap.from_names(program, ["x"])
    fd = fd_gradient(program, vars_, np.array([3.0]))
    assert fd[0] == pytest.approx(6.0, abs=1e-9)


def test_fd_gradient_long_poly_at_one():
    fn = corpus_function("eq1")
    _, program, vars_ = corpus_program(fn)
    fd = fd_gradient(program, vars_, np.array([1.0]))
    assert fd[0] == pytest.approx(164.0 / 7.0, rel=1e-5)


def test_fd_hessian_product_poly():
    fn = corpus_function("eq3", s=2)
    _, program, vars_ = corpus_program(fn)
    h = fd_hessian(program, vars_, np.array([0.5, 0.5]))
    assert h[0, 0] == pytest.approx(-8.0, rel=1e-4)
    assert h[1, 1] == pytest.approx(-8.0, rel=1e-4)
    assert h[0, 1] == pytest.approx(0.0, abs=1e-4)
    assert h[0, 1] == h[1, 0]


def test_fd_blocks_match_one_block(monkeypatch):
    # with room for 3 rows per block the oracles evaluate their 36 and 649
    # stepped rows a block at a time, and give the same bits as in one block
    verify_module = importlib.import_module("acorns.verify")
    fn = corpus_function("barrier", s=3)
    _, program, vars_ = corpus_program(fn)
    point = sample_points(fn, program, 1, np.random.default_rng(4))[0]
    whole = [fd_gradient(program, vars_, point), fd_hessian(program, vars_, point)]
    sizes = []

    def evaluate(tape, points):
        sizes.append(len(points))
        return verify_module.evaluate.__wrapped__(tape, points)

    evaluate.__wrapped__ = verify_module.evaluate
    monkeypatch.setattr(verify_module, "evaluate", evaluate)
    monkeypatch.setattr(verify_module, "FD_BLOCK_BYTES", 3 * 8 * point.size + 7)
    blocked = [fd_gradient(program, vars_, point), fd_hessian(program, vars_, point)]
    assert sizes == [3] * 12 + [3] * 216 + [1]
    assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]


def test_fd_step_scales_with_magnitude():
    # f(x) = x^2 at a large point still differentiates accurately
    program = unroll(parse_source(
        "double f(double x){ double e = pow(x, 2); return 0; }", "f", "e"))
    vars_ = VarIndexMap.from_names(program, ["x"])
    fd = fd_gradient(program, vars_, np.array([1e6]))
    assert fd[0] == pytest.approx(2e6, rel=1e-9)


# --- sampling -----------------------------------------------------------------


def test_sample_points_seeded_reproducible():
    fn = corpus_function("eq3", s=3)
    _, program, _ = corpus_program(fn)
    a = sample_points(fn, program, 20, np.random.default_rng(7))
    b = sample_points(fn, program, 20, np.random.default_rng(7))
    assert (a == b).all()
    lo, hi = fn.boxes["x"]
    assert (a >= lo).all() and (a <= hi).all()


# --- verify -------------------------------------------------------------------


def test_verify_gradient_corpus_quick():
    for name in CORPUS:
        fn = corpus_function(name, s=3) if name == "eq3" else corpus_function(name)
        report = verify(fn, "gradient", points=20)
        assert report.ok, report.render()
        assert report.max_rel_err <= GRAD_TOL


def test_verify_hessian_quick():
    report = verify(corpus_function("eq3", s=3), "hessian", points=10)
    assert report.ok, report.render()
    assert report.max_rel_err <= HESS_TOL
    assert len(report.entries) == 3 * 4 // 2


@pytest.mark.parametrize("name", ["springs", "barrier"])
@pytest.mark.parametrize("g,do_simplify", [(3, True), (4, True), (2, False)])
def test_grid_energies_verify(name, g, do_simplify):
    # the physical-simulation and geometry-processing energies, at the
    # default seed and point count
    fn = corpus_function(name, s=g)
    assert fn.s == g
    for mode in ("gradient", "hessian"):
        report = verify(fn, mode, do_simplify=do_simplify)
        assert report.ok, report.render()
        n = 2 * g * g
        assert len(report.entries) == (n if mode == "gradient" else n * (n + 1) // 2)


def test_verify_constant_function_exact():
    report = verify(corpus_function("const_fn"), "gradient", points=5)
    assert report.ok
    assert report.max_rel_err == 0.0
    for e in report.entries:
        assert e.analytic == 0.0


def test_verify_same_seed_same_report():
    fn = corpus_function("eq2")
    a = verify(fn, "gradient", points=15, seed=99)
    b = verify(fn, "gradient", points=15, seed=99)
    assert a.render_machine() == b.render_machine()


def test_verify_rejects_bad_mode():
    with pytest.raises(AcornsError):
        verify(corpus_function("eq1"), "function")


def test_verify_rejects_no_points():
    with pytest.raises(AcornsError, match="at least 1 point"):
        verify(corpus_function("eq1"), "gradient", points=0)


def test_verify_no_simplify_agrees():
    fn = corpus_function("eq2")
    a = verify(fn, "gradient", points=10, do_simplify=True)
    b = verify(fn, "gradient", points=10, do_simplify=False)
    assert a.ok and b.ok


def test_report_rendering():
    report = verify(corpus_function("eq1"), "gradient", points=5)
    text = report.render()
    assert "verify eq1" in text
    assert "grad[0]" in text
    assert text.strip().endswith(f"max relerr {report.max_rel_err:.2e}")
    machine = report.render_machine()
    assert machine.count("\n") == len(report.entries) - 1
    assert machine.split(",")[0] == "grad[0]"


def test_report_names_the_worst_point_and_seed():
    fn = corpus_function("eq3", s=3)
    report = verify(fn, "gradient", points=12, seed=99)
    _, program, vars_ = corpus_program(fn)
    pts = sample_points(fn, program, 12, np.random.default_rng(99))
    grad = derive_bundle(program, vars_).grad
    labels = [s.label for s in program.inputs]
    for j, entry in enumerate(report.entries):
        errs = []
        for row in pts:
            analytic = eval_expr(grad[j], dict(zip(labels, row)))
            errs.append(abs(analytic - fd_gradient(program, vars_, row)[j]) / max(1.0, abs(analytic)))
        assert errs[entry.point] == entry.rel_err == max(errs)
    worst = max(report.entries, key=lambda e: e.rel_err)
    lines = report.render().splitlines()
    assert lines[0].endswith(" seed=99")
    values = ", ".join(f"{label}={v!r}" for label, v in zip(labels, pts[worst.point].tolist()))
    assert lines[-2] == f"worst {worst.name} at point {worst.point}: {values}"


def _report(points: int) -> FdReport:
    """An empty gradient report over the samples x = 0, 1, ..."""
    samples = [[float(p)] for p in range(points)]
    return FdReport("f", "gradient", GRAD_TOL, points, 0, ("x",), samples)


def test_record_fails_a_nan_at_the_last_point():
    report = _report(3)
    report.record("grad[0]", np.array([1.0, 2.0, math.nan]), np.array([1.0, 2.5, 3.0]))
    (entry,) = report.entries
    assert entry.point == 2 and math.isnan(entry.rel_err)
    assert not entry.ok and not report.ok


def test_record_names_the_first_largest_error():
    report = _report(3)
    report.record("grad[0]", np.zeros(3), np.array([1e-9, 3e-7, 3e-7]))
    (entry,) = report.entries
    assert entry.point == 1 and entry.rel_err == 3e-7


def test_a_later_nan_entry_is_the_worst():
    report = _report(2)
    report.record("grad[0]", np.zeros(2), np.array([0.5, 0.0]))
    report.record("grad[1]", np.array([0.0, math.nan]), np.zeros(2))
    assert math.isnan(report.max_rel_err)
    lines = report.render().splitlines()
    assert lines[-2] == "worst grad[1] at point 1: x=1.0"
    assert lines[-1] == "0/2 entries pass, max relerr nan"


def test_corpus_is_complete():
    assert set(CORPUS) == {"eq1", "eq2", "eq3", "cross_entropy", "function_0", "const_fn",
                           "springs", "barrier"}
    for name in CORPUS:
        fn = corpus_function(name, s=2 if name == "eq3" else None)
        corpus_program(fn)  # parses, validates and unrolls cleanly


def test_function_0_minimum():
    # 4x^3 - 9x^2 vanishes at x = 9/4
    fn = corpus_function("function_0")
    _, program, vars_ = corpus_program(fn)
    fd = fd_gradient(program, vars_, np.array([2.25]))
    assert fd[0] == pytest.approx(0.0, abs=1e-4)
