"""The element path: a loop body differentiated once and emitted as a loop.

The oracle of every kernel here is the unrolled path's kernel, built
through `derive_bundle` and `emit` over `unroll`, or gcc itself compiling
the input function.
"""

import contextlib
import ctypes
import hashlib
import io
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from acorns import cli, elements, flatten
from acorns.cli import main
from acorns.cast import Binary, const
from acorns.codegen import EmitConfig, emit
from acorns.derivatives import VarIndexMap, derive_bundle, layout_slots
from acorns.elements import ElementLoops, element_loops
from acorns.flatten import dump_text, serialize, unroll
from acorns.parser import parse_source
from acorns.verify import (CORPUS, CROSS_ENTROPY_SRC, CorpusFunction, corpus_function, run_ir,
                           sample_points)

from cc_util import compile_strict, run_drivers
from randgen import random_element_program, random_loop_program

# the benchmark's grad_steps input
GRAD_STEPS_SRC = """\
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

_MODES = ("function", "gradient")


def _emissions(src, func, energy, names, modes=_MODES, basename="k"):
    """(the element path's artifact or None, the unrolled one, the program),
    each as the command line would emit it for `modes`."""
    ir = parse_source(src, func, energy)
    program = unroll(ir)
    vars_ = VarIndexMap.from_names(program, names)
    cfg = EmitConfig(mode=frozenset(modes), basename=basename, var_names=tuple(names))
    want_gradient = "gradient" in modes or "hessian" in modes
    bundle = derive_bundle(program, vars_, want_gradient=want_gradient,
                           want_hessian="hessian" in modes)
    unrolled = emit(bundle, vars_, cfg, program)
    loops = element_loops(ir, names)
    if loops is None:
        return None, unrolled, program
    assert loops.vars_ == vars_
    bundles = tuple(derive_bundle(nest.program, nest.vars_, want_gradient="gradient" in modes,
                                  want_hessian=False) for nest in loops.nests)
    return emit(bundles, loops.vars_, cfg, loops), unrolled, program


def _parity(cc, directory, element, unrolled, points, n):
    """Compile both at -O2 into poisoned buffers and compare every driver at
    rtol 1e-12 (of the largest magnitude, for a sum that cancels); returns
    which drivers agree bitwise."""
    got = run_drivers(cc, element, str(directory / "element"), "k", points, n)
    want = run_drivers(cc, unrolled, str(directory / "unrolled"), "k", points, n)
    assert got.keys() == want.keys()
    bitwise = {}
    for mode in want:
        scale = np.abs(want[mode]).max()
        assert np.isfinite(want[mode]).all()
        np.testing.assert_allclose(got[mode], want[mode], rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=mode)
        bitwise[mode] = got[mode].tobytes() == want[mode].tobytes()
    return bitwise


@pytest.mark.parametrize("name,s", [("cross_entropy", None),
                                    *(("springs", g) for g in range(2, 11)),
                                    *(("barrier", g) for g in range(2, 11))])
def test_element_kernels_match_unrolled_kernels(cc, tmp_path, name, s):
    fn = corpus_function(name, s=s)
    element, unrolled, program = _emissions(fn.source, fn.func_name, fn.energy_var,
                                            fn.var_names)
    assert element is not None and "for (int i1 = 0; " in element.sources[0][1]
    points = sample_points(fn, program, 200, np.random.default_rng(22))
    n = len(VarIndexMap.from_names(program, fn.var_names).labels)
    bitwise = _parity(cc, tmp_path, element, unrolled, points, n)
    # the value accumulates in loop order on both paths
    assert bitwise["function"]


def test_grad_steps_element_kernels(cc, tmp_path):
    element, unrolled, program = _emissions(GRAD_STEPS_SRC, "cross_entropy", "loss", ["a"])
    text = element.sources[0][1]
    assert ", v3 = i0 + 1;" in text  # (t + 1) as a double, computed in int
    assert len(text) < len(unrolled.sources[0][1]) // 20
    points = np.random.default_rng(23).uniform(0.01, 1.0, size=(300, 200))
    bitwise = _parity(cc, tmp_path, element, unrolled, points, 100)
    assert bitwise["function"]


# two nests, an `int` local in bounds and indices, a triangular inner loop,
# reads of one element under two index expressions and as two operands,
# a counter and a counter expression as doubles, and an accumulation that
# goes on adding terms
_SHAPES_SRC = """\
double f(const double *x, double u, const double **w) {
    double e = 1.5;
    int n = 4;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j <= i; j++) {
            double d = x[i] - x[j] * u;
            e = e + d * d - w[i][j] * x[j + 0] / (i + 2) + 0.5 * j * x[j];
        }
    }
    for (int k = n - 1; k >= 0; k -= 2) {
        double s = sin(x[k] * w[k][n - 1 - k]);
        s = s * s;
        e = e - s / (1 + k * k);
    }
    return 0;
}
"""


def test_element_shapes_match_unrolled_kernels(cc, tmp_path):
    element, unrolled, program = _emissions(_SHAPES_SRC, "f", "e", ["x", "u"])
    text = element.sources[0][1]
    assert "for (int i1 = 0; i1 <= i0; ++i1) {" in text
    assert "for (int i0 = 4 - 1; i0 >= 0; i0 = i0 - 2) {" in text
    assert "double e = 1.5;" in text
    points = np.random.default_rng(24).uniform(0.5, 1.5, size=(200, len(program.inputs)))
    bitwise = _parity(cc, tmp_path, element, unrolled, points, 5)
    assert bitwise["function"]


_NO_READ_SRC = """\
double f(double x) {
    double e = 0;
    for (int i = 0; i < 3; i++) { e = e + 0.5 * i; }
    return 0;
}
"""


@pytest.mark.parametrize("src,func,energy,names", [
    (_SHAPES_SRC, "f", "e", ["x", "u"]), (GRAD_STEPS_SRC, "cross_entropy", "loss", ["a"]),
    (_NO_READ_SRC, "f", "e", ["x"]),
    *[(fn.source, fn.func_name, fn.energy_var, list(fn.var_names))
      for fn in (corpus_function("springs", s=4), corpus_function("barrier", s=4),
                 corpus_function("cross_entropy"))]],
    ids=["shapes", "grad_steps", "no_read", "springs_4", "barrier_4", "cross_entropy"])
def test_element_output_compiles_strictly(cc, tmp_path, src, func, energy, names):
    element, _, _ = _emissions(src, func, energy, names)
    assert element is not None  # the input takes the element path
    compile_strict(cc, element, str(tmp_path), "k")


def test_element_statements_count_the_loop_body_lines():
    element, _, _ = _emissions(GRAD_STEPS_SRC, "cross_entropy", "loss", ["a"])
    # one `e = ...;` and one `out[...] += ...;` per loop body, not per element
    assert element.n_statements == 2
    fn = corpus_function("springs", s=4)
    element, _, _ = _emissions(fn.source, fn.func_name, fn.energy_var, fn.var_names)
    assert element.n_statements == 1 + 8  # eight reads of x per element


# `0 * x[i + 1]` makes x[4]'s gradient entry, and every Hessian entry off the diagonal, +0
PLUS_ZERO_SRC = ("double f(const double *x) {\n    double e = 0;\n"
                 "    for (int i = 0; i < 4; i++) {\n        e = e + x[i] * x[i] + 0 * x[i + 1];\n"
                 "    }\n    return e;\n}\n")


def _out_lines(files: dict) -> list:
    return [line.strip() for line in files["k_part0.c"].decode().splitlines()
            if line.strip().startswith("out[")]


def test_a_plus_zero_entry_is_written_only_in_an_unrolled_gradient(tmp_path):
    (tmp_path / "element").mkdir()
    (tmp_path / "unrolled").mkdir()
    # the element gradient zero-fills, so its +0 entry writes no line, nor loads x[i + 1]
    element = _cli_files(tmp_path / "element", PLUS_ZERO_SRC, _MODES, (), names=("x",))
    assert "    for (int k = 0; k < 5; ++k) out[k] = 0;" in element["k_part0.c"].decode()
    assert _out_lines(element) == ["out[0] = e;", "out[i0] += v1 + v1;"]
    assert b"v2" not in element["k_part0.c"]
    # with the Hessian it unrolls: the gradient writes every entry, the Hessian no +0 one
    unrolled = _cli_files(tmp_path / "unrolled", PLUS_ZERO_SRC, ("gradient", "hessian"), (),
                          names=("x",))
    assert "        for (int k = 0; k < 25; ++k) h[k] = 0;" in unrolled["k_part0.c"].decode()
    assert _out_lines(unrolled) == [*(f"out[{i}] = x_{i} + x_{i};" for i in range(4)),
                                    "out[4] = 0;", *(f"out[{6 * i}] = 2;" for i in range(4))]


def test_element_emission_is_one_file_whatever_the_split():
    fn = corpus_function("barrier", s=6)
    loops = element_loops(parse_source(fn.source, fn.func_name, fn.energy_var), ["x"])
    bundles = tuple(derive_bundle(nest.program, nest.vars_, want_hessian=False)
                    for nest in loops.nests)
    art = [emit(bundles, loops.vars_, EmitConfig(mode=frozenset(_MODES), split_target_bytes=size,
                                           basename="k"), loops)
           for size in (2**16, 2**24)]
    assert art[0] == art[1] and len(art[0].sources) == 1


# --- the element path without unrolling -------------------------------------------


def _generate(tmp_path, src, func, energy, names, modes=_MODES, flags=()):
    """The command line run on `src` in a new directory: its exit code, its
    stderr with the input's path written `f.c`, and the sha256 of each
    file it wrote."""
    work = tmp_path / f"run{len(os.listdir(tmp_path))}"
    (work / "out").mkdir(parents=True)
    (work / "f.c").write_text(src)
    argv = [str(work / "f.c"), energy, "--func", func, "--mode", *modes,
            "--output_filename", str(work / "out" / "k"), *flags]
    if names:
        argv += ["--vars", *names]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    files = {name: (work / "out" / name).read_bytes() for name in os.listdir(work / "out")}
    return rc, err.getvalue().replace(str(work / "f.c"), "f.c"), _digests(files)


def _digest(digests: dict) -> str:
    """One sha256 over the files' names and sha256s."""
    lines = "".join(f"{name} {digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()


def _refuse_unrolling(monkeypatch):
    def unrolled(*args, **kwargs):
        raise AssertionError("unrolled")

    monkeypatch.setattr(flatten, "unroll", unrolled)
    monkeypatch.setattr(cli, "unroll", unrolled)


def _element_inputs() -> dict:
    inputs = {"grad_steps": (GRAD_STEPS_SRC, "cross_entropy", "loss", ["a"]),
              "shapes": (_SHAPES_SRC, "f", "e", ["x", "u"])}
    for name, sizes in (("cross_entropy", [None]), ("springs", range(2, 11)),
                        ("barrier", range(2, 11))):
        for s in sizes:
            fn = corpus_function(name, s=s)
            inputs[f"{name}{s or ''}"] = (fn.source, fn.func_name, fn.energy_var,
                                          list(fn.var_names))
    return inputs


_ELEMENT_INPUTS = _element_inputs()

# the sha256 (`_digest`) of what `--mode function gradient` wrote for each
# input before the element path stopped unrolling
_ELEMENT_DIGESTS = {
    "grad_steps": "f37b80deaae6c91fe837f53f8edf2561cac20229e5584d5e9b1605203ed33454",
    "shapes": "81b10c909475160e077254ad16ce12f1f23f86d0a152932e6b751feabd9a3ac0",
    "cross_entropy": "1038bd33ebaa62d77d35aa277e973c6f9d0cb52fcc61755c67110012ea90c7a0",
    "springs2": "74907f3e47cfac7f534a6c50f610282cf982534e8a9eea024d913b9d8b4073fb",
    "springs3": "ee79bbaa7b4254223a5786daf14bbef53ccd6d116e21ea42e64b9cf9e5decb15",
    "springs4": "3be01dda67952aa03f0f939dc5580ffae9967bbf6305c62303475f701a18cf58",
    "springs5": "aae593f540dbcdaf6e3a947bbb039cf624a7caddcd3e84c059549960a2642d99",
    "springs6": "d917765379b7ab1163abb371c42b0eb215d010246059aec03924b6ad8dcc820b",
    "springs7": "ac95a12df8e4a16cff69a5a059f835e5cf2f53e62397a24b3540af49b22a2dad",
    "springs8": "f80f7b5c8cae6ef2373de265006b57f3da593cb0e998881c8b4502d304fb67c0",
    "springs9": "d8fc0cd995a7a4bbf9107c16eb74a63e2282627df3397b59ecaec4d527a7d334",
    "springs10": "2c865e9b3ca36735864ff5ea630e20be841e155017e1d6090f1248794d4d43a3",
    "barrier2": "4fc0c66a81d35e421d6f9a7bc6c67064e2099305ca7feba07cb903ea61b8773b",
    "barrier3": "f4bc108ef5a5e00b48acaa0a71255da590ed1a49e8407d01be22db4bbc599968",
    "barrier4": "d2997da46d7533cbf4b2ce2eaad4416639183ecc4eb3ac123cf53534d07f4a1a",
    "barrier5": "12401cca4a440e0ff2a020f0cdd97d94379425e7715b5ef43d3f72fd0d1eb7be",
    "barrier6": "8d1f17b675fd26a8b64bf2d22f6d788f7e32197c56a3aa867352570b31d936e2",
    "barrier7": "5ff27bdea07daae3c6b883cee27c3ae49c23d0126968860c799427f5fa4eb231",
    "barrier8": "7e7c53146afe93bb770228b0e453dc34edd5f9d9ba20890986587786705aa788",
    "barrier9": "80586134eb91b692ecbbd50190202b6ce8a66bfc273b20af51a9e45671d6432c",
    "barrier10": "6c3dfa08a86235602d1327fc46f6624db1cb6f2b71484e8e6b21615f59fc0708",
}


@pytest.mark.parametrize("name", list(_ELEMENT_INPUTS))
def test_element_path_emits_the_same_bytes_without_unrolling(tmp_path, monkeypatch, name):
    _refuse_unrolling(monkeypatch)
    rc, err, digests = _generate(tmp_path, *_ELEMENT_INPUTS[name])
    assert (rc, err) == (0, "")
    assert _digest(digests) == _ELEMENT_DIGESTS[name]


@pytest.mark.parametrize("name", ["grad_steps", "springs5", "shapes"])
def test_dump_slp_on_the_element_path_unrolls_only_for_the_dump(tmp_path, monkeypatch, name):
    src, func, energy, names = _ELEMENT_INPUTS[name]
    calls = []
    monkeypatch.setattr(cli, "unroll", lambda ir: calls.append(ir) or unroll(ir))
    rc, err, digests = _generate(tmp_path, src, func, energy, names, flags=["--dump-slp"])
    assert (rc, err, len(calls)) == (0, "", 1)
    program = unroll(parse_source(src, func, energy))
    assert digests.pop("k.slp") == hashlib.sha256(serialize(program)).hexdigest()
    assert digests.pop("k.slp.txt") == hashlib.sha256(dump_text(program).encode()).hexdigest()
    assert _digest(digests) == _ELEMENT_DIGESTS[name]


# inputs of the element path's shape that unrolling rejects: the walk over
# the loop counters declines them, and the command line says what the
# unroller says, at the same place, with the same exit code
_FAULT_LOOP = """\
double f(const double{decl}, double u) {{
    double e = 0;
    for (int {c} = 0; {c} < {n}; {c}++) {{
        {body}
    }}
    return 0;
}}
"""


def _fault(term, decl=" *x", c="i"):
    return _FAULT_LOOP.format(decl=decl, c=c, n=5, body=f"e = e + {term};")


_FAULTS = {
    "out_of_range_late": (_fault("x[i] * u", decl=" x[4]"),
                          1, "acorns_autodiff: f.c: 4:17: index 4 out of range for 'x'\n"),
    "negative_late": (_fault("x[3 - i] * u"),
                      1, "acorns_autodiff: f.c: 4:17: index -1 out of range for 'x'\n"),
    "negative": (_fault("x[i - 1] * u"),
                 1, "acorns_autodiff: f.c: 4:17: index -1 out of range for 'x'\n"),
    "wrong_rank": (_fault("x[i][0] * u"), 1, "acorns_autodiff: f.c: 4:17: unsupported "
                                             "construct: 2 index(es) into 1-dimensional 'x'\n"),
    # -2 at i = 2, before the division by zero at i = 3
    "division_in_index": (_fault("x[i / (i - 3)] * u"),
                          1, "acorns_autodiff: f.c: 4:17: index -2 out of range for 'x'\n"),
    "division_by_zero_in_index": (
        _fault("x[i / (3 - i)] * u"),
        1, "acorns_autodiff: f.c: 4:21: division by zero in constant expression\n"),
    "division_by_zero_in_term": (
        _fault("x[0] * (1 / (t - 3))", c="t"),
        1, "acorns_autodiff: f.c: 4:27: division by zero in constant expression\n"),
    # `int` arithmetic that overflows, in C undefined: at i = 1
    "int_overflow_in_term": (
        _fault("x[i] * (i * 50000 * 50000 + 1)"),
        1, "acorns_autodiff: f.c: 4:35: int overflow in constant expression\n"),
    "int_overflow_in_index": (
        _fault("x[i * 65536 * 65536] * u"),
        1, "acorns_autodiff: f.c: 4:29: int overflow in constant expression\n"),
    # a value outside `int`'s range, which C would convert where an `int`
    # name stores it: an `int` local, and a counter's update
    "int_local_out_of_range": (
        _fault("x[i] * k").replace("e = 0;\n", "e = 0;\n    int k = 3000000000;\n"),
        1, "acorns_autodiff: f.c: 3:13: value 3000000000 out of range for int\n"),
    "int_counter_out_of_range": (
        _fault("x[0] * u").replace("i++", "i = i + 2147483648"),
        1, "acorns_autodiff: f.c: 3:34: value 2147483648 out of range for int\n"),
    # a write to a loop counter, which the run over symbolic counters refuses
    "counter_write": (
        _FAULT_LOOP.format(decl=" *x", c="i", n=5, body="e = e + x[i] * u; i = i + 1;"),
        1, "acorns_autodiff: f.c: 4:27: unsupported construct: assignment to a loop counter\n"),
    # past a cap of 50: 1 + 17 * 3 assignments, and a loop of 60 iterations
    "over_the_assignment_cap": (
        _FAULT_LOOP.format(decl=" *x", c="i", n=17,
                           body="e = e + x[i]; e = e + u; e = e + x[i] * u;"),
        3, "acorns_autodiff: unrolled assignment count 51 exceeds cap 50\n"),
    "over_the_iteration_cap": (
        _FAULT_LOOP.format(decl=" *x", c="i", n=60,
                           body="for (int j = 0; j < 0; j++) { e = e + x[j]; }"),
        3, "acorns_autodiff: loop iteration count 51 exceeds cap 50\n"),
}


@pytest.mark.parametrize("name", list(_FAULTS))
def test_element_faults_exit_as_unrolling_does(tmp_path, monkeypatch, name):
    src, want_rc, want_err = _FAULTS[name]
    monkeypatch.setattr(flatten, "DEFAULT_ASSIGN_CAP", 50)
    assert element_loops(parse_source(src, "f", "e"), ["x"]) is None
    rc, err, digests = _generate(tmp_path, src, "f", "e", ["x"])
    assert (rc, err, digests) == (want_rc, want_err, {})


def test_the_assignment_cap_itself_takes_the_element_path(tmp_path, monkeypatch):
    # 1 + 7 * 2 + 35 assignments: the cap of 50 is reached, not passed
    src = ("double f(const double *x, double u) {\n    double e = 0;\n"
           "    for (int i = 0; i < 7; i++) { double d = x[i] * u; e = e + d * d; }\n"
           "    for (int i = 0; i < 35; i++) { e = e + x[i]; }\n    return 0;\n}\n")
    monkeypatch.setattr(flatten, "DEFAULT_ASSIGN_CAP", 50)
    _refuse_unrolling(monkeypatch)
    rc, err, _ = _generate(tmp_path, src, "f", "e", ["x"])
    assert (rc, err) == (0, "")
    monkeypatch.setattr(flatten, "DEFAULT_ASSIGN_CAP", 49)
    assert element_loops(parse_source(src, "f", "e"), ["x"]) is None


def test_long_chains_in_a_bound_and_an_index_walk_at_the_default_recursion_limit(
        tmp_path, monkeypatch):
    # the walk evaluates headers and indices by `eval_const`, whose loop over
    # `const_order` holds no Python frame per level of a 2,000-term chain
    zeros = " + 0" * 1999
    src = _FAULT_LOOP.format(decl=" *x", c="i", n=f"3{zeros}", body=f"e = e + x[i{zeros}] * u;")
    assert sys.getrecursionlimit() < 2000
    loops = element_loops(parse_source(src, "f", "e"), ["x"])
    assert [s.label for s in loops.inputs] == ["x[0]", "x[1]", "x[2]", "u"]
    _refuse_unrolling(monkeypatch)
    rc, err, digests = _generate(tmp_path, src, "f", "e", ["x"])
    assert (rc, err, sorted(digests)) == (0, "", ["k.h", "k_part0.c"])


# --- which inputs fall back -------------------------------------------------------

_LOOP = """\
double f(const double *x, double u) {{
    double e = 0;
{pre}    for (int i = 0; i < 5; i++) {{
        {body}
    }}
    return 0;
}}
"""

_FALLBACKS = {
    "if": ("", "if (i > 1) { e = e + x[i] * u; }", _MODES, ()),
    "carried_local": ("    double c = 1;\n", "c = c * x[i]; e = e + c;", _MODES, ()),
    "energy_in_term": ("", "e = e + e * x[i];", _MODES, ()),
    "product": ("", "e *= x[i] + u;", _MODES, ()),
    "parameter_write": ("", "x[i] = x[i] * u; e = e + x[i];", _MODES, ()),
    "array_local": ("", "double d[1]; d[0] = x[i]; e = e + d[0];", _MODES, ()),
    "int_local": ("", "int k = i + 1; e = e + x[i] * k;", _MODES, ()),
    "no_accumulation": ("", "double d = x[i] * u; d = d * d;", _MODES, ()),
    "hessian": ("", "double d = x[i] * u; e = e + d * d;", (*_MODES, "hessian"), ()),
    "no_simplify": ("", "double d = x[i] * u; e = e + d * d;", _MODES, ("--no-simplify",)),
}


def _cli_files(tmp_path, src, modes, flags, names=("x", "u")):
    (tmp_path / "f.c").write_text(src)
    stem = str(tmp_path / "out" / "k")
    assert main([str(tmp_path / "f.c"), "e", "--vars", *names, "--func", "f", "--mode",
                 *modes, "--output_filename", stem, *flags]) == 0
    files = sorted(p for p in os.listdir(tmp_path / "out"))
    return {name: (tmp_path / "out" / name).read_bytes() for name in files}


def _unrolled_files(src, modes, simplified, names=("x", "u")):
    program = unroll(parse_source(src, "f", "e"))
    vars_ = VarIndexMap.from_names(program, names)
    bundle = derive_bundle(program, vars_, do_simplify=simplified,
                           want_hessian="hessian" in modes)
    cfg = EmitConfig(mode=frozenset(modes), basename="k", simplified=simplified,
                     source_name="f.c", var_names=tuple(names))
    art = emit(bundle, vars_, cfg, program)
    return {"k.h": art.header.encode(), **{f: text.encode() for f, text in art.sources}}


def _digests(files):
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.mark.parametrize("kind", list(_FALLBACKS))
def test_fallback_emits_the_unrolled_bytes(tmp_path, kind):
    pre, body, modes, flags = _FALLBACKS[kind]
    src = _LOOP.format(pre=pre, body=body)
    got = _cli_files(tmp_path, src, modes, flags)
    assert _digests(got) == _digests(_unrolled_files(src, modes, not flags))
    assert b"for (int i0" not in got["k_part0.c"]


def test_the_same_loop_takes_the_element_path(tmp_path):
    # the control of the fallback tests: their Hessian and --no-simplify input
    src = _LOOP.format(pre="", body=_FALLBACKS["hessian"][1])
    got = _cli_files(tmp_path, src, _MODES, ())
    assert b"    for (int i0 = 0; i0 < 5; ++i0) {" in got["k_part0.c"]
    assert _digests(got) != _digests(_unrolled_files(src, _MODES, True))


# sha256 of what the benchmark's hess_expand and hess_verify sessions emit:
# product loops with a Hessian, which stay unrolled byte for byte
_PROD_POLY = """\
double prod_poly(const double *x) {{
    double e = 1;
    for (int i = 0; i < {s}; i++) {{
        e = e * (4 * x[i] * (1 - x[i]));
    }}
    return 0;
}}
"""

_WORKLOAD_DIGESTS = {
    "hess_expand": (12, ("--no-simplify", "--split-size", "262144"), {
        "der.h": "486906e76d6c299fc9b4948275902c07eb63a96a0d28ff687d9c57a7e0dbc8dd",
        "der_part0.c": "58d361780aae3ea11e7ff30732bad8e1d17cba212a6749caa46b675cb1bcbef1",
        "der_part1.c": "e6dc4d1c5510217b5df12ed5af8343109c8fd93b2c023a6743d0856001cc27e2",
        "der_part2.c": "115708a148af5c53fd0905ef76c1db3d739d9f3589d4081ef04417db2988af5a",
        "der_part3.c": "af480aa119e31415220729629051fff91cc415b9fcaaa69926c5162f9260202b",
        "der_part4.c": "62212463cd2fd0af45ea95a27d064c4a31165c9c0788119bc21ee04886a2f1da",
        "der_part5.c": "8ef87231b3a6221bf212e1ba420c305a6d5e9edb8b09cc85e6d9d743e60ae24b",
        "der_part6.c": "d76acb000de5923bce0d7b2c297ff3bb0de741f27fc9ae6859e95fb3ea8a0f9e",
        "der_part7.c": "8343fc3ffaa84b5269e4058c5f0fdc989cb01006fde49edecad3838562b8007e",
        "der_part8.c": "e3711ad3c023daed33d8f3f292125fad5ff92b10fb354c829cddb50891ad6de7",
    }),
    "hess_verify": (20, (), {
        "der.h": "ed901642083bc354b9f3ac4c0b14702a9138c4a0af9edbe5285a02ce9a0b7255",
        "der_part0.c": "3064418ed2cd73566169ac685bb52cf9129702165a10133c35996d52cf6faff2",
    }),
}


@pytest.mark.parametrize("name", list(_WORKLOAD_DIGESTS))
def test_hessian_workloads_emit_the_same_bytes(tmp_path, monkeypatch, name):
    s, flags, digests = _WORKLOAD_DIGESTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prod_poly.c").write_text(_PROD_POLY.format(s=s))
    assert main(["prod_poly.c", "e", "--vars", "x", "--func", "prod_poly",
                 "--output_filename", "der", "--mode", "function", "gradient", "hessian",
                 *flags]) == 0
    files = sorted(p for p in os.listdir(tmp_path) if p.startswith("der"))
    assert _digests({f: (tmp_path / f).read_bytes() for f in files}) == digests


# --- random loop programs ------------------------------------------------------------


def test_random_loop_programs_fall_back_or_agree(cc, tmp_path):
    rng = random.Random(2222)
    nprng = np.random.default_rng(2222)
    element = fallback = 0
    for k in range(60):
        src, func, energy = random_loop_program(rng, accumulate=True)
        program = unroll(parse_source(src, func, energy))
        names = [p for p in ("a", "u") if p in program.param_slots]
        (tmp_path / f"r{k}.c").write_text(src)
        stem = str(tmp_path / f"r{k}" / "k")
        assert main([str(tmp_path / f"r{k}.c"), energy, "--vars", *names, "--func", func,
                     "--mode", *_MODES, "--output_filename", stem]) == 0
        with open(stem + "_part0.c") as fh:
            cli_text = fh.read()
        got, unrolled, _ = _emissions(src, func, energy, names, basename=stem)
        if got is None:
            fallback += 1
            assert cli_text == unrolled.sources[0][1].replace("source: <in-memory>",
                                                              f"source: r{k}.c")
            continue
        element += 1
        assert "for (int i0 = " in cli_text
        points = nprng.uniform(0.5, 2.0, size=(40, len(program.inputs)))
        n = VarIndexMap.from_names(program, names).n
        _parity(cc, tmp_path / f"r{k}", got, unrolled, points, n)
    assert element >= 15 and fallback >= 15, (element, fallback)


# the sha256 over the 60 `_digest`s of the programs below, element or
# fallback; it differs from the bytes emitted before the element path
# stopped unrolling only by the `#include <math.h>` lines a part that calls
# no math function no longer writes
_RANDOM_DIGEST = "b363f8469a47b2d6f776c03103837720a38dac085a3a145640bb0ea580a48d97"


def test_random_loop_programs_emit_the_same_bytes(tmp_path):
    rng = random.Random(2222)
    digests = []
    for _ in range(60):
        src, func, energy = random_loop_program(rng, accumulate=True)
        program = unroll(parse_source(src, func, energy))
        names = [p for p in ("a", "u") if p in program.param_slots]
        rc, err, got = _generate(tmp_path, src, func, energy, names)
        assert (rc, err) == (0, "")
        digests.append(_digest(got))
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == _RANDOM_DIGEST


def test_random_element_programs_fold_their_integers_as_gcc_does(cc, tmp_path):
    # `int` locals and integer arithmetic meeting doubles, in indices and
    # in slots: each element kernel compiles strictly, computes what the
    # unrolled kernel computes, and verifies
    rng = random.Random(2929)
    nprng = np.random.default_rng(2929)
    element = 0
    for k in range(30):
        src, func, energy = random_element_program(rng)
        names = [p for p in ("x", "u") if p in unroll(parse_source(src, func, energy)).param_slots]
        got, unrolled, program = _emissions(src, func, energy, names)
        if got is None:
            continue
        element += 1
        compile_strict(cc, got, str(tmp_path / f"s{k}"), "k")
        points = nprng.uniform(0.5, 1.5, size=(10, len(program.inputs)))
        _parity(cc, tmp_path / f"r{k}", got, unrolled, points,
                VarIndexMap.from_names(program, names).n)
        fn = CorpusFunction(f"r{k}", src, func, energy, tuple(names),
                            dict.fromkeys(names, (0.5, 1.5)))
        assert _VERIFY_MODULE.verify(fn, points=3).ok, src
    assert element >= 25, element


# --- integer subexpressions in double arithmetic ---------------------------------

_INT_DIV = {
    "constant": "double f(const double *x) {\n    double e = x[0] * (1 / 2);\n    return e;\n}\n",
    "counter": ("double f(const double *x) {\n    double e = 0;\n"
                "    for (int i = 0; i < 4; i++) { e = e + x[0] * (i / 2); }\n"
                "    return e;\n}\n"),
    # C truncates toward zero, and -i is an int, +0 at i = 0
    "truncation": ("double f(const double *x) {\n    double e = 0;\n    int n = 7;\n"
                   "    for (int i = 0; i < 6; i++) {\n"
                   "        e = e + x[0] * ((i - n) / 2) + x[1] * (-i * (3 / 2)) - (i < 2);\n"
                   "    }\n    return e;\n}\n"),
    # a comparison of integers folds as C computes it, and a comparison
    # divided by a double divides in double
    "comparison": ("double f(const double *x) {\n    double e = 0;\n"
                   "    for (int i = 0; i < 3; i++) {\n"
                   "        e = e + x[0] * ((i < 1) / 2 + (x[1] < 1) / 2.0);\n"
                   "    }\n    return e;\n}\n"),
    # a comparison of `int` locals folds to 1 or 0, alone and in a counter's slot
    "int_locals": ("double f(const double *x) {\n    double e = 0;\n    int n = 2;\n"
                   "    for (int i = 0; i < 4; i++) {\n"
                   "        e = e + x[0] * x[0] + (n < 3) + x[1] / (i + (n < 3));\n"
                   "    }\n    return e;\n}\n"),
    # a comparison's value stored into an `int` local and read as an index
    "comparison_values": ("double f(const double *x) {\n    double e = 0;\n    int n = (2 < 3);\n"
                          "    for (int i = 0; i < n + 1; i++) {\n"
                          "        e = e + x[i] * x[n] + x[(i < 1)];\n"
                          "    }\n    return e;\n}\n"),
}


@pytest.mark.parametrize("name", list(_INT_DIV))
def test_integer_division_computes_what_gcc_computes(cc, tmp_path, name):
    src = _INT_DIV[name]
    (tmp_path / "f.c").write_text(src)
    lib = tmp_path / "libf.so"
    subprocess.run([cc, "-std=c99", "-O2", "-shared", "-fPIC", "-o", str(lib),
                    str(tmp_path / "f.c")], check=True, capture_output=True)
    f = ctypes.CDLL(str(lib)).f
    f.restype = ctypes.c_double
    f.argtypes = [ctypes.POINTER(ctypes.c_double)]
    # positive, since simplification folds x * 0 to +0 whatever the sign of x
    points = np.random.default_rng(5).uniform(0.5, 2.0, size=(20, 2))
    want = np.array([f(p.ctypes.data_as(ctypes.POINTER(ctypes.c_double))) for p in points])
    ir = parse_source(src, "f", "e")
    program = unroll(ir)
    points = points[:, :len(program.inputs)]
    got = [run_ir(ir, dict(zip(program.input_labels(), p))) for p in points]
    assert np.array(got).tobytes() == want.tobytes()
    vars_ = VarIndexMap.from_names(program, ["x"])
    cfg = EmitConfig(mode=frozenset({"function"}), basename="k")
    element, simplified, _ = _emissions(src, "f", "e", ["x"], ("function",))
    raw = emit(derive_bundle(program, vars_, do_simplify=False, want_gradient=False,
                             want_hessian=False), vars_, cfg, program)
    assert (element is None) == (name == "constant")
    if element is not None:
        compile_strict(cc, element, str(tmp_path / "strict"), "k")
    for k, art in enumerate((simplified, raw, element)):
        if art is not None:
            got = run_drivers(cc, art, str(tmp_path / str(k)), "k", points, 0)["function"]
            assert got[:, 0].tobytes() == want.tobytes(), k


def test_integer_division_by_zero_exits_1_with_its_location(tmp_path, capsys):
    (tmp_path / "f.c").write_text(
        "double f(double x) {\n    double e = 0;\n"
        "    for (int i = 0; i < 3; i++) { e = e + x * (1 / (i - 1)); }\n    return 0;\n}\n")
    assert main([str(tmp_path / "f.c"), "e", "--vars", "x", "--func", "f",
                 "--output_filename", str(tmp_path / "k")]) == 1
    assert capsys.readouterr().err.endswith(
        "f.c: 3:50: division by zero in constant expression\n")


# a comparison is an `int` in C, so dividing one by an integer divides in int
_COMPARISON_DIVISION = {
    "unrolled": ("double f(const double *x, double u) {\n    double e = (x[0] < u) / 2;\n"
                 "    return 0;\n}\n", "2:27"),
    "element": (_FAULT_LOOP.format(decl=" *x", c="i", n=3,
                                   body="e = e + x[i] * (-(x[i] < u) * 3 / (i + 1));"), "4:41"),
}

_COMPARISON_DIVISION_ERROR = ("integer division of a comparison of doubles: C divides it in "
                              "int, acorns in double; make an operand a double\n")


@pytest.mark.parametrize("name", list(_COMPARISON_DIVISION))
@pytest.mark.parametrize("flags", [(), ("--no-simplify",)], ids=["simplified", "raw"])
def test_division_of_a_comparison_exits_1_with_its_location(tmp_path, capsys, name, flags):
    src, at = _COMPARISON_DIVISION[name]
    rc, err, digests = _generate(tmp_path, src, "f", "e", ["x"], flags=flags)
    assert (rc, err, digests) == (1, f"acorns_autodiff: f.c:{at}: {_COMPARISON_DIVISION_ERROR}",
                                  {})
    (tmp_path / "f.c").write_text(src)
    assert main(["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e",
                 "--vars", "x"]) == 1
    assert capsys.readouterr().err == (f"acorns_autodiff verify: {tmp_path / 'f.c'}:{at}: "
                                       f"{_COMPARISON_DIVISION_ERROR}")


# an `int` parameter is read from `vals` as a double, so dividing it by an
# integer divides in int in C, and in double in acorns
_INT_PARAM_DIVISION = {
    "scalar": ("double f(double x, int n) {\n    double e = x * (n / 2);\n    return 0;\n}\n",
               "2:23"),
    "element": ("double f(const double *x, const int *m) {\n    double e = 0;\n"
                "    for (int i = 0; i < 3; i++) {\n        e = e + x[i] * (m[i] / 2);\n    }\n"
                "    return 0;\n}\n", "4:30"),
}

_INT_PARAM_DIVISION_ERROR = ("integer division of an int parameter: C divides it in int, "
                             "acorns in double; make an operand a double\n")


@pytest.mark.parametrize("name", list(_INT_PARAM_DIVISION))
@pytest.mark.parametrize("flags", [(), ("--no-simplify",)], ids=["simplified", "raw"])
def test_division_of_an_int_parameter_exits_1_with_its_location(tmp_path, capsys, name, flags):
    src, at = _INT_PARAM_DIVISION[name]
    rc, err, digests = _generate(tmp_path, src, "f", "e", ["x"], flags=flags)
    assert (rc, err, digests) == (1, f"acorns_autodiff: f.c:{at}: {_INT_PARAM_DIVISION_ERROR}",
                                  {})
    (tmp_path / "f.c").write_text(src)
    assert main(["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e",
                 "--vars", "x", *flags]) == 1
    assert capsys.readouterr().err == (f"acorns_autodiff verify: {tmp_path / 'f.c'}:{at}: "
                                       f"{_INT_PARAM_DIVISION_ERROR}")


def test_an_int_parameter_times_a_double_generates(tmp_path, capsys):
    src = "double f(double x, int n) {\n    double e = x * n;\n    return 0;\n}\n"
    rc, err, digests = _generate(tmp_path, src, "f", "e", ["x"])
    assert (rc, err, sorted(digests)) == (0, "", ["k.h", "k_part0.c"])
    (tmp_path / "f.c").write_text(src)
    assert main(["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e",
                 "--vars", "x"]) == 0


# --- verify on the element path ---------------------------------------------------

_VERIFY_MODULE = sys.modules["acorns.verify"]  # `acorns.verify` is the function


def _verified(name) -> CorpusFunction:
    """An element input as `verify` takes it: grad_steps as the benchmark
    verifies it, the shapes input, or a corpus entry (`springs4` is
    springs at G=4)."""
    if name == "grad_steps":
        return CorpusFunction("grad_steps", GRAD_STEPS_SRC, "cross_entropy", "loss", ("a",),
                              {"a": (0.01, 1.0)})
    if name == "shapes":
        return CorpusFunction("shapes", _SHAPES_SRC, "f", "e", ("x", "u"),
                              dict.fromkeys(("x", "u", "w"), (0.5, 1.5)))
    base = name.rstrip("0123456789")
    return corpus_function(base, s=int(name[len(base):]) if name != base else None)


@pytest.mark.parametrize("name", ["grad_steps", "shapes", "cross_entropy",
                                  *(f"springs{g}" for g in range(2, 7)),
                                  *(f"barrier{g}" for g in range(2, 7))])
def test_verify_scores_the_gradient_the_element_kernel_computes(cc, tmp_path, monkeypatch, name):
    fn = _verified(name)
    scored = []
    original = _VERIFY_MODULE.element_gradient
    monkeypatch.setattr(_VERIFY_MODULE, "element_gradient", lambda loops, program, pts, cap: (
        scored.append((loops, program, pts, original(loops, program, pts, cap))) or scored[-1][3]))
    report = _VERIFY_MODULE.verify(fn, points=40)
    assert report.ok
    (loops, program, pts, grad), = scored
    for k, entry in enumerate(report.entries):
        assert entry.analytic == grad[entry.point, k]
    # the generated kernel, over the same points laid out as `vals`
    element, _, _ = _emissions(fn.source, fn.func_name, fn.energy_var, fn.var_names,
                               ("gradient",))
    labels = program.input_labels()
    vals = pts[:, [labels.index(label) for label in layout_slots(loops, loops.vars_)]]
    got = run_drivers(cc, element, str(tmp_path), "k", vals, loops.vars_.n)["gradient"]
    assert got.tobytes() == grad.tobytes()


def test_element_gradient_is_the_same_in_any_chunks(monkeypatch):
    # grad_steps' body has 3 slots: chunks of 2 rows split iterations and points
    fn = _verified("grad_steps")
    ir, program, _ = _VERIFY_MODULE.corpus_program(fn)
    loops = element_loops(ir, fn.var_names)
    pts = sample_points(fn, program, 3, np.random.default_rng(26))
    whole = _VERIFY_MODULE.element_gradient(loops, program, pts)
    monkeypatch.setattr(_VERIFY_MODULE, "CHUNK_CELLS", 7)
    assert _VERIFY_MODULE.element_gradient(loops, program, pts).tobytes() == whole.tobytes()


def test_verify_takes_the_path_generate_takes(tmp_path, monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "emit", lambda bundle, vars_, cfg, form: (
        emitted.append(isinstance(form, ElementLoops)) or emit(bundle, vars_, cfg, form)))
    programs, derived = [], []
    monkeypatch.setattr(_VERIFY_MODULE, "unroll", lambda ir: programs.append(unroll(ir))
                        or programs[-1])
    monkeypatch.setattr(_VERIFY_MODULE, "derive_bundle", lambda p, *args, **kwargs: (
        derived.append(p) or derive_bundle(p, *args, **kwargs)))
    table = {}
    for name in CORPUS:
        fn = corpus_function(name)
        for mode in ("gradient", "hessian"):
            for flags in ((), ("--no-simplify",)):
                rc, err, _ = _generate(tmp_path, fn.source, fn.func_name, fn.energy_var,
                                       list(fn.var_names), modes=(mode,), flags=flags)
                assert (rc, err) == (0, "")
                programs.clear()
                derived.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(["verify", name, "--mode", mode, "--points", "2", *flags])
                assert rc == 0
                verified = not any(p is program for p in derived for program in programs)
                table[name, mode, bool(flags)] = emitted.pop(), verified
    assert not emitted
    assert {key for key, (generated, verified) in table.items() if verified} == {
        (name, "gradient", False) for name in ("cross_entropy", "springs", "barrier")}
    assert all(generated == verified for generated, verified in table.values()), table


# a read whose extents differ, so transposing its strides permutes its
# positions in `vals` and in the gradient, under a weight that tells the
# elements apart
_NON_SQUARE_SRC = """\
double f(const double **a) {
    double e = 0;
    for (int i = 0; i < 2; i++) {
        for (int j = 0; j < 3; j++) {
            e = e + (3 * i + j + 1) * a[i][j] * a[i][j] * a[i][j];
        }
    }
    return 0;
}
"""


# `a` differentiated under the weight `w`, both [2][3]
_WEIGHTED_SRC = """\
double f(const double **a, const double **w) {
    double e = 0;
    for (int i = 0; i < 2; i++) {
        for (int j = 0; j < 3; j++) {
            e = e + w[i][j] * a[i][j] * a[i][j];
        }
    }
    return 0;
}
"""


def _transpose_read_positions(monkeypatch, names=None):
    """Make the element path lay the reads of `names`, or of every
    parameter, out with the first index fastest."""
    original = elements._flat

    def transposed(shape, name, indices):
        if names is not None and name not in names:
            return original(shape, name, indices)
        base, extents = shape[name]
        return original({name: (base, extents[::-1])}, name, indices[::-1])

    monkeypatch.setattr(elements, "_flat", transposed)


def test_verify_fails_an_element_kernel_whose_read_positions_are_transposed(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "f.c").write_text(_NON_SQUARE_SRC)
    argv = ["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e", "--vars", "a",
            "--mode", "gradient", "--points", "5"]
    assert main(argv) == 0
    _transpose_read_positions(monkeypatch)
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out
    # the unrolled derivation the element path replaced never reaches `_flat`
    monkeypatch.setattr(_VERIFY_MODULE, "element_path", lambda *args: None)
    assert main(argv) == 0


def test_transposed_read_positions_break_the_element_kernel(cc, tmp_path, monkeypatch):
    # the fault verify fails above is one in the emitted kernel
    _transpose_read_positions(monkeypatch)
    element, unrolled, program = _emissions(_NON_SQUARE_SRC, "f", "e", ["a"], ("gradient",))
    points = np.random.default_rng(25).uniform(0.5, 1.5, size=(20, len(program.inputs)))
    got = run_drivers(cc, element, str(tmp_path / "element"), "k", points, 6)["gradient"]
    want = run_drivers(cc, unrolled, str(tmp_path / "unrolled"), "k", points, 6)["gradient"]
    assert not np.allclose(got, want)


def test_verify_refuses_a_gradient_position_out_of_range(tmp_path, monkeypatch, capsys):
    original = elements._flat
    monkeypatch.setattr(elements, "_flat", lambda shape, name, indices: Binary(
        "+", original(shape, name, indices), const(1, "1")))
    (tmp_path / "f.c").write_text(_NON_SQUARE_SRC)
    assert main(["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e",
                 "--vars", "a"]) == 1
    assert capsys.readouterr().err == ("acorns_autodiff verify: element path: gradient position "
                                       "1..6 outside 0..5\n")


def test_verify_reads_the_values_at_the_positions_the_kernel_loads(tmp_path, monkeypatch, capsys):
    # transposing the non-differentiated `w` leaves the gradient's positions
    # as they were and changes only which weight each iteration loads
    (tmp_path / "f.c").write_text(_WEIGHTED_SRC)
    argv = ["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e", "--vars", "a",
            "--mode", "gradient", "--points", "5"]
    assert main(argv) == 0
    _transpose_read_positions(monkeypatch, {"w"})
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_refuses_a_read_position_out_of_range(tmp_path, monkeypatch, capsys):
    # `w` follows the 6 elements of `a` in vals; 6 more put it past the end,
    # where numpy would wrap a negative index or raise on a large one
    original = elements._flat
    monkeypatch.setattr(elements, "_flat", lambda shape, name, indices: (
        original(shape, name, indices) if name == "a"
        else Binary("+", original(shape, name, indices), const(6, "6"))))
    (tmp_path / "f.c").write_text(_WEIGHTED_SRC)
    assert main(["verify", str(tmp_path / "f.c"), "--func", "f", "--energy", "e",
                 "--vars", "a"]) == 1
    assert capsys.readouterr().err == ("acorns_autodiff verify: element path: read position "
                                       "0..17 outside 0..11\n")
