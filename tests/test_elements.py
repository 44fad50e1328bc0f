"""The element path: a loop body differentiated once and emitted as a loop.

The oracle of every kernel here is the unrolled path's kernel, built
through `derive_bundle` and `emit` over `unroll`, or gcc itself compiling
the input function.
"""

import ctypes
import hashlib
import os
import random
import subprocess

import numpy as np
import pytest

from acorns.cli import main
from acorns.codegen import EmitConfig, emit
from acorns.derivatives import VarIndexMap, derive_bundle
from acorns.elements import element_loops
from acorns.flatten import unroll
from acorns.parser import parse_source
from acorns.verify import CROSS_ENTROPY_SRC, corpus_function, run_ir, sample_points

from cc_util import compile_strict, run_drivers
from randgen import random_loop_program

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
    loops = element_loops(ir, program, vars_)
    if loops is None:
        return None, unrolled, program
    bundles = tuple(derive_bundle(nest.program, nest.vars_, want_gradient="gradient" in modes,
                                  want_hessian=False) for nest in loops.nests)
    return emit(bundles, vars_, cfg, program, loops), unrolled, program


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
    (_NO_READ_SRC, "f", "e", ["x"])], ids=["shapes", "grad_steps", "no_read"])
def test_element_output_compiles_strictly(cc, tmp_path, src, func, energy, names):
    element, _, _ = _emissions(src, func, energy, names)
    compile_strict(cc, element, str(tmp_path), "k")


def test_element_statements_count_the_loop_body_lines():
    element, _, _ = _emissions(GRAD_STEPS_SRC, "cross_entropy", "loss", ["a"])
    # one `e = ...;` and one `out[...] += ...;` per loop body, not per element
    assert element.n_statements == 2
    fn = corpus_function("springs", s=4)
    element, _, _ = _emissions(fn.source, fn.func_name, fn.energy_var, fn.var_names)
    assert element.n_statements == 1 + 8  # eight reads of x per element


def test_element_emission_is_one_file_whatever_the_split():
    fn = corpus_function("barrier", s=6)
    ir = parse_source(fn.source, fn.func_name, fn.energy_var)
    program = unroll(ir)
    vars_ = VarIndexMap.from_names(program, ["x"])
    loops = element_loops(ir, program, vars_)
    bundles = tuple(derive_bundle(nest.program, nest.vars_, want_hessian=False)
                    for nest in loops.nests)
    art = [emit(bundles, vars_, EmitConfig(mode=frozenset(_MODES), split_target_bytes=size,
                                           basename="k"), program, loops)
           for size in (2**16, 2**24)]
    assert art[0] == art[1] and len(art[0].sources) == 1


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
        "der_part0.c": "dab4a74b3fc5d97926ec1b5418784d2cd5c0e54bbab73546a3f05baaa1d42bf4",
        "der_part1.c": "89b2effef2d3821ad349873e95a9565549992e659b247e9f82c83e74cf329f4f",
        "der_part2.c": "1c6d4d6ceefff974b8075d806d02347232cc35d41910b3327ccc3060247391c5",
        "der_part3.c": "b3087486a5beb8977f8ef4a79d8aa304ddc87cca3cc7db68804cb8434cbee619",
        "der_part4.c": "c99582517126bf8e1e5398a345f9d63a615b6435c3afc20eb46d12deafac4c6b",
        "der_part5.c": "14da79070f5883fd27b377686f63e3aa7cd360345ea9c435fa9c31817362d652",
        "der_part6.c": "917b00290a3b300ad7cd9ecf8866d2006d4ddb7a0ff842af9c0c500f8fffa15f",
        "der_part7.c": "a7a7c4dcc3264b81055f16b958cf836c972b403774471ac3dc6da807400945c1",
        "der_part8.c": "f0b52ed49030dcaf251f1f730cb2af3b1f12a28982b65a62dc1b22ea58393b4e",
    }),
    "hess_verify": (20, (), {
        "der.h": "4535efd5fcc574e5fefcac312f6f87755a5ea7f177dd92d10937dd8edeac1723",
        "der_part0.c": "27084f55d684cc83022c0583323556c4e6fe92d0ccc5f0d37a6b01271008e6cc",
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
