import gc
import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import acorns
from acorns import cli
from acorns.cli import main
from acorns.codegen import GeneratedArtifact
from acorns.derivatives import derive_bundle
from acorns.verify import FUNCTION_0_SRC, CROSS_ENTROPY_SRC, corpus_function, corpus_program

from cc_util import compile_strict, run_drivers
from conftest import find_cc


@pytest.fixture
def function_0_file(tmp_path):
    path = tmp_path / "function_0.c"
    path.write_text(FUNCTION_0_SRC)
    return str(path)


@pytest.fixture
def cross_entropy_file(tmp_path):
    path = tmp_path / "ce.c"
    path.write_text(CROSS_ENTROPY_SRC)
    return str(path)


def _read_outputs(stem):
    out = {}
    directory = os.path.dirname(stem) or "."
    prefix = os.path.basename(stem)
    for name in sorted(os.listdir(directory)):
        if name.startswith(prefix):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


def test_pipeline_basic_invocation(function_0_file, tmp_path, capsys):
    stem = str(tmp_path / "ders" / "der_0")
    rc = main([function_0_file, "energy", "--vars", "x",
               "--func", "function_0", "--output_filename", stem])
    assert rc == 0
    assert os.path.exists(stem + ".h")
    assert os.path.exists(stem + "_part0.c")
    line = capsys.readouterr().out.strip()
    assert line == "n=1 statements=3 files=1"


def test_pipeline_reruns_byte_identical(function_0_file, tmp_path):
    stem = str(tmp_path / "out" / "der")
    argv = [function_0_file, "energy", "--vars", "x",
            "--func", "function_0", "--output_filename", stem]
    assert main(argv) == 0
    first = _read_outputs(stem)
    assert main(argv) == 0
    assert _read_outputs(stem) == first


def test_missing_vars_for_gradient(function_0_file, tmp_path, capsys):
    rc = main([function_0_file, "energy", "--func", "function_0",
               "--output_filename", str(tmp_path / "d")])
    assert rc == 1
    assert "--vars" in capsys.readouterr().err


def test_function_only_mode_without_vars(function_0_file, tmp_path):
    stem = str(tmp_path / "fval")
    rc = main([function_0_file, "energy", "--func", "function_0",
               "--output_filename", stem, "--mode", "function"])
    assert rc == 0
    header = open(stem + ".h").read()
    assert "compute_grad" not in header


def test_cross_entropy_modes_and_header(cross_entropy_file, tmp_path):
    stem = str(tmp_path / "ce_der")
    rc = main([cross_entropy_file, "loss", "--vars", "a", "--func", "cross_entropy",
               "--output_filename", stem, "--mode", "gradient", "hessian"])
    assert rc == 0
    header = open(stem + ".h").read()
    assert "compute_grad" in header and "compute_hess" in header
    assert "void compute(" not in header
    assert "(n = 4)" in header


def test_unreadable_input_exits_2(tmp_path, capsys):
    rc = main([str(tmp_path / "missing.c"), "e", "--vars", "x",
               "--func", "f", "--output_filename", str(tmp_path / "d")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("stem, name", [("out/my-k", "my-k"), ("out/9k", "9k"), ("out/", "")])
def test_an_output_file_name_that_is_not_a_c_identifier_exits_1(function_0_file, tmp_path,
                                                                 capsys, monkeypatch, stem, name):
    # the file name names the chunk functions and the header guard
    monkeypatch.chdir(tmp_path)
    assert main([function_0_file, "energy", "--vars", "x", "--func", "function_0",
                 "--output_filename", stem]) == 1
    assert capsys.readouterr().err == (
        f"acorns_autodiff: {function_0_file}: output file name {name!r} is not a C identifier "
        "([A-Za-z_][A-Za-z0-9_]*)\n")
    assert sorted(os.listdir(tmp_path)) == ["function_0.c"]


def test_an_output_directory_that_is_a_file_exits_2(function_0_file, tmp_path, capsys):
    (tmp_path / "out").write_text("")
    assert main([function_0_file, "energy", "--vars", "x", "--func", "function_0",
                 "--output_filename", str(tmp_path / "out" / "k")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("acorns_autodiff: write failed: ") and err.count("\n") == 1
    assert (tmp_path / "out").read_text() == ""


@pytest.mark.parametrize("flags", [(), ("--dump-slp",)], ids=["plain", "dump-slp"])
def test_a_write_that_fails_removes_what_the_run_wrote(function_0_file, tmp_path, capsys,
                                                       monkeypatch, flags):
    # the header, and the .slp files first, are written before the part
    # that a directory of its name stops
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k_part0.c").mkdir()
    assert main([function_0_file, "energy", "--vars", "x", "--func", "function_0",
                 "--output_filename", "k", *flags]) == 2
    err = capsys.readouterr().err
    assert err == ("acorns_autodiff: write failed: "
                   "[Errno 21] Is a directory: 'k_part0.c'\n")
    assert sorted(os.listdir(tmp_path)) == ["function_0.c", "k_part0.c"]
    assert (tmp_path / "k_part0.c").is_dir()


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_input_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    path = tmp_path / "f.c"
    path.write_bytes(b"double f(double x) {\n    double e = x; /* \xff */\n    return 0;\n}\n")
    argv, prog = {
        "generate": ([str(path), "e", "--vars", "x", "--func", "f",
                      "--output_filename", str(tmp_path / "d")], "acorns_autodiff"),
        "verify": (["verify", str(path), "--func", "f", "--energy", "e", "--vars", "x"],
                   "acorns_autodiff verify"),
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{prog}: {path}: not UTF-8 text (byte 42)\n"


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("double f(double x){ double e = x +; return 0; }")
    rc = main([str(bad), "e", "--vars", "x", "--func", "f",
               "--output_filename", str(tmp_path / "d")])
    assert rc == 1


def test_subset_violation_exits_1(tmp_path, capsys):
    src = tmp_path / "runtime.c"
    src.write_text("""
    double f(double n) {
        double e = 0;
        for (int i = 0; i < n; i++) { e = e + 1; }
        return 0;
    }
    """)
    rc = main([str(src), "e", "--vars", "n", "--func", "f",
               "--output_filename", str(tmp_path / "d")])
    assert rc == 1
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize("literal", ["010", "00", "0777"])
def test_an_octal_literal_exits_1_with_its_location(tmp_path, capsys, monkeypatch, command,
                                                    literal):
    # C reads 010 as 8, and acorns read it as 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.c").write_text(
        f"double f(const double *x) {{\n    double e = ({literal} + 1) * x[0];\n"
        "    return e;\n}\n")
    if command == "generate":
        rc = main(["f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "gen/d"])
        prefix = "acorns_autodiff: f.c: "
    else:
        rc = main(["verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x"])
        prefix = "acorns_autodiff verify: f.c: "
    assert rc == 1
    assert capsys.readouterr().err == (f"{prefix}2:17: unsupported construct: "
                                       "octal integer literal\n")
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("literal", ["0", "0.5", "00.5", "010.0", "010e1"])
def test_a_literal_with_a_leading_zero_that_is_not_octal_generates(tmp_path, capsys, literal):
    (tmp_path / "f.c").write_text(
        f"double f(const double *x) {{\n    double e = ({literal} + 1) * x[0];\n"
        "    return e;\n}\n")
    assert main([str(tmp_path / "f.c"), "e", "--vars", "x", "--func", "f",
                 "--output_filename", str(tmp_path / "d"), "--mode", "gradient"]) == 0
    text = (tmp_path / "d_part0.c").read_text()
    assert f"out[0] = {float(literal) + 1:g};" in text.replace(".0;", ";"), text


@pytest.mark.parametrize("body, at, message", [
    ("double e = x[0] * x[5];", "x[5]", "index 5 out of range for 'x'"),
    ("double a[2]; a[3] = s; double e = s;", "a[3]", "index 3 out of range for 'a'"),
    ("double e = x[-1];", "x[-1]", "index -1 out of range for 'x'"),
    # a comparison is the int 1, not Python's True
    ("double a[1]; a[0] = s; double e = a[(1 < 2)];", "a[(1", "index 1 out of range for 'a'"),
    ("double e = x[0][1];", "x[0]",
     "unsupported construct: 2 index(es) into 1-dimensional 'x'"),
    ("double e = s[0];", "s[0]", "unknown array 's'"),
    ("double t = s; double e = t[0];", "t[0]", "unknown array 't'"),
    ("double t; double e = t * s;", "t * s", "'t' used before assignment"),
    ("double a[2]; double e = a[0] * s;", "a[0]", "'a[0]' used before assignment"),
    ("double e = x[1 / 0];", "/ 0", "division by zero in constant expression"),
    ("double e = x[sin(1)];", "sin", "expression is not compile-time constant"),
    # `int` arithmetic whose result leaves `int`'s range is undefined in C
    ("double e = s * (65536 * 65536);", "* 65536)", "int overflow in constant expression"),
    ("double e = s * ((-2147483647 - 1) / -1);", "/ -1", "int overflow in constant expression"),
    ("double e = s * -(-2147483647 - 1);", "-(-", "int overflow in constant expression"),
    ("double e = x[65536 * 65536 - 1];", "* 65536 -", "int overflow in constant expression"),
    # a loop-local declared without a value does not keep the last iteration's
    ("double e = 0; for (int i = 0; i < 3; i++) { double a[2]; if (i > 0) { e = e + a[0]; } "
     "a[0] = s * i; }", "a[0]; }", "'a[0]' used before assignment"),
    ("double e = 0; for (int i = 0; i < 3; i++) { double t; if (i > 0) { e = e + t; } "
     "t = s * i; }", "t; }", "'t' used before assignment"),
    # a bare block's declarations end with it
    ("{ double t = s; } double e = t * 2;", "t * 2", "use of undeclared identifier 't'"),
    # a sibling block's `d` of the other rank is gone
    ("double e = 0; { double d[2]; d[0] = s; d[1] = s; } { double d = s * s; e = d[0]; }",
     "d[0]; }", "unknown array 'd'"),
    ("double e = 0; { double d = s; } { double d[2]; e = d; }", "d; }",
     "'d' used before assignment"),
], ids=["past_extent", "local_past_extent", "negative", "comparison_index", "too_many_indices",
        "scalar_param",
        "scalar_local", "unassigned", "unassigned_element", "division_by_zero", "call_index",
        "int_overflow", "int_min_by_minus_one", "int_min_negated", "index_overflow",
        "loop_local_element", "loop_local_scalar", "bare_block_scope", "sibling_array_to_scalar",
        "sibling_scalar_to_array"])
def test_unroll_errors_exit_1_with_a_located_line(tmp_path, capsys, monkeypatch, body, at,
                                                  message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.c").write_text(
        f"double f(double s, double x[3]) {{\n    {body}\n    return 0;\n}}\n")
    rc = main(["bad.c", "e", "--vars", "s", "--func", "f", "--output_filename", "gen/d"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"acorns_autodiff: bad.c: 2:{5 + body.index(at)}: {message}\n"
    assert not (tmp_path / "gen").exists()


def test_a_prefix_loop_update_emits_the_bytes_of_the_postfix_one(tmp_path):
    src = ("double f(const double *x) {{\n    double e = 0;\n"
           "    for (int i = 0; i < 3; {update}) {{ e = e + x[i] * x[i]; }}\n    return e;\n}}\n")
    outputs = []
    for update in ("++i", "i++"):
        (tmp_path / "f.c").write_text(src.format(update=update))
        stem = tmp_path / update / "k"
        assert main([str(tmp_path / "f.c"), "e", "--vars", "x", "--func", "f", "--mode",
                     "function", "gradient", "--output_filename", str(stem)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(stem.parent.iterdir())})
    assert outputs[0] == outputs[1]
    assert b"for (int i0 = 0; i0 < 3; ++i0)" in outputs[0]["k_part0.c"]


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize("body", [
    "double e = y * y;",
    "double e = y;\n    for (int i = 0; i < 0; i++) { e = e + x[i]; }",
], ids=["unread", "zero_trip_loop"])
def test_a_vars_parameter_never_read_exits_1_naming_it(tmp_path, capsys, monkeypatch, command,
                                                       body):
    # `x` has no input slot: it is a parameter, but nothing reads it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.c").write_text(f"double f(const double *x, double y) {{\n    {body}\n"
                                  "    return e;\n}\n")
    for name, message in (("x", "is a parameter that is never read"),
                          ("z", "is not an input parameter")):
        if command == "generate":
            rc = main(["f.c", "e", "--vars", name, "y", "--func", "f",
                       "--output_filename", "gen/d"])
            prefix = "acorns_autodiff: f.c: "
        else:
            rc = main(["verify", "f.c", "--func", "f", "--energy", "e", "--vars", name, "y"])
            prefix = "acorns_autodiff verify: "
        assert rc == 1
        assert capsys.readouterr().err == f"{prefix}--vars name {name!r} {message}\n"
    assert not (tmp_path / "gen").exists()


_INT_OVERFLOW_SRC = """\
double f(const double *x) {
    double e = 0;
    for (int i = 0; i < 2; i++) e = e + x[i] * (i * 50000 * 50000 + 1);
    return 0;
}
"""


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_int_overflow_exits_1_with_its_location(tmp_path, capsys, monkeypatch, command):
    # 50000 * 50000 overflows `int` at i = 1, which C leaves undefined: gcc's
    # kernel gave -1794967295 at -O0 and 1 at -O2 where acorns scored 2.5e9
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.c").write_text(_INT_OVERFLOW_SRC)
    if command == "generate":
        argv, lead = ["f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "d",
                      "--mode", "function", "gradient"], "acorns_autodiff: f.c"
    else:
        argv, lead = ["verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x",
                      "--points", "2"], "acorns_autodiff verify: f.c"
    assert main(argv) == 1
    col = _INT_OVERFLOW_SRC.splitlines()[2].index("* 50000 +") + 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"{lead}: 3:{col}: int overflow in constant expression\n")
    assert not list(tmp_path.glob("d*"))


# a literal above INT_MAX is a `long` in C, and arithmetic with one does not
# overflow: the sha256 of each file written, unchanged since before `int`
# arithmetic was checked.  `long.c` is unrolled; `elem.c` takes the element
# path, whose loop computes `i0 * 3000000000 + 1` in C
_LONG_SRC = """\
double f(const double *x, double u) {{
    double e = {init};
    for (int i = 0; i < 3; i++) {{
        e = e + x[i] * (i * 3000000000 + 1) - u * (2147483647 + 0);
    }}
    return 0;
}}
"""

_LONG_DIGESTS = {
    "long.c": {
        "ka.h": "0c875ff0e8db89ec3937d6faef34ef776f9835faece14304a15dd61ee0c09ace",
        "ka_part0.c": "d60ccef1c04d624e49a1ad8f4be9a80606e0947c2fca63ab6e999b21165dbfa0",
        "kb.h": "e1f030576ff4d54d6a46ea99519b8178ca5982a8e6ed0717c4f566c5d851722b",
        "kb_part0.c": "fae43033ae5f343671874f67755449e3a17f927ea6e5dc5db562e1d1a6ece633",
    },
    "elem.c": {
        "k.h": "c698f2ba36238cfbf60b4e2771f71805a37b7f78bf30782092d11eb22814109d",
        "k_part0.c": "67f11187fa8f644312cd0f180933220a4f4058afc721ade379835033dffdcd1e",
    },
}
# (output stem, modes) of each run
_LONG_RUNS = {"long.c": [("ka", ["function", "gradient"]),
                         ("kb", ["function", "gradient", "hessian"])],
              "elem.c": [("k", ["function", "gradient"])]}


@pytest.mark.parametrize("name", list(_LONG_DIGESTS))
def test_long_arithmetic_generates_unchanged(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(_LONG_SRC.format(init="u * 3000000000" if name == "long.c"
                                                  else "0"))
    for stem, modes in _LONG_RUNS[name]:
        assert main([name, "e", "--vars", "x", "u", "--func", "f", "--output_filename", stem,
                     "--mode", *modes]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != name}
    assert written == _LONG_DIGESTS[name]


def test_sibling_bare_blocks_may_each_declare_a_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocks.c").write_text(
        "double f(double s) {\n    double e = 0;\n    { double d = s; e = e + d; }\n"
        "    { double d = s * s; e = e + d; }\n    return 0;\n}\n")
    assert main(["blocks.c", "e", "--vars", "s", "--func", "f", "--output_filename", "d",
                 "--mode", "gradient"]) == 0
    assert "out[0] = 1 + s + s;" in (tmp_path / "d_part0.c").read_text()


def test_node_cap_exits_3(function_0_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACORNS_MAX_NODES", "4")
    rc = main([function_0_file, "energy", "--vars", "x",
               "--func", "function_0", "--output_filename", str(tmp_path / "d")])
    assert rc == 3


@pytest.mark.parametrize("form", ["corpus", "file"])
def test_verify_node_cap_exits_3(function_0_file, capsys, monkeypatch, form):
    monkeypatch.setenv("ACORNS_MAX_NODES", "4")
    target = ["function_0"] if form == "corpus" else [
        function_0_file, "--func", "function_0", "--energy", "energy", "--vars", "x"]
    assert main(["verify", *target, "--points", "3"]) == 3
    assert capsys.readouterr().err == "acorns_autodiff verify: expression node count 11 exceeds cap 4\n"


def test_f_node_cap_counts_the_plain_tree(tmp_path, capsys, monkeypatch):
    # x * 1 * ... * 1 simplifies to x, but the cap counts its 81 plain nodes
    src = tmp_path / "times_one.c"
    src.write_text("double f(double x){ double e = x; "
                   "for (int i = 0; i < 40; i++) { e = e * 1; } return 0; }")
    monkeypatch.setenv("ACORNS_MAX_NODES", "50")
    rc = main([str(src), "e", "--vars", "x", "--func", "f",
               "--output_filename", str(tmp_path / "d")])
    assert rc == 3
    assert capsys.readouterr().err == "acorns_autodiff: expression node count 81 exceeds cap 50\n"


def test_bad_node_cap_warns_and_continues(function_0_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACORNS_MAX_NODES", "lots")
    rc = main([function_0_file, "energy", "--vars", "x",
               "--func", "function_0", "--output_filename", str(tmp_path / "d")])
    assert rc == 0
    assert "ACORNS_MAX_NODES" in capsys.readouterr().err


def test_bad_node_cap_warns_once_per_run(tmp_path, capsys, monkeypatch):
    # two loop nests, each derived on its own
    monkeypatch.setenv("ACORNS_MAX_NODES", "abc")
    (tmp_path / "f.c").write_text(
        "double f(const double *x) {\n    double e = 0;\n"
        "    for (int i = 0; i < 3; i++) { e = e + x[i] * x[i]; }\n"
        "    for (int j = 0; j < 3; j++) { e = e - sin(x[j]); }\n    return e;\n}\n")
    assert main([str(tmp_path / "f.c"), "e", "--vars", "x", "--func", "f",
                 "--mode", "function", "gradient", "--output_filename", str(tmp_path / "d")]) == 0
    assert "for (int i0 = " in (tmp_path / "d_part0.c").read_text()
    assert capsys.readouterr().err == "warning: ignoring non-integer ACORNS_MAX_NODES='abc'\n"


@pytest.mark.parametrize("value", ["0", "-5"])
def test_a_node_cap_below_one_warns_and_takes_the_default(function_0_file, tmp_path, capsys,
                                                          monkeypatch, value):
    argv = [function_0_file, "energy", "--vars", "x", "--func", "function_0"]
    assert main([*argv, "--output_filename", str(tmp_path / "default" / "d")]) == 0
    monkeypatch.setenv("ACORNS_MAX_NODES", value)
    capsys.readouterr()
    warning = f"warning: ignoring ACORNS_MAX_NODES='{value}': must be at least 1\n"
    assert main([*argv, "--output_filename", str(tmp_path / "capped" / "d")]) == 0
    assert capsys.readouterr().err == warning
    assert (_read_outputs(str(tmp_path / "capped" / "d"))
            == _read_outputs(str(tmp_path / "default" / "d")))
    assert main(["verify", "function_0", "--points", "3"]) == 0
    assert capsys.readouterr().err == warning


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_cli_pauses_the_collector_and_restores_it(function_0_file, tmp_path, monkeypatch,
                                                  enabled):
    # the cyclic collector is off while a subcommand unrolls, derives, emits
    # or verifies, and back as it was after, failure or not; library calls
    # leave it alone
    seen = []

    def observed(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return real(*args, **kwargs)

        return call

    for name in ("unroll", "derive_bundle", "emit", "run_verify"):
        monkeypatch.setattr(cli, name, observed(name))
    generate = [function_0_file, "energy", "--vars", "x", "--func", "function_0",
                "--output_filename", str(tmp_path / "d")]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(generate) == 0
        assert gc.isenabled() == enabled
        assert main(["verify", "function_0", "--points", "3"]) == 0
        assert gc.isenabled() == enabled
        monkeypatch.setenv("ACORNS_MAX_NODES", "4")
        assert main(generate) == 3
        assert gc.isenabled() == enabled
        derive_bundle(*corpus_program(corpus_function("function_0"))[1:])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [("unroll", False), ("derive_bundle", False), ("emit", False),
                    ("run_verify", False), ("unroll", False), ("derive_bundle", False)]


def test_dump_slp(function_0_file, tmp_path):
    stem = str(tmp_path / "d")
    rc = main([function_0_file, "energy", "--vars", "x", "--func", "function_0",
               "--output_filename", stem, "--dump-slp"])
    assert rc == 0
    with open(stem + ".slp", "rb") as fh:
        assert fh.read(4) == b"SLP1"
    text = open(stem + ".slp.txt").read()
    assert "energy" in text


def test_single_file_naming(function_0_file, tmp_path):
    stem = str(tmp_path / "one")
    rc = main([function_0_file, "energy", "--vars", "x", "--func", "function_0",
               "--output_filename", stem, "--single-file"])
    assert rc == 0
    assert os.path.exists(stem + ".c")
    assert not os.path.exists(stem + "_part0.c")


def test_unknown_flag_exits_1(function_0_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([function_0_file, "energy", "--func", "function_0",
              "--output_filename", str(tmp_path / "d"), "--frobnicate"])
    assert exc.value.code == 1


def test_no_simplify_flag_changes_output(cross_entropy_file, tmp_path):
    stem_a = str(tmp_path / "simp")
    stem_b = str(tmp_path / "raw")
    base = [cross_entropy_file, "loss", "--vars", "a", "--func", "cross_entropy",
            "--mode", "gradient"]
    assert main(base + ["--output_filename", stem_a]) == 0
    assert main(base + ["--output_filename", stem_b, "--no-simplify"]) == 0
    simplified = open(stem_a + "_part0.c").read()
    raw = open(stem_b + "_part0.c").read()
    assert len(raw) > len(simplified)
    assert "simplify: off" in raw and "simplify: on" in simplified


def test_negated_negative_constant_compiles(tmp_path, cc):
    # 1.0 - 2.0 folds to the literal -1; its negation must not print as --1
    src = tmp_path / "neg.c"
    src.write_text("double f(const double x[1]) {\n    double e = x[0] * -(1.0 - 2.0);\n"
                   "    return 0;\n}\n")
    stem = str(tmp_path / "neg")
    assert main([str(src), "e", "--vars", "x", "--func", "f", "--output_filename", stem]) == 0
    part = stem + "_part0.c"
    text = open(part).read()
    assert "out[0] = x_0 * -(-1);" in text and "--" not in text
    subprocess.run([cc, "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", "-c", part,
                    "-I", str(tmp_path), "-o", str(tmp_path / "neg.o")],
                   check=True, capture_output=True)


@pytest.mark.parametrize("energy", ["x * (1e308 * 10.0)", "x * (1e309 + 1.0)"])
def test_overflowing_constant_is_left_unfolded(tmp_path, capsys, energy):
    src = tmp_path / "big.c"
    src.write_text(f"double f(double x) {{\n    double e = {energy};\n    return 0;\n}}\n")
    stem = str(tmp_path / "big")
    assert main([str(src), "e", "--vars", "x", "--func", "f", "--output_filename", stem]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert f"out[0] = {energy};" in open(stem + "_part0.c").read()


def test_infinite_constant_exponent_is_left_unfolded(tmp_path, capsys):
    # the power rule's c - 1 is not finite for c = 1e309; it stays a subtraction
    cc = find_cc()  # the generation is checked without a compiler too
    src = tmp_path / "inf.c"
    src.write_text("double f(double x) {\n    double e = pow(x, 1e309);\n    return 0;\n}\n")
    for flags in ((), ("--no-simplify",)):
        stem = str(tmp_path / ("raw" if flags else "simplified"))
        assert main([str(src), "e", "--vars", "x", "--func", "f", "--mode", "gradient",
                     "hessian", "--output_filename", stem, *flags]) == 0
        assert "Traceback" not in capsys.readouterr().err
        part = stem + "_part0.c"
        assert "pow(x, 1e309 - 1)" in open(part).read()
        if cc is not None:
            subprocess.run([cc, "-std=c99", "-c", part, "-I", str(tmp_path),
                            "-o", stem + ".o"], check=True, capture_output=True)


def _run_python(code, cwd):
    """Run `code` in a fresh interpreter that imports this checkout's acorns."""
    src = os.path.dirname(os.path.dirname(acorns.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_generate_does_not_load_numpy(function_0_file, tmp_path):
    # numpy is loaded by evaluation alone, on first use
    code = textwrap.dedent(f"""\
        import sys
        from acorns.cli import main
        assert main([{function_0_file!r}, "energy", "--vars", "x", "--func", "function_0",
                     "--output_filename", "der"]) == 0
        assert "numpy" not in sys.modules
        assert main(["verify", "eq3", "--s", "3", "--points", "5", "--mode", "hessian"]) == 0
        assert "numpy" in sys.modules
        """)
    done = _run_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "der_part0.c").exists()


_DEEP_LOOP_SRC = """\
double deep(const double *x) {{
    double e = 0;
    for (int i = 0; i < {n}; i++) {{
        e = e + {term};
    }}
    return 0;
}}
"""


def _nested_src(levels):
    """`e` as `levels` parenthesized sums, each nested in the right operand."""
    rhs = "x[0]"
    for _ in range(levels):
        rhs = f"(x[0] + {rhs})"
    return f"double deep(const double *x) {{\n    double e = {rhs};\n    return 0;\n}}\n"


def _sum_of_products_src(n, k):
    """`e` as one statement of `n` terms x[i % k] * x[(i + 1) % k]."""
    terms = " + ".join(f"x[{i % k}] * x[{(i + 1) % k}]" for i in range(n))
    return f"double wide(const double *x) {{\n    double e = {terms};\n    return 0;\n}}\n"


# Every walk over an expression uses an explicit stack, and importing acorns
# leaves the recursion limit alone, so these subprocesses run at the default
# limit: loop length and statement length are bounded only by the caps.


@pytest.mark.parametrize("n", [12000, 50000])
def test_deep_loops_generate_every_mode(tmp_path, n):
    (tmp_path / "deep.c").write_text(_DEEP_LOOP_SRC.format(n=n, term="x[0] * x[0]"))
    code = textwrap.dedent("""\
        import sys
        limit = sys.getrecursionlimit()
        from acorns.cli import main
        assert sys.getrecursionlimit() == limit
        for stem, flags in (("s", []), ("r", ["--no-simplify"])):
            assert main(["deep.c", "e", "--vars", "x", "--func", "deep",
                         "--output_filename", stem, *flags]) == 0
        """)
    done = _run_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    simplified = (tmp_path / "s_part0.c").read_text()
    assert f"    out[0] = {2 * n};" in simplified  # the Hessian
    raw = (tmp_path / "r_part0.c").read_text()
    assert raw.count("(0 * x_0 + 1 * 1 + (1 * 1 + x_0 * 0))") == n  # the Hessian


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_deep_nesting_exits_3_without_traceback(tmp_path, command):
    # parentheses nest through the parser's recursion, one level of the
    # grammar per level of nesting: too deep an input ends in a diagnostic
    (tmp_path / "deep.c").write_text(_nested_src(2000))
    if command == "generate":
        argv = ["deep.c", "e", "--vars", "x", "--func", "deep", "--output_filename", "d"]
    else:
        argv = ["verify", "deep.c", "--func", "deep", "--energy", "e", "--vars", "x",
                "--points", "2"]
    done = _run_python(f"import sys\nfrom acorns.cli import main\nsys.exit(main({argv!r}))",
                       tmp_path)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("acorns_autodiff")
    assert "deep.c" in lines[0]


_HUGE_PARAMS = {
    # (source, its input slot count): an extent widened to one past the
    # index read, and a declared extent of which one element is read
    "read": ("double f(const double *x) {\n    double e = x[3000000000];\n    return 0;\n}\n",
             3000000001),
    "declared": ("double f(const double x[300000000]) {\n    double e = x[0];\n    return 0;\n}\n",
                 300000000),
}


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize("form", list(_HUGE_PARAMS))
def test_huge_parameters_exit_3_before_their_slots_are_made(tmp_path, form, command):
    # the slots are counted before one is made: under a 1 GB address space
    # making them would run out of memory
    src, count = _HUGE_PARAMS[form]
    (tmp_path / "f.c").write_text(src)
    if command == "generate":
        argv, prog = ["f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "d"], ""
    else:
        argv, prog = ["verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x"], " verify"
    code = textwrap.dedent(f"""\
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from acorns.cli import main
        sys.exit(main({argv!r}))
        """)
    done = _run_python(code, tmp_path)
    assert done.stderr == f"acorns_autodiff{prog}: input slot count {count} exceeds cap 10000000\n"
    assert done.returncode == 3


def test_nested_parentheses_generate(tmp_path):
    (tmp_path / "deep.c").write_text(_nested_src(256))
    code = textwrap.dedent("""\
        from acorns.cli import main
        assert main(["deep.c", "e", "--vars", "x", "--func", "deep", "--output_filename", "d"]) == 0
        """)
    done = _run_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "    out[0] = 257;" in (tmp_path / "d_part0.c").read_text()


@pytest.mark.parametrize("n", [12000, 50000])
def test_deep_loop_gradient_succeeds(tmp_path, n):
    # the gradient of a long accumulation loop generates and passes verify.
    # The command line emits the loop (the element path); unrolled through
    # the library, the 2n-term sum of the second is written as a running
    # accumulator
    for term, gradient in (("x[0] * 0.5", f"    out[0] = {n // 2};"),
                           ("x[0] * x[0]", "    double t0 = x_0 + x_0 + x_0")):
        (tmp_path / "deep.c").write_text(_DEEP_LOOP_SRC.format(n=n, term=term))
        code = textwrap.dedent("""\
            import gc
            from acorns.cli import main
            from acorns.codegen import EmitConfig, emit
            from acorns.derivatives import VarIndexMap, derive_bundle
            from acorns.flatten import unroll
            from acorns.parser import parse_source
            assert main(["deep.c", "e", "--vars", "x", "--func", "deep", "--mode", "gradient",
                         "--output_filename", "d"]) == 0
            assert main(["verify", "deep.c", "--func", "deep", "--energy", "e", "--vars", "x",
                         "--points", "2", "--mode", "gradient"]) == 0
            gc.disable()
            program = unroll(parse_source(open("deep.c").read(), "deep", "e"))
            vars_ = VarIndexMap.from_names(program, ["x"])
            bundle = derive_bundle(program, vars_, want_hessian=False)
            cfg = EmitConfig(mode=frozenset({"gradient"}), basename="u")
            open("u_part0.c", "w").write(emit(bundle, vars_, cfg, program).sources[0][1])
            """)
        done = _run_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert f"    for (int i0 = 0; i0 < {n}; ++i0) {{" in (tmp_path / "d_part0.c").read_text()
        assert gradient in (tmp_path / "u_part0.c").read_text()
        assert "1/1 entries pass" in done.stdout


@pytest.mark.parametrize("n", [3000, 20000])
def test_long_statement_depth_contract(tmp_path, n):
    # one statement of n products: generate with and without simplification,
    # the .slp dump reads back, and the gradient passes verify.  The verified
    # statement cycles through 16 variables, because the FD oracle evaluates
    # the program at 2n stepped points (40,002 at n = 20,001)
    (tmp_path / "wide.c").write_text(_sum_of_products_src(n, n + 1))
    (tmp_path / "cyclic.c").write_text(_sum_of_products_src(n, 16))
    code = textwrap.dedent("""\
        from acorns.cli import main
        from acorns.flatten import deserialize, serialize, unroll
        from acorns.parser import parse_source
        for stem, flags in (("s", ["--vars", "x", "--mode", "function", "gradient"]),
                            ("r", ["--mode", "function", "--no-simplify"])):
            assert main(["wide.c", "e", "--func", "wide", "--output_filename", stem,
                         "--dump-slp", *flags]) == 0
        data = open("s.slp", "rb").read()
        assert serialize(unroll(parse_source(open("wide.c").read(), "wide", "e"))) == data
        assert serialize(deserialize(data)) == data
        assert main(["verify", "cyclic.c", "--func", "wide", "--energy", "e", "--vars", "x",
                     "--points", "2", "--mode", "gradient"]) == 0
        """)
    done = _run_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "16/16 entries pass" in done.stdout
    simplified = (tmp_path / "s_part0.c").read_text()
    assert "    out[1] = x_0 + x_2;" in simplified
    assert f"    out[{n}] = x_{n - 1};" in simplified
    assert (tmp_path / "r_part0.c").read_text().count("x_0 * x_1 + x_1 * x_2") == 1


# --- verify subcommand ----------------------------------------------------------


def test_verify_corpus(capsys):
    rc = main(["verify", "eq2", "--points", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verify eq2" in out
    assert "ok" in out


def test_verify_machine_output(capsys):
    rc = main(["verify", "eq1", "--points", "5", "--machine"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    fields = out.split(",")
    assert fields[0] == "grad[0]" and fields[-1] == "1"
    # analytic, FD and relative error are plain numbers, not numpy reprs
    assert len(fields) == 5
    for field in fields[1:4]:
        assert "np." not in field
        float(field)


def test_verify_hessian_eq3(capsys):
    rc = main(["verify", "eq3", "--s", "3", "--points", "5", "--mode", "hessian"])
    assert rc == 0


def test_verify_user_file(function_0_file, capsys):
    rc = main(["verify", function_0_file, "--func", "function_0", "--energy", "energy",
               "--vars", "x", "--points", "10", "--box", "1", "4"])
    assert rc == 0


def _worst_point(out: str) -> tuple:
    """The index and input values of the worst sample point a verify report names."""
    line = next(line for line in out.splitlines() if line.startswith("worst "))
    head, values = line.split(": ", 1)
    return int(head.rsplit(" ", 1)[1]), {
        k: float(v) for k, v in (item.split("=") for item in values.split(", "))}


def test_verify_box_applies_to_a_corpus_entry(capsys):
    # eq3's own box is (0.05, 0.95); the given one replaces it
    assert main(["verify", "eq3", "--s", "3", "--box", "0.2", "0.8", "--seed", "1"]) == 0
    index, worst = _worst_point(capsys.readouterr().out)
    assert list(worst) == ["x[0]", "x[1]", "x[2]"]
    assert all(0.2 <= v <= 0.8 for v in worst.values())
    expected = np.random.default_rng(1).uniform(0.2, 0.8, size=(100, 3))[index]
    assert list(worst.values()) == expected.tolist()


def test_verify_box_leaves_the_other_parameters(capsys):
    # cross_entropy differentiates a; b keeps its own box, (0.05, 0.95)
    assert main(["verify", "cross_entropy", "--box", "0.5", "0.6", "--seed", "1"]) == 0
    _, worst = _worst_point(capsys.readouterr().out)
    a = [v for k, v in worst.items() if k.startswith("a[")]
    b = [v for k, v in worst.items() if k.startswith("b[")]
    assert len(a) == len(b) == 4
    assert all(0.5 <= v <= 0.6 for v in a)
    assert all(0.05 <= v <= 0.95 for v in b) and not all(0.5 <= v <= 0.6 for v in b)


def test_verify_user_file_needs_metadata(function_0_file, capsys):
    rc = main(["verify", function_0_file])
    assert rc == 1
    assert "--func" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["eq1", "--s", "7"], "--s"),
    (["FILE", "--func", "function_0", "--energy", "energy", "--vars", "x", "--s", "50"], "--s"),
    (["eq3", "--vars", "nope", "--func", "zzz"], "--func"),
    (["springs", "--energy", "e"], "--energy"),
    (["cross_entropy", "--vars", "a"], "--vars"),
])
def test_verify_refuses_a_flag_that_does_not_apply(function_0_file, capsys, argv, flag):
    # --s sizes a sized corpus entry only; --func, --energy and --vars
    # describe a file input only
    argv = [function_0_file if a == "FILE" else a for a in argv]
    assert main(["verify", *argv, "--points", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"acorns_autodiff verify: {flag} applies to ")
    assert captured.err.count("\n") == 1


def test_verify_impossible_tolerance_fails(capsys):
    rc = main(["verify", "eq1", "--points", "5", "--tolerance", "1e-18"])
    assert rc == 1


def test_verify_exp_overflow_reports_failure(tmp_path, capsys):
    path = tmp_path / "expf.c"
    path.write_text("double f(double x) {\n    double e = exp(x);\n    return 0;\n}\n")
    rc = main(["verify", str(path), "--func", "f", "--energy", "e", "--vars", "x",
               "--box", "700", "800"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "grad[0]" in captured.out and "FAIL" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
def test_verify_fails_on_a_nan_at_any_point(tmp_path, capsys, seed):
    # sqrt's derivative is NaN at the negative samples; under seeds 1 and 4
    # the first sample is positive, so the first NaN comes at a later point
    path = tmp_path / "sq.c"
    path.write_text("double f(double x) {\n    double e = sqrt(x);\n    return 0;\n}\n")
    rc = main(["verify", str(path), "--func", "f", "--energy", "e", "--vars", "x",
               "--box", "-1", "1", "--points", "20", "--seed", seed])
    assert rc == 1
    assert capsys.readouterr().out.endswith("0/1 entries pass, max relerr nan\n")


def test_verify_prints_subset_violations_as_generate_does(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.c").write_text(
        "double f(double x, double n) {\n    double e = 0;\n"
        "    for (int i = 0; i < n; i++) {\n        e = e + x;\n    }\n    return 0;\n}\n")
    for path in ("bad.c", str(tmp_path / "bad.c")):  # each names the path as given
        assert main([path, "e", "--func", "f", "--vars", "x", "--output_filename", "out"]) == 1
        assert capsys.readouterr().err == f"acorns_autodiff: {path}:3:5: non-constant loop bound\n"
        assert main(["verify", path, "--func", "f", "--energy", "e", "--vars", "x"]) == 1
        err = capsys.readouterr().err
        assert err == f"acorns_autodiff verify: {path}:3:5: non-constant loop bound\n"


def test_verify_names_the_file_of_a_located_error_as_generate_does(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.c").write_text(
        "double f(const double x[3]) {\n    double e = x[5];\n    return 0;\n}\n")
    assert main(["r.c", "e", "--func", "f", "--vars", "x", "--output_filename", "out"]) == 1
    generated = capsys.readouterr().err
    assert main(["verify", "r.c", "--func", "f", "--energy", "e", "--vars", "x"]) == 1
    verified = capsys.readouterr().err
    located = "r.c: 2:16: index 5 out of range for 'x'\n"
    assert (generated, verified) == (f"acorns_autodiff: {located}",
                                     f"acorns_autodiff verify: {located}")


@pytest.mark.parametrize("args,message", [
    (["eq1", "--points", "-1"], "argument --points: must be at least 1, got -1"),
    (["eq1", "--points", "0"], "argument --points: must be at least 1, got 0"),
    (["eq3", "--s", "0"], "argument --s: must be at least 1, got 0"),
    (["FILE", "--box", "3", "0"], "argument --box: LO must be below HI, got 3 0"),
    (["FILE", "--box", "0", "inf"], "argument --box: must be finite, got inf"),
    (["eq1", "--tolerance", "0"], "argument --tolerance: must be positive and finite, got 0"),
    (["eq1", "--tolerance", "nan"],
     "argument --tolerance: must be positive and finite, got nan"),
    (["eq1", "--seed", "-1"], "argument --seed: must be non-negative, got -1"),
], ids=["points", "points_zero", "s", "box", "box_infinite", "tolerance", "tolerance_nan",
        "seed"])
def test_verify_rejects_bad_numeric_arguments(function_0_file, capsys, args, message):
    if args[0] == "FILE":
        args = [function_0_file, "--func", "function_0", "--energy", "energy",
                "--vars", "x", *args[1:]]
    with pytest.raises(SystemExit) as exc:
        main(["verify", *args])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"acorns_autodiff verify: error: {message}"
    assert "Traceback" not in err


_C99_KEYWORDS = ["auto", "default", "inline", "register", "restrict", "_Bool", "_Complex",
                 "_Imaginary"]

# object-like macros of <math.h>: C99 7.12's, and glibc's M_* constants
_MATH_MACROS = ["HUGE_VAL", "HUGE_VALF", "HUGE_VALL", "INFINITY", "NAN", "FP_INFINITE",
                "FP_NAN", "FP_NORMAL", "FP_SUBNORMAL", "FP_ZERO", "FP_FAST_FMA", "FP_FAST_FMAF",
                "FP_FAST_FMAL", "FP_ILOGB0", "FP_ILOGBNAN", "MATH_ERRNO", "MATH_ERREXCEPT",
                "math_errhandling", "M_E", "M_LOG2E", "M_LOG10E", "M_LN2", "M_LN10", "M_PI",
                "M_PI_2", "M_PI_4", "M_1_PI", "M_2_PI", "M_2_SQRTPI", "M_SQRT2", "M_SQRT1_2"]

# macros gcc predefines as 1 in its default GNU mode
_GCC_MACROS = ["linux", "unix"]


@pytest.mark.parametrize("name,energy,message", [
    *((k, f"{k} * {k}", f"1:17: expected parameter name, got '{k}'") for k in _C99_KEYWORDS),
    ("vals", "vals * vals", "parameter 'vals' is a name the generated C uses"),
    ("out", "out * out", "parameter 'out' is a name the generated C uses"),
    ("sqrt", "sqrt(sqrt * sqrt + 1)", "parameter 'sqrt' is a name the generated C uses"),
    # the input calls no cos, but its derivative does
    ("cos", "sin(cos)", "parameter 'cos' is a name the generated C uses"),
    *((m, f"{m} * {m}", f"parameter '{m}' is a name the generated C uses")
      for m in (*_MATH_MACROS, *_GCC_MACROS)),
], ids=[*_C99_KEYWORDS, "vals", "out", "sqrt", "sin_of_cos", *_MATH_MACROS, *_GCC_MACROS])
def test_names_the_generated_c_cannot_use_exit_1(tmp_path, capsys, monkeypatch, name, energy,
                                                  message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.c").write_text(
        f"double f(double {name}) {{ double e = {energy}; return 0; }}\n")
    rc = main(["bad.c", "e", "--vars", name, "--func", "f", "--output_filename", "gen/d"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"acorns_autodiff: bad.c: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "gen").exists()


def test_hessian_of_a_linear_input_is_zero_filled(tmp_path, capsys, monkeypatch, cc):
    # every lower entry is +0, so no chunk is written: the driver only
    # zero-fills, and still compiles clean
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lin.c").write_text("double f(double x){ double e = 5 + x; return 0; }\n")
    rc = main(["lin.c", "e", "--vars", "x", "--func", "f", "--mode", "hessian",
               "--output_filename", "gen/d"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "n=1 statements=0 files=1"
    art = GeneratedArtifact((tmp_path / "gen" / "d.h").read_text(),
                            (("d_part0.c", (tmp_path / "gen" / "d_part0.c").read_text()),))
    assert "_chunk_" not in art.sources[0][1]
    compile_strict(cc, art, str(tmp_path / "strict"), "d")
    got = run_drivers(cc, art, str(tmp_path / "run"), "d", [[0.5], [2.0]], 1)
    assert got["hessian"].tobytes() == bytes(16)
