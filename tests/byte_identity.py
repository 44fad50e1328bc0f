"""Compare what two source trees of acorns print and write, run by run.

    python tests/byte_identity.py OTHER_SRC

For each run on a fixed list (`runs`), call `python -m acorns.cli` twice,
with this checkout's `src` and with `OTHER_SRC` (for example the `src` of a
`git worktree` of the parent commit) on PYTHONPATH, each in a new
directory holding the run's inputs.  Compare the exit code, stdout, stderr
(with the directory masked) and the sha256 of every file the run wrote.
Print one line per differing run, then "N runs, K differ", and exit 1 when
K > 0.

The list: the benchmark's three workloads (`perfbench/workloads.py`) with
their arguments, with and without `--dump-slp`, and `verify` and `verify
--machine` on them at two seeds; `--dump-slp` on every corpus entry at its
default size, with and without `--no-simplify`; springs and barrier at
G=2..10 in `--mode function gradient --dump-slp` and in `--mode hessian`;
`verify` and `verify --machine` on every corpus entry in both modes;
inputs that pin octal literals, the node-cap warning and `int` locals
folded in an element body; and, at `--split-size 65536`, which spreads each
over several files, springs and barrier at G=10 in `--mode hessian`, eq3
at s=50 in all modes and the long sum of `tests/test_codegen.py` in
`--mode gradient`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Run(NamedTuple):
    name: str
    argv: tuple  # the arguments after `python -m acorns.cli`, inputs named relative
    inputs: dict  # file name -> text, written in the run's directory
    env: dict = {}  # variables set for the run


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict  # written file, relative -> sha256


def _generate(name: str, src: str, func: str, energy: str, names, *flags) -> Run:
    return Run(name, ("f.c", energy, "--vars", *names, "--func", func,
                      "--output_filename", "out/k", *flags), {"f.c": src})


def _loop(body: str) -> str:
    return ("double f(const double *x) {\n    double e = 0;\n    int n = 2;\n"
            f"    for (int i = 0; i < 4; i++) {{\n        {body}\n    }}\n    return e;\n}}\n")


# inputs of octal literals, the node-cap warning and `int` locals in an
# element body: name -> (source, extra generate flags, environment)
_INPUTS = {
    "octal": ("double f(const double *x) {\n    double e = (010 + 1) * x[0];\n    return e;\n}\n",
              (), {}),
    "octal_index": ("double f(const double *x) {\n    double e = x[010] * x[0];\n"
                    "    return e;\n}\n", (), {}),
    "leading_zero_decimals": ("double f(const double *x) {\n"
                              "    double e = (00.5 + 010.0 + 010e1 + 0) * x[0];\n"
                              "    return e;\n}\n", (), {}),
    "two_nests_bad_node_cap": (
        "double f(const double *x) {\n    double e = 0;\n"
        "    for (int i = 0; i < 3; i++) { e = e + x[i] * x[i]; }\n"
        "    for (int j = 0; j < 3; j++) { e = e - sin(x[j]); }\n    return e;\n}\n",
        ("--mode", "function", "gradient"), {"ACORNS_MAX_NODES": "abc"}),
    "folded_comparison": (_loop("e = e + x[i] * x[i] + (n < 3);"),
                          ("--mode", "function", "gradient"), {}),
    "comparison_in_a_counter_slot": (
        _loop("e = e + x[0] * x[0] + (n < 3) + x[1] / (i + (n < 3));"),
        ("--mode", "function", "gradient"), {}),
    "comparison_values": (
        "double f(const double *x) {\n    double e = 0;\n    int n = (2 < 3);\n"
        "    for (int i = 0; i < n + 1; i++) {\n        e = e + x[i] * x[n] + x[(i < 1)];\n"
        "    }\n    return e;\n}\n", ("--mode", "function", "gradient"), {}),
    "large_folded_value": (_loop("e = e + x[i] * (n * 1000000000000000);"),
                           ("--mode", "function", "gradient"), {}),
    "large_value_in_a_counter_slot": (_loop("e = e + x[i] / (i + n * 1000000000000000);"),
                                      ("--mode", "function", "gradient"), {}),
}


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def runs() -> list:
    """The fixed list of runs (see the module docstring)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from acorns.verify import CORPUS, corpus_function
    out = []
    for name, w in _workloads().items():
        inputs = {"f.c": w.source}
        out.append(Run(name, tuple(w.generate_argv("f.c", "out/k")), inputs))
        out.append(Run(f"{name} --dump-slp", (*w.generate_argv("f.c", "out/k"), "--dump-slp"),
                       inputs))
        for seed in (0, 7):
            argv = tuple(w.verify_argv("f.c", seed))
            out.append(Run(f"{name} verify seed {seed}", argv, inputs))
            out.append(Run(f"{name} verify --machine seed {seed}", (*argv, "--machine"), inputs))
    for name in CORPUS:
        fn = corpus_function(name)
        for flags in ((), ("--no-simplify",)):
            out.append(_generate(" ".join((name, "--dump-slp", *flags)), fn.source, fn.func_name,
                                 fn.energy_var, fn.var_names, "--dump-slp", *flags))
    for name in ("springs", "barrier"):
        for g in range(2, 11):
            fn = corpus_function(name, s=g)
            args = fn.source, fn.func_name, fn.energy_var, fn.var_names
            out.append(_generate(f"{name} G={g} function gradient", *args,
                                 "--mode", "function", "gradient", "--dump-slp"))
            out.append(_generate(f"{name} G={g} hessian", *args, "--mode", "hessian"))
    for name in CORPUS:
        for mode in ("gradient", "hessian"):
            argv = ("verify", name, "--mode", mode)
            out.append(Run(f"{name} verify {mode}", argv, {}))
            out.append(Run(f"{name} verify --machine {mode}", (*argv, "--machine"), {}))
    for name, (src, flags, env) in _INPUTS.items():
        out.append(Run(name, ("f.c", "e", "--vars", "x", "--func", "f",
                              "--output_filename", "out/k", *flags), {"f.c": src}, env))
        out.append(Run(f"{name} verify", ("verify", "f.c", "--func", "f", "--energy", "e",
                                          "--vars", "x"), {"f.c": src}, env))
    from test_codegen import _LONG_SUM_SRC
    split = ("--split-size", "65536")
    for label, name, s, modes in (("springs G=10", "springs", 10, ("hessian",)),
                                  ("barrier G=10", "barrier", 10, ("hessian",)),
                                  ("eq3 s=50", "eq3", 50, ("function", "gradient", "hessian"))):
        fn = corpus_function(name, s=s)
        out.append(_generate(f"{label} {' '.join(modes)} split 65536", fn.source, fn.func_name,
                             fn.energy_var, fn.var_names, "--mode", *modes, *split))
    out.append(_generate("long_sum gradient split 65536", _LONG_SUM_SRC, "long_sum", "e", ("x",),
                         "--mode", "gradient", *split))
    return out


def outcome(src: pathlib.Path, run: Run, work: pathlib.Path) -> Outcome:
    """What `run` prints and writes with the package at `src`, run in the
    new directory `work`."""
    work.mkdir(parents=True)
    (work / "out").mkdir()
    for name, text in run.inputs.items():
        (work / name).write_text(text)
    env = {k: v for k, v in os.environ.items() if k != "ACORNS_MAX_NODES"}
    env.update(run.env, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "acorns.cli", *run.argv], cwd=work, env=env,
                          capture_output=True, text=True)
    files = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(work.rglob("*")) if p.is_file() and p.name not in run.inputs}
    mask = lambda text: text.replace(str(work), "<dir>")
    return Outcome(done.returncode, mask(done.stdout), mask(done.stderr), files)


def differences(this: Outcome, other: Outcome) -> list:
    """What differs between two outcomes of one run, as short phrases."""
    found = []
    if this.code != other.code:
        found.append(f"exit {this.code} != {other.code}")
    found += [stream for stream in ("stdout", "stderr")
              if getattr(this, stream) != getattr(other, stream)]
    for name in sorted(this.files.keys() | other.files.keys()):
        if name not in other.files:
            found.append(f"{name} written only here")
        elif name not in this.files:
            found.append(f"{name} written only there")
        elif this.files[name] != other.files[name]:
            found.append(f"{name} differs")
    return found


def compare(this_src, other_src, run_list, work: pathlib.Path) -> list:
    """One line per run of `run_list` whose outcomes under `this_src` and
    `other_src` differ, in list order; the two sides of a run run at once."""
    lines = []
    with ThreadPoolExecutor(2) as pool:
        for k, run in enumerate(run_list):
            sides = [pool.submit(outcome, pathlib.Path(src), run, work / f"{k}{side}")
                     for side, src in (("a", this_src), ("b", other_src))]
            found = differences(*(side.result() for side in sides))
            if found:
                lines.append(f"{run.name}: {'; '.join(found)}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    run_list = runs()
    with tempfile.TemporaryDirectory() as work:
        lines = compare(SRC, pathlib.Path(args[0]).resolve(), run_list, pathlib.Path(work))
    for line in lines:
        print(line)
    print(f"{len(run_list)} runs, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
