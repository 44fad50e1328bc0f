"""Compare what two source trees of acorns print and write, run by run.

    python tests/byte_identity.py [--kernels] [--rss] OTHER_SRC

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
inputs that pin octal literals, the node-cap warnings (a cap that is
not an integer, and a cap of 0, which the default replaces), `int` locals
folded in an element body, the statement runner's faults (a write to an
`int` local, at the top level and in a loop body, an `int` local without
an initializer, an array initializer), with `--dump-slp`, an energy
with unary minuses, and energies declared `int` and as an array; a
generate run whose output file name, `my-k`, is not a C identifier; the
input of a +0 gradient entry of `tests/test_elements.py` in `--mode
function gradient` (the element path) and in `--mode gradient hessian`
(unrolled); and, at `--split-size 65536`, which spreads each over several
files, springs and barrier at G=10 in `--mode hessian`, eq3 at s=50 in
all modes and the long sum of `tests/test_codegen.py` in `--mode
gradient`.

With `--kernels`, each run whose written C differs and that differs in
nothing else is compiled on both sides (`tests/cc_util.run_drivers`, at
-O0 and at -O2), and every driver runs on the same seeded points, drawn in
the run's box, into buffers poisoned with 0xAB.  A run whose drivers all
agree bitwise is listed as such and does not count as differing; each
driver that does not agree is listed, and counts.

With `--rss`, each run's peak resident set size is read from its
process's rusage (`os.wait4` on its pid, so the two sides, which run at
once, do not mix; see `_LAUNCH`), and every run whose peak moved by more than `RSS_MOVE` (5%)
between the two trees is listed as `OTHER_SRC`'s peak, then this
checkout's.  The list then also holds `MEMORY_RUNS`, raw Hessians of eq3
at s=25 (54 MB of C) and springs at G=4 and G=6 (342 MB of C, and a peak
of several hundred MB on each side, the two at once), which are listed
whatever they moved.  The peak counts the whole `python -m acorns.cli` process:
interpreter, imports, derivation and emission.  Each side's runs share a
bytecode cache of their own in the comparator's temporary directory, so
the first run of each side compiles the modules it imports.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from cc_util import DRIVERS, run_drivers

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CC = "gcc"
KERNEL_SEED = 31
KERNEL_POINTS = 100
# a peak RSS that moves by more than this share between the two sides is listed (`--rss`)
RSS_MOVE = 0.05
# `python -S -c _LAUNCH FD ARGV...` runs ARGV as its child and writes the
# child's peak RSS (`os.wait4`), in KiB, to the file descriptor FD, then
# exits as the child did.  A child's `ru_maxrss` counts the resident size
# of the process it was forked from, so each run is forked from this small
# interpreter, not from the comparator, which holds numpy and the run list.
_LAUNCH = """\
import os, signal, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d" % usage.ru_maxrss)
code = os.waitstatus_to_exitcode(status)
if code < 0:
    signal.signal(-code, signal.SIG_DFL)
    os.kill(os.getpid(), -code)
sys.exit(code)
"""
# raw Hessians that write megabytes of C, run with `--rss` alone: label -> (corpus name, size)
MEMORY_RUNS = {"eq3 s=25 hessian --no-simplify": ("eq3", 25),
               "springs G=4 hessian --no-simplify": ("springs", 4),
               "springs G=6 hessian --no-simplify": ("springs", 6)}


class Run(NamedTuple):
    name: str
    argv: tuple  # the arguments after `python -m acorns.cli`, inputs named relative
    inputs: dict  # file name -> text, written in the run's directory
    env: dict = {}  # variables set for the run
    box: tuple = (0.01, 1.0)  # where `--kernels` draws every input slot


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict  # written file, relative -> sha256
    peak_rss_kb: int  # the child's peak resident set size, in KiB


def _generate(name: str, fn, *flags) -> Run:
    """A generate run of the corpus function `fn`, drawn in its box."""
    return Run(name, ("f.c", fn.energy_var, "--vars", *fn.var_names, "--func", fn.func_name,
                      "--output_filename", "out/k", *flags), {"f.c": fn.source},
               box=fn.boxes.get(fn.var_names[0], (0.01, 1.0)))


def _loop(body: str) -> str:
    return ("double f(const double *x) {\n    double e = 0;\n    int n = 2;\n"
            f"    for (int i = 0; i < 4; i++) {{\n        {body}\n    }}\n    return e;\n}}\n")


# inputs of octal literals, the node-cap warnings, `int` locals in an
# element body, the statement runner's faults, negations in `--dump-slp`
# and energies that are not double scalars:
# name -> (source, extra generate flags, environment)
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
    "zero_node_cap": ("double f(const double *x) {\n    double e = x[0] * sin(x[1]);\n"
                      "    return e;\n}\n", (), {"ACORNS_MAX_NODES": "0"}),
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
    "int_local_write": ("double f(double x) {\n    int n = 2;\n    n = 3;\n"
                        "    double e = x * n;\n    return e;\n}\n", (), {}),
    "int_local_write_in_a_loop": (
        "double f(const double *x) {\n    double e = 0;\n    for (int i = 0; i < 3; i++) {\n"
        "        int k = 2;\n        k = i;\n        e = e + x[i] * k;\n    }\n"
        "    return e;\n}\n", (), {}),
    "int_local_without_initializer": (
        "double f(double x) {\n    double e = x;\n    int n;\n    return e;\n}\n", (), {}),
    "array_initializer": (
        "double f(double x) {\n    double e = x;\n    double a[2] = 1;\n    return e;\n}\n",
        (), {}),
    "negations": ("double f(const double *x) {\n    double e = -x[0] * -(x[1] + 1);\n"
                  "    return e;\n}\n", ("--dump-slp",), {}),
    "int_energy": ("double f(const double *x) {\n    int e = 1;\n"
                   "    for (int i = 0; i < 2; i++) {\n        e = e + x[i];\n    }\n"
                   "    return e;\n}\n", (), {}),
    "array_energy": ("double f(const double *x) {\n    double e[2];\n    e[0] = x[0];\n"
                     "    return 0;\n}\n", (), {}),
}


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def runs(memory: bool = False) -> list:
    """The fixed list of runs (see the module docstring), and with
    `memory` the runs of `MEMORY_RUNS` after them."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from acorns.verify import CORPUS, CorpusFunction, corpus_function
    out = []
    for name, w in _workloads().items():
        inputs, box = {"f.c": w.source}, w.boxes[w.var_param]
        out.append(Run(name, tuple(w.generate_argv("f.c", "out/k")), inputs, box=box))
        out.append(Run(f"{name} --dump-slp", (*w.generate_argv("f.c", "out/k"), "--dump-slp"),
                       inputs, box=box))
        for seed in (0, 7):
            argv = tuple(w.verify_argv("f.c", seed))
            out.append(Run(f"{name} verify seed {seed}", argv, inputs))
            out.append(Run(f"{name} verify --machine seed {seed}", (*argv, "--machine"), inputs))
    for name in CORPUS:
        fn = corpus_function(name)
        for flags in ((), ("--no-simplify",)):
            out.append(_generate(" ".join((name, "--dump-slp", *flags)), fn, "--dump-slp",
                                 *flags))
    for name in ("springs", "barrier"):
        for g in range(2, 11):
            fn = corpus_function(name, s=g)
            out.append(_generate(f"{name} G={g} function gradient", fn,
                                 "--mode", "function", "gradient", "--dump-slp"))
            out.append(_generate(f"{name} G={g} hessian", fn, "--mode", "hessian"))
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
    out.append(Run("output file name my-k", ("f.c", "e", "--vars", "x", "--func", "f",
                                             "--output_filename", "out/my-k"),
                   {"f.c": _INPUTS["negations"][0]}))
    from test_codegen import _LONG_SUM_SRC
    split = ("--split-size", "65536")
    for label, name, s, modes in (("springs G=10", "springs", 10, ("hessian",)),
                                  ("barrier G=10", "barrier", 10, ("hessian",)),
                                  ("eq3 s=50", "eq3", 50, ("function", "gradient", "hessian"))):
        out.append(_generate(f"{label} {' '.join(modes)} split 65536", corpus_function(name, s=s),
                             "--mode", *modes, *split))
    from test_elements import PLUS_ZERO_SRC
    for modes in (("function", "gradient"), ("gradient", "hessian")):
        out.append(Run(f"plus_zero_entry {' '.join(modes)}",
                       ("f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "out/k",
                        "--mode", *modes), {"f.c": PLUS_ZERO_SRC}))
    long_sum = CorpusFunction("long_sum", _LONG_SUM_SRC, "long_sum", "e", ("x",), {"x": (0.1, 2.0)})
    out.append(_generate("long_sum gradient split 65536", long_sum, "--mode", "gradient", *split))
    if memory:
        out += [_generate(label, corpus_function(name, s=s), "--no-simplify", "--mode", "hessian")
                for label, (name, s) in MEMORY_RUNS.items()]
    return out


def outcome(src: pathlib.Path, run: Run, work: pathlib.Path, pycache: pathlib.Path) -> Outcome:
    """What `run` prints and writes with the package at `src`, run in the
    new directory `work`, its bytecode cached under `pycache`: one per
    side, so that a tree's own `__pycache__`, or its absence, does not tilt
    the peaks."""
    work.mkdir(parents=True)
    (work / "out").mkdir()
    for name, text in run.inputs.items():
        (work / name).write_text(text)
    env = {k: v for k, v in os.environ.items()
           if k not in ("ACORNS_MAX_NODES", "PYTHONDONTWRITEBYTECODE")}
    env.update(run.env, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache))
    with (tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err,
          tempfile.TemporaryFile() as rss):
        code = subprocess.run([sys.executable, "-S", "-c", _LAUNCH, str(rss.fileno()),
                               sys.executable, "-m", "acorns.cli", *run.argv],
                              cwd=work, env=env, stdout=out, stderr=err,
                              pass_fds=(rss.fileno(),)).returncode
        streams = []
        for stream in (out, err, rss):
            stream.seek(0)
            streams.append(stream.read().decode().replace(str(work), "<dir>"))
    files = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(work.rglob("*")) if p.is_file() and p.name not in run.inputs}
    return Outcome(code, *streams[:2], files, int(streams[2]))


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


class Artifact(NamedTuple):
    header: str
    sources: list  # (file name, text) of each part, in order


def _drivers(work: pathlib.Path, run: Run, opt: str) -> dict:
    """Each driver's outputs, by mode, on the C that `run` wrote in `work`,
    built at `opt`."""
    parts = sorted(work.glob("out/k_part*.c"), key=lambda p: int(p.stem[len("k_part"):]))
    art = Artifact((work / "out" / "k.h").read_text(), [(p.name, p.read_text()) for p in parts])
    n = int(re.search(r"\(n = (\d+)\)", art.header).group(1))
    stride = int(re.search(r"vals \+ \(long\)p \* (\d+)", art.sources[0][1]).group(1))
    points = np.random.default_rng(KERNEL_SEED).uniform(*run.box, size=(KERNEL_POINTS, stride))
    return run_drivers(CC, art, str(work / f"build{opt}"), "k", points, n, (opt,))


def compare(this_src, other_src, run_list, work: pathlib.Path, agreed: list | None = None,
            rss: dict | None = None) -> list:
    """One line per run of `run_list` whose outcomes under `this_src` and
    `other_src` differ, in list order; the two sides of a run run at once.
    With `agreed`, a run that differs only in the C it writes is compiled
    (see the module docstring): when every driver agrees, its name goes to
    `agreed` instead, and otherwise its line names the drivers that do not.
    With `rss`, each run's name maps to its two peaks, `other_src`'s first,
    in KiB."""
    lines = []
    with ThreadPoolExecutor(2) as pool:
        for k, run in enumerate(run_list):
            dirs = [work / f"{k}{side}" for side in "ab"]
            sides = [pool.submit(outcome, pathlib.Path(src), run, d, work / f"pycache-{side}")
                     for src, d, side in zip((this_src, other_src), dirs, "ab")]
            this, other = (side.result() for side in sides)
            if rss is not None:
                rss[run.name] = (other.peak_rss_kb, this.peak_rss_kb)
            found = differences(this, other)
            if (found and agreed is not None
                    and all(re.fullmatch(r"out/k(_part\d+\.c|\.h) differs", f) for f in found)):
                found = []
                for opt in ("-O0", "-O2"):
                    this, other = pool.map(lambda d: _drivers(d, run, opt), dirs)
                    found += [f"{DRIVERS[mode]} at {opt} not bitwise equal"
                              for mode in sorted(this.keys() | other.keys())
                              if mode not in this or mode not in other
                              or this[mode].tobytes() != other[mode].tobytes()]
                if not found:
                    agreed.append(run.name)
            if found:
                lines.append(f"{run.name}: {'; '.join(found)}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    flags = set(args[:-1])
    if not args or len(flags) != len(args) - 1 or not flags <= {"--kernels", "--rss"}:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    run_list = runs(memory="--rss" in flags)
    agreed = [] if "--kernels" in flags else None
    rss = {} if "--rss" in flags else None
    with tempfile.TemporaryDirectory() as work:
        lines = compare(SRC, pathlib.Path(args[-1]).resolve(), run_list, pathlib.Path(work),
                        agreed, rss)
    for name in agreed or ():
        print(f"{name}: C differs, every driver bitwise equal at -O0 and -O2")
    for name, (there, here) in (rss or {}).items():
        if abs(here - there) > RSS_MOVE * there or name in MEMORY_RUNS:
            print(f"{name}: peak RSS {there / 1024:.1f} -> {here / 1024:.1f} MB "
                  f"({(here - there) / there:+.1%})")
    for line in lines:
        print(line)
    print(f"{len(run_list)} runs, {len(lines)} differ"
          + (f", {len(agreed)} more in their C alone" if agreed is not None else ""))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
