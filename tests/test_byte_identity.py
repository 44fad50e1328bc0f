"""The byte-identity comparator (`tests/byte_identity.py`) on small runs."""

import resource
import shutil

import byte_identity
from byte_identity import SRC, Run, compare, runs

_SRC = "double f(const double *x) {\n    double e = x[0] * x[1];\n    return e;\n}\n"
_RUNS = [Run("generate", ("f.c", "e", "--vars", "x", "--func", "f", "--output_filename", "out/k"),
             {"f.c": _SRC}),
         Run("verify", ("verify", "f.c", "--func", "f", "--energy", "e", "--vars", "x",
                        "--points", "2"), {"f.c": _SRC})]


def test_the_checkout_is_identical_to_itself(tmp_path):
    assert compare(SRC, SRC, _RUNS, tmp_path) == []


def test_a_written_file_that_differs_names_its_run(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(SRC / "acorns", other / "acorns",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "acorns" / "__init__.py", "a") as fh:
        fh.write('__version__ = "0.0.0+other"\n')
    # the version heads each generated file; verify writes none
    assert compare(SRC, other, _RUNS, tmp_path / "work") == [
        "generate: out/k.h differs; out/k_part0.c differs"]


def test_the_list_covers_the_workloads_and_the_corpus():
    names = [run.name for run in runs()]
    assert len(names) == len(set(names))
    for name in ("grad_steps", "hess_verify --dump-slp", "hess_expand verify --machine seed 7",
                 "springs G=10 hessian", "rollout verify --machine hessian", "octal verify",
                 "plus_zero_entry function gradient", "plus_zero_entry gradient hessian"):
        assert name in names
    assert byte_identity.main([]) == 2
    assert byte_identity.main(["--heap", "src"]) == 2
    assert byte_identity.main(["--rss", "--rss", "src"]) == 2
    with_memory = [run.name for run in runs(memory=True)]
    assert with_memory == names + list(byte_identity.MEMORY_RUNS)


def test_rss_holds_each_runs_peak_on_both_sides(tmp_path):
    rss = {}
    assert compare(SRC, SRC, _RUNS, tmp_path, rss=rss) == []
    assert list(rss) == ["generate", "verify"]
    assert all(5_000 < peak < 2_000_000 for peaks in rss.values() for peak in peaks)  # KiB
    # the run's own peak, not the resident size of the process that started it
    assert max(rss["generate"]) < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _copy_with(tmp_path, module, old, new):
    """A copy of the package whose `module` has `old` replaced by `new`."""
    other = tmp_path / "other"
    shutil.copytree(SRC / "acorns", other / "acorns",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "acorns" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return other


def test_kernels_of_c_that_differs_alone_are_compared(cc, tmp_path):
    # the version heads each generated file, so only comments differ
    other = _copy_with(tmp_path, "__init__.py", '__version__ = "', '__version__ = "9.')
    agreed = []
    assert compare(SRC, other, _RUNS, tmp_path / "work", agreed) == []
    assert agreed == ["generate"]


def test_kernels_that_differ_are_listed(cc, tmp_path):
    other = _copy_with(tmp_path, "codegen.py", 'f"{target} {text};"', 'f"{target} -({text});"')
    agreed = []
    (line,) = compare(SRC, other, _RUNS[:1], tmp_path / "work", agreed)
    assert agreed == []
    assert line == "generate: " + "; ".join(
        f"{driver} at {opt} not bitwise equal" for opt in ("-O0", "-O2")
        for driver in ("compute", "compute_grad", "compute_hess"))
