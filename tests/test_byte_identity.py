"""The byte-identity comparator (`tests/byte_identity.py`) on small runs."""

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
                 "springs G=10 hessian", "rollout verify --machine hessian", "octal verify"):
        assert name in names
    assert byte_identity.main([]) == 2
