"""Tests of the benchmark's own checks and accounting.

    python3 -m pytest perfbench -q

The session tests run a tiny eq3 workload end to end and need gcc.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
from workloads import _PROD_POLY, WORKLOADS  # noqa: E402

needs_cc = pytest.mark.skipif(shutil.which(session.CC) is None, reason="no C compiler")

TINY = dataclasses.replace(WORKLOADS["hess_verify"], name="tiny", source=_PROD_POLY.format(s=3),
                           params=(("x", 3),), batch=40, reps=2, verify_points=2)


def _runner(tmp_path, min_step_s=0.0):
    return session.SessionRunner(TINY, run.SRC, tmp_path, seed=7, min_step_s=min_step_s)


@needs_cc
def test_clean_sessions_fail_nothing(tmp_path):
    runner = _runner(tmp_path)
    for _ in range(2):
        res = runner.run()
        assert (res.attempted, res.failed, res.errors) == (5, 0, [])
    assert set(res.samples) == set(run.END_TO_END) - {"ok_ratio"} | {"kernel_ns_per_point"}
    assert list(tmp_path.iterdir()) == []  # each session's directory is removed


@needs_cc
def test_corrupted_kernel_output_is_counted(tmp_path, monkeypatch):
    read = session.read_kernel_output

    def corrupted(wl, workdir, mode):
        out = read(wl, workdir, mode)
        if mode == "gradient":
            out[3, 1] *= 1 + 1e-6
        return out

    monkeypatch.setattr(session, "read_kernel_output", corrupted)
    res = _runner(tmp_path).run()
    assert res.failed == 1
    assert res.errors == ["evaluate: kernel output differs from the reference for gradient"]
    assert "kernel_ns_per_point" not in res.samples


@needs_cc
def test_short_steps_repeat_and_must_repeat_their_bytes(tmp_path, monkeypatch):
    read = session.read_emitted
    calls = []

    def counted(directory):
        calls.append(directory)
        return read(directory)

    monkeypatch.setattr(session, "read_emitted", counted)
    res = _runner(tmp_path, min_step_s=0.5).run()
    assert res.failed == 0
    assert len(calls) == len(res.digests) > 1  # a tiny generate is well under 0.5 s


@needs_cc
def test_flipped_output_byte_is_counted(tmp_path, monkeypatch):
    read = session.read_emitted
    calls = []

    def flipped(directory):
        data = bytearray(read(directory))
        calls.append(len(data))
        if len(calls) == 2:
            data[len(data) // 2] ^= 1
        return bytes(data)

    monkeypatch.setattr(session, "read_emitted", flipped)
    runner = _runner(tmp_path)
    assert runner.run().failed == 0
    res = runner.run()
    assert res.failed == 1
    assert res.errors == ["determinism: emitted bytes differ between repetitions"]


@needs_cc
def test_traced_run_reports_every_per_layer_metric():
    result = run.traced_run(TINY, seed=3, seconds=0)
    assert (result["failed"], result["errors"]) == (0, [])
    assert set(run.PER_LAYER) <= set(result["metrics"])
    assert result["metrics"]["verify.entries"] == 6
    # the analytic tape sees both points at once; the FD Hessian oracle makes
    # f(x), 2 evaluations per diagonal entry and 4 per off-diagonal entry
    assert result["metrics"]["interp.points"] == 2 + 2 * (1 + 2 * 3 + 4 * 3)


def _finite_difference(f, x, h=1e-6):
    """Central differences of a scalar reference, one column per coordinate."""
    cols = []
    for i in range(x.shape[1]):
        up, dn = x.copy(), x.copy()
        up[:, i] += h
        dn[:, i] -= h
        cols.append((f(up) - f(dn)) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("name", ["hess_verify", "grad_steps"])
def test_references_are_consistent(name):
    wl = dataclasses.replace(WORKLOADS[name], batch=3)
    x = wl.sample_points(1)
    ref = wl.reference(x, wl.modes)
    n = wl.n_vars

    def f(p):
        return wl.reference(p, ("function",))["function"][:, 0]

    fd = _finite_difference(f, x)[:, :n]
    assert np.allclose(ref["gradient"], fd, rtol=1e-6, atol=1e-8)
    if "hessian" in wl.modes:
        def g(p):
            return wl.reference(p, ("gradient",))["gradient"]
        cols = [(g(x + np.eye(n)[i] * 1e-6) - g(x - np.eye(n)[i] * 1e-6)) / 2e-6 for i in range(n)]
        assert np.allclose(ref["hessian"].reshape(-1, n, n), np.stack(cols, axis=2),
                           rtol=1e-5, atol=1e-7)


@needs_cc
def test_speed_probe_samples_while_the_child_runs(tmp_path):
    proc = session.run_proc(["sleep", "0.2"], tmp_path)
    assert proc.returncode == 0 and proc.wall_s >= 0.2
    assert proc.probe_ns > 0
    assert proc.norm_s == pytest.approx(proc.wall_s * session.PROBE_REF_NS / proc.probe_ns)
    with session.SpeedProbe() as probe:
        subprocess.run(["sleep", "0.2"], check=True)
    # one before, one after and one per PROBE_GAP_S while the child ran
    assert len(probe.samples) >= 2 + 0.2 / session.PROBE_GAP_S / 2


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)


def test_sample_points_follow_the_seed():
    wl = WORKLOADS["grad_steps"]
    a, b = wl.sample_points(3), wl.sample_points(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, wl.sample_points(4))
    assert a.shape == (wl.batch, 200) and a.min() >= 0.01 and a.max() <= 1.0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, -1], ["codegen.emit", 1.0, 7.0, 0],
                    ["cast.to_source", 2.0, 5.0, 1], ["cli.main", 10.0, 12.0, -1]]
    inclusive, own = tracer.times()
    assert inclusive == {"cli.main": 12.0, "codegen.emit": 6.0, "cast.to_source": 3.0}
    assert own == {"cli.main": 6.0, "codegen.emit": 3.0, "cast.to_source": 3.0}
    assert [len(p) for p in tracer.phases()] == [3, 1]
    assert tracing.layer_self(own)["cast"] == 3.0


def test_expansion_counts_shared_nodes_once():
    from acorns.cast import Binary, Var
    from acorns.derivatives import DerivativeBundle

    x = Var("x")
    sq = Binary("*", x, x)  # DAG: x, sq, f; tree: 1 + 3 + 3 nodes
    bundle = DerivativeBundle(Binary("+", sq, sq), (sq,), ())
    assert tracing.expansion(bundle, ("function",)) == (7, 3)
    assert tracing.expansion(bundle, ("function", "gradient")) == (10, 3)


def test_patched_restores_the_original_names():
    from acorns import codegen, derivatives

    before = (codegen.to_source, derivatives.simplify)
    with tracing.patched(tracing.Tracer()):
        assert codegen.to_source is not before[0]
    assert (codegen.to_source, derivatives.simplify) == before


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([*cmd, "--workload", "grad_steps", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
