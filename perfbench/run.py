"""End-to-end and per-layer benchmark of the acorns_autodiff pipeline.

    python3 perfbench/run.py --workload hess_expand --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 the run repeats user
sessions (generate with the CLI, gcc, evaluate the kernels, verify) one
after another for --seconds and reports end-to-end medians.  With --trace 1
it repeats generate and verify in-process with each layer's functions
wrapped, then compiles the parts one by one and times every driver, and
reports per-layer numbers.  The last line of standard output is one JSON
object; `all` runs every workload in turn and prints their tables only.
Full results, the environment and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import session  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = session.OUT

# a run repeats sessions for --seconds but never fewer than this, so every
# median has two samples and determinism is checked across sessions
MIN_SESSIONS = 2
STARTUP_SAMPLES = 5

# metric names and units, as the JSON result line reports them
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.is_file() else {}
END_TO_END = {m["name"]: m["unit"] for m in SPEC.get("end_to_end", ())}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC.get("per_layer", ())}


def environment(cc_flags) -> dict:
    import acorns.interp

    gcc = subprocess.run([session.CC, "--version"], capture_output=True, text=True, check=True)
    return {
        "gcc": gcc.stdout.splitlines()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "have_native": acorns.interp.HAVE_NATIVE,
        "cc_flags": list(cc_flags),
        "probe_ref_ns": session.PROBE_REF_NS,
    }


def untraced_run(wl, seed, seconds) -> dict:
    runner = session.SessionRunner(wl, SRC, OUT / "work", seed)
    samples: dict = {}
    raw: dict = {}
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    sessions = 0
    while sessions < MIN_SESSIONS or time.perf_counter() - start < seconds:
        res = runner.run()
        sessions += 1
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        for key, value in res.samples.items():
            samples.setdefault(key, []).append(value)
        for key, value in res.raw.items():
            raw.setdefault(key, []).extend(value)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["ok_ratio"] = 1.0 - failed / attempted
    return {"metrics": metrics, "samples": samples, "raw": raw, "attempted": attempted,
            "failed": failed, "errors": errors, "sessions": sessions}


def traced_run(wl, seed, seconds) -> dict:
    workroot = OUT / "work"
    workroot.mkdir(parents=True, exist_ok=True)
    env = session.python_env(SRC)
    startup = []
    for _ in range(STARTUP_SAMPLES):
        proc = session.run_proc([sys.executable, "-c", "import acorns.cli"], workroot, env)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing acorns.cli failed: {proc.stderr}")
        startup.append(proc.norm_s)

    attempted = failed = 0
    errors = []
    traced, untraced, snapshots = [], [], []
    last_dir = None
    start = time.perf_counter()
    # alternate traced and untraced passes; the traced ones give the layer
    # numbers, the difference between the two kinds is the tracing overhead
    while len(traced) < 2 or not untraced or time.perf_counter() - start < seconds:
        use_trace = len(traced) <= len(untraced)
        workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=workroot))
        input_path = workdir / f"{wl.func}.c"
        input_path.write_text(wl.source)
        tracer = tracing.Tracer() if use_trace else None
        times = tracing.run_pass(wl.generate_argv(str(input_path), str(workdir / session.STEM)),
                                 wl.verify_argv(str(input_path), seed), tracer)
        if times["generate_rc"] != 0:
            raise SystemExit(f"perfbench: in-process generate exited {times['generate_rc']}")
        attempted += 1
        if times["verify_rc"] != 0:
            failed += 1
            errors.append(f"in-process verify exited {times['verify_rc']}")
        if use_trace:
            snapshot = _trace_snapshot(wl, tracer, workdir)
            traced.append((times, tracer, snapshot))
            if snapshots:
                attempted += 1
                if snapshot != snapshots[0]:
                    failed += 1
                    errors.append("exact counts differ between traced passes")
            snapshots.append(snapshot)
            if last_dir is not None:
                shutil.rmtree(last_dir, ignore_errors=True)
            last_dir = workdir
        else:
            untraced.append(times)
            shutil.rmtree(workdir, ignore_errors=True)

    try:
        cc_metrics, cc_fail = _compile_parts_and_time(wl, seed, last_dir)
    finally:
        shutil.rmtree(last_dir, ignore_errors=True)
    attempted += 2
    failed += len(cc_fail)
    errors += cc_fail

    metrics = _layer_metrics(wl, traced, untraced)
    metrics.update(cc_metrics)
    metrics["cli.startup_s"] = statistics.median(startup)
    spans = [{"pass": k, "spans": [dict(zip(("name", "start", "end", "parent"), s))
                                   for s in tracer.spans]}
             for k, (_, tracer, _) in enumerate(traced)]
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "sessions": len(traced), "counts": snapshots[0], "spans": spans}


def _trace_snapshot(wl, tracer, workdir) -> dict:
    """The counts that must repeat exactly from one traced pass to the next."""
    tree, dag = tracing.expansion(tracer.bundle, wl.modes)
    calls = tracer.calls()
    snap = dict(tracer.counts)
    snap.update({
        "cast.tree_nodes": tree, "cast.dag_nodes": dag,
        "derivatives.differentiate_calls": calls["derivatives.differentiate"],
        "derivatives.simplify_calls": calls["derivatives.simplify"],
        "interp.evaluate_calls": calls["interp.evaluate"],
        "verify.fd_calls": calls["verify.fd_gradient"] + calls["verify.fd_hessian"],
        "verify.record_calls": calls["verify.record"],
        "output_sha256": hashlib.sha256(session.read_emitted(workdir)).hexdigest(),
    })
    return snap


def _layer_metrics(wl, traced, untraced) -> dict:
    per_pass = []
    for times, tracer, snap in traced:
        inclusive, own = tracer.times()
        gen_phase, ver_phase = tracer.phases()
        _, gen_own = tracer.times(gen_phase)
        _, ver_own = tracer.times(ver_phase)
        gen_layers = tracing.layer_self(gen_own)
        ver_layers = tracing.layer_self(ver_own)
        layers = tracing.layer_self(own)
        m = {
            "parser.parse_s": inclusive["parser.parse_source"],
            "parser.validate_s": inclusive["parser.validate_subset"],
            "flatten.unroll_s": inclusive["flatten.unroll"],
            "derivatives.derive_s": inclusive["derivatives.derive_bundle"],
            "derivatives.substitute_s": own["derivatives.substitute"],
            "derivatives.differentiate_s": own["derivatives.differentiate"],
            "derivatives.simplify_s": own["derivatives.simplify"],
            "cast.count_nodes_s": own["cast.count_nodes"],
            "cast.to_source_s": own["cast.to_source"],
            "codegen.emit_s": own["codegen.emit"],
            "cli.write_s": own["cli.run_pipeline"],
            "interp.compile_s": own["interp.compile_exprs"] + own["interp.compile_program"],
            "interp.evaluate_s": own["interp.evaluate"],
            "verify.fd_s": inclusive["verify.fd_gradient"] + inclusive["verify.fd_hessian"],
            "verify.record_s": own["verify.record"],
            "inproc.generate_s": times["generate_s"],
            "inproc.verify_s": times["verify_s"],
            "share.derivatives_of_generate": gen_layers["derivatives"] / times["generate_s"],
            "share.codegen_to_source_of_generate":
                (gen_layers["codegen"] + gen_own["cast.to_source"]) / times["generate_s"],
            "share.interp_verify_of_verify":
                (ver_layers["interp"] + ver_layers["verify"]) / times["verify_s"],
        }
        m.update({f"{layer}.self_s": t for layer, t in layers.items()})
        per_pass.append(m)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    traced_total = statistics.median(t["generate_s"] + t["verify_s"] for t, _, _ in traced)
    untraced_total = statistics.median(t["generate_s"] + t["verify_s"] for t in untraced)
    metrics["trace.overhead_s"] = traced_total - untraced_total

    snap = traced[0][2]
    for key in ("flatten.assigns", "derivatives.differentiate_calls",
                "derivatives.simplify_calls", "cast.tree_nodes", "cast.dag_nodes",
                "codegen.statements", "codegen.files", "codegen.max_file_bytes",
                "interp.evaluate_calls", "interp.points", "verify.fd_calls",
                "verify.record_calls", "verify.entries"):
        metrics[key] = snap[key]
    metrics["interp.tape_ops"] = snap["interp.tape_ops.exprs"] + snap["interp.tape_ops.program"]
    metrics["cast.expansion_ratio"] = snap["cast.tree_nodes"] / snap["cast.dag_nodes"]
    return metrics


def _compile_parts_and_time(wl, seed, workdir) -> tuple:
    """Compile each emitted part on its own, then time every driver."""
    errors = []
    objects, part_s = [], []
    for src in [session.HARNESS, *session.emitted_files(workdir)[1:]]:
        obj = workdir / (Path(src).stem + ".o")
        argv = [session.CC, *session.CFLAGS, *session.harness_defines(wl), "-I", str(workdir),
                "-c", str(src), "-o", str(obj)]
        proc = session.run_proc(argv, workdir)
        if proc.returncode != 0:
            return {}, [f"gcc -c {src} exited {proc.returncode}", "kernels: not run"]
        if src != session.HARNESS:
            part_s.append(proc.norm_s)
        objects.append(obj)
    size = subprocess.run(["size", *map(str, objects[1:])], capture_output=True, text=True,
                          check=True)
    text_bytes = sum(int(line.split()[0]) for line in size.stdout.splitlines()[1:])
    exe = workdir / "drv"
    link = session.run_proc([session.CC, "-o", str(exe), *map(str, objects), "-lm"], workdir)
    if link.returncode != 0:
        return {}, [f"link exited {link.returncode}", "kernels: not run"]
    points = wl.sample_points(seed)
    points_path = workdir / "points.bin"
    points.tofile(points_path)
    try:
        # the function driver of grad_steps is 20x slower than its headline
        reps = max(5, wl.reps // 40)
        times, _ = session.run_kernels(wl, workdir, exe, points_path,
                                       [(m, reps) for m in wl.modes])
        bad = session.check_kernels(wl, workdir, points)
    except session.StepFailed as exc:
        return {}, [str(exc)]
    if bad:
        errors.append(f"kernel output differs from the reference for {', '.join(bad)}")
    ns = {m: statistics.median(t) / wl.batch for m, t in times.items()}
    return {
        "cc.object_text_bytes": text_bytes,
        "cc.max_part_s": max(part_s),
        "kernel.ns_per_point.function": ns["function"],
        "kernel.ns_per_point.gradient": ns["gradient"],
        "kernel.ns_per_point.headline": ns[wl.headline],
        "kernel.grad_over_f": ns["gradient"] / ns["function"],
    }, errors


def print_table(name, result, trace):
    print(f"== {name} ({'traced' if trace else 'untraced'}, {result['sessions']} sessions)")
    units = {**END_TO_END, **PER_LAYER, "kernel_ns_per_point": "ns"}
    for key, value in sorted(result["metrics"].items()):
        n = len(result.get("samples", {}).get(key, ())) or ""
        unit = units.get(key, "s" if key.endswith("_s") else "")
        print(f"  {key:<40} {value:>16.6g} {unit:<6} {n}")
    if not trace:
        print(f"  {'fail_ratio':<40} {result['failed'] / result['attempted']:>16.6g} 1")
    for err in result["errors"]:
        print(f"  error: {err}")


def run_one(name, seed, seconds, trace, env) -> dict:
    wl = WORKLOADS[name]
    result = (traced_run if trace else untraced_run)(wl, seed, seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, **{k: v for k, v in result.items() if k != "spans"}}
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(result["spans"]))
    print_table(name, result, trace)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "acorns" / "cli.py").is_file():
        print(f"perfbench: no acorns package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not SPEC:
        print(f"perfbench: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    if shutil.which(session.CC) is None:
        print(f"perfbench: no C compiler ({session.CC}) on PATH; the benchmark needs one",
              file=sys.stderr)
        return 2
    # children, gcc above all, keep their temporary files inside the checkout
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "acorns"), quiet=1)
    env = environment(session.CFLAGS)
    # one core for the benchmark and every child, so that the speed probe
    # (session.SpeedProbe) measures the core the step runs on: the cores of
    # a shared host change speed independently of each other
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("environment: " + json.dumps(env))

    if args.workload == "all":
        for name in WORKLOADS:
            run_one(name, args.seed, args.seconds, args.trace, env)
        return 0
    result = run_one(args.workload, args.seed, args.seconds, args.trace, env)
    metrics = {k: {"value": result["metrics"][k], "unit": unit}
               for k, unit in (PER_LAYER if args.trace else END_TO_END).items()
               if k in result["metrics"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
