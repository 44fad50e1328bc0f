"""One untraced user session: generate, compile, evaluate, verify.

Every step is a child process started through spawn.c, which reports its
wall time, its peak RSS (the largest of the process and the children it
waited for, which covers gcc's cc1).  A thread of the benchmark measures
the speed of the core while the child runs (see PROBE_REF_NS).  Processes
run one at a time.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import MODE_STRIDE, Workload

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
HARNESS = HERE / "harness.c"
CC = "gcc"
CFLAGS = ("-std=c99", "-O2")
STEM = "der"

# A step whose process is shorter than this is repeated until its runs add
# up to it, and its sample is their median: the host's speed flips within a
# second, so one short process is a noisy sample.
MIN_STEP_S = 3.0

# Speed correction.  On a shared host a core slows down and speeds up (by
# up to 1.5x, for seconds at a time) with what other tenants run on it.
# While a child runs, a thread of the benchmark wakes every PROBE_GAP_S and
# times a fixed Python loop with its own CPU clock; the benchmark and its
# children are pinned to one core, so the loop runs on the child's core.  A
# step's time is its wall time scaled by PROBE_REF_NS / (mean loop time):
# the time it would take on a core where the loop takes PROBE_REF_NS.  On
# the host the benchmark was built on, the log of the CLI's, gcc's and
# verify's wall times follows the log of the loop's time with slope about 1
# (0.97-1.18) and correlation 0.96-0.99.  The raw wall times and loop times
# stay in the results under "raw".
PROBE_REF_NS = 120_000.0
PROBE_GAP_S = 0.02

# relative tolerance of the kernels against the closed-form references:
# the same real arithmetic, rounded in a different order
REF_RTOL = 1e-9


@dataclass
class Proc:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    probe_ns: float  # mean time of the speed probe's loop while the child ran
    stdout: str
    stderr: str

    @property
    def norm_s(self) -> float:
        """Wall time scaled to a core where the probe's loop takes PROBE_REF_NS."""
        return self.wall_s * PROBE_REF_NS / self.probe_ns


def probe_loop() -> int:
    """Thread CPU time, in ns, of one fixed pass of dict and str work."""
    t0 = time.thread_time_ns()
    counts: dict = {}
    for i in range(300):
        counts[i & 63] = counts.get(i & 63, 0) + len(str(i) + "x")
    return time.thread_time_ns() - t0


class SpeedProbe:
    """Samples probe_loop() before, during and after one child process."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PROBE_GAP_S):
            self.samples.append(probe_loop())

    def __enter__(self):
        self.samples.append(probe_loop())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(probe_loop())

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.samples)


@functools.cache
def spawn_exe() -> Path:
    """Build the process launcher (spawn.c) once per benchmark process."""
    exe = OUT / "spawn"
    OUT.mkdir(parents=True, exist_ok=True)
    subprocess.run([CC, *CFLAGS, "-o", str(exe), str(HERE / "spawn.c")], check=True,
                   capture_output=True)
    return exe


def run_proc(argv, cwd, env=None) -> Proc:
    """Run one child to completion through spawn.c; its wall time, peak RSS and speed."""
    paths = [Path(cwd) / f".proc_{k}" for k in ("stdout", "stderr", "result")]
    try:
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err, SpeedProbe() as probe:
            subprocess.run([str(spawn_exe()), str(paths[2]), *map(str, argv)], cwd=cwd, env=env,
                           stdin=subprocess.DEVNULL, stdout=out, stderr=err, check=True)
        code, wall_ns, rss_kb = paths[2].read_text().split()
        stdout, stderr = (p.read_text(errors="replace") for p in paths[:2])
    finally:
        for p in paths:
            p.unlink(missing_ok=True)
    return Proc(int(code), int(wall_ns) / 1e9, int(rss_kb) / 1024.0, probe.mean_ns, stdout,
                stderr)


def python_env(src: Path) -> dict:
    """The environment for running acorns from the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def emitted_files(directory: Path) -> list:
    """The header plus the parts, parts in numeric order."""
    parts = sorted(directory.glob(f"{STEM}_part*.c"),
                   key=lambda p: int(p.stem[len(STEM) + 5:]))
    return [directory / f"{STEM}.h", *parts]


def read_emitted(directory: Path) -> bytes:
    return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in emitted_files(directory))


def harness_defines(wl: Workload) -> list:
    return [f"-DHAVE_{m.upper()}" for m in wl.modes]


def run_kernels(wl: Workload, workdir: Path, exe: Path, points_path: Path, mode_reps) -> tuple:
    """Run the compiled harness; return {mode: [ns per timed call]} and its process."""
    argv = [str(exe), str(points_path), str(wl.batch), str(wl.n_slots), str(wl.n_vars),
            str(workdir), *(f"{m}:{r}" for m, r in mode_reps)]
    proc = run_proc(argv, workdir)
    if proc.returncode != 0:
        raise StepFailed(f"harness exited {proc.returncode}: {proc.stderr.strip()}")
    times = {}
    for line in proc.stdout.splitlines():
        mode, *ns = line.split()
        times[mode] = [int(v) for v in ns]
    return times, proc


def read_kernel_output(wl: Workload, workdir: Path, mode: str) -> np.ndarray:
    data = np.fromfile(workdir / f"out_{mode}.bin", dtype=np.float64)
    shape = (wl.batch, MODE_STRIDE[mode](wl.n_vars))
    if data.size != shape[0] * shape[1]:
        raise StepFailed(f"{mode} driver wrote {data.size} values, expected {shape[0] * shape[1]}")
    return data.reshape(shape)


def check_kernels(wl: Workload, workdir: Path, points: np.ndarray) -> list:
    """Compare every emitted driver with the closed-form reference; return mismatches."""
    ref = wl.reference(points, wl.modes)
    bad = []
    for mode in wl.modes:
        got = read_kernel_output(wl, workdir, mode)
        want = ref[mode]
        scale = float(np.max(np.abs(want)))
        if not np.allclose(got, want, rtol=REF_RTOL, atol=REF_RTOL * scale):
            bad.append(mode)
    return bad


class StepFailed(Exception):
    pass


@dataclass
class SessionResult:
    samples: dict = field(default_factory=dict)  # metric -> value
    raw: dict = field(default_factory=dict)  # step -> [(wall_s, probe_ns)] per process
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # sha256 of the emitted files, per generate


@dataclass
class SessionRunner:
    """Runs sessions of one workload and counts failed steps.

    Emitted bytes are compared across every generate of one runner, within
    and across sessions: byte determinism is part of the CLI contract, so a
    difference is a failure.
    """

    wl: Workload
    src: Path
    workroot: Path
    seed: int
    min_step_s: float = MIN_STEP_S
    first_digest: str = ""

    def run(self) -> SessionResult:
        res = SessionResult()
        self.workroot.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="session-", dir=self.workroot))
        try:
            self._steps(workdir, res)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return res

    def _attempt(self, res: SessionResult, name: str, fn) -> bool:
        res.attempted += 1
        try:
            fn()
        except StepFailed as exc:
            res.failed += 1
            res.errors.append(f"{name}: {exc}")
            return False
        return True

    def _skip(self, res: SessionResult, names):
        """Steps that need a failed step's output count as failed."""
        res.attempted += len(names)
        res.failed += len(names)
        res.errors += [f"{n}: not run" for n in names]

    def _steps(self, workdir: Path, res: SessionResult):
        wl = self.wl
        env = python_env(self.src)
        input_path = workdir / f"{wl.func}.c"
        input_path.write_text(wl.source)
        exe = workdir / "drv"
        if not self._attempt(res, "generate", lambda: self._generate(env, input_path, workdir, res)):
            self._skip(res, ["determinism", "compile", "evaluate"])
        else:
            self._attempt(res, "determinism", lambda: self._determinism(res))
            if self._attempt(res, "compile", lambda: self._compile(workdir, exe, res)):
                self._attempt(res, "evaluate", lambda: self._evaluate(workdir, exe, res))
            else:
                self._skip(res, ["evaluate"])
        self._attempt(res, "verify", lambda: self._verify(env, input_path, workdir, res))

    def _repeat(self, argv, workdir, env=None, after_each=None) -> list:
        """Run a step until its runs add up to `min_step_s`; fail on a nonzero exit."""
        procs = []
        while not procs or sum(p.wall_s for p in procs) < self.min_step_s:
            proc = run_proc(argv, workdir, env)
            if proc.returncode != 0:
                detail = (proc.stderr.strip() or proc.stdout.strip())[-500:]
                raise StepFailed(f"exit {proc.returncode}: {detail}")
            procs.append(proc)
            if after_each is not None:
                after_each()
        return procs

    def _generate(self, env, input_path, workdir, res):
        argv = [sys.executable, "-m", "acorns.cli",
                *self.wl.generate_argv(str(input_path), str(workdir / STEM))]

        def digest():
            res.digests.append(hashlib.sha256(read_emitted(workdir)).hexdigest())

        procs = self._repeat(argv, workdir, env, digest)
        res.samples["generate_s"] = _timed(res, "generate", procs)
        res.samples["generate_peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in procs)
        res.samples["output_bytes"] = float(sum(p.stat().st_size for p in emitted_files(workdir)))

    def _determinism(self, res):
        self.first_digest = self.first_digest or res.digests[0]
        if any(d != self.first_digest for d in res.digests):
            raise StepFailed("emitted bytes differ between repetitions")

    def _compile(self, workdir, exe, res):
        argv = [CC, *CFLAGS, *harness_defines(self.wl), "-I", str(workdir), "-o", str(exe),
                str(HARNESS), *(str(p) for p in emitted_files(workdir)[1:]), "-lm"]
        procs = self._repeat(argv, workdir)
        res.samples["cc_s"] = _timed(res, "cc", procs)
        res.samples["cc_peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in procs)
        res.samples["setup_s"] = res.samples["generate_s"] + res.samples["cc_s"]

    def _evaluate(self, workdir, exe, res):
        wl = self.wl
        points = wl.sample_points(self.seed)
        points_path = workdir / "points.bin"
        points.tofile(points_path)
        mode_reps = [(m, wl.reps if m == wl.headline else 1) for m in wl.modes]
        times, proc = run_kernels(wl, workdir, exe, points_path, mode_reps)
        bad = check_kernels(wl, workdir, points)
        if bad:
            raise StepFailed(f"kernel output differs from the reference for {', '.join(bad)}")
        # not speed-corrected: each compiled kernel follows the probe's loop
        # in its own way (see README.md)
        res.samples["kernel_ns_per_point"] = statistics.median(times[wl.headline]) / wl.batch
        res.raw["kernel"] = [(res.samples["kernel_ns_per_point"], proc.probe_ns)]

    def _verify(self, env, input_path, workdir, res):
        argv = [sys.executable, "-m", "acorns.cli", *self.wl.verify_argv(str(input_path), self.seed)]
        procs = self._repeat(argv, workdir, env)
        res.samples["verify_s"] = _timed(res, "verify", procs)


def _timed(res: SessionResult, step: str, procs) -> float:
    """The step's sample: the median speed-corrected time of its processes."""
    res.raw[step] = [(p.wall_s, p.probe_ns) for p in procs]
    return statistics.median(p.norm_s for p in procs)
