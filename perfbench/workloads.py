"""The benchmark's workloads: generated C inputs, CLI arguments, sampling
boxes and closed-form numpy references for every emitted driver.

The references are written here from the mathematics of each input and
never call acorns, so they check the generated kernels independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODE_STRIDE = {"function": lambda n: 1, "gradient": lambda n: n, "hessian": lambda n: n * n}

_PROD_POLY = """\
double prod_poly(const double *x) {{
    double e = 1;
    for (int i = 0; i < {s}; i++) {{
        e = e * (4 * x[i] * (1 - x[i]));
    }}
    return 0;
}}
"""

_CROSS_ENTROPY_STEPS = """\
double cross_entropy(const double **a, const double **b){{
    double loss = 0;
    for(int t = 0; t < {steps}; t++){{
        for(int i = 0; i < {rows}; i++){{
            for(int j = 0; j < {cols}; j++){{
                loss = loss - b[i][j] * log(a[i][j] + 0.001 * (t + 1));
            }}
        }}
    }}
    return loss;
}}
"""


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    source: str
    func: str
    energy: str
    var_param: str  # the single differentiated parameter
    params: tuple  # (name, scalar slot count) in declaration order
    boxes: dict  # param -> (lo, hi); kernel points and `verify --box`
    modes: tuple
    headline: str
    gen_args: tuple  # extra pipeline flags
    verify_mode: str
    verify_points: int
    verify_args: tuple  # extra verify flags
    batch: int  # points per timed driver call
    reps: int  # timed calls of the headline driver per session, about 2 s
    reference: object  # (points, modes) -> {mode: (batch, stride) array}

    @property
    def n_vars(self) -> int:
        return dict(self.params)[self.var_param]

    @property
    def n_slots(self) -> int:
        return sum(count for _, count in self.params)

    def sample_points(self, seed: int) -> np.ndarray:
        """Kernel inputs: differentiated slots first, then the rest, row-major."""
        rng = np.random.default_rng(seed)
        lows, highs = [], []
        order = [p for p in self.params if p[0] == self.var_param]
        order += [p for p in self.params if p[0] != self.var_param]
        for name, count in order:
            lo, hi = self.boxes[name]
            lows += [lo] * count
            highs += [hi] * count
        return rng.uniform(lows, highs, size=(self.batch, self.n_slots))

    def generate_argv(self, input_path: str, stem: str) -> list:
        return [input_path, self.energy, "--vars", self.var_param, "--func", self.func,
                "--output_filename", stem, "--mode", *self.modes, *self.gen_args]

    def verify_argv(self, input_path: str, seed: int) -> list:
        lo, hi = self.boxes[self.var_param]
        return ["verify", input_path, "--func", self.func, "--energy", self.energy,
                "--vars", self.var_param, "--box", repr(lo), repr(hi),
                "--mode", self.verify_mode, "--points", str(self.verify_points),
                "--seed", str(seed), *self.verify_args]


def _prod_poly_reference(points: np.ndarray, modes) -> dict:
    """f = prod g(x_i) with g(x) = 4x(1 - x), g' = 4 - 8x, g'' = -8."""
    g = 4 * points * (1 - points)
    dg = 4 - 8 * points
    num, s = points.shape
    out = {}
    if "function" in modes:
        out["function"] = np.prod(g, axis=1, keepdims=True)
    if "gradient" in modes:
        grad = np.empty((num, s))
        for i in range(s):
            grad[:, i] = dg[:, i] * np.prod(np.delete(g, i, axis=1), axis=1)
        out["gradient"] = grad
    if "hessian" in modes:
        hess = np.empty((num, s, s))
        for i in range(s):
            hess[:, i, i] = -8 * np.prod(np.delete(g, i, axis=1), axis=1)
            for j in range(i):
                rest = np.prod(np.delete(g, [i, j], axis=1), axis=1)
                hess[:, i, j] = hess[:, j, i] = dg[:, i] * dg[:, j] * rest
        out["hessian"] = hess.reshape(num, s * s)
    return out


def _cross_entropy_steps_reference(steps: int, cells: int):
    def reference(points: np.ndarray, modes) -> dict:
        """f = -sum_t sum b log(a + 0.001 (t + 1)); df/da = -sum_t b / (a + 0.001 (t + 1))."""
        a, b = points[:, :cells], points[:, cells:]
        shifts = [0.001 * (t + 1) for t in range(steps)]
        out = {}
        if "function" in modes:
            out["function"] = -sum(np.sum(b * np.log(a + c), axis=1) for c in shifts)[:, None]
        if "gradient" in modes:
            out["gradient"] = -sum(b / (a + c) for c in shifts)
        return out
    return reference


def _eq3(name, s, gen_args, verify_points, verify_args, reps):
    return Workload(
        name=name, source=_PROD_POLY.format(s=s), func="prod_poly", energy="e",
        var_param="x", params=(("x", s),), boxes={"x": (0.05, 0.95)},
        modes=("function", "gradient", "hessian"), headline="hessian", gen_args=gen_args,
        verify_mode="hessian", verify_points=verify_points, verify_args=verify_args,
        batch=2000, reps=reps, reference=_prod_poly_reference,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _eq3("hess_expand", s=12, gen_args=("--no-simplify", "--split-size", "262144"),
             verify_points=20, verify_args=("--no-simplify",), reps=400),
        Workload(
            name="grad_steps",
            source=_CROSS_ENTROPY_STEPS.format(steps=8, rows=10, cols=10),
            func="cross_entropy", energy="loss", var_param="a",
            params=(("a", 100), ("b", 100)), boxes={"a": (0.01, 1.0), "b": (0.01, 1.0)},
            modes=("function", "gradient"), headline="gradient", gen_args=(),
            verify_mode="gradient", verify_points=1, verify_args=(),
            batch=2000, reps=1200,
            reference=_cross_entropy_steps_reference(8, 100),
        ),
        _eq3("hess_verify", s=20, gen_args=(), verify_points=100, verify_args=(), reps=1200),
    )
}
