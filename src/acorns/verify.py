"""Finite-difference oracles, the built-in test corpus, and the `verify`
pipeline check.

The FD oracles evaluate only the original straight-line program (never a
differentiated expression), so they are independent of the symbolic
differentiator they validate.  numpy is imported on first use, as in
`interp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cast import ArrayRef, Assignment, Declaration, Expr, ForLoop, FunctionIR, If, Return, Var, children, operands, post_order
from .derivatives import VarIndexMap, derive_bundle
from .errors import AcornsError, UnboundSlot
from .flatten import StraightLineProgram, eval_const, unroll
from .interp import _apply, compile_exprs, compile_program, evaluate, eval_expr
from .parser import parse_source, validate_subset

if TYPE_CHECKING:
    import numpy as np

GRAD_TOL = 1e-5
HESS_TOL = 5e-4
DEFAULT_SEED = 20240

__all__ = [
    "CorpusFunction", "CORPUS", "corpus_function", "eval_expr",
    "fd_gradient", "fd_hessian", "run_ir", "verify", "FdReport", "FdEntry",
    "GRAD_TOL", "HESS_TOL",
]


# ---------------------------------------------------------------------------
# Corpus


@dataclass(frozen=True)
class CorpusFunction:
    name: str
    source: str
    func_name: str
    energy_var: str
    var_names: tuple
    boxes: dict  # param name -> (lo, hi) sampling interval
    s: int | None = None  # variable count for the parametric family


_LONG_POLY_SRC = """\
double long_poly(double x) {
    double e = (x * x + 3 * x - x / 4) / x + pow(x, 4) + 22.0 / 7.0 * pow(x, 3) + pow(x, 9);
    return 0;
}
"""

_TRIG_SRC = """\
double trig(double x) {
    double e = sin(x) + cos(x) + x * x;
    return 0;
}
"""

_PROD_POLY_TEMPLATE = """\
double prod_poly(const double *x) {{
    double e = 1;
    for (int i = 0; i < {s}; i++) {{
        e = e * (4 * x[i] * (1 - x[i]));
    }}
    return 0;
}}
"""

CROSS_ENTROPY_SRC = """\
double cross_entropy(const double **a, const double **b){
    double loss = 0;
    for(int i = 0; i < 2; i++){
        for(int j = 0; j < 2; j++ ){
            loss = loss - (b[i][j] * log(a[i][j] + 0.00001));
        }
    }
    return loss;
}
"""

FUNCTION_0_SRC = """\
int function_0(double x){
    double energy = pow(x, 4) - 3*pow(x, 3) + 2;
    return 0;
}
"""

_CONST_SRC = """\
double const_fn(double x) {
    double e = 5;
    return 0;
}
"""

# A 2-D mass-spring energy (after Baraff & Witkin, "Large steps in cloth
# simulation", SIGGRAPH 1998): unit-rest-length springs along the horizontal
# and vertical edges of a G x G grid; node (i, j) is at x[2 (i G + j)],
# x[2 (i G + j) + 1]
_SPRINGS_TEMPLATE = """\
double springs(const double *x) {{
    double e = 0;
    for (int i = 0; i < {g}; i++) {{
        for (int j = 0; j + 1 < {g}; j++) {{
            double dx = x[2 * (i * {g} + j + 1)] - x[2 * (i * {g} + j)];
            double dy = x[2 * (i * {g} + j + 1) + 1] - x[2 * (i * {g} + j) + 1];
            double r = sqrt(dx * dx + dy * dy) - 1;
            e = e + r * r;
            dx = x[2 * ((j + 1) * {g} + i)] - x[2 * (j * {g} + i)];
            dy = x[2 * ((j + 1) * {g} + i) + 1] - x[2 * (j * {g} + i) + 1];
            r = sqrt(dx * dx + dy * dy) - 1;
            e = e + r * r;
        }}
    }}
    return 0;
}}
"""

# A triangle-area barrier (the -log(area) term of Smith & Schaefer,
# "Bijective parameterization with free boundaries", SIGGRAPH 2015): each
# cell of a G x G unit grid is split into two counter-clockwise triangles,
# and node (i, j) sits at (j, i) displaced by x[2 (i G + j)], x[2 (i G + j) + 1].
# Displacements under 0.2 keep every area positive.
_BARRIER_TEMPLATE = """\
double barrier(const double *x) {{
    double e = 0;
    for (int i = 0; i + 1 < {g}; i++) {{
        for (int j = 0; j + 1 < {g}; j++) {{
            double ax = j + x[2 * (i * {g} + j)];
            double ay = i + x[2 * (i * {g} + j) + 1];
            double bx = j + 1 + x[2 * (i * {g} + j + 1)];
            double by = i + x[2 * (i * {g} + j + 1) + 1];
            double cx = j + 1 + x[2 * ((i + 1) * {g} + j + 1)];
            double cy = i + 1 + x[2 * ((i + 1) * {g} + j + 1) + 1];
            double dx = j + x[2 * ((i + 1) * {g} + j)];
            double dy = i + 1 + x[2 * ((i + 1) * {g} + j) + 1];
            e = e - log(0.5 * ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)));
            e = e - log(0.5 * ((cx - ax) * (dy - ay) - (dx - ax) * (cy - ay)));
        }}
    }}
    return 0;
}}
"""


def corpus_function(name: str, s: int | None = None) -> CorpusFunction:
    if name == "eq1":
        return CorpusFunction("eq1", _LONG_POLY_SRC, "long_poly", "e", ("x",),
                              {"x": (0.15, 1.5)})
    if name == "eq2":
        return CorpusFunction("eq2", _TRIG_SRC, "trig", "e", ("x",),
                              {"x": (-2.0, 2.0)})
    if name == "eq3":
        s = 2 if s is None else s
        return CorpusFunction("eq3", _PROD_POLY_TEMPLATE.format(s=s), "prod_poly",
                              "e", ("x",), {"x": (0.05, 0.95)}, s=s)
    if name == "cross_entropy":
        return CorpusFunction("cross_entropy", CROSS_ENTROPY_SRC, "cross_entropy",
                              "loss", ("a",), {"a": (0.01, 1.0), "b": (0.05, 0.95)})
    if name == "function_0":
        return CorpusFunction("function_0", FUNCTION_0_SRC, "function_0", "energy",
                              ("x",), {"x": (0.5, 4.0)})
    if name == "const_fn":
        return CorpusFunction("const_fn", _CONST_SRC, "const_fn", "e", ("x",),
                              {"x": (-1.0, 1.0)})
    if name == "springs":
        s = 3 if s is None else s
        return CorpusFunction("springs", _SPRINGS_TEMPLATE.format(g=s), "springs", "e",
                              ("x",), {"x": (0.0, 3.0)}, s=s)
    if name == "barrier":
        s = 3 if s is None else s
        return CorpusFunction("barrier", _BARRIER_TEMPLATE.format(g=s), "barrier", "e",
                              ("x",), {"x": (-0.2, 0.2)}, s=s)
    raise AcornsError(f"unknown corpus function {name!r}")


CORPUS = ("eq1", "eq2", "eq3", "cross_entropy", "function_0", "const_fn", "springs", "barrier")


def corpus_program(fn: CorpusFunction):
    ir = parse_source(fn.source, fn.func_name, fn.energy_var)
    violations = validate_subset(ir)
    if violations:
        raise AcornsError(f"corpus function {fn.name} violates the subset: {violations}")
    program = unroll(ir)
    vars_ = VarIndexMap.from_names(program, fn.var_names)
    return ir, program, vars_


def sample_points(fn: CorpusFunction, program: StraightLineProgram, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample `count` full input-slot vectors inside the function's safe box."""
    lows, highs = [], []
    for slot in program.inputs:
        lo, hi = fn.boxes.get(slot.param, (0.01, 1.0))
        lows.append(lo)
        highs.append(hi)
    return rng.uniform(lows, highs, size=(count, len(program.inputs)))


# ---------------------------------------------------------------------------
# Direct interpretation of the looped IR (reference executor)


def run_ir(ir: FunctionIR, bindings: dict) -> float:
    """Execute a FunctionIR directly, loops and all; returns the energy value.

    Arithmetic uses exactly the same scalar operations as `eval_expr`, so
    the result is bitwise identical to evaluating the unrolled program.
    """
    params = {p.name for p in ir.params}
    memory: dict[str, float] = {}

    def read(label: str, span) -> float:
        if label in memory:
            return memory[label]
        if label.split("[", 1)[0] in params:
            try:
                return bindings[label]
            except KeyError:
                raise UnboundSlot(label) from None
        raise UnboundSlot(label)

    def ev(e: Expr, env: dict) -> float:
        values: dict[int, float] = {}
        for node in post_order(e, values, operands):
            if isinstance(node, Var):
                value = float(env[node.name]) if node.name in env else read(node.name, node.span)
            elif isinstance(node, ArrayRef):
                indices = tuple(eval_const(ix, env) for ix in node.indices)
                value = read(node.base + "".join(f"[{ix}]" for ix in indices), node.span)
            else:
                value = _apply(node, [values[id(k)] for k in children(node)])
            values[id(node)] = value
        return values[id(e)]

    def store(lvalue: Expr, value: float, env: dict):
        if isinstance(lvalue, Var):
            memory[lvalue.name] = value
        else:
            indices = tuple(eval_const(ix, env) for ix in lvalue.indices)
            memory[lvalue.base + "".join(f"[{ix}]" for ix in indices)] = value

    def run_block(stmts, env: dict):
        for s in stmts:
            if isinstance(s, Declaration):
                if s.elem_type == "int":
                    env[s.name] = eval_const(s.init, env)
                elif s.init is not None:
                    memory[s.name] = ev(s.init, env)
            elif isinstance(s, Assignment):
                store(s.lvalue, ev(s.rhs, env), env)
            elif isinstance(s, ForLoop):
                value = eval_const(s.init, env)
                while True:
                    inner = dict(env)
                    inner[s.counter] = value
                    if not eval_const(s.cond, inner):
                        break
                    run_block(s.body, inner)
                    value = eval_const(s.update, inner)
            elif isinstance(s, If):
                run_block(s.then_body if eval_const(s.cond, env) else s.else_body, dict(env))
            elif isinstance(s, Return):
                pass

    run_block(ir.body, {})
    if ir.energy_var not in memory:
        raise UnboundSlot(ir.energy_var)
    return memory[ir.energy_var]


# ---------------------------------------------------------------------------
# Finite differences


def _fd_h(xj: float, h: float | None) -> float:
    return h if h is not None else 1e-5 * max(1.0, abs(xj))


# most bytes of input rows the FD oracles build at once
FD_BLOCK_BYTES = 64 * 2**20


class _ProgramEvaluator:
    """Evaluates only the original program; the oracle's f(x)."""

    def __init__(self, program: StraightLineProgram, vars_: VarIndexMap):
        self.tape = compile_program(program)
        self.slot_pos = {label: i for i, label in enumerate(self.tape.slots)}
        self.var_pos = [self.slot_pos[v] for v in vars_.labels]

    def __call__(self, points: np.ndarray) -> list:
        """f at each row of `points`, as Python floats."""
        return evaluate(self.tape, points)[:, 0].tolist()

    def stepped(self, point: np.ndarray, count: int, rows: list, cols: list,
                steps: list) -> list:
        """f at `count` copies of `point`, copy rows[k] having steps[k] added
        to its slot cols[k] (`rows` ascending, each slot stepped at most once
        per copy).  Builds at most `FD_BLOCK_BYTES` of copies at a time."""
        import numpy as np

        rows, cols, steps = np.asarray(rows), np.asarray(cols, dtype=np.intp), np.asarray(steps)
        per_block = max(1, FD_BLOCK_BYTES // (8 * point.size))
        vals: list = []
        for lo in range(0, count, per_block):
            hi = min(count, lo + per_block)
            a, b = np.searchsorted(rows, (lo, hi))
            block = np.repeat(point.reshape(1, -1), hi - lo, axis=0)
            block[rows[a:b] - lo, cols[a:b]] += steps[a:b]
            vals += self(block)
        return vals


def fd_gradient(program: StraightLineProgram, vars_: VarIndexMap,
                point: np.ndarray, h: float | None = None, *,
                oracle: _ProgramEvaluator | None = None) -> np.ndarray:
    """Central-difference gradient over the full input-slot vector `point`.

    `oracle` is the program's evaluator, built here when not given.
    """
    import numpy as np

    f = oracle if oracle is not None else _ProgramEvaluator(program, vars_)
    n = vars_.n
    # rows 2j and 2j + 1 step variable j up and down
    steps = [_fd_h(point[pos], h) for pos in f.var_pos]
    vals = f.stepped(point, 2 * n, range(2 * n), [pos for pos in f.var_pos for _ in (0, 1)],
                     [s for hj in steps for s in (hj, -hj)])
    out = np.empty(n)
    for j, hj in enumerate(steps):
        out[j] = (vals[2 * j] - vals[2 * j + 1]) / (2 * hj)
    return out


def fd_hessian(program: StraightLineProgram, vars_: VarIndexMap,
               point: np.ndarray, h: float | None = None, *,
               oracle: _ProgramEvaluator | None = None) -> np.ndarray:
    """Central second differences; the i == j case uses the 3-point stencil.

    `oracle` is the program's evaluator, built here when not given.
    """
    import numpy as np

    f = oracle if oracle is not None else _ProgramEvaluator(program, vars_)
    n = vars_.n
    steps = [_fd_h(point[pos], h) for pos in f.var_pos]
    # row 0 is the point itself; then each (i, j) with j <= i takes 2 rows on
    # the diagonal (up, dn) and 4 off it (pp, pm, mp, mm): 1 + 2n^2 in all
    rows: list = []
    cols: list = []
    deltas: list = []
    k = 1
    for i in range(n):
        pi, hi = f.var_pos[i], steps[i]
        for j in range(i + 1):
            pj, hj = f.var_pos[j], steps[j]
            if i == j:
                rows += (k, k + 1)
                cols += (pi, pi)
                deltas += (hi, -hi)
                k += 2
            else:
                rows += (k, k, k + 1, k + 1, k + 2, k + 2, k + 3, k + 3)
                cols += (pi, pj) * 4
                deltas += (hi, hj, hi, -hj, -hi, hj, -hi, -hj)
                k += 4
    vals = f.stepped(point, k, rows, cols, deltas)
    f0 = vals[0]
    out = np.empty((n, n))
    k = 1
    for i in range(n):
        hi = steps[i]
        for j in range(i + 1):
            hj = steps[j]
            if i == j:
                val = (vals[k] - 2 * f0 + vals[k + 1]) / (hi * hi)
                k += 2
            else:
                val = (vals[k] - vals[k + 1] - vals[k + 2] + vals[k + 3]) / (4 * hi * hj)
                k += 4
            out[i, j] = val
            out[j, i] = val
    return out


# ---------------------------------------------------------------------------
# Reports


@dataclass
class FdEntry:
    name: str
    analytic: float
    fd: float
    abs_err: float
    rel_err: float  # |analytic - fd| / max(1, |analytic|)
    ok: bool


@dataclass
class FdReport:
    function: str
    mode: str
    tolerance: float
    points: int
    entries: list = field(default_factory=list)
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # name -> position in entries

    @property
    def max_rel_err(self) -> float:
        return max((e.rel_err for e in self.entries), default=0.0)

    @property
    def pass_count(self) -> int:
        return sum(e.ok for e in self.entries)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def record(self, name: str, analytic: float, fd: float):
        abs_err = abs(analytic - fd)
        rel_err = abs_err / max(1.0, abs(analytic))
        entry = FdEntry(name, analytic, fd, abs_err, rel_err, rel_err <= self.tolerance)
        # keep the worst instance per entry name
        i = self._index.get(name)
        if i is None:
            self._index[name] = len(self.entries)
            self.entries.append(entry)
        elif rel_err > self.entries[i].rel_err:
            self.entries[i] = entry

    def render(self) -> str:
        lines = [
            f"verify {self.function} mode={self.mode} points={self.points} tol={self.tolerance:g}",
            f"{'entry':<14} {'analytic':>16} {'fd':>16} {'relerr':>10}  pass",
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:<14} {e.analytic:>16.8g} {e.fd:>16.8g} {e.rel_err:>10.2e}  {'ok' if e.ok else 'FAIL'}"
            )
        lines.append(
            f"{self.pass_count}/{len(self.entries)} entries pass, max relerr {self.max_rel_err:.2e}"
        )
        return "\n".join(lines)

    def render_machine(self) -> str:
        # float() first: the repr of a numpy scalar is `np.float64(...)`
        return "\n".join(
            f"{e.name},{float(e.analytic)!r},{float(e.fd)!r},{float(e.rel_err)!r},{int(e.ok)}"
            for e in self.entries
        )


def verify(fn: CorpusFunction, mode: str = "gradient", points: int = 100,
           seed: int = DEFAULT_SEED, do_simplify: bool = True,
           tolerance: float | None = None) -> FdReport:
    """Run the pipeline and compare analytic derivatives with FD oracles."""
    import numpy as np

    if mode not in ("gradient", "hessian"):
        raise AcornsError(f"verify mode must be gradient or hessian, not {mode!r}")
    _, program, vars_ = corpus_program(fn)
    bundle = derive_bundle(program, vars_, do_simplify=do_simplify,
                           want_hessian=(mode == "hessian"))
    n = vars_.n
    if mode == "gradient":
        exprs = list(bundle.grad)
        names = [f"grad[{j}]" for j in range(n)]
        tol = GRAD_TOL if tolerance is None else tolerance
    else:
        exprs = list(bundle.hess_lower)
        names = [f"hess[{i},{j}]" for i in range(n) for j in range(i + 1)]
        tol = HESS_TOL if tolerance is None else tolerance

    labels = [s.label for s in program.inputs]
    tape = compile_exprs(exprs, labels)
    rng = np.random.default_rng(seed)
    pts = sample_points(fn, program, points, rng)
    analytic = evaluate(tape, pts)

    report = FdReport(fn.name, mode, tol, points)
    oracle = _ProgramEvaluator(program, vars_)  # one program tape for every point
    for p in range(points):
        if mode == "gradient":
            fd = fd_gradient(program, vars_, pts[p], oracle=oracle)
            for j in range(n):
                report.record(names[j], analytic[p, j], fd[j])
        else:
            fd = fd_hessian(program, vars_, pts[p], oracle=oracle)
            k = 0
            for i in range(n):
                for j in range(i + 1):
                    report.record(names[k], analytic[p, k], fd[i, j])
                    k += 1
    return report
