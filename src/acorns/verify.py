"""Finite-difference oracles, the built-in test corpus, and the `verify`
pipeline check.

The FD oracles evaluate only the original straight-line program (never a
differentiated expression), so they are independent of the symbolic
differentiator they validate.  The analytic side is what the command line
emits for the mode checked: on the element path (`elements.element_path`)
the per-iteration gradient of each loop body, its loops run by
`flatten.iterations` and its values read at the positions in `vals` the
kernel loads, summed as the emitted loops sum it (`element_gradient`),
else the unrolled program's derivatives.  An `int` parameter is sampled
at integers.  numpy is imported on first use, as in `interp`.
"""

from __future__ import annotations

import functools
import math

from .cast import (Assignment, Block, Constant, Declaration, Expr, ForLoop, FunctionIR, If,
                   Return, Var, is_plus_zero)
from .derivatives import DEFAULT_NODE_CAP, VarIndexMap, derive_bundle, layout_slots
from .elements import ElementLoops, element_path
from .errors import AcornsError, SubsetViolations, UnboundSlot
from .flatten import (DEFAULT_ASSIGN_CAP, StraightLineProgram, const_order, element_labels,
                      eval_const, eval_consts, fold, iterations, loop_heads, slot_label, to_int,
                      unroll)
from .interp import CHUNK_CELLS, compile_exprs, compile_program, evaluate, eval_expr
from .parser import parse_source, validate_subset
from .record import Record

GRAD_TOL = 1e-5
HESS_TOL = 5e-4
DEFAULT_SEED = 20240

__all__ = [
    "CorpusFunction", "CORPUS", "corpus_function", "eval_expr",
    "fd_gradient", "fd_hessian", "run_ir", "verify", "element_gradient", "FdReport", "FdEntry",
    "GRAD_TOL", "HESS_TOL",
]


# ---------------------------------------------------------------------------
# Corpus


class CorpusFunction(Record):
    __slots__ = ("name", "source", "func_name", "energy_var", "var_names", "boxes", "s")

    def __init__(self, name: str, source: str, func_name: str, energy_var: str,
                 var_names: tuple, boxes: dict, s: int | None = None):
        # boxes maps a param name to its (lo, hi) sampling interval; s is the
        # size of a sized entry: variables, grid side or steps
        super().__init__(name, source, func_name, energy_var, var_names, boxes, s)


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
# and vertical edges of a G x G grid, G = s; node (i, j) is at
# x[2 (i G + j)], x[2 (i G + j) + 1]
_SPRINGS_TEMPLATE = """\
double springs(const double *x) {{
    double e = 0;
    for (int i = 0; i < {s}; i++) {{
        for (int j = 0; j + 1 < {s}; j++) {{
            double dx = x[2 * (i * {s} + j + 1)] - x[2 * (i * {s} + j)];
            double dy = x[2 * (i * {s} + j + 1) + 1] - x[2 * (i * {s} + j) + 1];
            double r = sqrt(dx * dx + dy * dy) - 1;
            e = e + r * r;
            dx = x[2 * ((j + 1) * {s} + i)] - x[2 * (j * {s} + i)];
            dy = x[2 * ((j + 1) * {s} + i) + 1] - x[2 * (j * {s} + i) + 1];
            r = sqrt(dx * dx + dy * dy) - 1;
            e = e + r * r;
        }}
    }}
    return 0;
}}
"""

# A triangle-area barrier (the -log(area) term of Smith & Schaefer,
# "Bijective parameterization with free boundaries", SIGGRAPH 2015): each
# cell of a G x G unit grid, G = s, is split into two counter-clockwise
# triangles, and node (i, j) sits at (j, i) displaced by x[2 (i G + j)],
# x[2 (i G + j) + 1].  Displacements under 0.2 keep every area positive.
_BARRIER_TEMPLATE = """\
double barrier(const double *x) {{
    double e = 0;
    for (int i = 0; i + 1 < {s}; i++) {{
        for (int j = 0; j + 1 < {s}; j++) {{
            double ax = j + x[2 * (i * {s} + j)];
            double ay = i + x[2 * (i * {s} + j) + 1];
            double bx = j + 1 + x[2 * (i * {s} + j + 1)];
            double by = i + x[2 * (i * {s} + j + 1) + 1];
            double cx = j + 1 + x[2 * ((i + 1) * {s} + j + 1)];
            double cy = i + 1 + x[2 * ((i + 1) * {s} + j + 1) + 1];
            double dx = j + x[2 * ((i + 1) * {s} + j)];
            double dy = i + 1 + x[2 * ((i + 1) * {s} + j) + 1];
            e = e - log(0.5 * ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)));
            e = e - log(0.5 * ((cx - ax) * (dy - ay) - (dx - ax) * (cy - ay)));
        }}
    }}
    return 0;
}}
"""

# A simulation rollout: 4 unit masses on a line, at 0, 1, 2, 3 and joined in
# a chain by unit-rest-length springs, start with the velocities x and are
# stepped s times by symplectic Euler with step 0.1; the energy is the
# squared distance of their final positions from the targets 0, 1.5, 3, 4.5.
_ROLLOUT_TEMPLATE = """\
double rollout(const double *x) {{
    double p[4];
    double v[4];
    for (int k = 0; k < 4; k++) {{
        p[k] = k;
        v[k] = x[k];
    }}
    for (int t = 0; t < {s}; t++) {{
        for (int k = 0; k < 3; k++) {{
            double f = p[k + 1] - p[k] - 1;
            v[k] = v[k] + 0.1 * f;
            v[k + 1] = v[k + 1] - 0.1 * f;
        }}
        for (int k = 0; k < 4; k++) {{
            p[k] = p[k] + 0.1 * v[k];
        }}
    }}
    double e = 0;
    for (int k = 0; k < 4; k++) {{
        e = e + (p[k] - 1.5 * k) * (p[k] - 1.5 * k);
    }}
    return 0;
}}
"""

# Every corpus entry.  The source of a sized one (its `s` set, to the
# default) is a template over `{s}`.
_ENTRIES = {fn.name: fn for fn in (
    CorpusFunction("eq1", _LONG_POLY_SRC, "long_poly", "e", ("x",), {"x": (0.15, 1.5)}),
    CorpusFunction("eq2", _TRIG_SRC, "trig", "e", ("x",), {"x": (-2.0, 2.0)}),
    CorpusFunction("eq3", _PROD_POLY_TEMPLATE, "prod_poly", "e", ("x",),
                   {"x": (0.05, 0.95)}, s=2),
    CorpusFunction("cross_entropy", CROSS_ENTROPY_SRC, "cross_entropy", "loss", ("a",),
                   {"a": (0.01, 1.0), "b": (0.05, 0.95)}),
    CorpusFunction("function_0", FUNCTION_0_SRC, "function_0", "energy", ("x",),
                   {"x": (0.5, 4.0)}),
    CorpusFunction("const_fn", _CONST_SRC, "const_fn", "e", ("x",), {"x": (-1.0, 1.0)}),
    CorpusFunction("springs", _SPRINGS_TEMPLATE, "springs", "e", ("x",), {"x": (0.0, 3.0)}, s=3),
    CorpusFunction("barrier", _BARRIER_TEMPLATE, "barrier", "e", ("x",), {"x": (-0.2, 0.2)}, s=3),
    CorpusFunction("rollout", _ROLLOUT_TEMPLATE, "rollout", "e", ("x",), {"x": (-1.0, 1.0)}, s=3),
)}

CORPUS = tuple(_ENTRIES)


def corpus_function(name: str, s: int | None = None) -> CorpusFunction:
    """Corpus entry `name`; a sized one at size `s`, or its default."""
    fn = _ENTRIES.get(name)
    if fn is None:
        raise AcornsError(f"unknown corpus function {name!r}")
    if fn.s is None:
        return fn
    s = fn.s if s is None else s
    return fn.replace(source=fn.source.format(s=s), s=s)


def corpus_program(fn: CorpusFunction):
    ir = parse_source(fn.source, fn.func_name, fn.energy_var)
    violations = validate_subset(ir)
    if violations:
        raise SubsetViolations(fn.name, violations)
    program = unroll(ir)
    vars_ = VarIndexMap.from_names(program, fn.var_names)
    return ir, program, vars_


def sample_points(fn: CorpusFunction, program: StraightLineProgram, count: int,
                  rng: np.random.Generator, int_params=frozenset()) -> np.ndarray:
    """Sample `count` full input-slot vectors inside the function's safe box.

    A slot of a parameter named in `int_params`, the `int` ones, takes an
    integer from `ceil(lo)` to `floor(hi)` (the floor of a uniform draw
    one wider), and a box that holds none raises AcornsError.  Every slot
    takes one draw of one `uniform` call, so the other slots' values do
    not depend on `int_params`."""
    import numpy as np

    lows, highs = [], []
    for slot in program.inputs:
        lo, hi = fn.boxes.get(slot.param, (0.01, 1.0))
        if slot.param in int_params:
            if math.ceil(lo) > math.floor(hi):
                raise AcornsError(f"int parameter {slot.param!r}: its box {lo:g} {hi:g} "
                                  "holds no integer")
            lo, hi = math.ceil(lo), math.floor(hi) + 1
        lows.append(lo)
        highs.append(hi)
    pts = rng.uniform(lows, highs, size=(count, len(program.inputs)))
    cols = [k for k, slot in enumerate(program.inputs) if slot.param in int_params]
    # a draw rounded up to its high end stays in the box
    pts[:, cols] = np.minimum(np.floor(pts[:, cols]), np.array(highs)[cols] - 1)
    return pts


# ---------------------------------------------------------------------------
# Direct interpretation of the looped IR (reference executor)


def run_ir(ir: FunctionIR, bindings: dict) -> float:
    """Execute a FunctionIR directly, loops and all; returns the energy value.

    Each right-hand side is folded as the unroller folds it
    (`flatten.fold`), its reads replaced by the values they read, and
    evaluated by `eval_expr`, so the result is bitwise identical to
    evaluating the unrolled program.
    """
    params = {p.name for p in ir.params}
    memory: dict[str, float] = {}
    arrays: dict[str, list] = {}  # local array -> extents

    def read(label: str) -> float:
        if label in memory:
            return memory[label]
        if label.split("[", 1)[0] in params:
            try:
                return bindings[label]
            except KeyError:
                raise UnboundSlot(label) from None
        raise UnboundSlot(label)

    def loaded(node: Expr, env: dict, indices) -> Constant:
        label = node.name if indices is None else \
            slot_label(node.base, eval_consts(indices, env))
        v = read(label)
        return Constant(repr(v), v)

    def ev(e: Expr, env: dict) -> float:
        return eval_expr(fold(e, env, loaded), {})

    def store(lvalue: Expr, value: float, env: dict):
        if isinstance(lvalue, Var):
            memory[lvalue.name] = value
        else:
            indices = tuple(eval_const(ix, env) for ix in lvalue.indices)
            memory[slot_label(lvalue.base, indices)] = value

    def run_block(stmts, env: dict):
        for s in stmts:
            if isinstance(s, Declaration):
                # the name starts unassigned, as in the unroller
                for label in [s.name, *element_labels(s.name, arrays.pop(s.name, ()))]:
                    memory.pop(label, None)
                if s.elem_type == "int":
                    env[s.name] = to_int(eval_const(s.init, env), s.init)
                elif s.extents:
                    arrays[s.name] = [eval_const(x, env) for x in s.extents]
                elif s.init is not None:
                    memory[s.name] = ev(s.init, env)
            elif isinstance(s, Assignment):
                store(s.lvalue, ev(s.rhs, env), env)
            elif isinstance(s, ForLoop):
                value = to_int(eval_const(s.init, env), s.init)
                while True:
                    inner = dict(env)
                    inner[s.counter] = value
                    if not eval_const(s.cond, inner):
                        break
                    run_block(s.body, inner)
                    value = to_int(eval_const(s.update, inner), s.update)
            elif isinstance(s, If):
                run_block(s.then_body if eval_const(s.cond, env) else s.else_body, dict(env))
            elif isinstance(s, Block):
                run_block(s.body, dict(env))
            elif isinstance(s, Return):
                pass

    run_block(ir.body, {})
    if ir.energy_var not in memory:
        raise UnboundSlot(ir.energy_var)
    return memory[ir.energy_var]


# ---------------------------------------------------------------------------
# The element path's gradient


def element_gradient(loops: ElementLoops, program: StraightLineProgram, pts: np.ndarray,
                     cap: int = DEFAULT_NODE_CAP) -> np.ndarray:
    """The gradient the element path's kernel computes at each row of `pts`,
    a point over the unrolled `program`'s input slots.

    Each point is laid out as the kernel's `vals` (`layout_slots`).  Each
    nest's body is derived as the command line derives it, its loops are
    run by `flatten.iterations`, and its gradient tape is evaluated per
    point and iteration over the values its slots take there: a read's is
    the value in `vals` at the position the kernel loads it from
    (`ElementNest.reads`), an integer slot's the value C computes.  Each
    entry that is not the constant +0 is added into a +0-filled gradient
    at its read's position, per point in iteration order, then read order:
    the sums the emitted chunk computes.  A position outside the gradient
    or outside `vals` raises AcornsError.  The rows are gathered
    `CHUNK_CELLS` cells at a time.
    """
    import numpy as np

    at = {s.label: k for k, s in enumerate(program.inputs)}
    vals = pts[:, [at[label] for label in layout_slots(loops, loops.vars_)]]
    count, n = pts.shape[0], loops.vars_.n
    grad = np.zeros((count, n))
    for nest in loops.nests:
        bundle = derive_bundle(nest.program, nest.vars_, cap=cap, want_hessian=False)
        lin = bundle.linearized("gradient")
        live = [k for k, e in enumerate(lin.roots) if not is_plus_zero(e)]
        if not live:
            continue
        labels = [s.label for s in nest.program.inputs[1:]]  # no entry reads E, the first
        tape = compile_exprs(lin.roots, labels, lin)
        # per iteration: each read's position in `vals`, each integer slot's value
        exprs = [*(position for _, position in nest.reads), *(e for _, e in nest.ints)]
        order = const_order(*exprs)
        heads = loop_heads(nest.loops)
        table = [eval_consts(order, env)
                 for env in iterations(heads, dict(nest.start), DEFAULT_ASSIGN_CAP)]
        table = np.array(table, dtype=np.intp).reshape(len(table), len(exprs))
        reads = table[:, :len(nest.reads)]
        read_of = {label: r for r, (label, _) in enumerate(nest.reads)}
        positions = reads[:, [read_of[nest.vars_.labels[k]] for k in live]]
        if positions.size and not 0 <= positions.min() <= positions.max() < n:
            raise AcornsError(f"element path: gradient position {positions.min()}.."
                              f"{positions.max()} outside 0..{n - 1}")
        if reads.size and not 0 <= reads.min() <= reads.max() < vals.shape[1]:
            raise AcornsError(f"element path: read position {reads.min()}..{reads.max()} "
                              f"outside 0..{vals.shape[1] - 1}")
        col = {label: k for k, label in enumerate(labels)}
        read_at = [col[label] for label, _ in nest.reads]
        int_at = [col[label] for label, _ in nest.ints]
        values = table[:, len(nest.reads):].astype(np.float64)
        rows = len(table) * count  # row r is iteration r // count at point r % count
        step = max(1, CHUNK_CELLS // len(labels))
        for lo in range(0, rows, step):
            it, p = np.divmod(np.arange(lo, min(rows, lo + step)), count)
            block = np.empty((len(it), len(labels)), order="F")
            block[:, read_at] = vals[p[:, None], reads[it]]
            block[:, int_at] = values[it]
            np.add.at(grad, (p[:, None], positions[it]), evaluate(tape, block)[:, live])
    return grad


# ---------------------------------------------------------------------------
# Finite differences


# most bytes of input rows the FD oracles build at once
FD_BLOCK_BYTES = 64 * 2**20


# the signs of the (i, j) steps in the rows pp, pm, mp, mm of an off-diagonal pair
_OFF_SIGNS = (1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0)


class _ProgramEvaluator:
    """Evaluates only the original program; the oracle's f(x).  It also
    holds the FD stencils over its variables, built on first use."""

    def __init__(self, program: StraightLineProgram, vars_: VarIndexMap):
        import numpy as np

        self.tape = compile_program(program)
        slot_pos = {label: i for i, label in enumerate(self.tape.slots)}
        self.var_pos = np.array([slot_pos[v] for v in vars_.labels], dtype=np.intp)

    def stepped(self, point: np.ndarray, count: int, rows: np.ndarray, cols: np.ndarray,
                steps: np.ndarray) -> np.ndarray:
        """f at `count` copies of `point`, copy rows[k] having steps[k] added
        to its slot cols[k] (`rows` ascending, each slot stepped at most once
        per copy).  Builds at most `FD_BLOCK_BYTES` of copies at a time, laid
        out slot by slot as `evaluate` reads them.

        Each block is one `evaluate` chunk whose first row is `point` itself,
        put before the block's copies when its first copy is stepped, so an
        intrinsic calls its scalar function there and at the copies that
        step one of its operands' variables, and nowhere else."""
        import numpy as np

        per_block = max(1, min(FD_BLOCK_BYTES // (8 * point.size),
                               CHUNK_CELLS // self.tape.peak) - 1)
        vals = np.empty(count)
        for lo in range(0, count, per_block):
            hi = min(count, lo + per_block)
            a, b = np.searchsorted(rows, (lo, hi))
            first = int(a < b and rows[a] == lo)  # the row of the block's first copy
            block = np.empty((first + hi - lo, point.size), order="F")
            block[:] = point
            block[rows[a:b] - lo + first, cols[a:b]] += steps[a:b]
            vals[lo:hi] = evaluate(self.tape, block)[first:, 0]
        return vals

    @functools.cached_property
    def gradient_stencil(self) -> tuple:
        """(rows, cols, var, signs) of the central-difference gradient: row
        rows[k] steps slot cols[k], of variable var[k], by signs[k] times
        that variable's step.  Rows 2v and 2v + 1 step variable v up and
        down."""
        import numpy as np

        n = len(self.var_pos)
        var = np.repeat(np.arange(n), 2)
        return np.arange(2 * n), self.var_pos[var], var, np.tile((1.0, -1.0), n)

    @functools.cached_property
    def hessian_stencil(self) -> tuple:
        """(rows, cols, var, signs, i, j) of the second differences, as in
        `gradient_stencil`, and the off-diagonal pairs (i, j), j < i.  Row 0
        is the point itself; rows 2v + 1 and 2v + 2 step variable v up and
        down; then 4 rows per pair step both i and j: 1 + 2n^2 rows in all."""
        import numpy as np

        n = len(self.var_pos)
        i, j = np.tril_indices(n, -1)
        off_rows = np.arange(2 * n + 1, 1 + 2 * n * n)
        rows = np.concatenate((np.arange(1, 2 * n + 1), np.repeat(off_rows, 2)))
        var = np.concatenate((np.repeat(np.arange(n), 2),
                              np.tile(np.stack((i, j), axis=1), 4).ravel()))
        signs = np.concatenate((np.tile((1.0, -1.0), n), np.tile(_OFF_SIGNS, len(i))))
        return rows, self.var_pos[var], var, signs, i, j


def _steps(f: _ProgramEvaluator, point: np.ndarray) -> np.ndarray:
    """Each variable's FD step: 1e-5, scaled up with its magnitude past 1."""
    import numpy as np

    return 1e-5 * np.maximum(1.0, np.abs(point[f.var_pos]))


def fd_gradient(program: StraightLineProgram, vars_: VarIndexMap,
                point: np.ndarray, *, oracle: _ProgramEvaluator | None = None) -> np.ndarray:
    """Central-difference gradient over the full input-slot vector `point`.

    `oracle` is the program's evaluator, built here when not given.
    """
    import numpy as np

    f = oracle if oracle is not None else _ProgramEvaluator(program, vars_)
    n, h = vars_.n, _steps(f, point)
    rows, cols, var, signs = f.gradient_stencil
    vals = f.stepped(point, 2 * n, rows, cols, h[var] * signs)
    with np.errstate(all="ignore"):
        return (vals[0::2] - vals[1::2]) / (2 * h)


def fd_hessian(program: StraightLineProgram, vars_: VarIndexMap,
               point: np.ndarray, *, oracle: _ProgramEvaluator | None = None) -> np.ndarray:
    """Central second differences; the i == j case uses the 3-point stencil.

    `oracle` is the program's evaluator, built here when not given.
    """
    import numpy as np

    f = oracle if oracle is not None else _ProgramEvaluator(program, vars_)
    n, h = vars_.n, _steps(f, point)
    rows, cols, var, signs, i, j = f.hessian_stencil
    vals = f.stepped(point, 1 + 2 * n * n, rows, cols, h[var] * signs)
    up, dn = vals[1:2 * n + 1:2], vals[2:2 * n + 2:2]
    pp, pm, mp, mm = vals[2 * n + 1:].reshape(-1, 4).T
    with np.errstate(all="ignore"):
        out = np.diag((up - 2 * vals[0] + dn) / (h * h))
        out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4 * h[i] * h[j])
    return out


# ---------------------------------------------------------------------------
# Reports


class FdEntry(Record):
    __slots__ = ("name", "analytic", "fd", "abs_err", "rel_err", "ok", "point")

    def __init__(self, name: str, analytic: float, fd: float, abs_err: float, rel_err: float,
                 ok: bool, point: int):
        # rel_err is |analytic - fd| / max(1, |analytic|), at the entry's
        # worst sample point, whose index is point
        super().__init__(name, analytic, fd, abs_err, rel_err, ok, point)


class FdReport(Record):
    __slots__ = ("function", "mode", "tolerance", "points", "seed", "slots", "samples", "entries")

    def __init__(self, function: str, mode: str, tolerance: float, points: int, seed: int,
                 slots: tuple, samples: list, entries: list | None = None):
        # slots holds the input-slot labels of the samples, samples each
        # sample point's slot values
        super().__init__(function, mode, tolerance, points, seed, slots, samples,
                         [] if entries is None else entries)

    @property
    def worst(self) -> FdEntry | None:
        """The first entry with the largest error; a NaN error ranks above
        every number."""
        return max(self.entries, key=lambda e: (math.isnan(e.rel_err), e.rel_err), default=None)

    @property
    def max_rel_err(self) -> float:
        worst = self.worst
        return 0.0 if worst is None else worst.rel_err

    @property
    def pass_count(self) -> int:
        return sum(e.ok for e in self.entries)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def record(self, name: str, analytic: np.ndarray, fd: np.ndarray):
        """Score entry `name` from its analytic and FD values at every sample
        point, and keep its worst point: the first NaN error, or else the
        first largest one."""
        import numpy as np

        with np.errstate(all="ignore"):
            abs_err = np.abs(analytic - fd)
            rel_err = abs_err / np.maximum(1.0, np.abs(analytic))
        p = int(np.argmax(rel_err))  # argmax picks the first NaN, if any
        self.entries.append(FdEntry(name, analytic[p], fd[p], abs_err[p], rel_err[p],
                                    rel_err[p] <= self.tolerance, p))

    def render(self) -> str:
        lines = [
            f"verify {self.function} mode={self.mode} points={self.points} "
            f"tol={self.tolerance:g} seed={self.seed}",
            f"{'entry':<14} {'analytic':>16} {'fd':>16} {'relerr':>10}  pass",
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:<14} {e.analytic:>16.8g} {e.fd:>16.8g} {e.rel_err:>10.2e}  {'ok' if e.ok else 'FAIL'}"
            )
        worst = self.worst
        if worst is not None:
            values = zip(self.slots, self.samples[worst.point])
            at = ", ".join(f"{label}={v!r}" for label, v in values)
            lines.append(f"worst {worst.name} at point {worst.point}: {at}")
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
           tolerance: float | None = None, cap: int = DEFAULT_NODE_CAP) -> FdReport:
    """Run the pipeline and compare analytic derivatives with FD oracles.

    The analytic derivatives are those the command line emits for `mode`
    (`elements.element_path`): on the element path, the gradient its loops
    sum (`element_gradient`), else the unrolled program's.  The FD oracle
    always evaluates the unrolled program.  `cap` bounds the derivative
    expressions' size, as in `derive_bundle`.
    """
    import numpy as np

    if mode not in ("gradient", "hessian"):
        raise AcornsError(f"verify mode must be gradient or hessian, not {mode!r}")
    if points < 1:  # each entry is scored at its worst point
        raise AcornsError(f"verify needs at least 1 point, not {points}")
    ir, program, vars_ = corpus_program(fn)
    loops = element_path(ir, fn.var_names, do_simplify, (mode,))
    n = vars_.n
    if mode == "gradient":
        names = [f"grad[{j}]" for j in range(n)]
        tol = GRAD_TOL if tolerance is None else tolerance
    else:
        names = [f"hess[{i},{j}]" for i in range(n) for j in range(i + 1)]
        tol = HESS_TOL if tolerance is None else tolerance

    labels = [s.label for s in program.inputs]
    rng = np.random.default_rng(seed)
    pts = sample_points(fn, program, points, rng,
                        {p.name for p in ir.params if p.elem_type == "int"})
    if loops is None:
        bundle = derive_bundle(program, vars_, do_simplify=do_simplify, cap=cap,
                               want_hessian=(mode == "hessian"))
        lin = bundle.linearized(mode)
        analytic = evaluate(compile_exprs(lin.roots, labels, lin), pts)
    else:
        analytic = element_gradient(loops, program, pts, cap)

    report = FdReport(fn.name, mode, tol, points, seed, tuple(labels), pts.tolist())
    oracle = _ProgramEvaluator(program, vars_)  # one program tape for every point
    fd = np.empty_like(analytic)  # (points, entries), as `analytic`
    lower = np.tril_indices(n)  # the Hessian entries, in the order of `names`
    for p, point in enumerate(pts):
        if mode == "gradient":
            fd[p] = fd_gradient(program, vars_, point, oracle=oracle)
        else:
            fd[p] = fd_hessian(program, vars_, point, oracle=oracle)[lower]
    for k, name in enumerate(names):
        report.record(name, analytic[:, k], fd[:, k])
    return report
