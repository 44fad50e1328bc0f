"""Emission of derivative bundles as dependency-free C99.

The generated artifact is one header plus N source files.  Statements are
packed greedily into files of roughly `split_target_bytes`; each run of
same-mode statements in a file becomes a chunk function evaluating one
point, and exported drivers (`compute`, `compute_grad`, `compute_hess`)
in part 0 loop over points calling the chunks in order.  A chunk function
loads from `vals` only the parameters its run of statements reads: each
node's parameters are one int mask, found by one pass over the arrays of
its mode's linearisation (`DerivativeBundle.linearized`), which also
gives `SharedText` its use counts.  Output text is fully deterministic
for a given bundle and config.

The Hessian chunks write only the lower entries `(i, j <= i)` that are not
the constant +0.  Per point, `compute_hess` zero-fills the n*n block when
some lower entry is +0, calls the chunks, then copies the lower triangle
up, so its output is still the full row-major matrix.  gcc pays for every
line, and most lines of a sparse Hessian would be zeros and copies: 2,280
of the 2,628 lower entries of the 72-variable springs G=6 energy are zero,
and gcc 12.2 -O2 took 7.2-8.7 s on its C with a line per entry against
0.7-0.8 s on these drivers (x86-64, one core).

A simplified bundle is emitted in bound (SSA) form: within one driver, a
subexpression that several entries or operands share is declared once as
a `const double tK` temporary, just before the statement that first reads
it, and a chunk that reads a temporary declared in an earlier file declares
it again.  A sum of more than `cast.ACCUMULATOR_TERMS` terms is a running
accumulator, `double tK = <first terms>;` then `tK = tK - <next terms>;`
lines, because gcc -O2 evaluates every term of one long expression before
its first addition: on a sum of 800 `log` terms it keeps all 800 results
live and spills them to a 7 KB stack frame, which makes most of its compile
time.  The lines add the terms in the same order, so the kernel's values
do not change.  An unsimplified bundle writes each entry as one expanded
expression.
"""

from __future__ import annotations

import itertools
import math
import re

from .cast import INTRINSICS, Expr, SharedText, is_const, to_source
from .derivatives import STAGES, DerivativeBundle, VarIndexMap
from .errors import AcornsError
from .flatten import StraightLineProgram
from .record import Record

MODE_ORDER = STAGES
DRIVER_NAME = {"function": "compute", "gradient": "compute_grad", "hessian": "compute_hess"}
DRIVER_OUT_ARG = {"function": "out", "gradient": "ders", "hessian": "hess"}

DEFAULT_SPLIT_TARGET = 16 * 2**20
MIN_SPLIT_TARGET = 2**16

RECOMMENDED_FLAGS = "-O3 -ffast-math -flto"

# names a parameter local cannot take: the chunk functions' arguments, the
# math functions an expression or its derivatives may call, the object-like
# macros of <math.h> (C99 7.12, and glibc's M_* constants, which it defines
# under the recommended flags), and `linux` and `unix`, which gcc predefines
# as 1 unless a strict -std=c99 is asked for
_C_NAMES = frozenset((
    "vals", "out", *INTRINSICS,
    "HUGE_VAL", "HUGE_VALF", "HUGE_VALL", "INFINITY", "NAN",
    "FP_INFINITE", "FP_NAN", "FP_NORMAL", "FP_SUBNORMAL", "FP_ZERO",
    "FP_FAST_FMA", "FP_FAST_FMAF", "FP_FAST_FMAL", "FP_ILOGB0", "FP_ILOGBNAN",
    "MATH_ERRNO", "MATH_ERREXCEPT", "math_errhandling",
    "M_E", "M_LOG2E", "M_LOG10E", "M_LN2", "M_LN10", "M_PI", "M_PI_2", "M_PI_4",
    "M_1_PI", "M_2_PI", "M_2_SQRTPI", "M_SQRT2", "M_SQRT1_2",
    "linux", "unix",
))


class EmitConfig(Record):
    __slots__ = ("mode", "split_target_bytes", "parallel", "basename", "simplified",
                 "source_name", "var_names")

    def __init__(self, mode: frozenset = frozenset(MODE_ORDER),
                 split_target_bytes: int = DEFAULT_SPLIT_TARGET, parallel: bool = False,
                 basename: str = "der", simplified: bool = True, source_name: str = "",
                 var_names: tuple = ()):
        bad = set(mode) - set(MODE_ORDER)
        if bad:
            raise AcornsError(f"unknown emit mode(s): {sorted(bad)}")
        if not mode:
            raise AcornsError("at least one emit mode is required")
        if split_target_bytes < MIN_SPLIT_TARGET:
            raise AcornsError(f"split target must be at least {MIN_SPLIT_TARGET} bytes")
        super().__init__(mode, split_target_bytes, parallel, basename, simplified,
                         source_name, var_names)


class GeneratedArtifact(Record):
    __slots__ = ("header", "sources", "n_statements")

    def __init__(self, header: str, sources: tuple, n_statements: int = 0):
        super().__init__(header, sources, n_statements)  # sources: ordered (filename, text) pairs


class Statement(Record):
    __slots__ = ("mode", "text", "params", "temps", "reads")

    def __init__(self, mode: str, text: str, params: int, temps: tuple = (),
                 reads: frozenset = frozenset()):
        # text is the `out[k] = ...;` line; params the parameters it reads, as
        # a mask of `_param_bits`; temps the (K, line) of each temporary's
        # lines it reads first; reads the temporaries of earlier statements
        # it reads
        super().__init__(mode, text, params, temps, reads)

    @property
    def size(self) -> int:
        """Bytes the statement takes in a chunk function, roughly."""
        return sum(len(decl) + 16 for _, decl in self.temps) + len(self.text) + 16


def layout_slots(program: StraightLineProgram, vars_: VarIndexMap) -> list:
    """Per-point slot order: independent vars first, then remaining inputs."""
    chosen = set(vars_.labels)
    rest = [s.label for s in program.inputs if s.label not in chosen]
    return list(vars_.labels) + rest


def _param_bits(program: StraightLineProgram) -> dict:
    """Each input slot's label -> the bit of its parameter, bit i for the
    program's i-th parameter in declaration order."""
    return {s.label: 1 << i
            for i, slots in enumerate(program.param_slots.values()) for s in slots}


def _temp_prefix(program: StraightLineProgram) -> str:
    """`t`, or `t_`, `t__`, ... when a parameter is named like a temporary."""
    prefix = "t"
    while any(re.fullmatch(re.escape(prefix) + r"\d+", p) for p in program.param_slots):
        prefix += "_"
    return prefix


def _zero(e: Expr) -> bool:
    """Whether `e` is the constant +0 (a -0 keeps its statement and sign)."""
    return is_const(e, 0) and math.copysign(1.0, e.value) > 0


def _statements(bundle: DerivativeBundle, cfg: EmitConfig, bits: dict,
                temp: str | None = None) -> tuple:
    """The statements in order, and the `SharedText` of each mode.

    Each mode's expressions are rendered over that mode's DAG, whose
    linearisation (`DerivativeBundle.linearized`) gives the use counts and
    each statement's parameter mask (`_param_bits`).  With `temp` they are
    in bound form, so a temporary serves one driver; without it every
    expression is one expanded `out[k] = ...;` line.  The Hessian has a
    statement per lower entry that is not +0: its driver zero-fills and
    mirrors the rest.  A +0 entry is rendered all the same, which spends
    its use and writes nothing else.
    """
    n = bundle.n
    out = {"function": (0,), "gradient": range(n),  # each mode's out indices, in order
           "hessian": (i * n + j for i in range(n) for j in range(i + 1))}
    stmts = []
    temps: dict = {}
    for mode in MODE_ORDER:
        if mode not in cfg.mode or not bundle.exprs(mode):
            continue
        lin = bundle.linearized(mode)
        shared = temps[mode] = SharedText(lin.roots, temp, lin)
        params = lin.masks(bits)
        for k, expr, at in zip(out[mode], lin.roots, lin.at):
            first = len(shared.decls)
            text = to_source(expr, shared)
            if mode == "hessian" and _zero(expr):
                continue
            stmts.append(Statement(mode, f"out[{k}] = {text};", params[at],
                                   tuple(enumerate(shared.decls[first:], first)),
                                   shared.reads))
    return stmts, temps


def split(statements: list, cfg: EmitConfig) -> list:
    """Greedy in-order packing of statements into per-file groups; no
    statements make one empty group, the file that holds the drivers."""
    reserve = min(16384, cfg.split_target_bytes // 4)  # headroom for boilerplate
    budget = cfg.split_target_bytes - reserve
    files: list[list] = []
    current: list = []
    size = 0
    for st in statements:
        nbytes = st.size
        if current and size + nbytes > budget:
            files.append(current)
            current = []
            size = 0
        current.append(st)
        size += nbytes
        if nbytes > budget:  # oversize statement occupies its own file
            files.append(current)
            current = []
            size = 0
    if current or not files:
        files.append(current)
    return files


def _missing(reads: frozenset, declared: set, deps: list) -> list:
    """The temporaries `reads` needs that `declared` lacks, with the ones
    their declarations need, in declaration order; adds them to `declared`."""
    need = set()
    stack = [k for k in reads if k not in declared]
    while stack:
        k = stack.pop()
        if k not in need:
            need.add(k)
            stack.extend(j for j in deps[k] if j not in declared)
    declared |= need
    return sorted(need)


def _param_decls(program: StraightLineProgram, layout: list, mask: int) -> list:
    """Declare C locals, loaded from vals, for each parameter whose bit
    (`_param_bits`) is set in `mask`."""
    slot_pos = {label: i for i, label in enumerate(layout)}
    lines = []
    for i, (name, slots) in enumerate(program.param_slots.items()):
        if not mask >> i & 1:
            continue
        if slots[0].indices == ():
            lines.append(f"    const double {name} = vals[{slot_pos[name]}];")
            continue
        rank = len(slots[0].indices)
        extents = [ix + 1 for ix in slots[-1].indices]  # the slots are row-major
        values = {s.indices: slot_pos[s.label] for s in slots}

        def braces(prefix: tuple) -> str:
            d = len(prefix)
            if d == rank:
                return f"vals[{values[prefix]}]"
            inner = ", ".join(braces(prefix + (i,)) for i in range(extents[d]))
            return "{" + inner + "}"

        dims = "".join(f"[{e}]" for e in extents)
        lines.append(f"    const double {name}{dims} = {braces(())};")
    return lines


def _header_stem(basename: str) -> str:
    return basename.replace("\\", "/").rsplit("/", 1)[-1]


def _guard_name(basename: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", _header_stem(basename)).upper() + "_H"


def emit(bundle: DerivativeBundle, vars_: VarIndexMap, cfg: EmitConfig,
         program: StraightLineProgram) -> GeneratedArtifact:
    """Generate the header and split source files for the selected modes."""
    from . import __version__

    clash = sorted(program.param_slots.keys() & _C_NAMES)
    if clash:
        raise AcornsError(f"parameter {clash[0]!r} is a name the generated C uses "
                          "(vals, out, a math function, a <math.h> macro or a "
                          "compiler-predefined macro); rename it")
    n = bundle.n
    layout = layout_slots(program, vars_)
    stride_in = len(layout)
    out_stride = {"function": 1, "gradient": n, "hessian": n * n}

    temp = _temp_prefix(program) if bundle.simplified else None
    statements, temps = _statements(bundle, cfg, _param_bits(program), temp)
    stem = _header_stem(cfg.basename)
    provenance = [
        f"/* generated by acorns-autodiff {__version__}",
        f" * source: {cfg.source_name}" if cfg.source_name else " * source: <in-memory>",
        f" * vars: {' '.join(cfg.var_names) or '-'} (n = {n})",
        f" * simplify: {'on' if cfg.simplified else 'off'}",
        f" * recommended compile flags: {RECOMMENDED_FLAGS}",
        " */",
    ]

    # one chunk function per mode per file, numbered in file order
    texts = []
    chunks: dict[str, list[int]] = {m: [] for m in MODE_ORDER}  # mode -> its chunks, in order
    n_chunks = 0
    for group in split(statements, cfg):
        lines = [*provenance, f'#include "{stem}.h"', "#include <math.h>", ""]
        for mode, run in itertools.groupby(group, key=lambda st: st.mode):
            run = list(run)
            chunks[mode].append(n_chunks)
            lines += [f"void {stem}_chunk_{n_chunks}(const double* vals, double* out)", "{"]
            n_chunks += 1
            mask = 0
            for st in run:
                mask |= st.params
            decls = _param_decls(program, layout, mask)
            lines += [*decls, ""] if decls else ["    (void) vals;"]
            declared: set = set()
            for st in run:
                if st.reads:  # re-declare what an earlier file declared
                    shared = temps[mode]
                    for k in _missing(st.reads, declared, shared.deps):
                        lines.append(f"    {shared.decls[k]}")
                for k, decl in st.temps:
                    declared.add(k)
                    lines.append(f"    {decl}")
                lines.append(f"    {st.text}")
            lines += ["}", ""]
        texts.append("\n".join(lines))

    modes = [m for m in MODE_ORDER if m in cfg.mode]
    signature = {m: f"void {DRIVER_NAME[m]}(const double* vals, int num_points, "
                    f"double* {DRIVER_OUT_ARG[m]})" for m in modes}
    drivers = []  # in part 0, after its chunks
    for mode in modes:
        drivers += [signature[mode], "{"]
        if not chunks[mode]:  # a Hessian of +0 entries only
            drivers.append("    (void) vals;")
        if cfg.parallel:
            drivers += ["#ifdef _OPENMP", "#pragma omp parallel for", "#endif"]
        drivers.append("    for (int p = 0; p < num_points; ++p) {")
        out = f"{DRIVER_OUT_ARG[mode]} + (long)p * {out_stride[mode]}"
        if mode == "hessian":
            drivers.append(f"        double* h = {out};")
            out = "h"
            if any(map(_zero, bundle.hess_lower)):
                drivers.append(f"        for (int k = 0; k < {n * n}; ++k) h[k] = 0;")
        for cid in chunks[mode]:
            drivers.append(f"        {stem}_chunk_{cid}(vals + (long)p * {stride_in}, {out});")
        if mode == "hessian" and n > 1:
            drivers += [f"        for (int i = 1; i < {n}; ++i)",
                        f"            for (int j = 0; j < i; ++j) h[j * {n} + i] = h[i * {n} + j];"]
        drivers += ["    }", "}", ""]
    texts[0] += "\n" + "\n".join(drivers)

    guard = _guard_name(cfg.basename)
    header = [*provenance, f"#ifndef {guard}", f"#define {guard}", ""]
    header += [f"{signature[m]};" for m in modes]
    header += ["", "/* per-point chunk functions, called in order by the drivers */"]
    header += [f"void {stem}_chunk_{cid}(const double* vals, double* out);"
               for cid in range(n_chunks)]
    header += ["", f"#endif /* {guard} */", ""]
    sources = tuple((f"{stem}_part{fi}.c", text) for fi, text in enumerate(texts))
    return GeneratedArtifact("\n".join(header), sources, len(statements))
