"""Emission of derivative bundles as dependency-free C99.

The generated artifact is one header plus N source files.  Statements are
packed greedily into files of roughly `split_target_bytes`; each run of
same-mode statements in a file becomes a chunk function evaluating one
point, and exported drivers (`compute`, `compute_grad`, `compute_hess`)
in part 0 loop over points calling the chunks in order.  A chunk function
loads from `vals` exactly the input slots its run of statements reads,
each into a `const double` local of its own: a scalar parameter keeps its
name and an array element is named like `x_3` or `a_1_0` (`_c_names`
gives the rule, which also names the temporaries).  Each node's input
slots are one int mask, found by one pass over the arrays of its mode's
linearisation (`DerivativeBundle.linearized`), which also gives
`SharedText` its use counts.  Output text is fully deterministic for a
given bundle and config.

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
it.  A chunk function in a later file than its driver's first renders its
statements again, over their own DAG: it declares the temporaries they
share, and reads none of another file's.  A sum of more than
`cast.ACCUMULATOR_TERMS` terms is a running accumulator, `double tK =
<first terms>;` then `tK = tK - <next terms>;` lines, because gcc -O2
evaluates every term of one long expression before its first addition: on
a sum of 800 `log` terms it keeps all 800 results live and spills them to a
7 KB stack frame, which makes most of its compile time.  The lines add
the terms in the same order, so the kernel's values do not change.  An
unsimplified bundle writes each entry as one expanded expression.

On the element path (`elements.element_path`: a simplified run without a
Hessian, of an energy summed over a perfect loop nest; the module says
which loops qualify and which fall back) there is one chunk per mode, in
one file.  Each runs every loop nest, with its headers printed from the
source, around one iteration's body in bound form.  `elements` describes
a nest over the source's names, and this module alone spells it in C
(`_nest_text`): the counters are `i0`, `i1`, ... by depth, `E`'s running
value is `e` and the body's inputs `v1`, `v2`, ..., each loaded from
`vals` at its read's position or computed from its integer expression,
with each `int` local printed as its value.  The function chunk
sets `double e = <initial value>;`, each iteration writes `e = <body>;`,
adding the terms in loop order as the unrolled kernel does, and the chunk
ends with `out[0] = e;`.  The gradient chunk zero-fills `out[0..n)` and
each iteration adds each read's local derivative into its element,
`out[<index>] += <entry>;`, so the gradient is summed element by element,
in loop order.  `GeneratedArtifact.n_statements` counts these body lines,
one per nest and one per read of a differentiated element, not one per
element.  These chunks qualify `vals` and `out` with `restrict` where they
are defined (the header's declarations are compatible): the gradient loop
reads `vals` after storing to `out`, and without the qualifier gcc -O2
neither vectorizes it nor keeps the loads ahead of the stores.  On the
grad_steps benchmark input the gradient took 947 ns a point without it and
477 ns with it, against 467 ns unrolled (x86-64, one pinned core, best of
30 calls over 2,000 points).
"""

from __future__ import annotations

import itertools
import re

from .cast import (INTRINSICS, Binary, Constant, Expr, SharedText, Var, const, is_plus_zero,
                   replace_vars, to_source)
from .derivatives import STAGES, DerivativeBundle, VarIndexMap, layout_slots
from .elements import ElementLoops, ElementNest
from .errors import AcornsError
from .flatten import StraightLineProgram
from .record import Record

MODE_ORDER = STAGES
DRIVER_NAME = {"function": "compute", "gradient": "compute_grad", "hessian": "compute_hess"}
DRIVER_OUT_ARG = {"function": "out", "gradient": "ders", "hessian": "hess"}

DEFAULT_SPLIT_TARGET = 16 * 2**20
MIN_SPLIT_TARGET = 2**16

RECOMMENDED_FLAGS = "-O3 -ffast-math -flto"

# the C name of the energy's running value in an element chunk
ENERGY_NAME = "e"

# names a local of a chunk function cannot take: its arguments, the
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
    __slots__ = ("mode", "text", "params", "temps", "target", "expr")

    def __init__(self, mode: str, text: str, params: int, temps: tuple = (),
                 target: str = "", expr: Expr | None = None):
        # text is the `<target> ...;` line; params the input slots it reads,
        # as a mask of `_param_bits`; temps the lines of the temporaries it
        # reads first; target its `out[k] =` and expr its root, from which a
        # later file renders it again
        super().__init__(mode, text, params, temps, target, expr)

    @property
    def size(self) -> int:
        """Bytes the statement takes in a chunk function, roughly."""
        return sum(len(decl) + 16 for decl in self.temps) + len(self.text) + 16


def _param_bits(layout: list) -> dict:
    """Each input slot's label -> its bit, bit i for the slot at `vals[i]`
    in the per-point `layout`."""
    return {label: 1 << i for i, label in enumerate(layout)}


def _c_names(program: StraightLineProgram) -> tuple:
    """The temporaries' prefix, and each input slot's label -> the name of
    its local in a chunk function.

    A scalar parameter keeps its name.  An array element joins its array's
    name and indices with a run of underscores, `x_3` or `a_1_0`, and the
    temporaries are `t0`, `t1`, ....  When an element's name would be
    another element's, a parameter's or one of `_C_NAMES`, or a parameter
    is named like a temporary, both take one underscore more (`x__3`,
    `t_0`) until none is.  A temporary's run of underscores is shorter
    than an element's, so the two never meet.
    """
    params = program.param_slots
    for m in itertools.count():
        prefix, sep = "t" + "_" * m, "_" * (m + 1)
        names = {s.label: s.param + "".join(f"{sep}{i}" for i in s.indices)
                 for s in program.inputs}
        elements = [names[s.label] for s in program.inputs if s.indices]
        temp = re.compile(re.escape(prefix) + r"\d+").fullmatch
        if (len(set(elements)) == len(elements)
                and not (params.keys() | _C_NAMES).intersection(elements)
                and not any(map(temp, params))):
            return prefix, names


def _statements(bundle: DerivativeBundle, cfg: EmitConfig, bits: dict, names: dict,
                temp: str | None = None) -> list:
    """The statements in order.

    Each mode's expressions are rendered over that mode's DAG, whose
    linearisation (`DerivativeBundle.linearized`) gives the use counts and
    each statement's mask of input slots (`_param_bits`); an input slot
    prints as its local's name in `names`.  With `temp` they are
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
    for mode in MODE_ORDER:
        if mode not in cfg.mode or not bundle.exprs(mode):
            continue
        lin = bundle.linearized(mode)
        shared = SharedText(lin.roots, temp, lin, names)
        params = lin.masks(bits)
        for k, expr, at in zip(out[mode], lin.roots, lin.at):
            first = len(shared.decls)
            text = to_source(expr, shared)
            if mode == "hessian" and is_plus_zero(expr):
                continue
            stmts.append(Statement(mode, f"out[{k}] = {text};", params[at],
                                   tuple(shared.decls[first:]), f"out[{k}] =", expr))
    return stmts


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


def _param_decls(layout: list, names: dict, mask: int) -> list:
    """Declare a `const double` local, loaded from vals, for each input
    slot whose bit (`_param_bits`) is set in `mask`, in `vals` order.

    An array element is a scalar local of its own, not an element of a
    local array: gcc turns each read of `x[3]` from `const double x[12] =
    {vals[0], ...};` into a load from the stack that its later passes must
    prove redundant.  Over the parts of the tree-layout eq3 s=12 Hessian
    (2.1 MB of C), gcc 12.2 -O2 took 4.5-5.3 s of CPU with the arrays and
    3.3-3.8 s with these locals (x86-64, one pinned core, seven alternated
    runs).  Reading `vals[k]` directly instead took it 7.9 s: a store
    through `out` may alias `vals`, so every read is a load again.
    """
    loads = [f"{names[layout[i]]} = vals[{i}]"
             for i, bit in enumerate(reversed(f"{mask:b}")) if bit == "1"]
    return [f"    const double {', '.join(loads)};"] if loads else []


def _header_stem(basename: str) -> str:
    return basename.replace("\\", "/").rsplit("/", 1)[-1]


def _guard_name(basename: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", _header_stem(basename)).upper() + "_H"


def emit(bundle, vars_: VarIndexMap, cfg: EmitConfig,
         program: StraightLineProgram | ElementLoops) -> GeneratedArtifact:
    """Generate the header and split source files for the selected modes.

    `bundle` is the `DerivativeBundle` of the unrolled `program`, or, on
    the element path (`program` an `ElementLoops`, see the module
    docstring), the tuple of one bundle per loop nest, derived from its
    body's program.
    """
    from . import __version__

    clash = sorted(program.param_slots.keys() & _C_NAMES)
    if clash:
        raise AcornsError(f"parameter {clash[0]!r} is a name the generated C uses "
                          "(vals, out, a math function, a <math.h> macro or a "
                          "compiler-predefined macro); rename it")
    layout = layout_slots(program, vars_)
    stride_in = len(layout)
    stem = _header_stem(cfg.basename)
    loops = program if isinstance(program, ElementLoops) else None
    if loops is None:
        n = bundle.n
    else:
        n = vars_.n if "gradient" in cfg.mode else 0
    provenance = [
        f"/* generated by acorns-autodiff {__version__}",
        f" * source: {cfg.source_name}" if cfg.source_name else " * source: <in-memory>",
        f" * vars: {' '.join(cfg.var_names) or '-'} (n = {n})",
        f" * simplify: {'on' if cfg.simplified else 'off'}",
        f" * recommended compile flags: {RECOMMENDED_FLAGS}",
        " */",
    ]
    head = [*provenance, f'#include "{stem}.h"', "#include <math.h>", ""]
    if loops is None:
        texts, chunks, n_statements = _unrolled_parts(bundle, cfg, program, layout, stem, head)
    else:
        texts, chunks, n_statements = _element_part(bundle, cfg, loops, n, stem, head)
    n_chunks = sum(map(len, chunks.values()))
    out_stride = {"function": 1, "gradient": n, "hessian": n * n}

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
            if any(map(is_plus_zero, bundle.hess_lower)):
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
    return GeneratedArtifact("\n".join(header), sources, n_statements)


def _unrolled_parts(bundle: DerivativeBundle, cfg: EmitConfig, program: StraightLineProgram,
                    layout: list, stem: str, head: list) -> tuple:
    """The parts' texts, each mode's chunks in order, and the statement
    count, of a bundle of the unrolled program: one chunk function per mode
    per file, numbered in file order.  A mode's first run is written as
    `_statements` rendered it; a later run in bound form is rendered again
    over its own roots, so its temporaries are its own."""
    prefix, names = _c_names(program)
    temp = prefix if bundle.simplified else None
    statements = _statements(bundle, cfg, _param_bits(layout), names, temp)
    written = set()  # the modes whose first run is written
    texts = []
    chunks: dict[str, list[int]] = {m: [] for m in MODE_ORDER}
    n_chunks = 0
    for group in split(statements, cfg):
        lines = list(head)
        for mode, run in itertools.groupby(group, key=lambda st: st.mode):
            run = list(run)
            chunks[mode].append(n_chunks)
            lines += [f"void {stem}_chunk_{n_chunks}(const double* vals, double* out)", "{"]
            n_chunks += 1
            mask = 0
            for st in run:
                mask |= st.params
            decls = _param_decls(layout, names, mask)
            lines += [*decls, ""] if decls else ["    (void) vals;"]
            shared = None
            if mode in written and temp is not None:
                shared = SharedText([st.expr for st in run], temp, names=names)
            written.add(mode)
            for st in run:
                temps, text = st.temps, st.text
                if shared is not None:
                    first = len(shared.decls)
                    text = f"{st.target} {to_source(st.expr, shared)};"
                    temps = shared.decls[first:]
                lines += [f"    {line}" for line in (*temps, text)]
            lines += ["}", ""]
        texts.append("\n".join(lines))
    return texts, chunks, len(statements)


def _element_part(bundles: tuple, cfg: EmitConfig, loops: ElementLoops, n: int, stem: str,
                  head: list) -> tuple:
    """The one part's text, each mode's chunk, and the statement count, of
    the element path: each chunk runs every loop nest around its body."""
    lines = list(head)
    chunks: dict[str, list[int]] = {m: [] for m in MODE_ORDER}
    n_statements = 0
    texts = [_nest_text(nest) for nest in loops.nests]
    for cid, mode in enumerate(m for m in ("function", "gradient") if m in cfg.mode):
        chunks[mode].append(cid)
        bodies = [_element_body(nest, text, bundle, mode)
                  for nest, text, bundle in zip(loops.nests, texts, bundles)]
        lines += [f"void {stem}_chunk_{cid}(const double* restrict vals, double* restrict out)",
                  "{"]
        if not any(label in positions
                   for (_, _, positions, _), (read, _, _) in zip(texts, bodies) for label in read):
            lines.append("    (void) vals;")
        if mode == "function":
            lines.append(f"    double {ENERGY_NAME} = {to_source(loops.init)};")
        else:
            lines.append(f"    for (int k = 0; k < {n}; ++k) out[k] = 0;")
        for (headers, names, positions, ints), (read, body, count) in zip(texts, bodies):
            if not count:  # a nest that reads no differentiation variable
                continue
            n_statements += count
            loads = [f"{names[label]} = " + (f"vals[{positions[label]}]"
                                             if label in positions else ints[label])
                     for label in read]
            if loads:
                body = [f"const double {', '.join(loads)};", *body]
            depth = len(headers)
            lines += [f"{'    ' * d}{header} {{" for d, header in enumerate(headers, 1)]
            lines += ["    " * (depth + 1) + line for line in body]
            lines += [f"{'    ' * d}}}" for d in range(depth, 0, -1)]
        if mode == "function":
            lines.append(f"    out[0] = {ENERGY_NAME};")
        lines += ["}", ""]
    return ["\n".join(lines)], chunks, n_statements


def _nest_text(nest: ElementNest) -> tuple:
    """A nest's C: its loops' headers, outermost first, each input slot's
    local name, and the C text of each read's position in `vals` and of
    each integer slot.

    The counters are named `i0`, `i1`, ... by depth, `E`'s slot
    `ENERGY_NAME` and the others `v1`, `v2`, ... in slot order.  An `int`
    local prints as its value, and a header's update `i = i + 1` as `++i`.
    """
    counters = {lp.counter: f"i{depth}" for depth, lp in enumerate(nest.loops)}

    def local(v: Var) -> Expr:
        value = nest.start.get(v.name)
        return v if value is None else const(value, str(value))

    def c_int(e: Expr) -> str:
        root = replace_vars(e, local)
        return to_source(root, SharedText((root,), names=counters))

    headers = []
    for lp in nest.loops:
        c, update = counters[lp.counter], lp.update
        if (isinstance(update, Binary) and update.op == "+" and isinstance(update.lhs, Var)
                and update.lhs.name == lp.counter
                and isinstance(update.rhs, Constant) and update.rhs.text == "1"):
            step = f"++{c}"
        else:
            step = f"{c} = {c_int(update)}"
        headers.append(f"for (int {c} = {c_int(lp.init)}; {c_int(lp.cond)}; {step})")
    names = {s.label: f"v{k}" for k, s in enumerate(nest.program.inputs)}
    names[nest.program.inputs[0].label] = ENERGY_NAME
    positions = {label: c_int(position) for label, position in nest.reads}
    ints = {label: c_int(e) for label, e in nest.ints}
    return headers, names, positions, ints


def _element_body(nest: ElementNest, text: tuple, bundle: DerivativeBundle, mode: str) -> tuple:
    """The input slots a nest's body reads for `mode`, in slot order, the
    body's lines and its statements' count: `e = <f>;`, or
    `out[k] += <entry>;` per gradient entry that is not +0, each after the
    temporaries it reads first.  `text` is the nest's `_nest_text`."""
    _, names, positions, _ = text
    lin = bundle.linearized(mode)
    shared = SharedText(lin.roots, "t", lin, names)
    bits = {s.label: 1 << i for i, s in enumerate(nest.program.inputs[1:])}
    masks = lin.masks(bits)
    if mode == "function":
        targets = [f"{ENERGY_NAME} ="]
    else:
        targets = [f"out[{positions[label]}] +=" for label in nest.vars_.labels]
    body = []
    mask = count = 0
    for target, expr, at in zip(targets, lin.roots, lin.at):
        first = len(shared.decls)
        text = to_source(expr, shared)
        if mode == "gradient" and is_plus_zero(expr):
            continue
        mask |= masks[at]
        body += [*shared.decls[first:], f"{target} {text};"]
        count += 1
    return [label for label, bit in bits.items() if bit & mask], body, count
