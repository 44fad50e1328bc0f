"""Emission of derivative bundles as dependency-free C99.

The generated artifact is one header plus N source files.  Statements are
packed greedily into files of roughly `split_target_bytes`; each run of
same-mode statements in a file becomes a chunk function evaluating one
point (in bound form, several: see below), and exported drivers
(`compute`, `compute_grad`, `compute_hess`) in part 0 loop over points
calling the chunks in order.  A chunk function loads from `vals` exactly
the input slots its statements read, each into a `const double` local of
its own: a scalar parameter keeps its name and an array element is named
like `x_3` or `a_1_0` (`_c_names` gives the rule, which also names the
temporaries).  Output text is fully deterministic for a given bundle and
config.

Both paths render their statements through one generator, `_rendered`,
over a mode's linearisation, whose `masks` give each statement its input
slots and its call bit.  A part includes `<math.h>` only when a statement
in it, `E`'s initial value included, has the call bit; gcc pays for the
include even in a part that calls nothing.  In bound form a part may
include it for a call that a temporary of an earlier function computes.

`emit` assembles one part at a time: it renders the statements that fill
a part, joins the part's text, and keeps only that text before it renders
the next.  Bound form renders all its statements first, since a
temporary's workspace slot depends on the line that reads it last.

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
it.  A sum of more than `cast.ACCUMULATOR_TERMS` terms is a running
accumulator, `double tK = <first terms>;` then `tK = tK - <next terms>;`
lines, because gcc -O2 evaluates every term of one long expression before
its first addition: on a sum of 800 `log` terms it keeps all 800 results
live and spills them to a 7 KB stack frame, which makes most of its
compile time.  The lines add the terms in the same order, so the kernel's
values do not change.  An unsimplified bundle writes each entry as one
expanded expression.

In bound form a run of statements in a file is also cut into chunk
functions of at most `CHUNK_TARGET_BYTES`, in `Statement.size` units, as
`split` cuts files (an oversize statement is a function of its own):
gcc -O2 time grows faster than linearly with the size of one function.
A temporary whose lines all sit in one function stays its `const double`
local.  Any other, one that a later function or file reads, is kept in a
slot of its driver's per-point workspace, `double w[K];` declared inside
the point loop (so under `--parallel` each iteration has its own; `w`
takes an underscore more while it is the name of an input's local): its
declaration is the store `w[j] = ...;`, an accumulator's later lines
`w[j] = w[j] - ...;`, and every reader reads `w[j]`.  So no file computes
again what an earlier one computed.  A slot is free again after the line
that reads it last, and K is the largest number of slots live at one
line.  Only a chunk function that reads or writes a slot takes `double*
w`, so output whose runs each fit under the bound is as it was without
the workspace.  The bound comes from a sweep of 16, 24, 32 and 48 KiB
over the gcc 12.2 -O2 times of eq3 s=20 and s=50, barrier G=6 and springs
G=6, all modes in one file (x86-64, one pinned core, best of 3 per round,
two sweeps of two and three rounds): 32 KiB had the lowest sum of each
input's best time in both, about 0.63 of one function per driver, with 16
and 24 KiB within 3% of it; 48 KiB does not cut eq3 s=20's 41 KiB
Hessian.  32 KiB also writes the fewest bytes of the three, and keeps
springs, which compiles almost linearly in one function, near that time.

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

import heapq
import itertools
import re

from .cast import (INTRINSICS, Binary, Constant, Expr, Linearized, SharedText, Var, const,
                   is_plus_zero, linearize, replace_vars, temp_pattern, to_source)
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

# the size (`Statement.size`) past which a chunk function in bound form is
# closed within its file; see the module docstring
CHUNK_TARGET_BYTES = 32 * 2**10

_WORD = re.compile(r"[A-Za-z_]\w*").findall
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch

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
        stem = _header_stem(basename)  # it names the C functions and the header guard
        if not _IDENTIFIER(stem):
            raise AcornsError(f"output file name {stem!r} is not a C identifier "
                              "([A-Za-z_][A-Za-z0-9_]*)")
        super().__init__(mode, split_target_bytes, parallel, basename, simplified,
                         source_name, var_names)


class GeneratedArtifact(Record):
    __slots__ = ("header", "sources", "n_statements")

    def __init__(self, header: str, sources: tuple, n_statements: int = 0):
        super().__init__(header, sources, n_statements)  # sources: ordered (filename, text) pairs


class Statement(Record):
    __slots__ = ("mode", "text", "params", "temps", "calls")

    def __init__(self, mode: str, text: str, params: int, temps: tuple = (), calls: bool = False):
        # text is the `<target> <expression>;` line; params the input slots
        # it reads, as a mask of `_param_bits`; temps the lines of the
        # temporaries it reads first; calls whether its expression's DAG
        # holds a `Call`
        super().__init__(mode, text, params, temps, calls)

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
        temp = temp_pattern(prefix).fullmatch
        if (len(set(elements)) == len(elements)
                and not (params.keys() | _C_NAMES).intersection(elements)
                and not any(map(temp, params))):
            return prefix, names


def _statements(bundle: DerivativeBundle, cfg: EmitConfig, bits: dict, names: dict,
                temp: str | None = None):
    """The statements in order, rendered one at a time as they are asked
    for: each mode's `out[k] = ...;` lines (`_rendered`).  With `temp` they
    are in bound form, so a temporary serves one driver; without it every
    expression is one expanded line.  The Hessian has a statement per lower
    entry that is not +0: its driver zero-fills and mirrors the rest.
    """
    n = bundle.n
    out = {"function": (0,), "gradient": range(n),  # each mode's out indices, in order
           "hessian": (i * n + j for i in range(n) for j in range(i + 1))}
    for mode in MODE_ORDER:
        if mode in cfg.mode and bundle.exprs(mode):
            yield from _rendered(mode, bundle.linearized(mode), (f"out[{k}] =" for k in out[mode]),
                                 mode == "hessian", temp, names, bits)


def _rendered(mode: str, lin: Linearized, targets, skip_zero: bool, temp: str | None,
              names: dict | None, bits: dict):
    """A `Statement` per root of `lin`, `<target> <text>;` with its target
    from `targets`, rendered in order over one `SharedText`.

    An input slot prints as its local's name in `names`, and `lin.masks`
    gives each statement's mask of input slots (`bits`) and whether it
    calls a function.  With `skip_zero` a +0 root yields nothing; it is
    rendered all the same, which spends its uses.
    """
    shared = SharedText(lin.roots, temp, lin, names)
    call = 1 << len(bits)  # the mask bit of a `Call`, past every input slot's
    masks = lin.masks(bits, call)
    for target, expr, at in zip(targets, lin.roots, lin.at):
        first = len(shared.decls)
        text = to_source(expr, shared)
        if skip_zero and is_plus_zero(expr):
            continue
        mask = masks[at]
        yield Statement(mode, f"{target} {text};", mask & ~call,
                        tuple(shared.decls[first:]), mask & call != 0)


def split(statements, cfg: EmitConfig):
    """Greedy in-order packing of statements into per-file groups, each
    yielded once it is full; no statements make one empty group, the file
    that holds the drivers."""
    reserve = min(16384, cfg.split_target_bytes // 4)  # headroom for boilerplate
    return _pack(statements, cfg.split_target_bytes - reserve)


def _pack(statements, budget: int):
    """Greedy in-order packing of statements into groups whose sizes
    (`Statement.size`) sum to at most `budget`, each yielded once it is
    full; an oversize statement is a group of its own, and no statements
    make one empty group."""
    current: list = []
    size = 0
    empty = True
    for st in statements:
        empty = False
        nbytes = st.size
        if current and size + nbytes > budget:
            yield current
            current = []
            size = 0
        current.append(st)
        size += nbytes
        if nbytes > budget:
            yield current
            current = []
            size = 0
    if current or empty:
        yield current


def _param_decl(layout: list, names: dict, mask: int) -> str:
    """The line that declares a `const double` local, loaded from vals, for
    each input slot whose bit (`_param_bits`) is set in `mask`, in `vals`
    order; "" when no bit is.

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
    return f"    const double {', '.join(loads)};" if loads else ""


def _header_stem(basename: str) -> str:
    return basename.replace("\\", "/").rsplit("/", 1)[-1]


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

    def head(calls: bool) -> list:
        """The lines a part starts with; `calls` when its code calls a math function."""
        return [*provenance, f'#include "{stem}.h"', *(["#include <math.h>"] if calls else []), ""]

    if loops is None:
        texts, chunks, workspaces, n_statements = _unrolled_parts(bundle, cfg, program, layout,
                                                                  stem, head)
    else:
        texts, chunks, n_statements = _element_part(bundle, cfg, loops, n, stem, head)
        workspaces = {}
    takes = dict(itertools.chain.from_iterable(chunks.values()))  # chunk -> its workspace or ""
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
        if mode in workspaces:
            drivers.append(f"        double {workspaces[mode]};")
        out = f"{DRIVER_OUT_ARG[mode]} + (long)p * {out_stride[mode]}"
        if mode == "hessian":
            drivers.append(f"        double* h = {out};")
            out = "h"
            if any(map(is_plus_zero, bundle.hess_lower)):
                drivers.append(f"        for (int k = 0; k < {n * n}; ++k) h[k] = 0;")
        for cid, ws in chunks[mode]:
            args = f"vals + (long)p * {stride_in}, {out}" + (f", {ws}" if ws else "")
            drivers.append(f"        {stem}_chunk_{cid}({args});")
        if mode == "hessian" and n > 1:
            drivers += [f"        for (int i = 1; i < {n}; ++i)",
                        f"            for (int j = 0; j < i; ++j) h[j * {n} + i] = h[i * {n} + j];"]
        drivers += ["    }", "}", ""]
    texts[0] += "\n" + "\n".join(drivers)

    guard = stem.upper() + "_H"
    header = [*provenance, f"#ifndef {guard}", f"#define {guard}", ""]
    header += [f"{signature[m]};" for m in modes]
    header += ["", "/* per-point chunk functions, called in order by the drivers */"]
    if any(takes.values()):
        header.append("/* a third argument is the driver's per-point workspace */")
    header += [f"void {stem}_chunk_{cid}({_chunk_params(takes[cid])});"
               for cid in range(len(takes))]
    header += ["", f"#endif /* {guard} */", ""]
    sources = tuple((f"{stem}_part{fi}.c", text) for fi, text in enumerate(texts))
    return GeneratedArtifact("\n".join(header), sources, n_statements)


def _unrolled_parts(bundle: DerivativeBundle, cfg: EmitConfig, program: StraightLineProgram,
                    layout: list, stem: str, head) -> tuple:
    """The parts' texts, each mode's chunks in call order, the workspace
    `w[K]` of each mode that has one, and the statement count, of a bundle
    of the unrolled program.  A chunk is `(its number, the workspace name
    it takes or "")`; chunks are numbered in file order.  Each file holds
    one chunk function per run of a mode's statements; in bound form a run
    is cut into chunk functions of at most `CHUNK_TARGET_BYTES` each
    (`_pack`), and the temporaries that cross functions go through the
    workspace (`_workspace`).  `head(calls)` gives a part's first lines.

    A part is assembled from the statements that fill it, and only its
    text is kept before the next part is rendered.  In bound form every
    statement is rendered first, because a temporary's slot in the
    workspace depends on the line that reads it last; the tree layout has
    no temporaries, so its statements are rendered part by part."""
    prefix, names = _c_names(program)
    temp = prefix if bundle.simplified else None
    bits = _param_bits(layout)
    # each file's chunk functions, as (mode, statements), in call order
    files = ([(mode, piece) for mode, run in itertools.groupby(group, key=lambda st: st.mode)
              # tree runs stay whole: cut, hess_expand's parts took gcc -O2 5.5-6.4 s, not 3.4-3.8
              for piece in (_pack(run, CHUNK_TARGET_BYTES) if temp else [list(run)])]
             for group in split(_statements(bundle, cfg, bits, names, temp), cfg))
    bodies: dict[int, tuple] = {}  # bound form: chunk number -> (its lines, its workspace or "")
    workspaces = {}
    if temp:
        files = list(files)
        pieces = [piece for file in files for piece in file]  # in chunk number order
        ws = _workspace_name(names)
        for mode in MODE_ORDER:
            own = [cid for cid, piece in enumerate(pieces) if piece[0] == mode]
            lines, takes, size = _workspace([pieces[cid][1] for cid in own], temp, ws)
            bodies.update(zip(own, zip(lines, takes)))
            if size:
                workspaces[mode] = f"{ws}[{size}]"
    local_bits = {names[label]: bit for label, bit in bits.items()}
    chunks: dict[str, list] = {m: [] for m in MODE_ORDER}
    numbers = itertools.count()
    n_statements = 0

    def part_text(file: list) -> str:
        """A file's text; its statements go when it returns."""
        nonlocal n_statements
        # the text in pieces, each line followed by its newline
        out = [f"{line}\n" for line in head(any(st.calls for _, piece in file for st in piece))]
        for mode, piece in file:
            cid = next(numbers)
            n_statements += len(piece)
            body, takes = bodies.pop(cid) if temp else (_lines(piece), "")
            chunks[mode].append((cid, takes))
            out.append(f"void {stem}_chunk_{cid}({_chunk_params(takes)})\n{{\n")
            mask = 0
            if takes:  # a root's slots that it reads through the workspace are not read here
                for word in set(_WORD(" ".join(body))):
                    mask |= local_bits.get(word, 0)
            else:
                for st in piece:
                    mask |= st.params
            decl = _param_decl(layout, names, mask)
            out.append(f"{decl}\n\n" if decl else "    (void) vals;\n")
            for line in body:
                out += ("    ", line, "\n")
            out.append("}\n\n")
        out[-1] = out[-1][:-1]  # the text ends with its last line's newline
        return "".join(out)

    # `map` keeps no file once its text is made, so the next one renders without it
    texts = list(map(part_text, files))
    return texts, chunks, workspaces, n_statements


def _lines(piece: list) -> list:
    """The lines of a chunk function's statements, each after the
    temporaries it reads first."""
    return [line for st in piece for line in (*st.temps, st.text)]


def _chunk_params(ws: str) -> str:
    """A chunk function's parameters; `ws` names the workspace it takes, if any."""
    return "const double* vals, double* out" + (f", double* {ws}" if ws else "")


def _workspace_name(names: dict) -> str:
    """`w`, with as many underscores added as make it no input slot's local."""
    taken = set(names.values())
    return next(ws for ws in ("w" + "_" * m for m in itertools.count()) if ws not in taken)


def _workspace(pieces: list, temp: str, ws: str) -> tuple:
    """The lines of each of one mode's chunk functions, given their
    statements in call order, the workspace each takes (`ws` or ""), and
    the workspace's size K.

    A temporary that occurs in one function only stays its local.  Any
    other is kept in a slot `ws[j]` of the driver's per-point `double
    ws[K]`: each of its lines, in every function, spells it `ws[j]`, and
    its declaration is a plain store.  A slot is free again after the line
    that reads it last, and goes to the next such temporary first written
    on a later line, lowest slot first; so K is the largest number of them
    live at one line."""
    lines = [_lines(piece) for piece in pieces]
    plain = lines, [""] * len(lines), 0
    if len(pieces) < 2:
        return plain
    # each line cut at its temporaries: text, number, text, number, ..., text
    cut = temp_pattern(temp).split
    cuts = [[cut(line) for line in body] for body in lines]
    home: dict[str, int] = {}  # a temporary's number -> the function it first occurs in
    first: dict[str, int] = {}  # ... -> the line it first occurs on, counted over the mode
    last: dict[str, int] = {}  # ... -> the line it last occurs on
    crossing = set()
    occurs = [set() for _ in lines]  # the temporaries each function reads or writes
    at = 0
    for f, body in enumerate(cuts):
        for parts in body:
            for k in parts[1::2]:
                occurs[f].add(k)
                if k not in home:
                    home[k], first[k] = f, at
                elif home[k] != f:
                    crossing.add(k)
                last[k] = at
            at += 1
    if not crossing:
        return plain
    slot: dict[str, str] = {}  # a crossing temporary's number -> its spelling `ws[j]`
    free: list[int] = []  # slots free again, a heap
    busy: list[tuple] = []  # (last line, slot) of each slot taken, a heap
    for k in sorted(crossing, key=first.get):
        while busy and busy[0][0] < first[k]:
            heapq.heappush(free, heapq.heappop(busy)[1])
        j = heapq.heappop(free) if free else len(busy)  # no slot free: all are busy
        heapq.heappush(busy, (last[k], j))
        slot[k] = f"{ws}[{j}]"
    stores = (f"const double {ws}[", f"double {ws}[")
    spelled = [list(body) for body in lines]
    for body, parts_of in zip(spelled, cuts):
        for i, parts in enumerate(parts_of):
            if crossing.isdisjoint(parts[1::2]):
                continue
            parts[1::2] = [slot.get(k) or temp + k for k in parts[1::2]]
            line = "".join(parts)
            if line.startswith(stores):  # a slot's declaration is a plain store
                line = line.removeprefix("const ").removeprefix("double ")
            body[i] = line
    takes = ["" if crossing.isdisjoint(ks) else ws for ks in occurs]
    return spelled, takes, len(free) + len(busy)


def _element_part(bundles: tuple, cfg: EmitConfig, loops: ElementLoops, n: int, stem: str,
                  head) -> tuple:
    """The one part's text, each mode's chunk, and the statement count, of
    the element path: each chunk runs every loop nest around its body,
    `e = <f>;` or `out[<index>] += <entry>;` per gradient entry that is not
    +0, each after the temporaries it reads first."""
    lines = []
    chunks: dict[str, list] = {m: [] for m in MODE_ORDER}
    n_statements = 0
    calls = False
    texts = [_nest_text(nest) for nest in loops.nests]
    for cid, mode in enumerate(m for m in ("function", "gradient") if m in cfg.mode):
        chunks[mode].append((cid, ""))
        bodies = []  # each nest's input slots read, in slot order, and statements
        for nest, (_, names, positions, _), bundle in zip(loops.nests, texts, bundles):
            targets = ([f"{ENERGY_NAME} ="] if mode == "function" else
                       [f"out[{positions[label]}] +=" for label in nest.vars_.labels])
            bits = {s.label: 1 << i for i, s in enumerate(nest.program.inputs[1:])}
            body = list(_rendered(mode, bundle.linearized(mode), targets, mode == "gradient",
                                  "t", names, bits))
            mask = 0
            for st in body:
                mask |= st.params
            bodies.append(([label for label, bit in bits.items() if bit & mask], body))
        lines += [f"void {stem}_chunk_{cid}(const double* restrict vals, double* restrict out)",
                  "{"]
        if not any(label in positions
                   for (_, _, positions, _), (read, _) in zip(texts, bodies) for label in read):
            lines.append("    (void) vals;")
        if mode == "function":
            init, = _rendered(mode, linearize((loops.init,)), [f"double {ENERGY_NAME} ="],
                              False, None, None, {})
            lines.append(f"    {init.text}")
            calls |= init.calls
        else:
            lines.append(f"    for (int k = 0; k < {n}; ++k) out[k] = 0;")
        for (headers, names, positions, ints), (read, body) in zip(texts, bodies):
            if not body:  # a nest that reads no differentiation variable
                continue
            n_statements += len(body)
            calls |= any(st.calls for st in body)
            loads = [f"{names[label]} = " + (f"vals[{positions[label]}]"
                                             if label in positions else ints[label])
                     for label in read]
            body = _lines(body)
            if loads:
                body = [f"const double {', '.join(loads)};", *body]
            depth = len(headers)
            lines += [f"{'    ' * d}{header} {{" for d, header in enumerate(headers, 1)]
            lines += ["    " * (depth + 1) + line for line in body]
            lines += [f"{'    ' * d}}}" for d in range(depth, 0, -1)]
        if mode == "function":
            lines.append(f"    out[0] = {ENERGY_NAME};")
        lines += ["}", ""]
    return ["\n".join([*head(calls), *lines])], chunks, n_statements


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
