"""Emission of derivative bundles as dependency-free C99.

The generated artifact is one header plus N source files.  Statements are
packed greedily into files of roughly `split_target_bytes`; each run of
same-mode statements in a file becomes a chunk function evaluating one
point, and exported drivers (`compute`, `compute_grad`, `compute_hess`)
in part 0 loop over points calling the chunks in order.  Output text is
fully deterministic for a given bundle and config.

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
import re
from dataclasses import dataclass

from .cast import Expr, SharedText, Var, children, post_order, to_source
from .derivatives import DerivativeBundle, VarIndexMap
from .errors import AcornsError
from .flatten import StraightLineProgram

MODE_ORDER = ("function", "gradient", "hessian")
DRIVER_NAME = {"function": "compute", "gradient": "compute_grad", "hessian": "compute_hess"}
DRIVER_OUT_ARG = {"function": "out", "gradient": "ders", "hessian": "hess"}

DEFAULT_SPLIT_TARGET = 16 * 2**20
MIN_SPLIT_TARGET = 2**16

RECOMMENDED_FLAGS = "-O3 -ffast-math -flto"


@dataclass(frozen=True)
class EmitConfig:
    mode: frozenset = frozenset(MODE_ORDER)
    split_target_bytes: int = DEFAULT_SPLIT_TARGET
    parallel: bool = False
    basename: str = "der"
    simplified: bool = True
    source_name: str = ""
    var_names: tuple = ()

    def __post_init__(self):
        bad = set(self.mode) - set(MODE_ORDER)
        if bad:
            raise AcornsError(f"unknown emit mode(s): {sorted(bad)}")
        if not self.mode:
            raise AcornsError("at least one emit mode is required")
        if self.split_target_bytes < MIN_SPLIT_TARGET:
            raise AcornsError(f"split target must be at least {MIN_SPLIT_TARGET} bytes")


@dataclass(frozen=True)
class GeneratedArtifact:
    header: str
    sources: tuple  # ordered (filename, text) pairs
    n_statements: int = 0


@dataclass(frozen=True)
class Statement:
    mode: str
    text: str  # the `out[k] = ...;` line
    params: frozenset  # parameter names the expression reads
    temps: tuple = ()  # (K, line) of each temporary's lines this statement reads first
    reads: frozenset = frozenset()  # temporaries of earlier statements it reads

    @property
    def size(self) -> int:
        """Bytes the statement takes in a chunk function, roughly."""
        return sum(len(decl) + 16 for _, decl in self.temps) + len(self.text) + 16


def layout_slots(program: StraightLineProgram, vars_: VarIndexMap) -> list:
    """Per-point slot order: independent vars first, then remaining inputs."""
    chosen = set(vars_.labels)
    rest = [s.label for s in program.inputs if s.label not in chosen]
    return list(vars_.labels) + rest


_NO_PARAMS = frozenset()


def _collect_params(e: Expr, memo: dict) -> frozenset:
    """Parameter names `e` reads.

    `memo` maps id(node) -> (names, node) and is shared by the statements
    of one emit, so a subtree shared between statements is walked once.
    """
    for node in post_order(e, memo):
        if isinstance(node, Var):
            names = frozenset((node.name.split("[", 1)[0],))
        else:
            names = _NO_PARAMS
            for k in children(node):
                got = memo[id(k)][0]
                if not got <= names:  # reuse a child's set where the union adds nothing
                    names = (names | got) if names else got
        memo[id(node)] = (names, node)
    return memo[id(e)][0]


def _temp_prefix(program: StraightLineProgram) -> str:
    """`t`, or `t_`, `t__`, ... when a parameter is named like a temporary."""
    params = {s.param for s in program.inputs}
    prefix = "t"
    while any(re.fullmatch(re.escape(prefix) + r"\d+", p) for p in params):
        prefix += "_"
    return prefix


def _statements(bundle: DerivativeBundle, cfg: EmitConfig, temp: str | None = None) -> tuple:
    """The statements in order, and each mode's `SharedText` when `temp` binds.

    Without `temp` every expression is one expanded `out[k] = ...;` line,
    rendered over the DAG of all modes.  With it each mode's expressions
    are rendered in bound form over that mode's DAG, so a temporary serves
    one driver.
    """
    n = bundle.n
    entries = []  # (mode, out index, expression, out index of its mirror or None)
    if "function" in cfg.mode:
        entries.append(("function", 0, bundle.f, None))
    if "gradient" in cfg.mode:
        entries += [("gradient", j, g, None) for j, g in enumerate(bundle.grad)]
    if "hessian" in cfg.mode:
        # the upper triangle mirrors the lower instead of recomputing
        entries += [("hessian", i * n + j, bundle.hess_lower[i * (i + 1) // 2 + j],
                     j * n + i if i != j else None)
                    for i in range(n) for j in range(i + 1)]
    if temp is None:
        groups = [entries]
    else:
        groups = [[e for e in entries if e[0] == m] for m in MODE_ORDER]
    stmts = []
    params: dict = {}
    temps: dict = {}
    for group in groups:
        if not group:
            continue
        shared = SharedText((expr for _, _, expr, _ in group), temp)
        for mode, k, expr, mirror in group:
            first = len(shared.decls)
            text = to_source(expr, shared)
            stmts.append(Statement(mode, f"out[{k}] = {text};", _collect_params(expr, params),
                                   tuple(enumerate(shared.decls[first:], first)),
                                   shared.reads))
            if mirror is not None:
                stmts.append(Statement(mode, f"out[{mirror}] = out[{k}];", frozenset()))
        if temp is not None:
            temps[group[0][0]] = shared
    return stmts, temps


def split(statements: list, cfg: EmitConfig) -> list:
    """Greedy in-order packing of statements into per-file groups."""
    if not statements:
        raise AcornsError("no statements to emit")
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
    if current:
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


def _param_decls(program: StraightLineProgram, layout: list, params: frozenset) -> list:
    """Declare C locals for each referenced parameter, loaded from vals."""
    slot_pos = {label: i for i, label in enumerate(layout)}
    by_param: dict[str, list] = {}
    order: list[str] = []
    for s in program.inputs:
        if s.param not in by_param:
            by_param[s.param] = []
            order.append(s.param)
        by_param[s.param].append(s)
    lines = []
    for name in order:
        if name not in params:
            continue
        slots = by_param[name]
        if slots[0].indices == ():
            lines.append(f"    const double {name} = vals[{slot_pos[name]}];")
            continue
        rank = len(slots[0].indices)
        extents = [max(s.indices[d] for s in slots) + 1 for d in range(rank)]
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


def _guard_name(basename: str) -> str:
    stem = basename.replace("\\", "/").rsplit("/", 1)[-1]
    return re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H"


def _header_stem(basename: str) -> str:
    return basename.replace("\\", "/").rsplit("/", 1)[-1]


def emit(bundle: DerivativeBundle, vars_: VarIndexMap, cfg: EmitConfig,
         program: StraightLineProgram) -> GeneratedArtifact:
    """Generate the header and split source files for the selected modes."""
    from . import __version__

    n = bundle.n
    layout = layout_slots(program, vars_)
    stride_in = len(layout)
    out_stride = {"function": 1, "gradient": n, "hessian": n * n}

    temp = _temp_prefix(program) if bundle.simplified else None
    statements, temps = _statements(bundle, cfg, temp)
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
            decls = _param_decls(program, layout, frozenset().union(*(st.params for st in run)))
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
        if cfg.parallel:
            drivers += ["#ifdef _OPENMP", "#pragma omp parallel for", "#endif"]
        drivers.append("    for (int p = 0; p < num_points; ++p) {")
        for cid in chunks[mode]:
            drivers.append(f"        {stem}_chunk_{cid}(vals + (long)p * {stride_in}, "
                           f"{DRIVER_OUT_ARG[mode]} + (long)p * {out_stride[mode]});")
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
