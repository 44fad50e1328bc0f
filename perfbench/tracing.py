"""The traced run: generate and verify in-process, with each layer's public
functions wrapped from outside the package.

The wrappers replace the module-global names that callers look up at call
time (for example `acorns.codegen.to_source`, which `emit` calls), record a
span (name, start, end, parent) per call in memory, and are removed when
the pass ends.  A layer's self time is its spans' durations minus the part
covered by their child spans.
"""

from __future__ import annotations

import importlib
import io
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stdout

# span names are "<layer>.<function>", layers named after the modules
LAYERS = ("parser", "flatten", "derivatives", "cast", "codegen", "cli", "interp", "verify")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._open: list = []
        self.counts: Counter = Counter()
        self.bundle = None  # the generate phase's DerivativeBundle

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(self, result, args)
            return result
        return traced

    def phases(self) -> list:
        """Split the spans at each root span; one list per top-level call."""
        out = []
        for i, span in enumerate(self.spans):
            if span[3] == -1:
                out.append([])
            out[-1].append((i, span))
        return out

    def times(self, phase=None) -> tuple:
        """(inclusive, self) seconds per span name, over one phase or all."""
        spans = phase if phase is not None else list(enumerate(self.spans))
        covered = Counter()
        for _, (_, start, end, parent) in spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive, own = Counter(), Counter()
        for i, (name, start, end, _) in spans:
            inclusive[name] += end - start
            own[name] += end - start - covered[i]
        return inclusive, own

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def layer_self(own: Counter) -> Counter:
    out = Counter({layer: 0.0 for layer in LAYERS})
    for name, t in own.items():
        out[name.split(".", 1)[0]] += t
    return out


def _set(key, value_of):
    def observe(tracer, result, args):
        tracer.counts[key] = value_of(result)
    return observe


def _keep_bundle(tracer, result, args):
    tracer.bundle = result


def _emitted(tracer, artifact, args):
    tracer.counts["codegen.statements"] = artifact.n_statements
    tracer.counts["codegen.files"] = len(artifact.sources)
    tracer.counts["codegen.max_file_bytes"] = max(len(t.encode()) for _, t in artifact.sources)


def _evaluated(tracer, result, args):
    tracer.counts["interp.points"] += result.shape[0]


def targets():
    """(owner, attribute, span name, observer) for every wrapped name."""
    # `acorns.verify` the attribute is the function, so go by module name
    cli, codegen, derivatives, verify = (
        importlib.import_module(f"acorns.{m}") for m in ("cli", "codegen", "derivatives", "verify"))
    out = [
        (cli, "main", "cli.main", None),
        (cli, "_run_pipeline", "cli.run_pipeline", None),
        (cli, "_run_verify", "cli.run_verify", None),
        (cli, "derive_bundle", "derivatives.derive_bundle", _keep_bundle),
        (cli, "emit", "codegen.emit", _emitted),
        (cli, "run_verify", "verify.verify", _set("verify.entries", lambda r: len(r.entries))),
        (derivatives, "substitute", "derivatives.substitute", None),
        (derivatives, "differentiate", "derivatives.differentiate", None),
        (derivatives, "simplify", "derivatives.simplify", None),
        (derivatives, "count_nodes", "cast.count_nodes", None),
        (codegen, "to_source", "cast.to_source", None),
        (codegen, "split", "codegen.split", None),
        (verify, "derive_bundle", "derivatives.derive_bundle", None),
        (verify, "compile_exprs", "interp.compile_exprs",
         _set("interp.tape_ops.exprs", lambda t: len(t.ops))),
        (verify, "compile_program", "interp.compile_program",
         _set("interp.tape_ops.program", lambda t: len(t.ops))),
        (verify, "evaluate", "interp.evaluate", _evaluated),
        (verify, "fd_gradient", "verify.fd_gradient", None),
        (verify, "fd_hessian", "verify.fd_hessian", None),
        (verify.FdReport, "record", "verify.record", None),
    ]
    for owner in (cli, verify):
        out += [
            (owner, "parse_source", "parser.parse_source", None),
            (owner, "validate_subset", "parser.validate_subset", None),
            (owner, "unroll", "flatten.unroll", _set("flatten.assigns", lambda p: len(p.assigns))),
        ]
    return out


@contextmanager
def patched(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, observe in targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_pass(generate_argv, verify_argv, tracer: Tracer | None = None) -> dict:
    """Generate then verify through `acorns.cli.main`; wall times and exit codes."""
    cli = importlib.import_module("acorns.cli")
    sink = io.StringIO()
    with (patched(tracer) if tracer else nullcontext()), redirect_stdout(sink):
        t0 = time.perf_counter()
        gen_rc = cli.main(generate_argv)
        t1 = time.perf_counter()
        ver_rc = cli.main(verify_argv)
        t2 = time.perf_counter()
    return {"generate_s": t1 - t0, "verify_s": t2 - t1, "generate_rc": gen_rc, "verify_rc": ver_rc}


def expansion(bundle, modes) -> tuple:
    """(tree nodes, DAG nodes) of the expressions the selected modes emit.

    Tree nodes count a shared subtree once per use, which is what printing
    each expression as one C statement writes; DAG nodes count each node
    object once across all of them.
    """
    roots = []
    if "function" in modes:
        roots.append(bundle.f)
    if "gradient" in modes:
        roots += bundle.grad
    if "hessian" in modes:
        roots += bundle.hess_lower
    size: dict = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in size:
                continue
            kids = _children(node)
            if expanded or not kids:
                size[id(node)] = 1 + sum(size[id(k)] for k in kids)
            else:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
    return sum(size[id(r)] for r in roots), len(size)


def _children(node) -> tuple:
    kind = type(node).__name__
    if kind == "Unary":
        return (node.operand,)
    if kind == "Binary":
        return (node.lhs, node.rhs)
    if kind == "Call":
        return tuple(node.args)
    if kind == "ArrayRef":
        return tuple(node.indices)
    return ()
