"""`acorns_autodiff` command line front end.

Pipeline mode (default):
    acorns_autodiff input.c energy --vars x --func function_0 \\
        --output_filename ders/der_0

Verification mode:
    acorns_autodiff verify eq3 --s 10 --points 100 --mode hessian

Outputs are byte-deterministic for identical inputs: the provenance
comment carries no timestamps, so build systems can hash the files.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__
from .codegen import DEFAULT_SPLIT_TARGET, EmitConfig, emit
from .derivatives import DEFAULT_NODE_CAP, VarIndexMap, derive_bundle
from .elements import element_path
from .errors import AcornsError, BoundExplosion, ExpressionExplosion, SubsetViolations
from .flatten import dump_text, serialize, unroll
from .parser import parse_source, validate_subset
from .verify import CORPUS, CorpusFunction, verify as run_verify, corpus_function

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_RESOURCE = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _pipeline_parser() -> _ArgumentParser:
    p = _ArgumentParser(
        prog="acorns_autodiff",
        description="Differentiate a C99 function and emit C99 kernels for "
                    "its value, gradient, and Hessian.",
    )
    p.add_argument("input", help="C source file containing the function")
    p.add_argument("energy_var", help="name of the scalar local holding the energy")
    p.add_argument("--vars", nargs="+", default=[], metavar="NAME",
                   help="parameters to differentiate with respect to")
    p.add_argument("--func", required=True, help="function to differentiate")
    p.add_argument("--output_filename", required=True, metavar="STEM",
                   help="path stem for the generated .h/.c files")
    p.add_argument("--mode", nargs="+", default=["function", "gradient", "hessian"],
                   choices=["function", "gradient", "hessian"],
                   help="which kernels to emit (default: all three)")
    p.add_argument("--split-size", type=int, default=DEFAULT_SPLIT_TARGET, metavar="BYTES",
                   help="target size per generated source file (default 16 MiB)")
    p.add_argument("--parallel", action="store_true",
                   help="annotate the point loop with an OpenMP parallel-for pragma")
    p.add_argument("--no-simplify", action="store_true",
                   help="skip algebraic simplification of derivative expressions")
    p.add_argument("--dump-slp", action="store_true",
                   help="also write the straight-line intermediate (.slp + text dump)")
    p.add_argument("--single-file", action="store_true",
                   help="name the output <stem>.c when it fits in one source file")
    p.add_argument("--version", action="version", version=f"acorns-autodiff {__version__}")
    return p


def _exhausted(exc: BaseException) -> str:
    """The one-line diagnostic for a RecursionError or a MemoryError."""
    if isinstance(exc, RecursionError):
        return "input nests too deeply to process (maximum recursion depth exceeded)"
    return "out of memory"


def _node_cap() -> int:
    raw = os.environ.get("ACORNS_MAX_NODES")
    if not raw:
        return DEFAULT_NODE_CAP
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer ACORNS_MAX_NODES={raw!r}", file=sys.stderr)
        return DEFAULT_NODE_CAP


def _read_source(path: str, prog: str) -> str | int:
    """The text of the C source file `path`, or, after a one-line
    diagnostic, the exit code: 2 when it cannot be read, 1 when it is not
    UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"{prog}: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"{prog}: {path}: not UTF-8 text (byte {exc.start})", file=sys.stderr)
        return EXIT_INPUT


def _violated(prog: str, path: str, exc: SubsetViolations) -> int:
    """Print `<prog>: <path>:<line>:<col>: <reason>` for each violation of
    the subset, `path` as given; the exit code."""
    for v in exc.violations:
        print(f"{prog}: {path}:{v.span}: {v.reason}", file=sys.stderr)
    return EXIT_INPUT


def _run_pipeline(args) -> int:
    modes = frozenset(args.mode)
    if not args.vars and modes & {"gradient", "hessian"}:
        print("acorns_autodiff: error: --vars is required for gradient/hessian output",
              file=sys.stderr)
        return EXIT_INPUT
    source_text = _read_source(args.input, "acorns_autodiff")
    if isinstance(source_text, int):
        return source_text

    try:
        ir = parse_source(source_text, args.func, args.energy_var)
        violations = validate_subset(ir)
        if violations:
            raise SubsetViolations(args.input, violations)
        loops = element_path(ir, args.vars, not args.no_simplify, modes)
        # the element path unrolls only for --dump-slp
        program = unroll(ir) if loops is None or args.dump_slp else None
        form = program if loops is None else loops
        vars_ = VarIndexMap.from_names(program, args.vars) if loops is None else loops.vars_
        cap = _node_cap()  # once per run: it may warn
        if loops is None:
            bundle = derive_bundle(
                program, vars_,
                do_simplify=not args.no_simplify,
                cap=cap,
                want_gradient=bool(modes & {"gradient", "hessian"}),
                want_hessian="hessian" in modes,
            )
        else:  # one bundle per loop nest, of its body
            bundle = tuple(derive_bundle(nest.program, nest.vars_, cap=cap,
                                         want_gradient="gradient" in modes, want_hessian=False)
                           for nest in loops.nests)
        cfg = EmitConfig(
            mode=modes,
            split_target_bytes=args.split_size,
            parallel=args.parallel,
            basename=args.output_filename,
            simplified=not args.no_simplify,
            source_name=os.path.basename(args.input),
            var_names=tuple(args.vars),
        )
        artifact = emit(bundle, vars_, cfg, form)
    except (BoundExplosion, ExpressionExplosion) as exc:
        print(f"acorns_autodiff: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        print(f"acorns_autodiff: {args.input}: {_exhausted(exc)}", file=sys.stderr)
        return EXIT_RESOURCE
    except SubsetViolations as exc:
        return _violated("acorns_autodiff", args.input, exc)
    except AcornsError as exc:
        print(f"acorns_autodiff: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    stem = args.output_filename
    out_dir = os.path.dirname(stem)
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        if args.dump_slp:
            with open(stem + ".slp", "wb") as fh:
                fh.write(serialize(program))
            with open(stem + ".slp.txt", "w", encoding="utf-8") as fh:
                fh.write(dump_text(program))
        with open(stem + ".h", "w", encoding="utf-8") as fh:
            fh.write(artifact.header)
        single = args.single_file and len(artifact.sources) == 1
        for filename, text in artifact.sources:
            path = os.path.join(out_dir, filename) if out_dir else filename
            if single:
                path = stem + ".c"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"acorns_autodiff: write failed: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"n={vars_.n} statements={artifact.n_statements} files={len(artifact.sources)}")
    return EXIT_OK


def _checked(convert, ok, need: str):
    """An argparse type: `convert`, then reject a value that fails `ok`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "at least 1")


class _Box(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        if not values[0] < values[1]:
            parser.error(f"argument --box: LO must be below HI, got {values[0]:g} {values[1]:g}")
        setattr(namespace, self.dest, tuple(values))


def _verify_parser() -> _ArgumentParser:
    p = _ArgumentParser(
        prog="acorns_autodiff verify",
        description="Check analytic derivatives against finite-difference oracles.",
    )
    p.add_argument("function", help=f"corpus name ({', '.join(CORPUS)}) or a C source file")
    p.add_argument("--s", type=_AT_LEAST_ONE, default=None,
                   help="variable count for eq3; grid size G for springs and barrier; "
                        "step count for rollout")
    p.add_argument("--points", type=_AT_LEAST_ONE, default=100)
    p.add_argument("--mode", default="gradient", choices=["gradient", "hessian"])
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "non-negative"), default=None)
    p.add_argument("--no-simplify", action="store_true")
    p.add_argument("--tolerance", default=None,
                   type=_checked(float, lambda v: 0 < v < math.inf, "positive and finite"))
    p.add_argument("--machine", action="store_true",
                   help="line-oriented output: entry,analytic,fd,relerr,pass")
    # for verifying a user source file instead of a corpus entry:
    p.add_argument("--func", default=None, help="function name (file inputs)")
    p.add_argument("--energy", default=None, help="energy variable (file inputs)")
    p.add_argument("--vars", nargs="+", default=None, help="independent vars (file inputs)")
    p.add_argument("--box", nargs=2, type=_checked(float, math.isfinite, "finite"),
                   action=_Box, default=None, metavar=("LO", "HI"),
                   help="sampling interval of the differentiated parameters (default: "
                        "a corpus entry's own, 0.01 1 for file inputs)")
    return p


def _misplaced_verify_flag(args) -> str | None:
    """Why a flag given does not apply to the input named, or None: `--s`
    sizes only a sized corpus entry, and `--func`, `--energy` and `--vars`
    describe only a file input."""
    if args.function in CORPUS:
        for flag, value in (("--func", args.func), ("--energy", args.energy),
                            ("--vars", args.vars)):
            if value is not None:
                return f"{flag} applies to file inputs, not to corpus entry {args.function}"
    if args.s is None:
        return None
    sized = [name for name in CORPUS if corpus_function(name).s is not None]
    if args.function in sized:
        return None
    what = f"corpus entry {args.function}" if args.function in CORPUS else "a file input"
    return f"--s applies to the sized corpus entries ({', '.join(sized)}), not to {what}"


def _run_verify(argv) -> int:
    args = _verify_parser().parse_args(argv)
    misplaced = _misplaced_verify_flag(args)
    if misplaced:
        print(f"acorns_autodiff verify: {misplaced}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.function in CORPUS:
            fn = corpus_function(args.function, s=args.s)
            if args.box is not None:
                fn = fn.replace(boxes={**fn.boxes, **dict.fromkeys(fn.var_names, args.box)})
        else:
            if not (args.func and args.energy and args.vars):
                print("acorns_autodiff verify: file inputs need --func, --energy and --vars",
                      file=sys.stderr)
                return EXIT_INPUT
            source = _read_source(args.function, "acorns_autodiff verify")
            if isinstance(source, int):
                return source
            fn = CorpusFunction(
                name=os.path.basename(args.function), source=source,
                func_name=args.func, energy_var=args.energy,
                var_names=tuple(args.vars),
                boxes={} if args.box is None else dict.fromkeys(args.vars, args.box),
            )
        kwargs = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        report = run_verify(fn, mode=args.mode, points=args.points,
                            do_simplify=not args.no_simplify,
                            tolerance=args.tolerance, cap=_node_cap(), **kwargs)
    except (BoundExplosion, ExpressionExplosion) as exc:
        print(f"acorns_autodiff verify: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        print(f"acorns_autodiff verify: {args.function}: {_exhausted(exc)}", file=sys.stderr)
        return EXIT_RESOURCE
    except SubsetViolations as exc:
        return _violated("acorns_autodiff verify", args.function, exc)
    except AcornsError as exc:
        # a located error in a file names the file, as generate's does
        located = args.function not in CORPUS and getattr(exc, "span", None)
        print(f"acorns_autodiff verify: {f'{args.function}: ' if located else ''}{exc}",
              file=sys.stderr)
        return EXIT_INPUT
    print(report.render_machine() if args.machine else report.render())
    return EXIT_OK if report.ok else EXIT_INPUT


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Python's cyclic collector is paused for the run, and restored after.
    # Expression nodes form no cycles, yet each full collection re-scans the
    # millions of them a long loop makes, and frees nothing: on a 50,000-step
    # accumulation loop it took about a third of the derivation's time, and
    # about a tenth of the unrolling's.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if argv and argv[0] == "verify":
            return _run_verify(argv[1:])
        return _run_pipeline(_pipeline_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
