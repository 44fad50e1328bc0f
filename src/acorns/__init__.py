"""Source-to-source differentiation of a C99 subset.

Pipeline: parse -> unroll -> differentiate -> emit C99 kernels for the
function value, gradient, and Hessian.
"""

__version__ = "0.1.0"

from .cast import Expr, FunctionIR, to_source
from .codegen import EmitConfig, GeneratedArtifact, emit
from .derivatives import (
    DerivativeBundle,
    VarIndexMap,
    derive_bundle,
    differentiate,
    gradient,
    hessian,
    simplify,
    substitute,
)
from .flatten import (
    StraightLineProgram,
    deserialize,
    eval_const,
    serialize,
    unroll,
)
from .interp import eval_expr
from .parser import parse_source, validate_subset
from .verify import fd_gradient, fd_hessian, verify

__all__ = [
    "__version__",
    "Expr", "FunctionIR", "to_source",
    "parse_source", "validate_subset",
    "StraightLineProgram", "unroll", "eval_const", "serialize", "deserialize",
    "VarIndexMap", "DerivativeBundle", "substitute", "differentiate",
    "gradient", "hessian", "simplify", "derive_bundle",
    "EmitConfig", "GeneratedArtifact", "emit",
    "eval_expr", "fd_gradient", "fd_hessian", "verify",
]
