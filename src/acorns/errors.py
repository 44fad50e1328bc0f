"""Error types shared across the pipeline."""

from __future__ import annotations

from .record import Record, set_field


class SourceSpan(Record):
    """Location of a token or node in the input text (1-based)."""

    __slots__ = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int = 0):
        if line < 1 or column < 1 or length < 0:
            raise ValueError(f"invalid span {line}:{column}+{length}")
        set_field(self, "line", line)
        set_field(self, "column", column)
        set_field(self, "length", length)

    def __str__(self):
        return f"{self.line}:{self.column}"


class AcornsError(Exception):
    """Base for all tool errors."""


class _Located(AcornsError):
    """An error at a source span, shown as `line:col: message`, or as the
    message alone when no span is known."""

    def __init__(self, span: SourceSpan | None, message: str):
        super().__init__(f"{span}: {message}" if span else message)
        self.span = span
        self.message = message


class ParseError(_Located):
    """Malformed input text."""


class UnsupportedConstruct(_Located):
    """Input is valid C but outside the supported subset."""

    def __init__(self, span: SourceSpan | None, construct: str):
        super().__init__(span, f"unsupported construct: {construct}")
        self.construct = construct


class MissingFunction(AcornsError):
    def __init__(self, name: str):
        super().__init__(f"function '{name}' not found in input")
        self.name = name


class MissingEnergyVar(AcornsError):
    def __init__(self, name: str):
        super().__init__(f"energy variable '{name}' is never declared or assigned")
        self.name = name


class NotConstant(_Located):
    """Expression is not compile-time evaluable."""


class BoundExplosion(AcornsError):
    """Unrolling would exceed the cap on assignments, or on one loop's
    iterations; `what` names the count."""

    def __init__(self, count: int, cap: int, what: str = "unrolled assignment count"):
        super().__init__(f"{what} {count} exceeds cap {cap}")
        self.count = count
        self.cap = cap


class ExpressionExplosion(AcornsError):
    """Substituted expression would exceed the node cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"expression node count {count} exceeds cap {cap}")
        self.count = count
        self.cap = cap


class FormatError(AcornsError):
    """Corrupt or incompatible intermediate file."""


class UnboundSlot(AcornsError):
    def __init__(self, name: str):
        super().__init__(f"no value bound for slot '{name}'")
        self.name = name
