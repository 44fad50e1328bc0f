"""Recursive-descent front end for the supported C99 subset.

The grammar covers what the differentiation pipeline can consume:
functions over double scalars/arrays, variable declarations, plain and
compound assignments, constant-bound for loops, compile-time-evaluable
conditionals, and calls to the math intrinsics in `cast.INTRINSICS`.
Everything else is rejected with a precise source span.

Binary operators are parsed by operator precedence with an explicit stack,
so only nesting recurses: parentheses, unary minus, call arguments and
indices.  The scope and subset checks walk expressions with
`cast.post_order`.
"""

from __future__ import annotations

import re

from .cast import (
    _PRECEDENCE,
    INTRINSICS,
    ArrayRef,
    Assignment,
    Binary,
    Block,
    Call,
    Constant,
    Declaration,
    Expr,
    ForLoop,
    FunctionIR,
    If,
    Param,
    Return,
    Stmt,
    Unary,
    Var,
    children,
    const,
    is_integer_literal,
    operands,
    post_order,
)
from .errors import (
    MissingEnergyVar,
    MissingFunction,
    ParseError,
    SourceSpan,
    UnsupportedConstruct,
)
from .flatten import int_expr
from .record import Record, set_field

_UNSUPPORTED_KEYWORDS = {
    "while": "while loop",
    "do": "do-while loop",
    "switch": "switch statement",
    "goto": "goto",
    "break": "break",
    "continue": "continue",
    "struct": "struct",
    "union": "union",
    "enum": "enum",
    "sizeof": "sizeof",
    "typedef": "typedef",
    "unsigned": "unsigned type",
    "signed": "signed type",
    "long": "long type",
    "short": "short type",
    "char": "char type",
    "static": "storage-class specifier",
    "extern": "storage-class specifier",
    "volatile": "volatile qualifier",
    "auto": "storage-class specifier",
    "register": "storage-class specifier",
    "default": "switch statement",
    "inline": "inline function",
    "restrict": "restrict qualifier",
    "_Bool": "_Bool type",
    "_Complex": "complex type",
    "_Imaginary": "imaginary type",
}

# the words no identifier may take: the grammar's own, `case`, which only
# a switch uses and is rejected where it stands, and the unsupported ones
_KEYWORDS = {"double", "int", "float", "void", "const", "for", "if", "else", "return", "case",
             *_UNSUPPORTED_KEYWORDS}

_PUNCT = (
    "<=", ">=", "==", "!=", "+=", "-=", "*=", "/=", "++", "--", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "(", ")", "[", "]", "{", "}",
    ";", ",", "!", "&", "|", "?", ":", ".",
)
_PUNCT_SET = frozenset(_PUNCT)
# one match per token: the layout before it (spaces and comments), then an
# identifier, a number, or else an unterminated comment, the end of the
# input (after a line comment that ends it), punctuation (longest first) or
# any other character.  One of these follows the longest layout, so the
# matches are contiguous, and `findall` gives each as its four groups.
_TOKEN_RE = re.compile(
    r"((?:[ \t\r\n]+|/\*.*?\*/|//[^\n]*(?=\n))*)"
    r"(?:([A-Za-z_][A-Za-z0-9_]*)"
    r"|((?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(/\*|(?://[^\n]*)?\Z|" + "|".join(map(re.escape, _PUNCT)) + r"|.))",
    re.DOTALL,
)


class Token(Record):
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: SourceSpan):
        set_field(self, "kind", kind)  # "ident", "number", "eof", or the keyword or punctuation itself
        set_field(self, "text", text)
        set_field(self, "span", span)


class Violation(Record):
    __slots__ = ("span", "reason")

    def __init__(self, span: SourceSpan, reason: str):
        super().__init__(span, reason)


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, each spanning its line and column (a tab is
    one column), ending with an `eof` token at the end of the input, or at
    the start of a line comment that ends it."""
    tokens = []
    append = tokens.append
    line, col = 1, 1
    for layout, ident, number, other in _TOKEN_RE.findall(source):
        if layout:
            if "\n" in layout:
                line += layout.count("\n")
                col = len(layout) - layout.rfind("\n")
            else:
                col += len(layout)
        if ident:
            text, kind = ident, ident if ident in _KEYWORDS else "ident"
        elif number:
            if number[0] == "0" and len(number) > 1 and is_integer_literal(number):
                raise UnsupportedConstruct(SourceSpan(line, col, len(number)),
                                           "octal integer literal")  # C reads 010 as 8
            text, kind = number, "number"
        elif other in _PUNCT_SET:
            text = kind = other
        elif not other or other.startswith("//"):
            break  # the end of the input
        else:
            span = SourceSpan(line, col, len(other))
            if other == "/*":
                raise ParseError(span, "unterminated comment")
            if other == "#":
                raise ParseError(
                    span, "preprocessor directives are not supported; preprocess the input first")
            raise ParseError(span, f"unexpected character {other!r}")
        append(Token(kind, text, SourceSpan(line, col, len(text))))
        col += len(text)
    append(Token("eof", "", SourceSpan(line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = what or f"'{kind}'"
            raise ParseError(tok.span, f"expected {shown}, got {tok.text or 'end of input'!r}")
        return self.next()

    def reject_unsupported(self, tok: Token):
        if tok.kind in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(tok.span, _UNSUPPORTED_KEYWORDS[tok.text])

    # -- declarations ------------------------------------------------------

    def type_specifier(self) -> str:
        while self.accept("const"):
            pass
        tok = self.peek()
        self.reject_unsupported(tok)
        if tok.kind in ("double", "int", "void", "float"):
            if tok.kind == "float":
                raise UnsupportedConstruct(tok.span, "float type (use double)")
            self.next()
            while self.accept("const"):
                pass
            return tok.text
        raise ParseError(tok.span, f"expected type specifier, got {tok.text!r}")

    def param(self) -> Param:
        elem_type = self.type_specifier()
        rank = 0
        while self.accept("*"):
            rank += 1
            while self.accept("const") or self.accept("restrict"):
                pass
        name = self.expect("ident", "parameter name").text
        extents: list[int | None] = [None] * rank
        while self.accept("["):
            if self.peek().kind == "number":
                tok = self.next()
                if not is_integer_literal(tok.text):
                    raise ParseError(tok.span, "array extent must be an integer literal")
                extents.append(int(tok.text))
            else:
                extents.append(None)
            self.expect("]")
            rank += 1
        return Param(name, rank, tuple(extents), elem_type)

    def function(self) -> tuple[str, list[Param], list[Stmt] | None]:
        self.type_specifier()
        name_tok = self.expect("ident", "function name")
        self.expect("(")
        params = []
        if self.peek().kind != ")":
            if not (self.peek().kind == "void" and self.peek(1).kind == ")"):
                params.append(self.param())
                while self.accept(","):
                    params.append(self.param())
            else:
                self.next()
        self.expect(")")
        if self.accept(";"):  # prototype: skip
            return name_tok.text, params, None
        return name_tok.text, params, self.compound()

    # -- statements ----------------------------------------------------------

    def compound(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.accept("}"):
            if self.peek().kind == "eof":
                raise ParseError(self.peek().span, "unexpected end of input inside block")
            body.extend(self.statement())
        return body

    def body(self) -> list[Stmt]:
        """A loop's or a branch's body: a block's statements, or one statement."""
        return self.compound() if self.peek().kind == "{" else self.statement()

    def statement(self) -> list[Stmt]:
        tok = self.peek()
        self.reject_unsupported(tok)
        if tok.kind in ("double", "int", "const"):
            return self.declaration()
        if tok.kind == "for":
            return [self.for_loop()]
        if tok.kind == "if":
            return [self.if_stmt()]
        if tok.kind == "return":
            self.next()
            value = None if self.peek().kind == ";" else self.expr()
            self.expect(";")
            return [Return(value, span=tok.span)]
        if tok.kind == "float":
            raise UnsupportedConstruct(tok.span, "float type (use double)")
        if tok.kind in _KEYWORDS:
            raise ParseError(tok.span, f"unexpected keyword {tok.text!r}")
        if tok.kind == "{":
            return [Block(tuple(self.compound()), span=tok.span)]
        if tok.kind == ";":
            self.next()
            return []
        return [self.assignment_stmt()]

    def declaration(self) -> list[Stmt]:
        elem_type = self.type_specifier()
        if elem_type == "void":
            raise ParseError(self.peek().span, "cannot declare a void variable")
        decls = []
        while True:
            if self.peek().kind == "*":
                raise UnsupportedConstruct(self.peek().span, "local pointer declaration")
            name_tok = self.expect("ident", "variable name")
            extents = []
            while self.accept("["):
                extents.append(self.expr())
                self.expect("]")
            init = None
            if self.accept("="):
                if self.peek().kind == "{":
                    raise UnsupportedConstruct(self.peek().span, "brace initializer")
                init = self.expr()
            decls.append(Declaration(name_tok.text, elem_type, tuple(extents), init, span=name_tok.span))
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def assignment_stmt(self) -> Stmt:
        stmt = self.assignment_core()
        self.expect(";")
        return stmt

    def assignment_core(self) -> Stmt:
        prefix = self.accept("++") or self.accept("--")  # `++x`, as `x++`
        lv = self.postfix()
        if not isinstance(lv, (Var, ArrayRef)):
            raise ParseError(self.peek().span, "assignment target must be a variable or array element")
        tok = prefix or self.next()
        if tok.kind == "=":
            return Assignment(lv, self.expr(), span=tok.span)
        if tok.kind in ("+=", "-=", "*=", "/="):
            rhs = self.expr()
            return Assignment(lv, Binary(tok.kind[0], lv, rhs, span=tok.span), span=tok.span)
        if tok.kind in ("++", "--"):
            op = tok.kind[0]
            return Assignment(lv, Binary(op, lv, const(1.0, "1"), span=tok.span), span=tok.span)
        raise ParseError(tok.span, f"expected assignment operator, got {tok.text!r}")

    def for_loop(self) -> Stmt:
        for_tok = self.expect("for")
        self.expect("(")
        if not self.accept("int"):
            raise UnsupportedConstruct(self.peek().span, "for loop without `int` counter declaration")
        counter_tok = self.expect("ident", "loop counter name")
        self.expect("=")
        init = self.expr()
        self.expect(";")
        cond = self.expr()
        if not (isinstance(cond, Binary) and cond.op in ("<", "<=", ">", ">=", "!=")):
            raise UnsupportedConstruct(for_tok.span, "loop condition must compare the counter against a bound")
        self.expect(";")
        update = self.for_update(counter_tok.text)
        self.expect(")")
        body = self.body()
        if not body:
            raise ParseError(for_tok.span, "loop body is empty")
        return ForLoop(counter_tok.text, init, cond, update, tuple(body), span=for_tok.span)

    def for_update(self, counter: str) -> Expr:
        prefix = self.accept("++") or self.accept("--")  # `++x`, as `x++`
        name_tok = self.expect("ident", "loop counter in update")
        if name_tok.text != counter:
            raise ParseError(name_tok.span, f"loop update must modify the counter {counter!r}")
        tok = prefix or self.next()
        cvar = Var(counter, span=name_tok.span)
        if tok.kind == "++":
            return Binary("+", cvar, const(1.0, "1"), span=tok.span)
        if tok.kind == "--":
            return Binary("-", cvar, const(1.0, "1"), span=tok.span)
        if tok.kind in ("+=", "-="):
            return Binary(tok.kind[0], cvar, self.expr(), span=tok.span)
        if tok.kind == "=":
            return self.expr()
        raise UnsupportedConstruct(tok.span, f"loop update form {tok.text!r}")

    def if_stmt(self) -> Stmt:
        if_tok = self.expect("if")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then_body = self.body()
        else_body: list[Stmt] = []
        if self.accept("else"):
            else_body = self.body()
        return If(cond, tuple(then_body), tuple(else_body), span=if_tok.span)

    # -- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        """Operands joined by binary operators, by operator precedence over
        the printer's table.  Pending operators wait on a stack and are
        applied once an operator that binds no more tightly follows, so each
        is left-associative, and neither a long chain nor a mix of
        precedences costs a frame."""
        terms = [self.unary()]
        pending: list[Token] = []

        def apply():
            tok, rhs = pending.pop(), terms.pop()
            terms.append(Binary(tok.kind, terms.pop(), rhs, span=tok.span))

        while True:
            tok = self.peek()
            if tok.kind == "%":
                raise UnsupportedConstruct(tok.span, "modulo operator")
            prec = _PRECEDENCE.get(tok.kind)
            if prec is None:
                break
            while pending and _PRECEDENCE[pending[-1].kind] >= prec:
                apply()
            pending.append(self.next())
            terms.append(self.unary())
        while pending:
            apply()
        return terms[0]

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Unary("-", self.unary(), span=tok.span)
        if tok.kind == "+":
            self.next()
            return self.unary()
        if tok.kind in ("!", "&", "*", "++", "--"):
            raise UnsupportedConstruct(tok.span, f"unary operator {tok.text!r}")
        return self.postfix()

    def postfix(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Constant(tok.text, float(tok.text), span=tok.span)
        if tok.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return self.index_suffix(e)
        self.reject_unsupported(tok)
        if tok.kind != "ident":
            raise ParseError(tok.span, f"expected expression, got {tok.text or 'end of input'!r}")
        self.next()
        if self.peek().kind == "(":
            arity = INTRINSICS.get(tok.text)
            if arity is None:
                raise UnsupportedConstruct(tok.span, f"call to non-intrinsic function {tok.text!r}")
            self.next()
            args = [self.expr()]
            while self.accept(","):
                args.append(self.expr())
            close = self.expect(")")
            if len(args) != arity:
                raise ParseError(close.span, f"{tok.text} expects {arity} argument(s), got {len(args)}")
            return Call(tok.text, tuple(args), span=tok.span)
        return self.index_suffix(Var(tok.text, span=tok.span))

    def index_suffix(self, e: Expr) -> Expr:
        indices = []
        while self.peek().kind == "[":
            self.next()
            indices.append(self.expr())
            self.expect("]")
        if not indices:
            return e
        if not isinstance(e, Var):
            raise UnsupportedConstruct(self.peek().span, "indexing a non-identifier expression")
        return ArrayRef(e.name, tuple(indices), span=e.span)


# ---------------------------------------------------------------------------
# Public entry points


def parse_source(source_text: str, func_name: str, energy_var: str) -> FunctionIR:
    """Parse one function out of a translation unit into FunctionIR."""
    parser = _Parser(tokenize(source_text))
    found = None
    while parser.peek().kind != "eof":
        name, params, body = parser.function()
        if name == func_name and body is not None:
            found = (params, body)
    if found is None:
        raise MissingFunction(func_name)
    params, body = found
    ir = FunctionIR(func_name, tuple(params), energy_var, tuple(body))
    if not _check_scopes(ir):
        raise MissingEnergyVar(energy_var)
    return ir


def _check_scopes(ir: FunctionIR) -> bool:
    """Every identifier must be a parameter, loop counter, or prior local,
    and no declaration may reuse a name visible where it stands: the
    unroller and `run_ir` keep one binding per name.

    Returns whether a declaration or an assignment targets the energy
    variable; a declaration of it must be of a double scalar.
    """

    def declare(name: str, span, scope: set):
        if name in scope:
            raise UnsupportedConstruct(span, f"declaration of {name!r} shadows or "
                                             "redeclares a visible name")

    def check_expr(e: Expr, scope: set):
        seen: set = set()
        for node in post_order(e, seen, lambda n: children(n)[::-1]):  # in source order
            seen.add(id(node))
            if isinstance(node, (Var, ArrayRef)):
                name = node.name if isinstance(node, Var) else node.base
                if name not in scope:
                    raise ParseError(node.span or SourceSpan(1, 1),
                                     f"use of undeclared identifier {name!r}")

    def check_block(stmts, scope: set) -> bool:
        scope = set(scope)
        defines = False
        for s in stmts:
            if isinstance(s, Declaration):
                for ext in s.extents:
                    check_expr(ext, scope)
                if s.init is not None:
                    check_expr(s.init, scope)
                declare(s.name, s.span, scope)
                scope.add(s.name)
                if s.name == ir.energy_var:
                    if s.elem_type != "double" or s.extents:
                        raise ParseError(s.span, f"energy variable {s.name!r} must be a "
                                                 "double scalar")
                    defines = True
            elif isinstance(s, Assignment):
                check_expr(s.lvalue, scope)
                check_expr(s.rhs, scope)
                lv = s.lvalue
                defines |= (lv.name if isinstance(lv, Var) else lv.base) == ir.energy_var
            elif isinstance(s, ForLoop):
                check_expr(s.init, scope)
                declare(s.counter, s.span, scope)
                inner = scope | {s.counter}
                check_expr(s.cond, inner)
                check_expr(s.update, inner)
                defines |= check_block(s.body, inner)
            elif isinstance(s, If):
                check_expr(s.cond, scope)
                defines |= check_block(s.then_body, scope)
                defines |= check_block(s.else_body, scope)
            elif isinstance(s, Block):
                defines |= check_block(s.body, scope)
            elif isinstance(s, Return) and s.value is not None:
                check_expr(s.value, scope)
        return defines

    return check_block(ir.body, {p.name for p in ir.params})


def parse_expr(text: str) -> Expr:
    """Parse a standalone expression (used by tests and the round-trip check)."""
    parser = _Parser(tokenize(text))
    e = parser.expr()
    parser.expect("eof", "end of expression")
    return e


def validate_subset(ir: FunctionIR) -> list[Violation]:
    """Check that all control flow is resolvable at transform time, and
    that C computes no division in `int` that acorns computes in `double`
    (`_int_division`)."""
    violations: list[Violation] = []
    held = {p.name for p in ir.params if p.elem_type == "int"}  # read as doubles

    def walk(stmts, allowed: set, ints: set):
        allowed = set(allowed)  # the names of compile-time integers
        ints = set(ints)  # the names of `int`s: counters and `int` locals
        for s in stmts:
            if isinstance(s, Declaration):
                for ext in s.extents:
                    if not int_expr(ext, allowed):
                        violations.append(Violation(s.span or SourceSpan(1, 1), f"non-constant array extent for {s.name!r}"))
                if s.elem_type == "int":
                    if s.init is not None and int_expr(s.init, allowed):
                        allowed.add(s.name)
                    ints.add(s.name)
                elif s.init is not None:
                    check(s.init, ints)
            elif isinstance(s, Assignment):
                check(s.rhs, ints)
            elif isinstance(s, ForLoop):
                here = s.span or SourceSpan(1, 1)
                if not int_expr(s.init, allowed):
                    violations.append(Violation(here, "non-constant loop start"))
                inner = allowed | {s.counter}
                if not int_expr(s.cond, inner):
                    violations.append(Violation(here, "non-constant loop bound"))
                if not int_expr(s.update, inner):
                    violations.append(Violation(here, "non-constant loop step"))
                walk(s.body, inner, ints | {s.counter})
            elif isinstance(s, If):
                if not int_expr(s.cond, allowed):
                    violations.append(Violation(s.span or SourceSpan(1, 1), "variable conditional"))
                walk(s.then_body, allowed, ints)
                walk(s.else_body, allowed, ints)
            elif isinstance(s, Block):
                walk(s.body, allowed, ints)

    def check(e: Expr, ints: set):
        found = _int_division(e, ints, held - ints)
        if found is not None:
            at, what = found
            violations.append(Violation(at.span or SourceSpan(1, 1),
                                        f"integer division of {what}: C divides it in int, "
                                        "acorns in double; make an operand a double"))

    walk(ir.body, set(), set())
    return violations


def _int_division(e: Expr, ints: set, held: set) -> tuple | None:
    """The first division in `e` whose operands C computes in `int` and
    one of which acorns holds as a `double`, with what that operand reads,
    or None.

    acorns holds a comparison of doubles as a double, 0 or 1, where it is an
    `int` in C, and it reads an `int` parameter, whose names are `held`, or
    an element of an `int*` one, from `vals` as a double.  It folds only
    integer subexpressions of constants (`flatten.int_typed`), so
    `(x < 1) / 2` and `n / 2` would be 0.5 to acorns at x < 1 and n = 1,
    and 0 to the C it emits.  An integer literal, a name in `ints`, a
    comparison, and a negation or arithmetic of integer operands are
    integer-typed too; such a node records what it reads as a double.
    """
    # id(node) -> for an integer-typed node, what it reads as a double, or ""
    typed: dict[int, str] = {}
    seen: set = set()
    for node in post_order(e, seen, operands):
        seen.add(id(node))
        if isinstance(node, Constant):
            if is_integer_literal(node.text):
                typed[id(node)] = ""
        elif isinstance(node, Var):
            if node.name in held:
                typed[id(node)] = "an int parameter"
            elif node.name in ints:
                typed[id(node)] = ""
        elif isinstance(node, ArrayRef):
            if node.base in held:
                typed[id(node)] = "an int parameter"
        elif isinstance(node, Unary):
            if id(node.operand) in typed:
                typed[id(node)] = typed[id(node.operand)]
        elif isinstance(node, Binary):
            lhs, rhs = typed.get(id(node.lhs)), typed.get(id(node.rhs))
            if node.op not in ("+", "-", "*", "/"):  # a comparison
                doubles = lhs is None or rhs is None
                typed[id(node)] = "a comparison of doubles" if doubles else lhs or rhs
            elif lhs is not None and rhs is not None:
                if node.op == "/" and (lhs or rhs):
                    return node, lhs or rhs
                typed[id(node)] = lhs or rhs
    return None
