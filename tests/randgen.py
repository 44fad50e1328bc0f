"""Seeded random generators for property tests: expressions and loop programs."""

import random

from acorns.cast import Binary, Call, Unary, Var, const


def random_expr(rng: random.Random, var_names, depth: int):
    """Random expression over `var_names`, safe to evaluate on (0.5, 2) bindings."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return const(round(rng.uniform(0.0, 3.0), 3))
        return Var(rng.choice(var_names))
    roll = rng.random()
    sub = lambda: random_expr(rng, var_names, depth - 1)
    if roll < 0.30:
        return Binary("+", sub(), sub())
    if roll < 0.50:
        return Binary("-", sub(), sub())
    if roll < 0.70:
        return Binary("*", sub(), sub())
    if roll < 0.78:
        # keep denominators away from zero
        return Binary("/", sub(), Binary("+", Binary("*", sub(), sub()), const(1.5)))
    if roll < 0.84:
        return Unary("-", sub())
    if roll < 0.90:
        return Call(rng.choice(["sin", "cos"]), (sub(),))
    if roll < 0.94:
        return Call("exp", (Call("sin", (sub(),)),))  # bounded argument
    if roll < 0.97:
        return Call("sqrt", (Binary("+", Binary("*", sub(), sub()), const(1.0, "1")),))
    return Call("pow", (Binary("+", Binary("*", sub(), sub()), const(1.0, "1")),
                        const(float(rng.randint(1, 3)))))


def _value_expr_src(rng: random.Random, names, depth: int) -> str:
    """Random C expression text over scalar names (params, locals, counters)."""
    if depth <= 0 or rng.random() < 0.35:
        if names and rng.random() < 0.7:
            return rng.choice(names)
        return f"{rng.uniform(-2.0, 2.0):.3f}"
    roll = rng.random()
    a = _value_expr_src(rng, names, depth - 1)
    b = _value_expr_src(rng, names, depth - 1)
    if roll < 0.35:
        return f"({a} + {b})"
    if roll < 0.6:
        return f"({a} - {b})"
    if roll < 0.85:
        return f"({a} * {b})"
    if roll < 0.93:
        return f"sin({a})"
    return f"cos({a})"


def random_loop_program(rng: random.Random, accumulate: bool = False):
    """Random function with constant-bound loops (depth <= 3, bounds <= 4).

    Returns (source_text, func_name, energy_var).  Parameters: a scalar `u`
    and a 1-D array `a` indexed by loop counters.  With `accumulate`, each
    assignment adds a term to `e` or subtracts one, and every statement
    outside the loops is a loop.
    """
    lines = [
        "double randfn(double u, const double *a) {",
        "    double e = 0;",
    ]
    counters = []

    def array_term():
        if counters:
            c = rng.choice(counters)
            return f"a[{c}]"
        return f"a[{rng.randint(0, 3)}]"

    def emit_assign(indent):
        # `e` appears exactly once per assignment (on the accumulator side),
        # keeping the substituted expression tree linear in program length
        names = ["u"] + counters
        expr = _value_expr_src(rng, names, rng.randint(1, 3))
        if rng.random() < 0.6:
            expr = f"({expr} + {array_term()})"
        op = rng.choice(["+", "-"] if accumulate else ["+", "-", "*"])
        lines.append(f"{indent}e = e {op} ({expr});")

    def emit_block(depth, indent):
        for _ in range(rng.randint(1, 2)):
            if depth < 3 and (rng.random() < 0.65 or accumulate and not depth):
                c = f"i{len(counters)}"
                lo = rng.randint(0, 1)
                hi = rng.randint(lo, 4)
                lines.append(f"{indent}for (int {c} = {lo}; {c} < {hi}; {c}++) {{")
                counters.append(c)
                emit_block(depth + 1, indent + "    ")
                counters.pop()
                lines.append(f"{indent}}}")
            else:
                emit_assign(indent)

    emit_block(0, "    ")
    if not accumulate:
        emit_assign("    ")  # ensure at least one unconditional assignment
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines), "randfn", "e"


def random_element_program(rng: random.Random):
    """Random function of the element path's shape whose integers meet
    doubles: `int` locals before one or two perfect loop nests (depth <= 3,
    bounds <= 4), and in each innermost body `double` locals and `e = e ±
    term` lines.  Terms read `x` at non-negative index expressions over the
    counters and the `int` locals, the scalar `u`, and integer
    subexpressions such as `(i0 + n)`, `(i1 - n) / 2`, `(i0 < n)`, `(n < 3)`
    and `-(i0 * n)`.

    Returns (source_text, func_name, energy_var).
    """
    n, m = rng.randint(1, 3), rng.randint(0, 2)
    lines = ["double randel(const double *x, double u) {",
             f"    double e = {rng.choice(['0', '1.5'])};",
             f"    int n = {n};",
             f"    int m = n + {m};" if rng.random() < 0.5 else f"    int m = {m};"]
    ints = ["n", "m"]

    def index(counters):
        c, k = rng.choice(counters), rng.choice(ints)
        return rng.choice([c, k, f"{c} + {k}", f"{c} * {k} + {c}", f"{c} + ({k} < 3)",
                           f"({c} + n) / 2"])

    def integer(counters):
        c, k = rng.choice(counters), rng.choice(ints)
        return rng.choice([f"({c} + {k})", f"({c} - {k}) / 2", f"({c} < {k})", f"({k} < 3)",
                           f"-({c} * {k})", f"({k} * 2 - 1)"])

    def factor(counters, scalars):
        roll = rng.random()
        if roll < 0.45:
            return f"x[{index(counters)}]"
        if roll < 0.75:
            return integer(counters)
        if roll < 0.9:
            return rng.choice(scalars)
        return f"{rng.uniform(0.1, 2.0):.3f}"

    def term(counters, scalars):
        read = f"x[{index(counters)}]"
        roll = rng.random()
        if roll < 0.4:
            return f"{read} * {factor(counters, scalars)}"
        if roll < 0.6:
            return f"{read} / (1 + {rng.choice(counters)} + n)"
        if roll < 0.8:
            return f"sin({read} + {integer(counters)})"
        return f"{factor(counters, scalars)} * {read} + {integer(counters)}"

    for _ in range(rng.randint(1, 2)):
        counters = []
        indent = "    "
        for _ in range(rng.randint(1, 3)):
            c = f"i{len(counters)}"
            lo = rng.randint(0, 1)
            lines.append(f"{indent}for (int {c} = {lo}; {c} < {rng.randint(lo + 1, 4)}; {c}++) {{")
            counters.append(c)
            indent += "    "
        scalars = ["u"]
        for k in range(rng.randint(0, 2)):
            lines.append(f"{indent}double t{k} = {term(counters, scalars)};")
            scalars.append(f"t{k}")
        for _ in range(rng.randint(1, 2)):
            terms = "".join(f" {rng.choice('+-')} {term(counters, scalars)}"
                            for _ in range(rng.randint(1, 2)))
            lines.append(f"{indent}e = e{terms};")
        for depth in range(len(counters), 0, -1):
            lines.append("    " * depth + "}")
    lines += ["    return e;", "}"]
    return "\n".join(lines) + "\n", "randel", "e"
