"""Coefficient expression language: parser, window evaluator, printer.

Grammar (EBNF)::

    expr   = term {("+" | "-") term}
    term   = factor {("*" | "/") factor}
    factor = ["-"] power
    power  = atom ["^" factor]
    atom   = number | "t" | "(" expr ")" | "sqrt" "(" expr ")"

``^`` binds tightest and is right-associative; in particular ``-4^t``
means ``-(4^t)``.  Number literals are integers or terminating decimals
and are kept as exact ``Fraction`` values so evaluation is reproducible
at any precision.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import EvaluationError, ExprSyntaxError, NativeOverflowError


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    """The grid variable t."""


@dataclass(frozen=True)
class Neg:
    arg: "CoefficientExpr"


@dataclass(frozen=True)
class Sqrt:
    arg: "CoefficientExpr"


@dataclass(frozen=True)
class Add:
    left: "CoefficientExpr"
    right: "CoefficientExpr"


@dataclass(frozen=True)
class Sub:
    left: "CoefficientExpr"
    right: "CoefficientExpr"


@dataclass(frozen=True)
class Mul:
    left: "CoefficientExpr"
    right: "CoefficientExpr"


@dataclass(frozen=True)
class Div:
    left: "CoefficientExpr"
    right: "CoefficientExpr"


@dataclass(frozen=True)
class Pow:
    base: "CoefficientExpr"
    exponent: "CoefficientExpr"


CoefficientExpr = Num | Var | Neg | Sqrt | Add | Sub | Mul | Div | Pow

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break  # only trailing whitespace
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.take()

    def parse(self) -> CoefficientExpr:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> CoefficientExpr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> CoefficientExpr:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> CoefficientExpr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.power())
        return self.power()

    def power(self) -> CoefficientExpr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return Pow(base, self.factor())
        return base

    def atom(self) -> CoefficientExpr:
        kind, val, pos = self.take()
        if kind == "number":
            return Num(Fraction(val))
        if kind == "ident":
            if val == "t":
                return Var()
            if val == "sqrt":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Sqrt(inner)
            raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(
            f"expected a number, 't', '(' or 'sqrt(' but found {val or 'end of input'!r}",
            pos,
        )


def parse_coefficient_expr(text: str) -> CoefficientExpr:
    """Parse a coefficient formula into its AST."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# Printer precedence levels: higher binds tighter.
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _prec(node: CoefficientExpr) -> int:
    if isinstance(node, (Add, Sub)):
        return _P_ADD
    if isinstance(node, (Mul, Div)):
        return _P_MUL
    if isinstance(node, Neg):
        return _P_NEG
    if isinstance(node, Pow):
        return _P_POW
    return _P_ATOM


def _fraction_text(q: Fraction) -> str:
    if q < 0:
        return f"(0 - {_fraction_text(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    # terminating decimal when the denominator is 2^a * 5^b
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = q.numerator * 10**digits // q.denominator
        text = str(scaled).rjust(digits + 1, "0")
        return f"{text[:-digits]}.{text[-digits:]}"
    return f"({q.numerator} / {q.denominator})"


def to_text(node: CoefficientExpr) -> str:
    """Deterministic rendering; re-parses to a structurally equal AST."""

    def wrap(child: CoefficientExpr, minimum: int) -> str:
        text = to_text(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(node, Num):
        return _fraction_text(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Sqrt):
        return f"sqrt({to_text(node.arg)})"
    if isinstance(node, Neg):
        return f"-{wrap(node.arg, _P_POW)}"
    if isinstance(node, Pow):
        # exponent is a factor: a bare Neg would re-parse identically, but
        # parenthesizing it is easier to read
        expo = to_text(node.exponent)
        if _prec(node.exponent) < _P_POW:
            expo = f"({expo})"
        return f"{wrap(node.base, _P_ATOM)}^{expo}"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left = wrap(node.left, _P_MUL)
        right = wrap(node.right, _P_NEG)  # right operand must bind tighter
        return f"{left} {op} {right}"
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left = wrap(node.left, _P_ADD)
        right = wrap(node.right, _P_MUL)
        return f"{left} {op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: CoefficientExpr, ts: range, kernel) -> tuple:
    """Values at each integer t of ``ts`` as real kernel scalars, one per t.

    The tree is walked once per window: each constant is converted once
    and every node maps its operation over its children's columns, so
    each value has the operands and order of a one-point evaluation.
    Raises EvaluationError for a negative sqrt argument, zero division, a
    sign-invalid power, or (in native mode) overflow, at the failing
    node's first failing t.
    """
    out = _column(node, ts, kernel)
    if not all(map(kernel.isfinite, out)):
        t = next(t for t, v in zip(ts, out) if not kernel.isfinite(v))
        message = f"value of {to_text(node)} at t={t} is not finite at this precision"
        if kernel.needs_finite_checks:
            raise NativeOverflowError(message)
        raise EvaluationError(message)
    return out


def _column(node: CoefficientExpr, ts: range, kernel) -> tuple:
    if isinstance(node, Num):
        return (kernel.real(node.value),) * len(ts)
    if isinstance(node, Var):
        return tuple(map(kernel.real, ts))
    if isinstance(node, Div):
        den = _column(node.right, ts, kernel)
        if 0 in den:
            raise EvaluationError(f"division by zero in {to_text(node)} at t={ts[den.index(0)]}")
        return tuple(map(operator.truediv, _column(node.left, ts, kernel), den))
    op = {
        Neg: operator.neg, Sqrt: partial(real_sqrt, kernel), Pow: partial(real_power, kernel),
        Add: operator.add, Sub: operator.sub, Mul: operator.mul,
    }.get(type(node))
    if op is None:
        raise TypeError(f"not an expression node: {node!r}")
    # the children in field order: left before right, base before exponent
    columns = [_column(child, ts, kernel) for child in vars(node).values()]
    try:
        return tuple(map(op, *columns))
    except EvaluationError as exc:
        # rescan for the first failing t, to name it like a division does
        for t, args in zip(ts, zip(*columns)):
            try:
                op(*args)
            except EvaluationError:
                raise type(exc)(f"{exc} in {to_text(node)} at t={t}") from None
        raise


def real_sqrt(kernel, x):
    """sqrt(x) on reals; a negative x is an error on every kernel."""
    if x < 0:
        raise EvaluationError(f"square root of negative value {x}")
    return kernel.sqrt(x)


def real_power(kernel, base, expo):
    """base^expo on reals: 0^negative is an error, and a negative base needs
    an integer exponent (native floats would give nan).  The exponent's
    parity is read from its exact value, so an exponent past the float
    range or a non-finite one is an EvaluationError on every kernel."""
    if base == 0:
        if expo < 0:
            raise EvaluationError("zero raised to a negative power")
        return kernel.real(1 if expo == 0 else 0)
    if base > 0:
        return kernel.pow_positive(base, expo)
    frac = kernel.to_fraction(expo)
    if frac.denominator != 1:
        raise EvaluationError(f"negative base {base!s} raised to non-integer power {expo!s}")
    mag = kernel.pow_positive(-base, expo)
    return -mag if frac.numerator % 2 else mag
