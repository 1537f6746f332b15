"""Arithmetic expression language for kernels, weights, envelopes and nonlinearities.

Expressions are parsed once into immutable syntax trees and evaluated in IEEE
double precision, either on scalars or elementwise on numpy arrays.  The
grammar is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative exponent
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sin, cos, exp, abs, sqrt (unary) and min, max (binary).  A literal
quotient such as 7/8 is folded to its double-precision value at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

Number = Union[float, np.ndarray]

FUNCTIONS: dict[str, int] = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "abs": 1,
    "sqrt": 1,
    "min": 2,
    "max": 2,
}


class ExprError(Exception):
    """Base class for every expression-language failure."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


class UnknownFunctionError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unknown function {name!r}")
        self.name = name


class ArityError(ExprError):
    def __init__(self, name: str, expected: int, got: int):
        super().__init__(f"function {name!r} takes {expected} argument(s), got {got}")
        self.name = name


class DomainError(ExprError):
    """Raised when evaluation leaves the reals (division by zero, sqrt of a
    negative number, overflow to infinity)."""


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_OPS = set("+-*/^(),")


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                finite = bool(np.isfinite(float(lit)))
            except ValueError:
                finite = False
            if not finite:
                raise ExprSyntaxError(f"bad numeric literal {lit!r}", _byte_offset(text, i))
            tokens.append(("num", lit, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        kind, value, idx = self.peek()
        raise ExprSyntaxError(message, _byte_offset(self.text, idx))

    def expect_op(self, symbol: str) -> None:
        kind, value, _ = self.peek()
        if kind != "op" or value != symbol:
            self.fail(f"expected {symbol!r}")
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.unary()
            if op == "/" and isinstance(node, Num) and isinstance(rhs, Num) and rhs.value != 0.0:
                # rational literal such as 7/8: fold to a double at parse time
                node = Num(node.value / rhs.value)
            else:
                node = BinOp(op, node, rhs)
        return node

    def unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, idx = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(value)
                self.advance()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                expected = FUNCTIONS[value]
                if len(args) != expected:
                    raise ArityError(value, expected, len(args))
                return Call(value, tuple(args))
            if value not in self.variables:
                raise UnknownVariableError(value)
            return Var(value)
        if kind == "op" and value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected a number, variable, function call or parenthesis")
        raise AssertionError("unreachable")


def parse(text: str, variables: Iterable[str]) -> Expr:
    """Parse ``text`` over the declared variable set into an immutable tree."""
    return _Parser(text, frozenset(variables)).parse()


_UNARY_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
}
_BINARY_CALLS = {"min": np.minimum, "max": np.maximum}


def _check_finite(value: Number, what: str) -> Number:
    if not np.all(np.isfinite(value)):
        raise DomainError(f"non-finite value produced by {what}")
    return value


def evaluate(expr: Expr, env: Mapping[str, Number]) -> Number:
    """Evaluate ``expr`` in ``env``; scalar in, scalar out, arrays broadcast.

    Evaluation is total over the reals: any excursion to inf or NaN raises
    DomainError instead of propagating.
    """
    with np.errstate(all="ignore"):
        return _eval(expr, env)


def _eval(expr: Expr, env: Mapping[str, Number]) -> Number:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnknownVariableError(expr.name) from None
    if isinstance(expr, Neg):
        return -_eval(expr.operand, env)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, env)
        right = _eval(expr.right, env)
        if expr.op == "+":
            return _check_finite(left + right, "addition")
        if expr.op == "-":
            return _check_finite(left - right, "subtraction")
        if expr.op == "*":
            return _check_finite(left * right, "multiplication")
        if expr.op == "/":
            return _check_finite(np.divide(left, right), "division")
        if expr.op == "^":
            return _check_finite(np.power(left, right), "exponentiation")
        raise AssertionError(f"bad operator {expr.op!r}")
    if isinstance(expr, Call):
        args = [_eval(a, env) for a in expr.args]
        if expr.func in _UNARY_CALLS:
            return _check_finite(_UNARY_CALLS[expr.func](args[0]), expr.func)
        return _check_finite(_BINARY_CALLS[expr.func](args[0], args[1]), expr.func)
    raise AssertionError(f"bad node {expr!r}")
