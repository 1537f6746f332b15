"""Arithmetic expression language for kernels, weights, envelopes and nonlinearities.

Expressions are parsed once into immutable syntax trees and evaluated in IEEE
double precision, either on scalars or elementwise on numpy arrays.  Python's
own parser (``ast``) reads the text, with ``^`` standing for Python's ``**``,
and only this small part of Python's grammar is accepted:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative exponent
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sin, cos, exp, abs, sqrt (unary) and min, max (binary).  A literal
quotient such as 7/8 is folded to its double-precision value at parse time.
NUMBER is a decimal literal (2, 0.07, .5, 1e-3); as in Python, an integer may
not have leading zeros (007 is an error, 00.5 is not).  VAR is a declared
variable, spelled exactly as declared.  Everything else Python would read is
an error: ``**``, ``#``, unary ``+``, ``~``, ``not``, ``//``, ``%``, ``@``,
comparisons, conditionals, strings, tuples, subscripts, attributes, keyword,
starred or trailing-comma arguments, and hexadecimal, underscored or imaginary
literals.  Tokens are separated by ASCII whitespace.  More than 200 nested
parentheses, or nesting too deep to parse, is a syntax error.  Error offsets
count bytes of the text as written.
"""

from __future__ import annotations

import ast
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

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# '^' is Python's '**'; ASCII whitespace becomes a space, so the text is one line
_TO_PYTHON = str.maketrans({"^": "**", **dict.fromkeys("\t\n\r\v\f", " ")})
_DECIMAL = frozenset("0123456789.eE+-")


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def parse(text: str, variables: Iterable[str]) -> Expr:
    """Parse ``text`` over the declared variable set into an immutable tree."""
    for banned in ("**", "#"):  # not the language's power; Python would read a comment
        if banned in text:
            raise ExprSyntaxError(f"unexpected {banned!r}", _byte_offset(text, text.index(banned)))
    source = text.translate(_TO_PYTHON)
    body = source.lstrip(" ")  # Python reads leading space as an indent
    lead = len(source) - len(body)
    raw = body.encode()
    names = frozenset(variables)

    def fail(message: str, col: int) -> ExprSyntaxError:
        """The error at byte ``col`` of ``raw``, located in ``text``: each '**' was one '^'."""
        return ExprSyntaxError(message, lead + col - raw[:col].count(b"**"))

    def source_of(node: ast.AST) -> str:
        return raw[node.col_offset:node.end_col_offset].decode()

    def convert(node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            literal = source_of(node)
            if set(literal) <= _DECIMAL:
                value = float(literal)
                if not np.isfinite(value):
                    raise fail(f"bad numeric literal {literal!r}", node.col_offset)
                return Num(value)
        elif isinstance(node, ast.Name):  # by its text, as Python folds 'ｓ' to 's'
            name = source_of(node)
            if name not in names:
                raise UnknownVariableError(name)
            return Var(name)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(convert(node.operand))
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = convert(node.left), convert(node.right)
            if (isinstance(node.op, ast.Div) and isinstance(left, Num) and isinstance(right, Num)
                    and right.value != 0.0):
                # rational literal such as 7/8: fold to a double at parse time
                return Num(left.value / right.value)
            return BinOp(_BINOPS[type(node.op)], left, right)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.col_offset == node.col_offset and not node.keywords
              and b"," not in raw[(node.args or [node.func])[-1].end_col_offset:
                                  node.end_col_offset]):
            # FUNC '(' expr (',' expr)* ')': no '(sin)(x)', no keywords, no trailing comma
            func = source_of(node.func)
            if func not in FUNCTIONS:
                raise UnknownFunctionError(func)
            args = tuple(convert(arg) for arg in node.args)
            if len(args) != FUNCTIONS[func]:
                raise ArityError(func, FUNCTIONS[func], len(args))
            return Call(func, args)
        raise fail(f"unexpected {source_of(node)!r}", node.col_offset)

    try:
        return convert(ast.parse(body, mode="eval").body)
    except SyntaxError as exc:  # exc.offset counts characters from 1, and is 0 at the end
        index = lead + exc.offset - 1 if exc.offset else len(source)
        offset = _byte_offset(text, index - source[:index].count("**"))
        raise ExprSyntaxError(exc.msg, offset) from None
    except (RecursionError, MemoryError):  # nesting deeper than Python's parser or stack
        raise ExprSyntaxError("expression nested too deeply", 0) from None


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
