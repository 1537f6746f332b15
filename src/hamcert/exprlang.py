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
count bytes of the text as written.  A tree is compiled into a Python function
on its first evaluation.  A DomainError names the first operation whose value
is not finite; a non-finite variable is an error only once an operation's
result carries it.  The compiled function also runs on Intervals and Polynomials.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Mapping, Union

import numpy as np

Number = Union[float, np.ndarray]

# operation: its Python source, its name in DomainError messages, and whether an inf or
# NaN operand can give a finite value, as 1/inf, inf^0, exp(-inf) and min(inf, 1) do
_OPERATIONS = {
    "+": ("{} + {}", "addition", False), "-": ("{} - {}", "subtraction", False),
    "*": ("{} * {}", "multiplication", False), "/": ("divide({}, {})", "division", True),
    "^": ("power({}, {})", "exponentiation", True),
    "sin": ("sin({})", "sin", False), "cos": ("cos({})", "cos", False),
    "exp": ("exp({})", "exp", True), "abs": ("absolute({})", "abs", False),
    "sqrt": ("sqrt({})", "sqrt", False),
    "min": ("minimum({}, {})", "min", True), "max": ("maximum({}, {})", "max", True),
}
FUNCTIONS: dict[str, int] = {  # name: arity
    name: source.count("{}") for name, (source, _, _) in _OPERATIONS.items() if name.isalpha()}


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


class _Node:
    __slots__ = ("_compiled",)  # evaluate's compiled tree; ==, hash and repr ignore it


@dataclass(frozen=True, slots=True)
class Num(_Node):
    value: float


@dataclass(frozen=True, slots=True)
class Var(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(_Node):
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp(_Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call(_Node):
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


_HELPERS = {f.__name__: f for f in (np.divide, np.power, np.sin, np.cos, np.exp, np.absolute,
                                     np.sqrt, np.minimum, np.maximum, np.isfinite)}
_CHECK = "    if not isfinite({}).all(): raise DomainError('non-finite value produced by {}')"


def _compile(expr: Expr, strict: bool) -> tuple[Callable[[Mapping[str, Number]], Number], str]:
    """A function of env that evaluates ``expr``, and its source: one statement per operation,
    in the walk's order, each deleting the temporaries v<k> it used.  Numbers are bound globals
    c<k> and variables repr-quoted env keys, so no text of the tree enters the source."""
    namespace = dict(_HELPERS, DomainError=DomainError)
    lines = ["def run(env):"]

    def emit(node: Expr, checked: bool) -> tuple[str, str | None]:
        """(operand text, name of the operation whose value's finiteness it shares).

        The value is checked if it is the result or an operand of an operation that can
        absorb inf or NaN (``checked``), and with ``strict`` after every operation."""
        if isinstance(node, Num):
            name = f"c{len(namespace)}"
            namespace[name] = node.value
            return name, None
        if isinstance(node, Var):
            return f"env[{node.name!r}]", None
        if isinstance(node, Neg):  # a sign keeps inf and NaN; the walk never checked it
            children, (text, what, absorbs) = (node.operand,), ("-{}", None, False)
        elif isinstance(node, BinOp):
            children, (text, what, absorbs) = (node.left, node.right), _OPERATIONS[node.op]
        else:
            children, (text, what, absorbs) = node.args, _OPERATIONS[node.func]
        operands, made_by = zip(*(emit(child, absorbs) for child in children))
        temp = f"v{len(lines)}"
        used = ", ".join(operand for operand in operands if operand[0] == "v")
        lines.append(f"    {temp} = {text.format(*operands)}" + (f"; del {used}" if used else ""))
        what = what or made_by[0]
        if what and (checked or strict):
            lines.append(_CHECK.format(temp, what))
        return temp, what

    lines.append(f"    return {emit(expr, True)[0]}")
    exec("\n".join(lines), namespace)
    return namespace["run"], "\n".join(lines)


def evaluate(expr: Expr, env: Mapping[str, Number]) -> Number:
    """Evaluate ``expr`` in ``env``; scalar in, scalar out, arrays broadcast.

    Evaluation is total over the reals: any excursion to inf or NaN raises
    DomainError instead of propagating.  The tree is compiled on its first evaluation; an
    error is found again with every operation checked, to name the first non-finite one.
    """
    if isinstance(expr, Num):  # a literal: its value, with no code to generate
        return expr.value
    try:
        run = expr._compiled
    except AttributeError:
        run = _compile(expr, strict=False)[0]
        object.__setattr__(expr, "_compiled", run)
    with np.errstate(all="ignore"):
        try:
            return run(env)
        except (DomainError, KeyError):
            pass
        try:
            _compile(expr, strict=True)[0](env)
        except KeyError as exc:
            raise UnknownVariableError(exc.args[0]) from None
    raise AssertionError(f"no error evaluating {expr!r} with every operation checked")


class NotPolynomial(ExprError):
    """Raised by an operation on a Polynomial whose value is no Polynomial within its cap."""


class Polynomial(np.lib.mixins.NDArrayOperatorsMixin):
    """sum_p x^p terms[p] in one variable x, of degree at most ``cap``.  A term is a number or
    an array free of x; a missing term is a zero never computed.  A compiled function runs on
    it unchanged; an operation with no polynomial value within ``cap`` raises NotPolynomial."""

    __slots__ = ("terms", "cap")

    def __init__(self, terms: dict[int, Number], cap: int):
        if max(terms) > cap:
            raise NotPolynomial(f"degree {max(terms)} above {cap}")
        self.terms, self.cap = terms, cap

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _POLYNOMIAL_RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        out = rule(*inputs)
        return Polynomial(out, self.cap) if isinstance(out, dict) else out


def _terms(x) -> dict:
    return x.terms if isinstance(x, Polynomial) else {0: x}


def _sum(a, b) -> dict:  # a term on one side only is that term, never 0.0 + x
    a, b = _terms(a), _terms(b)
    return {p: a[p] + b[p] if p in a and p in b else a.get(p, b.get(p)) for p in sorted({*a, *b})}


def _product(a, b) -> dict:
    out = {}
    for i, x in _terms(a).items():
        for j, y in _terms(b).items():
            out[i + j] = out[i + j] + x * y if i + j in out else x * y
    return out


def _power(x, y) -> dict:  # y products from the term 1.0
    if isinstance(y, Polynomial) or np.ndim(y) or not (0 <= y <= x.cap and float(y).is_integer()):
        raise NotPolynomial("no whole power up to the degree cap")
    return reduce(np.multiply, [x] * int(y), Polynomial({0: 1.0}, x.cap)).terms


def _refuse(*inputs):
    raise NotPolynomial("no polynomial")


# a rule for every operation a compiled function performs; every function of x refuses
_POLYNOMIAL_RULES = {
    np.add: _sum, np.subtract: lambda a, b: _sum(a, -b),  # a + (-b) is a - b bit for bit
    np.negative: lambda x: {p: -c for p, c in x.terms.items()}, np.multiply: _product,
    np.power: _power, np.divide: lambda a, b: _refuse() if isinstance(b, Polynomial) else {
        p: np.divide(c, b) for p, c in a.terms.items()},
    np.isfinite: lambda x: np.bool_(all(np.isfinite(c).all() for c in x.terms.values())),
    **dict.fromkeys((np.sin, np.cos, np.exp, np.absolute, np.sqrt, np.minimum, np.maximum),
                    _refuse),
}
