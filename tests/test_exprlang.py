"""Expression language: parsing, evaluation, folding, and error reporting."""
from __future__ import annotations

import ast
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamcert import exprlang
from hamcert.exprlang import (
    FUNCTIONS,
    ArityError,
    BinOp,
    Call,
    DomainError,
    ExprError,
    ExprSyntaxError,
    Neg,
    NotPolynomial,
    Num,
    Polynomial,
    UnknownFunctionError,
    UnknownVariableError,
    Var,
    evaluate,
    parse,
)
from hamcert.interval import Interval
from hamcert.model import KernelSpec


def ev(text: str, variables=(), **env):
    return evaluate(parse(text, variables), env)


CASES = [
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("2^3^2", 512.0),  # right-associative power
    ("-2^2", -4.0),  # unary minus binds looser than power
    ("2^-1", 0.5),
    ("7/32", 7 / 32),
    ("1 - 2 - 3", -4.0),
    ("12/3/2", 2.0),
    ("1e-3 + 2E2", 200.001),
    ("min(3, 5)", 3.0),
    ("max(3, 5)", 5.0),
    ("abs(0 - 2.5)", 2.5),
    ("sqrt(49)", 7.0),
    ("exp(0)", 1.0),
    ("cos(0)", 1.0),
    ("sin(0)", 0.0),
    ("2 + cos(3*4)", 2 + math.cos(12.0)),
]


@pytest.mark.parametrize("text,expected", CASES)
def test_constant_expressions(text, expected):
    assert ev(text) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_rational_literals_fold_to_numbers():
    # constants like 7/32 in problem files must not lose precision
    node = parse("7/32", ())
    assert isinstance(node, Num)
    assert node.value == 0.21875


def test_variables_and_broadcasting():
    expr = parse("u1^2 + v1", ("u1", "v1"))
    out = evaluate(expr, {"u1": np.ones((3, 1)), "v1": np.zeros((1, 4))})
    assert np.shape(out) == (3, 4)
    assert np.all(out == 1.0)


def test_unknown_variable_rejected_at_parse_time():
    with pytest.raises(UnknownVariableError, match="x"):
        parse("x + 1", ())
    with pytest.raises(UnknownVariableError, match="u3"):
        parse("u1 + u3", ("u1", "u2"))


@pytest.mark.parametrize("text", ["1 + * 2", "(1+2", "1+", "", "2..5", "a b"])
def test_syntax_errors_carry_byte_offsets(text):
    with pytest.raises(ExprSyntaxError, match="byte offset"):
        parse(text, ("a", "b"))


PYTHON_ONLY = [
    "x**2", "0x10", "1_0", "1j", "True", "None", "s if t else s", "s < t", "not s", "+s",
    "s[0]", "s.real", "'a'", "lambda: 1", "min(s, b=2)", "min(*s)", "1 # c", "s;t", "(1, 2)",
    "x // 2", "x % 2", "x @ x", "~x", "ｓ", "007", "(sin)(s)", "min(s, t,)",
]


@pytest.mark.parametrize("text", PYTHON_ONLY)
def test_python_only_syntax_is_rejected(text):
    with pytest.raises(ExprError):
        parse(text, ("s", "t", "x"))


@pytest.mark.parametrize("text,offset", [
    ("s^2 + 1e400", 6),  # each '^' is one byte, though Python reads it as '**'
    ("  s^2^s + 1e400", 10),
    ("ρ + (", 5),  # bytes, not characters: 'ρ' is two
    ("s +\n 1e400", 5),
    ("s^2 +", 5),  # the end of the text
])
def test_offsets_count_bytes_of_the_text_as_written(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, ("s", "ρ"))
    assert exc.value.offset == offset


def test_ascii_whitespace_separates_tokens():
    assert parse(" \ts +\n t\r\n", ("s", "t")) == BinOp("+", Var("s"), Var("t"))


@pytest.mark.parametrize("text", ["1e400", "2 * 1e309", "s + 9e99999"])
def test_literals_that_overflow_are_rejected(text):
    with pytest.raises(ExprSyntaxError, match=r"bad numeric literal .*byte offset"):
        parse(text, ("s",))


def test_unknown_function():
    with pytest.raises(UnknownFunctionError, match="foo"):
        parse("foo(1)", ())


@pytest.mark.parametrize("text", ["min(1)", "sqrt(1, 2)", "max(1, 2, 3)"])
def test_arity_errors(text):
    with pytest.raises(ArityError):
        parse(text, ())


def test_domain_errors_on_non_finite_results():
    with pytest.raises(DomainError):
        ev("sqrt(0 - 1)")
    with pytest.raises(DomainError):
        ev("1/s", ("s",), s=0.0)
    with pytest.raises(DomainError):
        ev("exp(s)", ("s",), s=1e6)


def test_scalar_inputs_give_scalars():
    out = ev("t^2 + 1", ("t",), t=3.0)
    assert np.ndim(out) == 0
    assert float(out) == 10.0


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(x=finite, y=finite, z=finite)
def test_arithmetic_matches_python(x, y, z):
    expr = parse("x - y - z + x*y", ("x", "y", "z"))
    assert evaluate(expr, {"x": x, "y": y, "z": z}) == pytest.approx(
        (x - y) - z + x * y, rel=1e-12, abs=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(x=finite)
def test_trig_identity(x):
    assert ev("sin(x)^2 + cos(x)^2", ("x",), x=x) == pytest.approx(1.0, abs=1e-12)


VARS = ("t", "s", "u1")
LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}  # unary minus is 3, atoms 5


def show(node, need: int = 1) -> str:
    """``node`` with the fewest parentheses; wrapped if it binds looser than ``need``."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(show(a) for a in node.args)})"
    if isinstance(node, Neg):
        level, text = 3, "-" + show(node.operand, 3)
    elif node.op == "^":  # an atom base and a unary exponent
        level, text = 4, show(node.left, 5) + "^" + show(node.right, 3)
    else:  # left-associative: the right operand binds one level tighter
        level = LEVEL[node.op]
        text = show(node.left, level) + node.op + show(node.right, level + 1)
    return f"({text})" if level < need else text


def _grow(children):
    def call(func):
        args = st.lists(children, min_size=FUNCTIONS[func], max_size=FUNCTIONS[func])
        return args.map(lambda a: Call(func, tuple(a)))

    binops = st.builds(BinOp, st.sampled_from("+-*/^"), children, children).filter(
        lambda b: not (b.op == "/" and isinstance(b.left, Num) and isinstance(b.right, Num))
    )  # Num / Num folds to a Num at parse time
    return st.one_of(children.map(Neg), binops, st.sampled_from(sorted(FUNCTIONS)).flatmap(call))


trees = st.recursive(
    st.one_of(
        st.sampled_from(VARS).map(Var),
        st.floats(0.0, 1e30, allow_nan=False).map(lambda x: Num(abs(x))),
    ),
    _grow,
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(tree=trees)
def test_grammar_round_trips(tree):
    assert parse(show(tree), VARS) == tree


@pytest.mark.parametrize("text,tree", [
    ("a^-b^c", BinOp("^", Var("a"), Neg(BinOp("^", Var("b"), Var("c"))))),
    ("-a^b*c", BinOp("*", Neg(BinOp("^", Var("a"), Var("b"))), Var("c"))),
    ("-7/8", BinOp("/", Neg(Num(7.0)), Num(8.0))),  # not folded: -7 is not a literal
    ("7/8*t", BinOp("*", Num(0.875), Var("t"))),
])
def test_precedence_and_folding(text, tree):
    assert parse(text, ("a", "b", "c", "t")) == tree


# ------------------------------------------------- compiled trees against the walk


def _finite(value, what):
    if not np.all(np.isfinite(value)):
        raise DomainError(f"non-finite value produced by {what}")
    return value


WALK_BINOPS = {"+": ("addition", lambda a, b: a + b), "-": ("subtraction", lambda a, b: a - b),
               "*": ("multiplication", lambda a, b: a * b), "/": ("division", np.divide),
               "^": ("exponentiation", np.power)}
WALK_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "sqrt": np.sqrt,
              "min": np.minimum, "max": np.maximum}


def walk(expr, env):
    """The reference: the tree walk that evaluated every tree before trees were compiled."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -walk(expr.operand, env)
    if isinstance(expr, BinOp):
        left = walk(expr.left, env)
        right = walk(expr.right, env)
        what, fn = WALK_BINOPS[expr.op]
        return _finite(fn(left, right), what)
    args = [walk(a, env) for a in expr.args]
    return _finite(WALK_CALLS[expr.func](*args), expr.func)


POINTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e300, -1e300]
values_of_t = st.one_of(st.sampled_from(POINTS),  # t along a column, s along a row
                        st.lists(st.sampled_from(POINTS), min_size=1, max_size=4)
                        .map(lambda v: np.array(v)[:, None]))
values_of_s = st.one_of(st.sampled_from(POINTS), st.sampled_from(POINTS).map(np.float64),
                        st.lists(st.sampled_from(POINTS), min_size=1, max_size=4).map(np.array))
trees_in_t_s = st.recursive(
    st.one_of(st.sampled_from(("t", "s")).map(Var),
              st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e30]).map(Num)),
    _grow,
    max_leaves=10,
)


@settings(max_examples=500, deadline=None)
@given(tree=trees_in_t_s, t=values_of_t, s=values_of_s)
def test_a_compiled_tree_gives_what_the_walk_gives(tree, t, s):
    env = {"t": t, "s": s}
    try:
        with np.errstate(all="ignore"):
            expected = walk(tree, env)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            evaluate(tree, env)
        assert str(got.value) == str(exc)
        return
    got = evaluate(tree, env)
    assert type(got) is type(expected)  # a Python float, a numpy scalar or an array
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).dtype == np.asarray(expected).dtype
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("text", [
    "min(1/s, 2)", "exp(0 - 1/s)", "(1/s)^0", "1/(1/s)", "max(0 - 1/s, 1)",
])
def test_an_inner_inf_is_reported_where_a_later_operation_would_absorb_it(text):
    # each would be finite at s = 0 if only the result were checked
    for s in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(DomainError, match="^non-finite value produced by division$"):
            ev(text, ("s",), s=s)


def test_an_infinite_variable_passes_an_operation_that_absorbs_it():
    assert ev("min(u, 1)", ("u",), u=math.inf) == 1.0
    with pytest.raises(DomainError, match="by addition$"):
        ev("u + 1", ("u",), u=math.inf)


def test_a_missing_variable_is_reported_by_name():
    with pytest.raises(UnknownVariableError, match="'s'"):
        evaluate(parse("t + s", ("t", "s")), {"t": 1.0})


def test_evaluation_compiles_a_tree_once_and_leaves_it_as_it_was(monkeypatch):
    text = "s^2 + sin(t)/min(s, t)"
    tree = parse(text, ("s", "t"))
    before = (hash(tree), repr(tree))
    compiled = []
    real = exprlang._compile
    monkeypatch.setattr(exprlang, "_compile", lambda *a, **k: compiled.append(a) or real(*a, **k))
    assert evaluate(tree, {"s": 1.0, "t": 2.0}) == 1.0 + math.sin(2.0)
    assert evaluate(tree, {"s": 2.0, "t": 2.0}) == 4.0 + math.sin(2.0) / 2.0
    assert len(compiled) == 1
    assert tree == parse(text, ("s", "t"))
    assert (hash(tree), repr(tree)) == before


ODD_NAME = "a']; x=('"
HAND_BUILT = [
    (BinOp("^", Num(-1.0), Num(2.0)), {}, 1.0),
    (BinOp("+", Num(math.inf), Num(1.0)), {}, "non-finite value produced by addition"),
    (BinOp("*", Var(ODD_NAME), Num(2.0)), {ODD_NAME: 1.5}, 3.0),
]
HELPERS = {"env", "run", "DomainError", *exprlang._HELPERS}


@pytest.mark.parametrize("tree,env,expected", HAND_BUILT)
def test_hand_built_trees_evaluate_and_no_tree_text_enters_the_source(tree, env, expected):
    if isinstance(expected, str):
        with pytest.raises(DomainError, match=f"^{expected}$"):
            evaluate(tree, env)
    else:
        assert evaluate(tree, env) == expected
    for strict in (False, True):
        source = exprlang._compile(tree, strict)[1]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                assert node.id in HELPERS or re.fullmatch(r"[cv]\d+", node.id)
            if isinstance(node, ast.Constant):  # only the variable's key and the messages
                assert node.value == ODD_NAME or node.value.startswith("non-finite value")


# ---------------------------------------------------------------- polynomials in t


def in_t(tree, s):
    """The tree evaluated with t the Polynomial variable of degree cap 3."""
    return evaluate(tree, {"t": Polynomial({1: 1.0}, 3), "s": s})


@pytest.mark.parametrize("text", ["s*(7/8*t - t^2)", "(t - s)^3", "t^2/(1 + s)", "-t*exp(s)"])
def test_coefficients_in_t_sum_back_to_the_tree(text):
    tree = parse(text, ("t", "s"))
    t, s = np.linspace(0.0, 1.0, 41)[:, None], np.linspace(0.0, 1.0, 37)[None, :]
    coefficients = in_t(tree, s).terms
    direct = evaluate(tree, {"t": t, "s": s})
    terms = [t**p * c for p, c in coefficients.items()]
    scale = max(np.max(np.abs(term)) for term in terms)  # (t - s)^3 cancels terms up to 3
    assert np.max(np.abs(sum(terms) - direct)) <= 4 * np.finfo(float).eps * scale
    for c in coefficients.values():
        assert np.shape(c) in ((), s.shape)  # free of t


@pytest.mark.parametrize(
    "text", ["exp(t)", "t/(1 + t)", "sin(t*s)", "t^0.5", "min(t, s)", "abs(t - s)", "t^4"])
def test_a_tree_that_is_no_polynomial_of_degree_three_in_t_has_no_coefficients(text):
    tree = parse(text, ("t", "s"))
    with pytest.raises(NotPolynomial):
        in_t(tree, np.empty(0))
    assert KernelSpec.from_expressions(tree, tree).pieces() is None


def test_coefficients_of_a_tree_free_of_t_and_of_a_zeroth_power():
    s = np.linspace(0.0, 1.0, 37)
    tree = parse("s*exp(s)", ("t", "s"))
    assert np.array_equal(in_t(tree, s), evaluate(tree, {"s": s}))  # no Polynomial at all
    zeroth = in_t(parse("s*t^0", ("t", "s")), s).terms
    assert list(zeroth) == [0] and np.array_equal(zeroth[0], s)
    second = in_t(parse("s*t^2", ("t", "s")), s).terms
    assert list(second) == [2] and np.array_equal(second[2], s)  # t^0 and t^1: never computed


# every operation a compiled function performs: a sign, and each operation of the language
OPERATION_TREES = [Neg(Var("x"))] + [
    Call(op, (Var("x"), Var("y"))[:FUNCTIONS[op]]) if op in FUNCTIONS
    else BinOp(op, Var("x"), Var("y")) for op in exprlang._OPERATIONS]


@pytest.mark.parametrize("tree", OPERATION_TREES, ids=["sign", *exprlang._OPERATIONS])
def test_every_operation_has_an_interval_and_a_polynomial_rule(tree):
    run = exprlang._compile(tree, strict=True)[0]  # isfinite after every operation
    assert isinstance(run({"x": Interval(0.5, 0.75), "y": Interval(2.0)}), Interval)
    t = Polynomial({1: 1.0}, 3)
    try:  # an operation with no rule raises TypeError
        assert isinstance(run({"x": t, "y": t}), Polynomial)
    except NotPolynomial:
        pass


def _children(node):
    return ((node.operand,) if isinstance(node, Neg) else (node.left, node.right)
            if isinstance(node, BinOp) else node.args if isinstance(node, Call) else ())


def _size(node) -> int:
    return 1 + sum(map(_size, _children(node)))


def _has_t(node) -> bool:
    return node == Var("t") or any(map(_has_t, _children(node)))


def _magnitude(node, t, s):
    """The value with every operation on t taken on absolute values.  A part free of t is
    computed alike in both evaluations, and is a polynomial's divisor or exponent."""
    if not _has_t(node):
        return np.abs(evaluate(node, {"s": s}))
    if node == Var("t"):
        return np.abs(t)
    if isinstance(node, Neg):
        return _magnitude(node.operand, t, s)
    a = _magnitude(node.left, t, s)
    if node.op in "+-*":
        b = _magnitude(node.right, t, s)
        return a * b if node.op == "*" else a + b
    b = evaluate(node.right, {"s": s})
    return a / np.abs(b) if node.op == "/" else a**b


def _grow_in_t(children):
    def call(func):
        args = st.lists(children, min_size=FUNCTIONS[func], max_size=FUNCTIONS[func])
        return args.map(lambda a: Call(func, tuple(a)))

    sums = st.builds(BinOp, st.sampled_from("+-"), children, children)
    return st.one_of(
        st.builds(BinOp, st.just("*"), sums | children, sums | children), sums,
        children.map(Neg), st.builds(BinOp, st.sampled_from("/^"), children, children),
        st.builds(BinOp, st.just("^"), children, st.sampled_from([0.0, 1.0, 2.0, 3.0]).map(Num)),
        st.sampled_from(sorted(FUNCTIONS)).flatmap(call))


_atoms_in_t = st.one_of(st.sampled_from(("t", "t", "s")).map(Var),
                        st.sampled_from([0.5, 0.875, 1.0, 1.1, 2.0, 3.0]).map(Num))
trees_in_t = st.recursive(  # weighted to products of sums such as t + 1, which collect terms
    _atoms_in_t | st.builds(BinOp, st.sampled_from("+-"), _atoms_in_t, _atoms_in_t),
    _grow_in_t, max_leaves=8)


@settings(max_examples=500, deadline=None)
@given(tree=trees_in_t)
def test_a_polynomial_in_t_sums_back_to_the_float_evaluation(tree):
    # Either sum is off by at most about eps/2 per rounding times the tree's magnitude (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, ch. 3): one per operation, times
    # up to 3 under a power, and 4 coefficient terms per product, then 2 per term of the sum.
    # The largest term is no scale: (t + 1)^3 - t^3 - 3*t^2 - 3*t has the one term 1.
    t, s = np.linspace(0.0, 1.0, 9)[:, None], np.linspace(0.013, 0.987, 12)[None, :]
    try:
        value = in_t(tree, s)
        direct = evaluate(tree, {"t": t, "s": s})
    except NotPolynomial:
        return
    except DomainError:
        assume(False)
    terms = value.terms if isinstance(value, Polynomial) else {0: value}
    assert all(np.shape(c) in ((), s.shape) for c in terms.values())  # free of t
    total = sum(t**p * c for p, c in terms.items())
    bound = 4 * (_size(tree) + 4) * np.finfo(float).eps * _magnitude(tree, t, s)
    assert np.all(np.abs(total - direct) <= bound)


def test_a_bare_number_evaluates_to_its_value_without_compiling(monkeypatch):
    compiled = []
    monkeypatch.setattr(exprlang, "_compile", lambda *a, **k: compiled.append(a))
    tree = Num(math.inf)
    assert evaluate(tree, {}) is tree.value
    assert compiled == []
