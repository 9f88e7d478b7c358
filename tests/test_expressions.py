"""Expression parsing, printing, and evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdl_compass.expressions import (
    BinOp,
    Call,
    EvaluationError,
    ExpressionSyntaxError,
    Neg,
    Num,
    Var,
    evaluate_expression,
    format_expression,
    free_variables,
    parse_expression,
)


def roundtrip(text: str) -> str:
    return format_expression(parse_expression(text))


def value(text: str, **env: float) -> float:
    return evaluate_expression(parse_expression(text), env)


# ---------------------------------------------------------------------------
# Parsing and precedence


def test_terms_and_precedence():
    assert value("1 + 2 * 3") == 7.0
    assert value("(1 + 2) * 3") == 9.0
    assert value("2 * x + 1", x=3.0) == 7.0
    assert value("8 / 2 / 2") == 2.0  # left associative
    assert value("2 ** 3 ** 2") == 512.0  # right associative


def test_unary_minus_binds_tighter_than_power():
    # the one deliberate departure from Python's precedence table
    assert value("-3 ** 2") == 9.0
    assert value("-(3 ** 2)") == -9.0
    assert value("2 - 3 ** 2") == -7.0  # binary minus unaffected


def test_function_calls():
    assert value("exp(0)") == 1.0
    assert value("log(exp(2))") == pytest.approx(2.0)
    assert value("sin(0) + 1") == 1.0
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("tan(0)")


def test_ast_shape():
    e = parse_expression("a + b * c")
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.right, BinOp) and e.right.op == "*"
    assert parse_expression("x") == Var("x")
    assert parse_expression("2.5") == Num(2.5)
    assert parse_expression("-x") == Neg(Var("x"))
    call = parse_expression("exp(x)")
    assert isinstance(call, Call) and call.func == "exp"


def test_free_variables():
    assert free_variables(parse_expression("x * y + exp(z) - x")) == frozenset("xyz")
    assert free_variables(parse_expression("1 + 2")) == frozenset()


# ---------------------------------------------------------------------------
# Syntax errors carry byte offsets


@pytest.mark.parametrize(
    "text, offset",
    [
        ("1 +", 3),  # truncated
        ("(1 + 2", 6),  # unclosed paren
        ("1 ? 2", 2),  # stray operator
        ("x / 0", 4),  # division by literal zero
        ("exp()", 4),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text)
    assert err.value.offset == offset


def test_offsets_are_utf8_bytes():
    # NBSP is whitespace to the tokenizer but two bytes in UTF-8, so the
    # byte offset of the error after it exceeds the character offset
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x +")
    assert err.value.offset == 4  # char offset would be 3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("µ + 1")
    assert err.value.offset == 0  # non-ASCII is rejected where it stands


def test_division_by_literal_zero_is_a_parse_error():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 / 0")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 / 0.0")
    # only the literal is rejected at parse time; a variable is a runtime error
    e = parse_expression("1 / x")
    with pytest.raises(EvaluationError):
        evaluate_expression(e, {"x": 0.0})


# ---------------------------------------------------------------------------
# Evaluation errors


def test_unbound_variable_is_an_evaluation_error():
    with pytest.raises(EvaluationError):
        value("x + 1")


def test_domain_errors_are_evaluation_errors():
    with pytest.raises(EvaluationError):
        value("log(0 - 1)")
    # Each names the first binding, operator or function whose value is not
    # finite.
    cases = [
        ("sin(X * X)", {"X": 1e200}, "operator '*'"),
        ("X * X - X * X", {"X": 1e200}, "operator '*'"),
        ("X / Y", {"X": 1e300, "Y": 1e-300}, "operator '/'"),
        ("sin(X)", {"X": float("inf")}, "non-finite value bound to 'X'"),
        ("log(X)", {"X": 0.0}, "log()"),
        ("X ** 0.5", {"X": -1.0}, "operator '**'"),
    ]
    for text, env, where in cases:
        with pytest.raises(EvaluationError, match=re.escape(where)):
            value(text, **env)
        with pytest.raises(EvaluationError, match=re.escape(where)):
            value(text, **{k: np.array([1.0, v]) for k, v in env.items()})


# ---------------------------------------------------------------------------
# Printing


def test_format_minimal_parens():
    assert roundtrip("x + y * z") == "x + y * z"
    assert roundtrip("(x + y) * z") == "(x + y) * z"
    assert roundtrip("x ** (y ** z)") == "x ** y ** z"
    assert roundtrip("(x ** y) ** z") == "(x ** y) ** z"
    assert roundtrip("-(x ** 2)") == "-(x ** 2.0)"
    assert roundtrip("-x ** 2") == "-x ** 2.0"
    assert roundtrip("a - (b - c)") == "a - (b - c)"
    assert roundtrip("(a - b) - c") == "a - b - c"
    assert roundtrip("exp( x+1.5 )") == "exp(x + 1.5)"


def test_numbers_print_by_repr():
    assert format_expression(Num(2.5)) == "2.5"
    assert format_expression(Num(1e-07)) == "1e-07"
    assert roundtrip("2") == "2.0"  # literals are floats


# ---------------------------------------------------------------------------
# Properties: print-parse identity and evaluation stability

_names = st.sampled_from(["x", "y", "z"])


def _exprs(depth: int):
    if depth == 0:
        return st.one_of(
            st.integers(1, 9).map(lambda v: Num(float(v))),
            _names.map(Var),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/**".split() if False else ["+", "-", "*", "/", "**"]), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["exp", "sin"]), sub).map(lambda t: Call(t[0], t[1])),
    )


@given(_exprs(3))
def test_print_parse_identity(e):
    printed = format_expression(e)
    assert parse_expression(printed) == e


@given(_exprs(3), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_reprinting_preserves_value(e, x, y, z):
    env = {"x": x, "y": y, "z": z}
    try:
        first = evaluate_expression(e, env)
    except EvaluationError:
        return
    again = evaluate_expression(parse_expression(format_expression(e)), env)
    if math.isnan(first):
        assert math.isnan(again)
    else:
        assert again == first
