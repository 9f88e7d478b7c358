"""Expression parsing, printing, and evaluation."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_expressions import BinOp, Call, Neg, Num, Var, to_program  # noqa: E402

from cdl_compass.expressions import (
    EvaluationError,
    Expression,
    ExpressionSyntaxError,
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
    # One post-order program, operands first.
    assert parse_expression("a + b * c").program == (
        ("var", "a"), ("var", "b"), ("var", "c"), ("op", "*"), ("op", "+"),
    )
    assert parse_expression("x") == Expression([("var", "x")])
    assert parse_expression("2.5") == Expression([("num", 2.5)])
    assert parse_expression("-x") == Expression([("var", "x"), ("neg", "-")])
    assert parse_expression("exp(x)") == Expression([("var", "x"), ("call", "exp")])


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


@pytest.mark.parametrize(
    "build,error,message",
    [
        (
            lambda: Expression([("num", 1.0), ("num", 2.0), ("op", "%")]),
            ValueError,
            "unknown operator '%'; expected one of ('+', '-', '*', '/', '**')",
        ),
        (
            lambda: Expression([("num", 1.0), ("call", "foo")]),
            ValueError,
            "unknown function 'foo'; expected one of ('exp', 'log', 'sin')",
        ),
        # An Expression refuses a faulty program (see test_validation_rules),
        # so a walk meets a fault only in what it is given.
        (lambda: format_expression("x"), TypeError, "not an expression node: 'x'"),
        (lambda: free_variables(2.0), TypeError, "not an expression node: 2.0"),
        (lambda: evaluate_expression("x", {}), TypeError, "not an expression node: 'x'"),
        # Neither prints as text that reads back: '-1.0' is 1.0 negated, and
        # the parser refuses a division by the literal zero.
        (
            lambda: Expression([("var", "x"), ("num", -1.0), ("op", "-")]),
            ValueError,
            "numeric literal -1.0 carries a minus sign; negate with ('neg', '-')",
        ),
        (
            lambda: Expression([("var", "x"), ("num", 0.0), ("op", "/")]),
            ValueError,
            "instruction 2 divides by the literal zero",
        ),
    ],
    ids=[
        "operator", "function", "format", "free-variables", "evaluate",
        "negative-literal", "division-by-zero",
    ],
)
def test_malformed_nodes_are_named(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


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
# Depth


def test_long_chain_works():
    # The parser loops over a sum, and the program is flat, so a sum of any
    # length is held, compared, printed and evaluated.
    text = " + ".join(["0.5 * X"] * 100_000)
    e = parse_expression(text)
    again = parse_expression(text)
    assert e == again and hash(e) == hash(again)
    assert repr(e).startswith("Expression(program=(('num', 0.5), ('var', 'X'), ('op', '*'), ")
    assert free_variables(e) == frozenset({"X"})
    assert format_expression(e) == text  # which parses to e, as again shows
    assert evaluate_expression(e, {"X": 2.0}) == 100_000.0
    assert value("-" * 300 + "X", X=2.0) == 2.0


NEST = 3000


@pytest.mark.parametrize(
    "text, program, printed, want",
    [
        ("(" * NEST + "X" + ")" * NEST, [("var", "X")], "X", 1.0),
        ("(" * 100_000 + "X" + ")" * 100_000, [("var", "X")], "X", 1.0),
        ("-" * NEST + "X", [("var", "X")] + [("neg", "-")] * NEST, "-" * NEST + "X", 1.0),
        (
            "X ** " * NEST + "X",
            [("var", "X")] * (NEST + 1) + [("op", "**")] * NEST,
            "X ** " * NEST + "X",
            1.0,
        ),
        (
            "exp(" * NEST + "X" + ")" * NEST,
            [("var", "X")] + [("call", "exp")] * NEST,
            "exp(" * NEST + "X" + ")" * NEST,
            "non-finite result from exp()",
        ),
    ],
    ids=["parentheses", "parentheses-100k", "negations", "powers", "calls"],
)
def test_nesting_of_any_depth_parses(text, program, printed, want):
    # Far past the recursion limit: the parser is one loop over the tokens.
    e = parse_expression(text)
    assert e == Expression(program)
    assert format_expression(e) == printed
    assert parse_expression(printed) == e
    try:
        got = evaluate_expression(e, {"X": 1.0})
    except EvaluationError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("char", ["-", "("])
def test_unfinished_nesting_at_any_depth_is_a_syntax_error(char):
    for n in [*range(64), NEST, 100_000]:
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(char * n)
        assert err.value.offset == n
        assert str(err.value) == (
            f"byte {n}: expected a number, identifier, or '(', found end of input"
        )


DEPTH = 100_000


@pytest.mark.parametrize(
    "program, step",
    [
        ([("var", "X")] + [("neg", "-")] * DEPTH, lambda v: -v),
        ([("var", "X")] + [("call", "sin")] * DEPTH, np.sin),
        ([("num", 1.0)] * DEPTH + [("var", "X")] + [("op", "-")] * DEPTH, lambda v: 1.0 - v),
    ],
    ids=["negation", "call", "right-operand"],
)
def test_deep_program_built_by_hand_evaluates(program, step):
    # Far past the recursion limit: each walk is one loop over the program.
    e = Expression(program)
    assert free_variables(e) == frozenset({"X"})
    assert format_expression(e).count("X") == 1
    want = np.float64(0.5)
    for _ in range(DEPTH):
        want = step(want)
    assert evaluate_expression(e, {"X": 0.5}) == want


# ---------------------------------------------------------------------------
# Printing


def test_format_minimal_parens():
    assert roundtrip("x + y * z") == "x + y * z"
    assert roundtrip("(x + y) * z") == "(x + y) * z"
    assert roundtrip("x ** (y ** z)") == "x ** y ** z"
    assert roundtrip("(x ** y) ** z") == "(x ** y) ** z"
    assert roundtrip("2 ** (X + 1)") == "2.0 ** (X + 1.0)"
    assert roundtrip("-(x ** 2)") == "-(x ** 2.0)"
    assert roundtrip("-x ** 2") == "-x ** 2.0"
    assert roundtrip("a - (b - c)") == "a - (b - c)"
    assert roundtrip("(a - b) - c") == "a - b - c"
    assert roundtrip("exp( x+1.5 )") == "exp(x + 1.5)"


def test_numbers_print_by_repr():
    assert format_expression(Expression([("num", 2.5)])) == "2.5"
    assert format_expression(Expression([("num", 1e-07)])) == "1e-07"
    assert roundtrip("2") == "2.0"  # literals are floats


# ---------------------------------------------------------------------------
# Properties: print-parse identity and evaluation stability

_names = st.sampled_from(["x", "y", "z"])


def _trees(depth: int):
    """Trees of the oracle's nodes, up to ``depth`` operators deep."""
    if depth == 0:
        return st.one_of(
            st.integers(1, 9).map(lambda v: Num(float(v))),
            _names.map(Var),
        )
    sub = _trees(depth - 1)
    return st.one_of(
        sub,
        sub.map(Neg),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "**"]), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["exp", "sin"]), sub).map(lambda t: Call(t[0], t[1])),
    )


def _exprs(depth: int):
    return _trees(depth).map(to_program)


@given(_exprs(3))
def test_print_parse_identity(e):
    printed = format_expression(e)
    assert parse_expression(printed) == e


@st.composite
def stack_programs(draw):
    """Instruction lists that leave one value on a stack, drawn directly, not
    through the parser or a tree: literals of any sign, and every operator
    and function."""
    program, depth = [], 0
    for _ in range(draw(st.integers(1, 24))):
        kinds = ["num", "var"]
        if depth >= 1:
            kinds += ["neg", "call"]
        if depth >= 2:
            kinds.append("op")
        kind = draw(st.sampled_from(kinds))
        if kind == "num":
            arg = draw(st.one_of(st.floats(0.0), st.sampled_from([0.0, 2.5, -0.0, -1.0])))
        elif kind == "var":
            arg = draw(st.sampled_from(["x", "y", "exp", "_z"]))
        elif kind == "neg":
            arg = "-"
        elif kind == "call":
            arg = draw(st.sampled_from(["exp", "log", "sin"]))
        else:
            arg = draw(st.sampled_from(["+", "-", "*", "/", "**"]))
        program.append((kind, arg))
        depth += {"num": 1, "var": 1, "op": -1}.get(kind, 0)
    for _ in range(depth - 1):
        program.append(("op", draw(st.sampled_from(["+", "-", "*", "/", "**"]))))
    return program


# A program drawn whole can hold a literal that no parse gives, and a
# division by the literal zero, which the parser refuses.
NOT_PARSED = (
    r"^(numeric literals must be finite"
    r"|numeric literal .* carries a minus sign; negate with \('neg', '-'\)"
    r"|instruction \d+ divides by the literal zero)$"
)


@given(stack_programs())
def test_every_program_the_constructor_accepts_round_trips(program):
    try:
        e = Expression(program)
    except ValueError as exc:
        assert re.match(NOT_PARSED, str(exc))
        return
    assert parse_expression(format_expression(e)) == e


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
