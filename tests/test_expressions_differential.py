"""Differential tests: the ``expressions`` module against the oracles of
``helpers_expressions``.

``evaluate_expression`` evaluates through numpy, on floats and on arrays
alike; ``evaluate_scalar`` evaluates one Python float at a time with the
``math`` module.  Both apply one rule: every operator and function gives a
finite value, or the evaluation raises :class:`EvaluationError`.

``parse_expression`` scans its text in one regex pass and counts UTF-8
bytes only for an error; ``parse_oracle`` counts them token by token.  Both
give the same tree, or the same error at the same byte offset.
"""

import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_expressions import evaluate_scalar, parse_oracle  # noqa: E402
from test_expressions import _exprs  # noqa: E402

from cdl_compass.expressions import (
    BinOp,
    Call,
    EvaluationError,
    Neg,
    evaluate_expression,
    format_expression,
    parse_expression,
)

NAMES = ("x", "y", "z")
TREES = st.one_of(_exprs(3), _exprs(3).map(lambda e: Call("log", e)))
VALUES = st.one_of(
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200, 1e300]),
)
RAISED = "EvaluationError"


def outcome(evaluate):
    try:
        return evaluate()
    except EvaluationError:
        return RAISED


def uses_libm(e) -> bool:
    """Does the tree hold a function or a power?  numpy and ``math`` round
    those by different code, and differ in the last bit on a few percent
    of inputs."""
    if isinstance(e, Call) or (isinstance(e, BinOp) and e.op == "**"):
        return True
    if isinstance(e, BinOp):
        return uses_libm(e.left) or uses_libm(e.right)
    if isinstance(e, Neg):
        return uses_libm(e.operand)
    return False


@settings(max_examples=400, deadline=None)
@given(TREES, st.fixed_dictionaries({name: VALUES for name in NAMES}))
def test_scalars_match_oracle(e, env):
    want = outcome(lambda: evaluate_scalar(e, env))
    got = outcome(lambda: evaluate_expression(e, env))
    if RAISED in (want, got):
        assert got == want
        return
    assert type(got) is float
    if uses_libm(e):
        assert math.isclose(got, want, rel_tol=1e-9)
    else:
        assert got == want


@st.composite
def columns(draw):
    rows = draw(st.integers(1, 6))
    return {name: draw(st.lists(VALUES, min_size=rows, max_size=rows)) for name in NAMES}


@settings(max_examples=300, deadline=None)
@given(TREES, columns())
def test_arrays_match_elements(e, cols):
    rows = len(cols["x"])
    singles = [
        outcome(lambda: evaluate_expression(e, {name: cols[name][i] for name in NAMES}))
        for i in range(rows)
    ]
    whole = outcome(lambda: evaluate_expression(e, {n: np.array(c) for n, c in cols.items()}))
    if isinstance(whole, str):
        assert RAISED in singles
        return
    assert RAISED not in singles
    assert np.broadcast_to(whole, (rows,)).tobytes() == np.array(singles).tobytes()


# Grammar pieces, stray characters and non-ASCII whitespace, which is one
# character but two or three bytes of UTF-8.
STRAYS = ["@", "$", "é", "\u00a0", "\u2003"]
FRAGMENTS = [
    "x", "y1", "_z", "e", "E", "exp", "log", "sin", "foo",
    "0", "1", "2.5", ".5", "3.", "1e3", "2E-2", "1e999", "0.0", "\u0661",
    "+", "-", "*", "**", "/", "(", ")", " ", "\t", "\n", *STRAYS,
]


@st.composite
def edited_trees(draw):
    """A printed tree, its spaces maybe made non-ASCII, with up to two
    fragments inserted anywhere."""
    text = format_expression(draw(_exprs(3)))
    text = text.replace(" ", draw(st.sampled_from([" ", "\u00a0", "\u2003"])))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    return text


TEXTS = st.one_of(
    edited_trees(),
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join),
    st.text(alphabet="0123456789.eExy_+-*/() \t" + "".join(STRAYS), max_size=16),
)


def parsed(parse, text):
    """The tree, or the class, byte offset and message of the error."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)


@settings(max_examples=800, deadline=None)
@given(TEXTS)
def test_parser_matches_oracle(text):
    assert parsed(parse_expression, text) == parsed(parse_oracle, text)
