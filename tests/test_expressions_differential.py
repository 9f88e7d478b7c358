"""Differential tests: the ``expressions`` module against the oracles of
``helpers_expressions``.

``evaluate_expression`` evaluates through numpy, on floats and on arrays
alike; ``evaluate_scalar`` evaluates one Python float at a time with the
``math`` module.  Both apply one rule: every operator and function gives a
finite value, or the evaluation raises :class:`EvaluationError`.

The package evaluates and prints a flat post-order program by one loop
over a stack; ``evaluate_tree`` and ``format_tree`` walk the same
expression as a tree by recursion.  Both give bit-identical values, the
same error texts, the same text and the same free variables.

``parse_expression`` scans its text in one regex pass, counts UTF-8 bytes
only for an error, and parses by one loop with an operator stack;
``parse_oracle`` counts bytes token by token and parses by recursive
descent.  Both give the same program, or the same error at the same byte
offset, on shallow texts and on texts nested up to 150 deep.
"""

import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_expressions import (  # noqa: E402
    BinOp,
    Call,
    Neg,
    evaluate_scalar,
    evaluate_tree,
    format_tree,
    free_names,
    parse_oracle,
    to_program,
)
from test_expressions import _exprs, _trees  # noqa: E402

from cdl_compass.expressions import (
    EvaluationError,
    evaluate_expression,
    format_expression,
    free_variables,
    parse_expression,
)

NAMES = ("x", "y", "z")
TREES = st.one_of(_trees(3), _trees(3).map(lambda e: Call("log", e)))
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
    got = outcome(lambda: evaluate_expression(to_program(e), env))
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
def test_arrays_match_elements(tree, cols):
    e = to_program(tree)
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


def exact(evaluate):
    """The value as its type, shape and bytes, or the error's text."""
    try:
        value = evaluate()
    except EvaluationError as exc:
        return str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


@settings(max_examples=400, deadline=None)
@given(TREES, st.one_of(st.fixed_dictionaries({name: VALUES for name in NAMES}), columns()))
def test_flat_walks_match_recursive_walks(tree, env):
    e = to_program(tree)
    env = {name: np.array(v) if isinstance(v, list) else v for name, v in env.items()}
    assert exact(lambda: evaluate_expression(e, env)) == exact(lambda: evaluate_tree(tree, env))
    assert format_expression(e) == format_tree(tree)
    assert free_variables(e) == free_names(tree)


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
    assert parsed(parse_expression, text) == parsed(lambda t: to_program(parse_oracle(t)), text)


# Prefixes that each open one level of nesting, with the text that closes it.
WRAPPERS = [("(", ")"), ("-", ""), ("x ** ", ""), ("exp(", ")"), ("log(", ")")]


@st.composite
def nested_texts(draw):
    """A printed tree inside 1 to 150 wrappers, which stays within the
    oracle's recursion limit, with maybe one fragment inserted anywhere."""
    wraps = [draw(st.sampled_from(WRAPPERS)) for _ in range(draw(st.integers(1, 150)))]
    core = format_expression(draw(_exprs(2)))
    text = "".join(o for o, _ in wraps) + core + "".join(c for _, c in reversed(wraps))
    for _ in range(draw(st.integers(0, 1))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(nested_texts())
def test_parser_matches_oracle_at_depth(text):
    assert parsed(parse_expression, text) == parsed(lambda t: to_program(parse_oracle(t)), text)
