"""Differential tests: ``evaluate_expression`` against the scalar oracle.

``evaluate_expression`` evaluates through numpy, on floats and on arrays
alike; ``helpers_expressions.evaluate_scalar`` evaluates one Python float
at a time with the ``math`` module.  Both apply one rule: every operator
and function gives a finite value, or the evaluation raises
:class:`EvaluationError`.
"""

import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers_expressions import evaluate_scalar  # noqa: E402
from test_expressions import _exprs  # noqa: E402

from cdl_compass.expressions import BinOp, Call, EvaluationError, Neg, evaluate_expression

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
