"""Scalar expression evaluator for cross-checking ``evaluate_expression``.

Python floats and the ``math`` module, one node at a time: slow and
obviously correct.  It states the package's rule on its own terms: every
operator and function must give a finite value, or the evaluation raises
:class:`EvaluationError`.  Where Python raises instead (a logarithm of a
non-positive value, division by zero, an overflowing ``exp`` or power) or
gives a complex power, that is an :class:`EvaluationError` too.
"""

from __future__ import annotations

import math
from typing import Mapping

from cdl_compass.expressions import BinOp, Call, EvaluationError, Expression, Neg, Num, Var


def evaluate_scalar(e: Expression, env: Mapping[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvaluationError(f"unbound identifier {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate_scalar(e.operand, env)
    if isinstance(e, Call):
        arg = evaluate_scalar(e.arg, env)
        try:
            result = getattr(math, e.func)(arg)
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(f"{e.func}({arg!r}): {exc}") from None
        where = f"{e.func}({arg!r})"
    elif isinstance(e, BinOp):
        left = evaluate_scalar(e.left, env)
        right = evaluate_scalar(e.right, env)
        where = f"{left!r} {e.op} {right!r}"
        try:
            if e.op == "+":
                result = left + right
            elif e.op == "-":
                result = left - right
            elif e.op == "*":
                result = left * right
            elif e.op == "/":
                result = left / right
            else:
                result = left**right
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvaluationError(f"{where}: {exc}") from None
        if isinstance(result, complex):
            raise EvaluationError(f"{where} is complex")
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if not math.isfinite(result):
        raise EvaluationError(f"{where} is not finite")
    return float(result)
