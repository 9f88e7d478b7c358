"""Closed-form expressions: AST, parser, canonical printer, evaluator.

The grammar covers what explicit generating equations need: decimal
literals, identifiers, the four arithmetic operators, right-associative
power (``**``), unary minus, and the function set ``exp``, ``log``, ``sin``.

Precedence, tightest first: unary minus, ``**``, ``*`` ``/``, ``+`` ``-``.
Note that unary minus binds tighter than power here, so ``-x ** 2`` is
``(-x) ** 2``; write ``-(x ** 2)`` for the other reading.

Parsing is strict: unknown characters, unknown function names, and division
by a literal zero are rejected at parse time, with the byte offset of the
offending token in the error.  The canonical printer emits minimal
parentheses and round-trips: ``parse(format(e)) == e`` for every AST, and
printing is idempotent across a reparse.

One evaluator serves single values and whole samples alike: identifiers
may be bound to floats or to arrays, which numpy broadcasts, and every
operator and function must give finite values or raise
:class:`EvaluationError`.  numpy is imported only when an expression is
evaluated, so parsing and printing stay on the standard library.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Mapping, Union

from .graphs import _NAME, _check_name
from .lattice import _real


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position (UTF-8)."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


class EvaluationError(ValueError):
    """A well-formed expression failed to evaluate on the given bindings."""


# Parsing and the walks over a tree recurse; past the interpreter's recursion
# limit each refuses the tree by this text.  A walk catches in its own frames,
# so that no wrapper's frame lowers the depth it reaches.
_TOO_DEEP = "expression nests too deeply"


Expression = Union["Num", "Var", "Neg", "BinOp", "Call"]

FUNCTIONS = ("exp", "log", "sin")


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self) -> None:
        v = _real(self.value, "numeric literal")
        if not math.isfinite(v):
            raise ValueError("numeric literals must be finite")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)


@dataclass(frozen=True)
class Neg:
    operand: Expression

    def __post_init__(self) -> None:
        _check_node(self.operand, "operand")


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/", "**"):
            raise ValueError(f"unknown operator {self.op!r}")
        _check_node(self.left, "left")
        _check_node(self.right, "right")


@dataclass(frozen=True)
class Call:
    func: str
    arg: Expression

    def __post_init__(self) -> None:
        if self.func not in FUNCTIONS:
            raise ValueError(f"unknown function {self.func!r}; expected one of {FUNCTIONS}")
        _check_node(self.arg, "arg")


def _check_node(value: Any, name: str) -> None:
    if not isinstance(value, (Num, Var, Neg, BinOp, Call)):
        raise TypeError(f"{name} must be an expression node, got {value!r}")


_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>{_NAME.pattern})
  | (?P<op>\*\*|[+\-*/()])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Parser:
    """Recursive descent over ``(kind, text, start)`` tokens, where ``kind``
    is number, ident, op or end and ``start`` a character index; only an
    error turns ``start`` into the byte offset it reports."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise self.error(m.start(), f"unexpected character {m.group()!r}")
            if kind != "ws":
                self.tokens.append((kind, m.group(), m.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0

    def error(self, start: int, message: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(len(self.text[:start].encode("utf-8")), message)

    def peek(self) -> str:
        """The text of the next token; an operator is known by its text alone."""
        return self.tokens[self.pos][1]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            node = BinOp(self.take()[1], node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()[1]
            rhs_start = self.tokens[self.pos][2]
            rhs = self.parse_factor()
            if op == "/" and isinstance(rhs, Num) and rhs.value == 0.0:
                raise self.error(rhs_start, "division by literal zero")
            node = BinOp(op, node, rhs)
        return node

    def parse_factor(self) -> Expression:
        base = self.parse_unary()
        if self.peek() == "**":
            self.take()
            return BinOp("**", base, self.parse_factor())  # right-associative
        return base

    def parse_unary(self) -> Expression:
        if self.peek() == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expression:
        """A number, an identifier, or a parenthesized body, which a function
        name before it makes a call."""
        kind, text, start = self.take()
        if kind == "number":
            return Num(float(text))
        if kind == "ident":
            if self.peek() != "(":
                return Var(text)
            if text not in FUNCTIONS:
                raise self.error(start, f"unknown function {text!r}; expected one of {FUNCTIONS}")
            self.take()
        elif text != "(":
            found = _shown(text)
            raise self.error(start, f"expected a number, identifier, or '(', found {found}")
        inner = self.parse_expr()
        _, close, end = self.take()
        if close != ")":
            raise self.error(end, f"expected ')', found {_shown(close)}")
        return Call(text, inner) if kind == "ident" else inner


def _shown(text: str) -> str:
    return repr(text) if text else "end of input"


def parse_expression(text: str) -> Expression:
    """Parse source text into an expression AST.

    Raises :class:`ExpressionSyntaxError` with the byte offset of the first
    offending token for malformed input, unknown functions, and division by
    a literal zero, and nesting past the interpreter's recursion limit.
    """
    parser = _Parser(text)
    try:
        node = parser.parse_expr()
    except RecursionError:
        # The parser may have taken the end token already.
        start = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise parser.error(start, _TOO_DEEP) from None
    _, tail, start = parser.take()
    if tail:
        raise parser.error(start, f"unexpected trailing {tail!r}")
    return node


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_NEG = 4
_PREC_ATOM = 5
_BINOP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "**": _PREC_POW}


def _prec(e: Expression) -> int:
    if isinstance(e, BinOp):
        return _BINOP_PREC[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def format_expression(e: Expression) -> str:
    """Canonical text with minimal parentheses.

    Same-precedence right operands stay parenthesized (``a - (b - c)``)
    except under ``**``, which is right-associative, so the printed form
    reparses to exactly the same tree.  A tree nested past the interpreter's
    recursion limit raises ``ValueError``, as :func:`free_variables` does.
    """
    try:
        if isinstance(e, Num):
            return repr(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Neg):
            inner = format_expression(e.operand)
            if _prec(e.operand) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        if isinstance(e, Call):
            return f"{e.func}({format_expression(e.arg)})"
        if isinstance(e, BinOp):
            p = _BINOP_PREC[e.op]
            left = format_expression(e.left)
            right = format_expression(e.right)
            if e.op == "**":
                if _prec(e.left) <= p:
                    left = f"({left})"
                if _prec(e.right) < p:
                    right = f"({right})"
            else:
                if _prec(e.left) < p:
                    left = f"({left})"
                if _prec(e.right) <= p:
                    right = f"({right})"
            return f"{left} {e.op} {right}"
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expression) -> frozenset[str]:
    try:
        if isinstance(e, Num):
            return frozenset()
        if isinstance(e, Var):
            return frozenset((e.name,))
        if isinstance(e, Neg):
            return free_variables(e.operand)
        if isinstance(e, Call):
            return free_variables(e.arg)
        if isinstance(e, BinOp):
            return free_variables(e.left) | free_variables(e.right)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    raise TypeError(f"not an expression node: {e!r}")


# The numpy function behind each arithmetic operator but ``**``.
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}


def evaluate_expression(e: Expression, env: Mapping[str, Any]) -> Any:
    """Evaluate with every identifier bound by ``env`` to a float or an array.

    numpy broadcasts the bindings, so an expression over arrays is evaluated
    elementwise.  The result is a Python ``float`` when every binding used
    is a scalar, and an array otherwise.  Every operator and function must
    give finite values throughout, or :class:`EvaluationError` names it: one
    rule for division by zero, logarithms of non-positive values, invalid
    powers and overflow.  An unbound identifier raises it too, and so does
    a non-finite binding that the expression reads, even where an operator
    or function would map it to a finite value (``exp(-X)`` at X = inf),
    and so does a tree nested past the interpreter's recursion limit.
    """
    import numpy as np

    try:
        with np.errstate(all="ignore"):
            value = _evaluate(e, env, np)
    except RecursionError:
        raise EvaluationError(_TOO_DEEP) from None
    return float(value) if np.ndim(value) == 0 else value


def _evaluate(e: Expression, env: Mapping[str, Any], np) -> Any:
    """The recursion behind :func:`evaluate_expression`, given numpy as ``np``."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            value = np.asarray(env[e.name], dtype=float)
        except KeyError:
            raise EvaluationError(f"unbound identifier {e.name!r}") from None
        if not np.isfinite(value).all():
            raise EvaluationError(f"non-finite value bound to {e.name!r}")
        return value
    if isinstance(e, Neg):
        return -_evaluate(e.operand, env, np)
    if isinstance(e, Call):
        value = getattr(np, e.func)(_evaluate(e.arg, env, np))
        where = f"{e.func}()"
    elif isinstance(e, BinOp):
        left, right = _evaluate(e.left, env, np), _evaluate(e.right, env, np)
        if e.op == "**":
            # For a scalar exponent of 2, 0.5 or -1 numpy squares, takes a
            # root or inverts, which rounds otherwise than its loop over
            # arrays.  Taking every power over contiguous arrays keeps a
            # value independent of the shape it is evaluated in.
            shape = np.broadcast(left, right).shape
            pair = [np.ascontiguousarray(np.broadcast_to(v, shape)) for v in (left, right)]
            value = np.power(*pair).reshape(shape)
        else:
            value = getattr(np, _UFUNCS[e.op])(left, right)
        where = f"operator {e.op!r}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if not np.isfinite(value).all():
        raise EvaluationError(f"non-finite result from {where}")
    return value
