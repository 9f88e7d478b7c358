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


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position (UTF-8)."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


class EvaluationError(ValueError):
    """A well-formed expression failed to evaluate on the given bindings."""


Expression = Union["Num", "Var", "Neg", "BinOp", "Call"]

FUNCTIONS = ("exp", "log", "sin")


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError("numeric literals must be finite")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise ValueError(f"bad identifier {self.name!r}")


@dataclass(frozen=True)
class Neg:
    operand: Expression


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/", "**"):
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Call:
    func: str
    arg: Expression

    def __post_init__(self) -> None:
        if self.func not in FUNCTIONS:
            raise ValueError(f"unknown function {self.func!r}; expected one of {FUNCTIONS}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<pow>\*\*)
  | (?P<op>[+\-*/()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    offset: int  # byte offset into the UTF-8 encoding of the source


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    byte_pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(byte_pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        segment = m.group()
        if kind != "ws":
            label = {"number": "number", "ident": "ident"}.get(kind, "op")
            tokens.append(_Token(label, segment, byte_pos))
        pos = m.end()
        byte_pos += len(segment.encode("utf-8"))
    tokens.append(_Token("end", "", byte_pos))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            found = repr(tok.text) if tok.text else "end of input"
            raise ExpressionSyntaxError(tok.offset, f"expected {text!r}, found {found}")
        return self.take()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.take().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.take().text
            rhs_tok = self.peek()
            rhs = self.parse_factor()
            if op == "/" and isinstance(rhs, Num) and rhs.value == 0.0:
                raise ExpressionSyntaxError(rhs_tok.offset, "division by literal zero")
            node = BinOp(op, node, rhs)
        return node

    def parse_factor(self) -> Expression:
        base = self.parse_unary()
        if self.peek().kind == "op" and self.peek().text == "**":
            self.take()
            return BinOp("**", base, self.parse_factor())  # right-associative
        return base

    def parse_unary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expression:
        tok = self.take()
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExpressionSyntaxError(
                        tok.offset,
                        f"unknown function {tok.text!r}; expected one of {FUNCTIONS}",
                    )
                self.take()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        found = repr(tok.text) if tok.text else "end of input"
        raise ExpressionSyntaxError(
            tok.offset, f"expected a number, identifier, or '(', found {found}"
        )


def parse_expression(text: str) -> Expression:
    """Parse source text into an expression AST.

    Raises :class:`ExpressionSyntaxError` with the byte offset of the first
    offending token for malformed input, unknown functions, and division by
    a literal zero.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionSyntaxError(tail.offset, f"unexpected trailing {tail.text!r}")
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
    reparses to exactly the same tree.
    """
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
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expression) -> frozenset[str]:
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
    a result that is a non-finite binding, perhaps negated.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        value = _evaluate(e, env, np)
    # Operators and functions check their own values, so only a bare
    # identifier under any number of negations can still be non-finite.
    root = e
    while isinstance(root, Neg):
        root = root.operand
    if isinstance(root, Var) and not np.isfinite(value).all():
        raise EvaluationError(f"non-finite value bound to {root.name!r}")
    return float(value) if np.ndim(value) == 0 else value


def _evaluate(e: Expression, env: Mapping[str, Any], np) -> Any:
    """The recursion behind :func:`evaluate_expression`, given numpy as ``np``."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return np.asarray(env[e.name], dtype=float)
        except KeyError:
            raise EvaluationError(f"unbound identifier {e.name!r}") from None
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
