"""Oracles for cross-checking the ``expressions`` module.

``evaluate_scalar`` evaluates with Python floats and the ``math`` module,
one node at a time: slow and obviously correct.  It states the package's
rule on its own terms: every operator and function must give a finite
value, or the evaluation raises :class:`EvaluationError`.  Where Python
raises instead (a logarithm of a non-positive value, division by zero, an
overflowing ``exp`` or power) or gives a complex power, that is an
:class:`EvaluationError` too.

``parse_oracle`` is the parser ``parse_expression`` replaced: a tokenizer
that matches one token at a time and counts UTF-8 bytes as it goes, into
token records, and a recursive-descent parser over them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

from cdl_compass.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    EvaluationError,
    Expression,
    ExpressionSyntaxError,
    Neg,
    Num,
    Var,
)


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


def parse_oracle(text: str) -> Expression:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionSyntaxError(tail.offset, f"unexpected trailing {tail.text!r}")
    return node
