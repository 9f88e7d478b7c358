"""Oracles for cross-checking the ``expressions`` module.

The package holds an expression as one flat post-order program.  The
oracles here hold it as the tree it was before: ``Num``, ``Var``, ``Neg``,
``BinOp`` and ``Call`` nodes, walked by recursion, so they serve only
trees within the interpreter's recursion limit.  ``to_program`` turns a
tree into the package's :class:`Expression`.

``evaluate_tree`` and ``format_tree`` are the recursive evaluator and
printer the package had: the flat ones must give the same values, errors
and text.

``evaluate_scalar`` evaluates with Python floats and the ``math`` module,
one node at a time: slow and obviously correct.  It states the package's
rule on its own terms: every operator and function must give a finite
value, or the evaluation raises :class:`EvaluationError`.  Where Python
raises instead (a logarithm of a non-positive value, division by zero, an
overflowing ``exp`` or power) or gives a complex power, that is an
:class:`EvaluationError` too.

``parse_oracle`` checks ``parse_expression``, which is one loop over the
tokens with a stack of pending operators, by another algorithm family: a
tokenizer that matches one token at a time and counts UTF-8 bytes as it
goes, into token records, and a recursive-descent parser over them into a
tree, which serves text nested within the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Mapping, Union

import numpy as np

from cdl_compass.expressions import (
    FUNCTIONS,
    EvaluationError,
    Expression,
    ExpressionSyntaxError,
)

Tree = Union["Num", "Var", "Neg", "BinOp", "Call"]


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("numeric literals must be finite")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: Tree


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Tree
    right: Tree


@dataclass(frozen=True)
class Call:
    func: str
    arg: Tree


def _instructions(e: Tree) -> list[tuple[str, Any]]:
    if isinstance(e, Num):
        return [("num", e.value)]
    if isinstance(e, Var):
        return [("var", e.name)]
    if isinstance(e, Neg):
        return [*_instructions(e.operand), ("neg", "-")]
    if isinstance(e, Call):
        return [*_instructions(e.arg), ("call", e.func)]
    return [*_instructions(e.left), *_instructions(e.right), ("op", e.op)]


def to_program(e: Tree) -> Expression:
    """The tree as the package's post-order program."""
    return Expression(_instructions(e))


def free_names(e: Tree) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_names(e.operand)
    if isinstance(e, Call):
        return free_names(e.arg)
    return free_names(e.left) | free_names(e.right)


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4, 5
_BINOP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "**": _PREC_POW}


def _prec(e: Tree) -> int:
    if isinstance(e, BinOp):
        return _BINOP_PREC[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def format_tree(e: Tree) -> str:
    """The package's recursive printer: minimal parentheses, with
    same-precedence right operands parenthesized except under ``**``."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = format_tree(e.operand)
        if _prec(e.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({format_tree(e.arg)})"
    p = _BINOP_PREC[e.op]
    left = format_tree(e.left)
    right = format_tree(e.right)
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


_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}


def evaluate_tree(e: Tree, env: Mapping[str, Any]) -> Any:
    """The package's recursive evaluator, over floats and arrays alike."""
    with np.errstate(all="ignore"):
        value = _evaluate(e, env)
    return float(value) if np.ndim(value) == 0 else value


def _evaluate(e: Tree, env: Mapping[str, Any]) -> Any:
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
        return -_evaluate(e.operand, env)
    if isinstance(e, Call):
        value = getattr(np, e.func)(_evaluate(e.arg, env))
        where = f"{e.func}()"
    else:
        left, right = _evaluate(e.left, env), _evaluate(e.right, env)
        if e.op == "**":
            shape = np.broadcast(left, right).shape
            pair = [np.ascontiguousarray(np.broadcast_to(v, shape)) for v in (left, right)]
            value = np.power(*pair).reshape(shape)
        else:
            value = getattr(np, _UFUNCS[e.op])(left, right)
        where = f"operator {e.op!r}"
    if not np.isfinite(value).all():
        raise EvaluationError(f"non-finite result from {where}")
    return value


def evaluate_scalar(e: Tree, env: Mapping[str, float]) -> float:
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

    def parse_expr(self) -> Tree:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.take().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Tree:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.take().text
            rhs_tok = self.peek()
            rhs = self.parse_factor()
            if op == "/" and isinstance(rhs, Num) and rhs.value == 0.0:
                raise ExpressionSyntaxError(rhs_tok.offset, "division by literal zero")
            node = BinOp(op, node, rhs)
        return node

    def parse_factor(self) -> Tree:
        base = self.parse_unary()
        if self.peek().kind == "op" and self.peek().text == "**":
            self.take()
            return BinOp("**", base, self.parse_factor())  # right-associative
        return base

    def parse_unary(self) -> Tree:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Tree:
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


def parse_oracle(text: str) -> Tree:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionSyntaxError(tail.offset, f"unexpected trailing {tail.text!r}")
    return node
