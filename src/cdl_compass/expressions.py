"""Closed-form expressions: one flat program, its parser, printer and evaluator.

The grammar covers what explicit generating equations need: decimal
literals, identifiers, the four arithmetic operators, right-associative
power (``**``), unary minus, and the function set ``exp``, ``log``, ``sin``.

Precedence, tightest first: unary minus, ``**``, ``*`` ``/``, ``+`` ``-``.
Note that unary minus binds tighter than power here, so ``-x ** 2`` is
``(-x) ** 2``; write ``-(x ** 2)`` for the other reading.

An :class:`Expression` is a flat program in post-order, operands first, so
the printer and the evaluator are each one loop over a stack, and no
expression is too long or too deep for them.  Parsing is strict: unknown
characters, unknown function names, and division by a literal zero are
rejected at parse time, with the byte offset of the offending token in the
error.  The parser alone recurses, over the text's own nesting, and refuses
text nested past the interpreter's recursion limit.  The canonical printer
emits minimal parentheses and round-trips: ``parse(format(e)) == e`` for
every expression the parser can give, and printing is idempotent across a
reparse.

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
from typing import Any, Mapping

from .graphs import _NAME, _check_name
from .lattice import _real


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position (UTF-8)."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


class EvaluationError(ValueError):
    """A well-formed expression failed to evaluate on the given bindings."""


# The parser recurses over the text's nesting; past the interpreter's
# recursion limit it refuses the text by this message.
_TOO_DEEP = "expression nests too deeply"

FUNCTIONS = ("exp", "log", "sin")
# The arguments each kind of instruction but a literal or a load takes.
_ARGUMENTS = {"neg": ("-",), "op": ("+", "-", "*", "/", "**"), "call": FUNCTIONS}
# How many values each kind of instruction takes off the stack; each puts one back.
_POPS = {"num": 0, "var": 0, "neg": 1, "call": 1, "op": 2}


def _literal(value: Any) -> float:
    v = _real(value, "numeric literal")
    if not math.isfinite(v):
        raise ValueError("numeric literals must be finite")
    return v


@dataclass(frozen=True)
class Expression:
    """An expression as a program of ``(kind, argument)`` instructions in
    post-order, operands first.

    ``("num", 2.0)`` pushes a literal, ``("var", "X")`` loads a variable,
    ``("neg", "-")`` negates the top value, ``("op", "+")`` applies an
    operator to the two top values, left operand below, and
    ``("call", "exp")`` applies a function to the top value.  A program
    leaves exactly one value.  Equality, hashing and ``repr`` are those of
    the flat tuple, so an expression of any length has them.
    """

    program: tuple[tuple[str, Any], ...]

    def __post_init__(self) -> None:
        held = []
        depth = 0
        for step in self.program:
            try:
                kind, arg = step
            except (TypeError, ValueError):
                message = f"an instruction is a (kind, argument) pair, got {step!r}"
                raise TypeError(message) from None
            if kind == "num":
                arg = _literal(arg)
            elif kind == "var":
                _check_name(arg)
            elif kind not in ("neg", "op", "call"):  # a tuple: an unhashable kind is named too
                raise ValueError(f"unknown instruction kind {kind!r}")
            elif arg not in _ARGUMENTS[kind]:
                what = "function" if kind == "call" else "operator"
                raise ValueError(f"unknown {what} {arg!r}; expected one of {_ARGUMENTS[kind]}")
            if depth < _POPS[kind]:
                raise ValueError(
                    f"instruction {len(held)} {step!r} takes {_POPS[kind]} values, "
                    f"the stack holds {depth}"
                )
            depth += 1 - _POPS[kind]
            held.append((kind, arg))
        if depth != 1:
            raise ValueError(f"a program leaves one value, this one leaves {depth}")
        object.__setattr__(self, "program", tuple(held))


def _program(e: Any) -> tuple[tuple[str, Any], ...]:
    if not isinstance(e, Expression):
        raise TypeError(f"not an expression node: {e!r}")
    return e.program


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
    error turns ``start`` into the byte offset it reports.  Each rule
    appends its instructions to ``program``, operands first."""

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
        self.program: list[tuple[str, Any]] = []

    def error(self, start: int, message: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(len(self.text[:start].encode("utf-8")), message)

    def peek(self) -> str:
        """The text of the next token; an operator is known by its text alone."""
        return self.tokens[self.pos][1]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self) -> None:
        self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()[1]
            self.parse_term()
            self.program.append(("op", op))

    def parse_term(self) -> None:
        self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()[1]
            rhs_start = self.tokens[self.pos][2]
            first = len(self.program)
            self.parse_factor()
            if op == "/" and self.program[first:] == [("num", 0.0)]:
                raise self.error(rhs_start, "division by literal zero")
            self.program.append(("op", op))

    def parse_factor(self) -> None:
        self.parse_unary()
        if self.peek() == "**":
            self.take()
            self.parse_factor()  # right-associative
            self.program.append(("op", "**"))

    def parse_unary(self) -> None:
        if self.peek() == "-":
            self.take()
            self.parse_unary()
            self.program.append(("neg", "-"))
        else:
            self.parse_atom()

    def parse_atom(self) -> None:
        """A number, an identifier, or a parenthesized body, which a function
        name before it makes a call."""
        kind, text, start = self.take()
        if kind == "number":
            self.program.append(("num", _literal(float(text))))
            return
        if kind == "ident":
            if self.peek() != "(":
                self.program.append(("var", text))
                return
            if text not in FUNCTIONS:
                raise self.error(start, f"unknown function {text!r}; expected one of {FUNCTIONS}")
            self.take()
        elif text != "(":
            found = _shown(text)
            raise self.error(start, f"expected a number, identifier, or '(', found {found}")
        self.parse_expr()
        _, close, end = self.take()
        if close != ")":
            raise self.error(end, f"expected ')', found {_shown(close)}")
        if kind == "ident":
            self.program.append(("call", text))


def _shown(text: str) -> str:
    return repr(text) if text else "end of input"


def parse_expression(text: str) -> Expression:
    """Parse source text into an :class:`Expression`.

    Raises :class:`ExpressionSyntaxError` with the byte offset of the first
    offending token for malformed input, unknown functions, and division by
    a literal zero, and nesting past the interpreter's recursion limit.
    """
    parser = _Parser(text)
    try:
        parser.parse_expr()
    except RecursionError:
        # The parser may have taken the end token already.
        start = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise parser.error(start, _TOO_DEEP) from None
    _, tail, start = parser.take()
    if tail:
        raise parser.error(start, f"unexpected trailing {tail!r}")
    return Expression(parser.program)


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_NEG = 4
_PREC_ATOM = 5
_BINOP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "**": _PREC_POW}


def format_expression(e: Expression) -> str:
    """Canonical text with minimal parentheses.

    Same-precedence right operands stay parenthesized (``a - (b - c)``)
    except under ``**``, which is right-associative, so the printed form
    reparses to exactly the same program.
    """
    # Each entry is a piece of text, a string or a tuple of pieces, and its
    # precedence; the pieces are joined once at the end, so that a long sum
    # is not copied once per operator.
    stack: list[tuple[Any, int]] = []
    for kind, arg in _program(e):
        if kind == "num":
            stack.append((repr(arg), _PREC_ATOM))
        elif kind == "var":
            stack.append((arg, _PREC_ATOM))
        elif kind == "neg":
            inner, p = stack.pop()
            stack.append((("-(", inner, ")") if p < _PREC_NEG else ("-", inner), _PREC_NEG))
        elif kind == "call":
            stack.append(((f"{arg}(", stack.pop()[0], ")"), _PREC_ATOM))
        else:
            (right, rp), (left, lp) = stack.pop(), stack.pop()
            p = _BINOP_PREC[arg]
            if lp < p or lp == p and arg == "**":
                left = ("(", left, ")")
            if rp < p or rp == p and arg != "**":
                right = ("(", right, ")")
            stack.append(((left, f" {arg} ", right), p))
    texts, pieces = [], [stack.pop()[0]]
    while pieces:
        piece = pieces.pop()
        if isinstance(piece, str):
            texts.append(piece)
        else:
            pieces.extend(reversed(piece))
    return "".join(texts)


def free_variables(e: Expression) -> frozenset[str]:
    return frozenset(arg for kind, arg in _program(e) if kind == "var")


# The numpy function behind each arithmetic operator but ``**``.
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}


def evaluate_expression(e: Expression, env: Mapping[str, Any]) -> Any:
    """Evaluate with every identifier bound by ``env`` to a float or an array.

    numpy broadcasts the bindings, so an expression over arrays is evaluated
    elementwise.  The result is a Python ``float`` when every binding used
    is a scalar, and an array otherwise.  Every operator and function must
    give finite values throughout, or :class:`EvaluationError` names the
    first that does not, in program order: one rule for division by zero,
    logarithms of non-positive values, invalid powers and overflow.  An
    unbound identifier raises it too, and so does a non-finite binding that
    the expression reads, even where an operator or function would map it
    to a finite value (``exp(-X)`` at X = inf).
    """
    import numpy as np

    stack: list[Any] = []
    with np.errstate(all="ignore"):
        for kind, arg in _program(e):
            if kind == "num":
                value = arg
            elif kind == "var":
                try:
                    value = np.asarray(env[arg], dtype=float)
                except KeyError:
                    raise EvaluationError(f"unbound identifier {arg!r}") from None
                if not np.isfinite(value).all():
                    raise EvaluationError(f"non-finite value bound to {arg!r}")
            elif kind == "neg":
                value = -stack.pop()
            else:
                if kind == "call":
                    value = getattr(np, arg)(stack.pop())
                elif arg == "**":
                    # For a scalar exponent of 2, 0.5 or -1 numpy squares,
                    # takes a root or inverts, which rounds otherwise than
                    # its loop over arrays.  Taking every power over
                    # contiguous arrays keeps a value independent of the
                    # shape it is evaluated in.
                    right, left = stack.pop(), stack.pop()
                    shape = np.broadcast(left, right).shape
                    pair = [np.ascontiguousarray(np.broadcast_to(v, shape)) for v in (left, right)]
                    value = np.power(*pair).reshape(shape)
                else:
                    right, left = stack.pop(), stack.pop()
                    value = getattr(np, _UFUNCS[arg])(left, right)
                if not np.isfinite(value).all():
                    where = f"{arg}()" if kind == "call" else f"operator {arg!r}"
                    raise EvaluationError(f"non-finite result from {where}")
            stack.append(value)
    value = stack.pop()
    return float(value) if np.ndim(value) == 0 else value
