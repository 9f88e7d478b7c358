"""Closed-form expressions: one flat program, its parser, printer and evaluator.

The grammar covers what explicit generating equations need: decimal
literals, identifiers, the four arithmetic operators, right-associative
power (``**``), unary minus, and the function set ``exp``, ``log``, ``sin``.

Precedence, tightest first: unary minus, ``**``, ``*`` ``/``, ``+`` ``-``.
Note that unary minus binds tighter than power here, so ``-x ** 2`` is
``(-x) ** 2``; write ``-(x ** 2)`` for the other reading.

An :class:`Expression` is a flat program in post-order, operands first, so
the printer and the evaluator are each one loop over a stack, and no
expression is too long or too deep for them.  The parser is one loop over
the tokens with a stack of pending operators (Dijkstra's shunting-yard), so
no text is too long or too deep for it either.  Parsing is strict: unknown
characters, unknown function names, and division by a literal zero are
rejected at parse time, with the byte offset of the offending token in the
error.  The canonical printer emits minimal parentheses and round-trips:
``parse(format(e)) == e`` for every expression the constructor accepts, and
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


FUNCTIONS = ("exp", "log", "sin")
# The arguments each kind of instruction but a literal or a load takes.
_ARGUMENTS = {"neg": ("-",), "op": ("+", "-", "*", "/", "**"), "call": FUNCTIONS}
# How many values each kind of instruction takes off the stack; each puts one back.
_POPS = {"num": 0, "var": 0, "neg": 1, "call": 1, "op": 2}


def _literal(value: Any) -> float:
    v = _real(value, "numeric literal")
    if not math.isfinite(v):
        raise ValueError("numeric literals must be finite")
    # The printer writes a literal as its repr, and a leading '-' reads back
    # as a negation, so a literal whose sign bit is set would not round-trip.
    if math.copysign(1.0, v) < 0.0:
        raise ValueError(f"numeric literal {v!r} carries a minus sign; negate with ('neg', '-')")
    return v


@dataclass(frozen=True)
class Expression:
    """An expression as a program of ``(kind, argument)`` instructions in
    post-order, operands first.

    ``("num", 2.0)`` pushes a literal, finite and without a sign bit (``-2``
    is ``2.0`` negated), ``("var", "X")`` loads a variable, ``("neg", "-")``
    negates the top value, ``("op", "+")`` applies an operator to the two top
    values, left operand below, and ``("call", "exp")`` applies a function
    to the top value.  A program leaves exactly one value.  Equality,
    hashing and ``repr`` are those of the flat tuple, so an expression of
    any length has them.
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
            # As the parser refuses it, so that every program prints as text
            # that reads back; a literal is a whole operand.
            if kind == "op" and arg == "/" and held[-1] == ("num", 0.0):
                raise ValueError(f"instruction {len(held)} divides by the literal zero")
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


_PREC_FENCE = 0
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_NEG = 4
_PREC_ATOM = 5
_BINOP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "**": _PREC_POW}


def _shown(text: str) -> str:
    return repr(text) if text else "end of input"


def parse_expression(text: str) -> Expression:
    """Parse source text into an :class:`Expression`.

    Raises :class:`ExpressionSyntaxError` with the byte offset of the first
    offending token for malformed input, unknown functions, and division by
    a literal zero.
    """

    def error(start: int, message: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(len(text[:start].encode("utf-8")), message)

    # (kind, text, start) tokens, kind being number, ident, op or end and
    # start a character index; only an error turns it into a byte offset.
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise error(m.start(), f"unexpected character {m.group()!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))

    # Operators waiting for their right operand, as (precedence, instruction,
    # the character index where that operand starts, which only a division
    # reads), and fences: an open parenthesis, whose instruction is the call
    # its close emits, if any.
    pending: list[tuple[int, Any, int]] = []
    program: list[tuple[str, Any]] = []
    want_operand = True
    i = 0
    while True:
        kind, tok, start = tokens[i]
        i += 1
        if want_operand:
            if tok == "-":
                pending.append((_PREC_NEG, ("neg", "-"), 0))
            elif tok == "(":
                pending.append((_PREC_FENCE, None, 0))
            elif kind == "ident" and tokens[i][1] == "(":
                if tok not in FUNCTIONS:
                    raise error(start, f"unknown function {tok!r}; expected one of {FUNCTIONS}")
                pending.append((_PREC_FENCE, ("call", tok), 0))
                i += 1
            elif kind == "number":
                program.append(("num", _literal(float(tok))))
                want_operand = False
            elif kind == "ident":
                program.append(("var", tok))
                want_operand = False
            else:
                raise error(start, f"expected a number, identifier, or '(', found {_shown(tok)}")
            continue
        # After an operand, a binary operator applies every pending operator
        # that binds at least as tightly (strictly more, for the
        # right-associative ``**``); any other token ends a level, and applies
        # every one down to the nearest fence.
        if tok in _BINOP_PREC:
            floor = _BINOP_PREC[tok] - (tok != "**")
        else:
            floor = _PREC_FENCE
        while pending and pending[-1][0] > floor:
            _, step, at = pending.pop()
            # A literal is a whole operand, so a right operand that ends in
            # one is that literal alone.
            if step == ("op", "/") and program[-1] == ("num", 0.0):
                raise error(at, "division by literal zero")
            program.append(step)
        if tok in _BINOP_PREC:
            pending.append((_BINOP_PREC[tok], ("op", tok), tokens[i][2]))
            want_operand = True
        elif tok == ")" and pending:
            call = pending.pop()[1]
            if call:
                program.append(call)
        elif pending:
            raise error(start, f"expected ')', found {_shown(tok)}")
        elif tok:
            raise error(start, f"unexpected trailing {tok!r}")
        else:
            return Expression(program)


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
