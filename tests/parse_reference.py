"""Test-only copy of the equation parser as it was before the one-pass
rewrite: a lexer that builds one token object per match and reads each
literal through ``Fraction(text)``, and a builder that makes every factor a
one-term :class:`~confode.ualgebra.UExpr` and re-canonicalises the growing
sum at every ``+`` and ``-``.

``tests/test_eqparse.py`` parses the same text with both and asserts the
same :class:`~confode.solver.ProblemSpec`, or the same error with the same
message, offset and expected tokens.  The code below ``_TOKEN_RE`` is kept
verbatim, with one rule added since: a t-power exponent must be written as
digits, so ``2.0`` and ``2e0`` are refused like ``1.5``.  Only the imports
are adapted, and :func:`reference_problem` stands in for
``problem_from_source``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from confode.eqparse import MAX_ORDER, MAX_T_POWER, EquationSyntaxError
from confode.solver import ProblemSpec
from confode.ualgebra import COS, SIN, SubstMap, UExpr, UTerm, add, expr, mul, scale

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<sym>[-+*()^=])
""", re.VERBOSE)

_FUNCTIONS = ("exp", "sin", "cos")

# the tokens that commit a factor to "(t^a)^" integer
_TPOW_PAREN = ["(", "t", "^", "a", ")", "^"]


# digits of a literal and of its exponent: CPython's default limit for
# converting a decimal string to an int
_MAX_DIGITS = 4300


class _Token(NamedTuple):
    kind: str  # num | ident | sym | end
    text: str
    pos: int
    value: Fraction | None = None  # a num's exact value


def _number(text: str, pos: int) -> Fraction:
    """A literal's exact value.  Text longer than the digit limit, or an
    exponent beyond it, is refused before anything is converted: Python
    refuses the first and would take unbounded time over the second."""
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if len(text) > _MAX_DIGITS or len(exponent) > 4 or int(exponent or 0) > _MAX_DIGITS:
        raise EquationSyntaxError(
            f"numeric literal beyond {_MAX_DIGITS} digits or exponent {_MAX_DIGITS}", pos)
    if not math.isfinite(float(text)):
        raise EquationSyntaxError("non-finite numeric literal", pos)
    return Fraction(text)


def _lex(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise EquationSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind, text = m.lastgroup, m.group()
        if kind == "num":
            tokens.append(_Token(kind, text, pos, _number(text, pos)))
        elif kind != "ws":
            tokens.append(_Token(kind, text, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent that builds the forcing as a :class:`UExpr`."""

    def __init__(self, src: str, alpha: Fraction):
        self.tokens = _lex(src)
        self.alpha = alpha
        self.i = 0

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_sym(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text in texts

    def expect_sym(self, text: str) -> _Token:
        if not self.at_sym(text):
            self.fail(f"'{text}'")
        return self.take()

    def fail(self, expected: str):
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise EquationSyntaxError(f"found {found}", tok.pos, expected)

    # -- grammar rules

    def equation(self) -> tuple[tuple[Fraction, ...], UExpr]:
        """The monic coefficients ``p_0 .. p_{n-1}`` and the forcing."""
        merged: dict[int, Fraction] = {}
        sign = 1
        while True:
            order, coeff = self.lhs_term()
            merged[order] = merged.get(order, 0) + sign * coeff
            if not self.at_sym("+", "-"):
                break
            sign = -1 if self.take().text == "-" else 1
        self.expect_sym("=")
        rhs = self.expr()
        if self.peek().kind != "end":
            self.fail("end of input")
        n = max(merged)
        if n < 1:
            raise EquationSyntaxError(
                "equation needs at least one derivative of y", 0)
        lead = merged[n]
        if lead == 0:
            raise EquationSyntaxError(
                f"leading coefficient (order {n}) is zero", 0)
        if lead != 1:
            rhs = scale(rhs, 1 / lead)
        return tuple(merged.get(i, 0) / lead for i in range(n)), rhs

    def lhs_term(self) -> tuple[int, Fraction]:
        coeff = Fraction(1)
        if self.peek().kind == "num":
            coeff = self.take().value
        order = 0
        tok = self.peek()
        if tok.kind == "ident" and tok.text[0] == "T":
            digits = tok.text[1:] or "1"
            if not digits.isdigit():
                self.fail("derivative 'T' or 'T<k>'")
            digits = digits.lstrip("0") or "0"
            # checked before any coefficient vector of that length is built
            if len(digits) > 3 or int(digits) > MAX_ORDER:
                raise EquationSyntaxError(
                    f"derivative order above the supported limit {MAX_ORDER}", tok.pos)
            self.take()
            order = int(digits)
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == "y"):
            self.fail("a left-side term: [number] [T<k>] 'y'")
        self.take()
        return order, coeff

    def expr(self) -> UExpr:
        node = self.prod()
        while self.at_sym("+", "-"):
            negate = self.take().text == "-"
            right = self.prod()
            node = add(node, scale(right, -1) if negate else right)
        return node

    def prod(self) -> UExpr:
        node = self.factor()
        while True:
            if self.at_sym("*"):
                self.take()
                node = mul(node, self.factor())
                continue
            tok = self.peek()
            # implicit product: only before a symbol/function/parenthesis,
            # so "2 3" is rejected and "2 - 3" stays a subtraction
            if (tok.kind == "ident" and (tok.text == "t" or tok.text in _FUNCTIONS)) \
                    or self.at_sym("("):
                node = mul(node, self.factor())
                continue
            return node

    def factor(self) -> UExpr:
        tok = self.peek()
        if self.at_sym("-"):
            self.take()
            return scale(self.factor(), -1)
        if tok.kind == "num":
            return expr(UTerm(self.take().value))
        if tok.kind == "ident":
            if tok.text == "t":
                return self.tpow_plain()
            if tok.text in _FUNCTIONS:
                return self.func()
            raise EquationSyntaxError(
                f"{tok.text!r} is not part of the exponential-polynomial-"
                "trigonometric forcing class", tok.pos,
                "number, 't^a', exp/sin/cos, or '('")
        if self.at_sym("("):
            # "(t^a)^" commits to a t-power; any other "(" opens a group
            if [t.text for t in self.tokens[self.i:self.i + 6]] == _TPOW_PAREN:
                self.i += 6
                return self.tpow(self.integer("a positive integer power"))
            self.take()
            node = self.expr()
            self.expect_sym(")")
            return node
        self.fail("a forcing factor")

    def tpow_plain(self) -> UExpr:
        # "t^a" or "t^(k a)"
        self.take()  # t
        self.expect_sym("^")
        if self.at_sym("("):
            self.take()
            k = self.integer("a positive integer power")
            self.ident("a")
            self.expect_sym(")")
            return self.tpow(k)
        self.ident("a")
        return self.tpow(1)

    def tpow(self, k: int) -> UExpr:
        # t^(k alpha) = (alpha u)^k
        return expr(UTerm(self.alpha ** k, k))

    def func(self) -> UExpr:
        kind = self.take().text
        self.expect_sym("(")
        c = Fraction(1)  # also "exp(-t^a)"
        negate = False
        if self.at_sym("-"):
            self.take()
            negate = True
        if self.peek().kind == "num":
            c = self.take().value
            if self.at_sym("*"):
                self.take()
        if negate:
            c = -c
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == "t"):
            self.fail("'t^a'")
        self.take()
        self.expect_sym("^")
        self.ident("a")
        self.expect_sym(")")
        rate = c * self.alpha
        if kind == "exp":
            return expr(UTerm(1, erate=rate))
        return expr(UTerm(1, trig=SIN if kind == "sin" else COS, tfreq=rate))

    def integer(self, expected: str) -> int:
        """A positive integer t-power exponent, at most MAX_T_POWER."""
        tok = self.peek()
        value = tok.value if tok.kind == "num" and tok.text.isdecimal() else 0
        if value.denominator != 1 or value <= 0:
            self.fail(expected)
        if value > MAX_T_POWER:
            raise EquationSyntaxError(
                f"t-power exponent {value} exceeds the supported limit {MAX_T_POWER}",
                tok.pos)
        self.take()
        return int(value)

    def ident(self, name: str):
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == name):
            self.fail(f"'{name}'")
        self.take()


def reference_problem(src: str, alpha: float) -> ProblemSpec:
    """``problem_from_source`` through the parser above."""
    exact_alpha = Fraction(repr(SubstMap(alpha).alpha))
    coeffs, forcing = _Parser(src, exact_alpha).equation()
    return ProblemSpec(coeffs, alpha, forcing)
