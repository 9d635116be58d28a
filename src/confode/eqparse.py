"""Equation text -> ProblemSpec.

The source language mirrors the mathematical notation in plain text: ``T``
is the conformable derivative (``T2`` the twofold one), ``y`` the unknown,
``t^a`` the power t^alpha, and alpha itself is never written in the source
— it is bound later, when the forcing is lowered into the u-variable
algebra.  Grammar (EBNF):

    equation  := lhs "=" rhs ;
    lhs       := term { ("+"|"-") term } ;
    term      := [number] [deriv] "y" ;
    deriv     := "T" [integer] ;
    rhs       := "0" | expr ;
    expr      := prod { ("+"|"-") prod } ;
    prod      := factor { ["*"] factor } ;
    factor    := number | tpow | func | "(" expr ")" | "-" factor ;
    tpow      := "t^a" | "t^(" integer " a)" | "(t^a)^" integer ;
    func      := ("exp"|"sin"|"cos") "(" [["-"] number ["*"]] "t^a" ")" ;

Only the exponential-polynomial-trigonometric class is expressible; every
other forcing shape is rejected at parse time.  A minus sign is accepted
inside function arguments (``exp(-4 t^a)``) so decaying exponentials can
be written directly.  Implicit multiplication binds a number to a
following symbol or parenthesis, never to another number, and a bare ``-``
after a factor always means subtraction.

Every literal is read exactly from its text, so ``0.9`` is 9/10, and
alpha as its shortest round-trip decimal, so ``exp(3 t^a)`` at alpha 0.3
has the rate 9/10.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .solver import ProblemSpec
from .ualgebra import COS, SIN, ZERO, SubstMap, UExpr, UTerm, add, expr, mul, scale

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<sym>[-+*()^=])
""", re.VERBOSE)

_FUNCTIONS = ("exp", "sin", "cos")


class EquationSyntaxError(ValueError):
    """Parse failure with the character offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


# ---------------------------------------------------------------------------
# forcing AST


@dataclass(frozen=True)
class TNum:
    value: Fraction


@dataclass(frozen=True)
class TPow:
    """t^(k*alpha), k a positive integer."""

    k: int


@dataclass(frozen=True)
class TFunc:
    """exp/sin/cos of c * t^alpha, the rate c read exactly from its text."""

    kind: str
    c: Fraction


@dataclass(frozen=True)
class TNeg:
    child: object


@dataclass(frozen=True)
class TAdd:
    left: object
    right: object


@dataclass(frozen=True)
class TSub:
    left: object
    right: object


@dataclass(frozen=True)
class TMul:
    left: object
    right: object


@dataclass(frozen=True)
class EquationAst:
    """Monic left side as (order, coefficient) pairs plus the forcing AST.

    ``terms`` is sorted by descending order with duplicates merged and the
    leading coefficient scaled to 1, all exact rationals read from the
    literals' text (``0.9`` is 9/10); ``rhs`` is None for a homogeneous
    equation.
    """

    terms: tuple[tuple[int, Fraction], ...]
    rhs: object | None

    @property
    def order(self) -> int:
        return self.terms[0][0]

    def coeff_vector(self) -> tuple[Fraction, ...]:
        """p_0 .. p_{n-1} with absent orders filled by zero."""
        by_order = dict(self.terms)
        return tuple(by_order.get(i, Fraction(0)) for i in range(self.order))


class _Token(NamedTuple):
    kind: str  # num | ident | sym | end
    text: str
    pos: int


def _lex(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise EquationSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "num" and not math.isfinite(float(m.group())):
            raise EquationSyntaxError("non-finite numeric literal", pos)
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _lex(src)
        self.i = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

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

    def equation(self) -> EquationAst:
        pairs = [self.lhs_term()]
        while self.at_sym("+", "-"):
            negate = self.take().text == "-"
            order, coeff = self.lhs_term()
            pairs.append((order, -coeff if negate else coeff))
        self.expect_sym("=")
        rhs = self.rhs()
        if self.peek().kind != "end":
            self.fail("end of input")
        return _normalize(pairs, rhs)

    def lhs_term(self) -> tuple[int, Fraction]:
        coeff = Fraction(1)
        tok = self.peek()
        if tok.kind == "num":
            coeff = Fraction(self.take().text)
        order = 0
        tok = self.peek()
        if tok.kind == "ident" and tok.text[0] == "T":
            digits = tok.text[1:]
            if digits and not digits.isdigit():
                self.fail("derivative 'T' or 'T<k>'")
            self.take()
            order = int(digits) if digits else 1
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == "y"):
            self.fail("a left-side term: [number] [T<k>] 'y'")
        self.take()
        return order, coeff

    def rhs(self):
        node = self.expr()
        if isinstance(node, TNum) and node.value == 0:
            return None
        return node

    def expr(self):
        node = self.prod()
        while self.at_sym("+", "-"):
            op = self.take().text
            right = self.prod()
            node = TAdd(node, right) if op == "+" else TSub(node, right)
        return node

    def prod(self):
        node = self.factor()
        while True:
            if self.at_sym("*"):
                self.take()
                node = TMul(node, self.factor())
                continue
            tok = self.peek()
            # implicit product: only before a symbol/function/parenthesis,
            # so "2 3" is rejected and "2 - 3" stays a subtraction
            if (tok.kind == "ident" and (tok.text == "t" or tok.text in _FUNCTIONS)) \
                    or self.at_sym("("):
                node = TMul(node, self.factor())
                continue
            return node

    def factor(self):
        tok = self.peek()
        if self.at_sym("-"):
            self.take()
            child = self.factor()
            if isinstance(child, TNum):
                return TNum(-child.value)
            return TNeg(child)
        if tok.kind == "num":
            return TNum(Fraction(self.take().text))
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
            saved = self.i
            try:
                return self.tpow_paren()
            except EquationSyntaxError:
                self.i = saved
            self.take()
            node = self.expr()
            self.expect_sym(")")
            return node
        self.fail("a forcing factor")

    def tpow_plain(self):
        # "t^a" or "t^(k a)"
        self.take()  # t
        self.expect_sym("^")
        if self.at_sym("("):
            self.take()
            k = self.integer("a positive integer power")
            self.ident("a")
            self.expect_sym(")")
            return TPow(k)
        self.ident("a")
        return TPow(1)

    def tpow_paren(self):
        # "(t^a)^k"
        self.expect_sym("(")
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == "t"):
            self.fail("'t'")
        self.take()
        self.expect_sym("^")
        self.ident("a")
        self.expect_sym(")")
        self.expect_sym("^")
        k = self.integer("a positive integer power")
        return TPow(k)

    def func(self):
        kind = self.take().text
        self.expect_sym("(")
        c = Fraction(1)  # also "exp(-t^a)"
        negate = False
        if self.at_sym("-"):
            self.take()
            negate = True
        if self.peek().kind == "num":
            c = Fraction(self.take().text)
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
        return TFunc(kind, c)

    def integer(self, expected: str) -> int:
        tok = self.peek()
        value = float(tok.text) if tok.kind == "num" else 0.0
        if value != int(value) or value <= 0:
            self.fail(expected)
        self.take()
        return int(value)

    def ident(self, name: str):
        tok = self.peek()
        if not (tok.kind == "ident" and tok.text == name):
            self.fail(f"'{name}'")
        self.take()


def _normalize(pairs: list[tuple[int, Fraction]], rhs) -> EquationAst:
    merged: dict[int, Fraction] = {}
    for order, coeff in pairs:
        merged[order] = merged.get(order, 0) + coeff
    n = max(merged)
    if n < 1:
        raise EquationSyntaxError(
            "equation needs at least one derivative of y", 0)
    lead = merged[n]
    if lead == 0:
        raise EquationSyntaxError(
            f"leading coefficient (order {n}) is zero", 0)
    if lead != 1:
        merged = {k: v / lead for k, v in merged.items()}
        if rhs is not None:
            rhs = TMul(TNum(1 / lead), rhs)
    terms = tuple(sorted(merged.items(), key=lambda kv: -kv[0]))
    return EquationAst(terms, rhs)


def parse_equation(src: str) -> EquationAst:
    """Parse source text into a monic EquationAst."""
    return _Parser(src).equation()


# ---------------------------------------------------------------------------
# lowering and evaluation


def lower_forcing(ast, subst: SubstMap) -> UExpr:
    """Rewrite a t-domain forcing AST in the u variable.

    t^(k*alpha) = (alpha*u)^k, e^(c*t^alpha) = e^(c*alpha*u), and likewise
    for sin/cos.  Alpha is read as ``Fraction(repr(alpha))`` (0.3 is 3/10),
    so everything is exact and resonance survives the rewrite.
    """
    if ast is None:
        return ZERO
    alpha = Fraction(repr(subst.alpha))

    def go(node) -> UExpr:
        if isinstance(node, TNum):
            return expr(UTerm(node.value))
        if isinstance(node, TPow):
            if node.k > 64:
                raise ValueError(
                    f"t-power exponent {node.k} exceeds the supported limit 64")
            return expr(UTerm(alpha ** node.k, node.k))
        if isinstance(node, TFunc):
            rate = Fraction(node.c) * alpha
            if node.kind == "exp":
                return expr(UTerm(1, erate=rate))
            trig = SIN if node.kind == "sin" else COS
            return expr(UTerm(1, trig=trig, tfreq=rate))
        if isinstance(node, TNeg):
            return scale(go(node.child), -1)
        if isinstance(node, TAdd):
            return add(go(node.left), go(node.right))
        if isinstance(node, TSub):
            return add(go(node.left), scale(go(node.right), -1))
        if isinstance(node, TMul):
            return mul(go(node.left), go(node.right))
        raise TypeError(f"not a forcing AST node: {node!r}")

    return go(ast)


def problem_from_source(src: str, alpha: float) -> ProblemSpec:
    """Parse and lower in one step once alpha is known."""
    ast = parse_equation(src)
    subst = SubstMap(alpha)
    return ProblemSpec(ast.coeff_vector(), alpha, lower_forcing(ast.rhs, subst))
