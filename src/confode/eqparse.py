"""Equation text -> ProblemSpec.

The source language mirrors the mathematical notation in plain text: ``T``
is the conformable derivative (``T2`` the twofold one), ``y`` the unknown,
``t^a`` the power t^alpha, and alpha itself is never written in the source
— it is given next to the text, and the parser builds the forcing directly
in the u-variable algebra as it reads it.  Grammar (EBNF):

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
after a factor always means subtraction.  Orders above :data:`MAX_ORDER`
and t-powers above :data:`MAX_T_POWER` are refused, and so is a t-power
not written as digits, such as ``t^(2.0 a)``.

Every literal is read exactly from its digits, as an integer over a power
of ten, so ``0.9`` is 9/10, and alpha as its shortest round-trip decimal,
so ``exp(3 t^a)`` at alpha 0.3 has the rate 9/10: with ``u = t^alpha /
alpha``, ``t^(k alpha)`` is ``alpha^k u^k`` and ``e^(c t^alpha)`` is
``e^(c alpha u)``, all exact.

The lexer scans the whole text once, before any grammar rule runs, so a
bad literal or character anywhere is reported ahead of a grammar error to
its left.  The parser computes on Python ints and makes one
:class:`~fractions.Fraction` per number it stores: each literal is an
integer pair, and each product's numbers, t-powers, exponentials and first
trig factor multiply into the integer fields of one term (reduced once
they grow long), which becomes a term once, through
:func:`~confode.ualgebra._term_of`, where :class:`UTerm` fixes its trig
parity too.  Later trig factors (product-to-sum) and parenthesised groups
multiply out into more terms through :func:`~confode.ualgebra.mul`, which
merges like terms after each.  A sum gathers every product's terms, each
scaled by the sign and by the reciprocal of the leading coefficient, and
is canonicalised once, so parse time grows linearly with the number of
terms in a sum; a long product costs what its exact value does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .solver import ProblemSpec
from .ualgebra import SubstMap, UExpr, UTerm, _term_of, canonicalize, expr, mul

# one token per match: its leading whitespace, then a symbol or word, a
# number (with its mantissa and exponent), or "bad", the first character
# no token starts with; a match of no token is the end
_TOKEN_RE = re.compile(r"""(?P<space>\s*)(?:
    (?P<word>[-+*()^=]|[A-Za-z][A-Za-z0-9]*)
  | (?P<num>(?P<mantissa>\d+(?:\.\d*)?|\.\d+)(?:[eE](?P<exp>[+-]?\d+))?)
  | (?P<bad>\S)
  | \Z
)""", re.VERBOSE)

# in trig rank order: exp is 0, then cos and sin
_FUNCTIONS = ("exp", "cos", "sin")

# the tokens that may follow a factor as an implicit product
_IMPLICIT = ("t", *_FUNCTIONS, "(")

# the tokens that commit a factor to "(t^a)^" integer
_TPOW_PAREN = ["(", "t", "^", "a", ")", "^"]

#: The highest derivative order ``T<k>`` accepted.
MAX_ORDER = 256

#: The highest t-power ``t^(k a)`` accepted.
MAX_T_POWER = 64

# digits of a literal and of its exponent: CPython's default limit for
# converting a decimal string to an int
_MAX_DIGITS = 4300


class EquationSyntaxError(ValueError):
    """Parse failure with the character offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


def _number(text: str, mantissa: str, exponent: str, pos: int) -> tuple[int, int]:
    """A literal's exact value as integers ``(num, den)``, den a power of
    ten.  A literal with an exponent or of more than 308 characters is
    checked first: text longer than the digit limit, or an exponent beyond
    it, is refused before anything is converted (Python refuses the first
    and would take unbounded time over the second), and so is a value
    beyond binary64.  Any other literal has at most 308 digits, so it is
    below 10**308."""
    if exponent or len(text) > 308:
        digits = exponent.lstrip("+-").lstrip("0")
        if len(text) > _MAX_DIGITS or len(digits) > 4 or int(digits or 0) > _MAX_DIGITS:
            raise EquationSyntaxError(
                f"numeric literal beyond {_MAX_DIGITS} digits or exponent {_MAX_DIGITS}", pos)
        if not math.isfinite(float(text)):
            raise EquationSyntaxError("non-finite numeric literal", pos)
    whole, _, fraction = mantissa.partition(".")
    shift = len(fraction) - int(exponent or 0)
    return int(whole + fraction) * 10 ** max(-shift, 0), 10 ** max(shift, 0)


def _lex(src: str) -> list[tuple[str, int, tuple[int, int] | None]]:
    """``(text, offset, value)`` per token, the value a number's ``(num,
    den)`` only; the last token is ``("", len(src), None)``, the end of
    input.  One ``findall`` matches every token, and each offset is the end
    of the previous token plus the whitespace before this one."""
    tokens = []
    end = 0
    for space, word, num, mantissa, exponent, bad in _TOKEN_RE.findall(src):
        pos = end + len(space)
        text = word or num
        if not text:
            if bad:
                raise EquationSyntaxError(f"unexpected character {bad!r}", pos)
            break
        tokens.append((text, pos, _number(num, mantissa, exponent, pos) if num else None))
        end = pos + len(text)
    tokens.append(("", len(src), None))
    return tokens


def _short(num: int, den: int) -> tuple[int, int]:
    """``num / den``, put in lowest terms once the denominator is long, so a
    long product's integers stay about as long as its value."""
    g = math.gcd(num, den) if den.bit_length() > 64 else 1
    return num // g, den // g


class _Product:
    """One product's factors, read into the integer fields of one term: the
    coefficient ``num / den``, ``upow``, the rate ``enum / eden`` and the
    first trig factor, its rank ``trig`` and frequency ``fnum / fden``.
    Parenthesised groups and later trig factors are kept aside and
    multiplied in by :meth:`terms`."""

    __slots__ = ("num", "den", "upow", "enum", "eden", "trig", "fnum", "fden", "groups")

    def __init__(self, num: int, den: int):
        self.num, self.den, self.upow, self.enum, self.eden = num, den, 0, 0, 1
        self.trig, self.fnum, self.fden, self.groups = 0, 0, 1, []

    def scale(self, num: int, den: int):
        """Multiply the coefficient by ``num / den`` (see :func:`_short`)."""
        self.num, self.den = _short(self.num * num, self.den * den)

    def terms(self) -> list[UTerm]:
        """The product's terms: one unless groups multiply it out through
        :func:`~confode.ualgebra.mul`, which merges like terms after each."""
        terms = [_term_of(self.num, self.den, self.upow, self.enum, self.eden,
                          self.trig, self.fnum, self.fden)]
        for group in self.groups:
            terms = list(mul(canonicalize(terms), group).terms)
        return terms


class _Parser:
    """Recursive descent that builds the forcing as a :class:`UExpr`."""

    def __init__(self, src: str, alpha: Fraction):
        self.tokens = _lex(src)
        self.alpha = alpha.numerator, alpha.denominator
        # alpha**k as (numerator, denominator) by k, each computed once
        self.powers: dict[int, tuple[int, int]] = {}
        self.i = 0

    # -- token plumbing

    def peek(self) -> str:
        """The current token's text; "" at the end of input."""
        return self.tokens[self.i][0]

    def take(self) -> str:
        text = self.tokens[self.i][0]
        if text:
            self.i += 1
        return text

    def expect(self, text: str):
        if self.tokens[self.i][0] != text:
            self.fail(f"'{text}'")
        self.i += 1

    def fail(self, expected: str):
        text, pos, _ = self.tokens[self.i]
        found = repr(text) if text else "end of input"
        raise EquationSyntaxError(f"found {found}", pos, expected)

    # -- grammar rules

    def equation(self) -> tuple[tuple[Fraction, ...], UExpr]:
        """The monic coefficients ``p_0 .. p_{n-1}`` and the forcing."""
        merged: dict[int, tuple[int, int]] = {}  # order: (num, den)
        sign = 1
        while True:
            order, (num, den) = self.lhs_term()
            a, b = merged.get(order, (0, 1))
            merged[order] = _short(a * den + sign * num * b, b * den)
            if self.peek() not in ("+", "-"):
                break
            sign = -1 if self.take() == "-" else 1
        self.expect("=")
        n = max(merged)
        lead, lead_den = merged[n]
        # the forcing is read divided by the leading coefficient
        rhs = self.expr(lead_den, lead) if n and lead else self.expr(1, 1)
        if self.peek():
            self.fail("end of input")
        if n < 1:
            raise EquationSyntaxError(
                "equation needs at least one derivative of y", 0)
        if lead == 0:
            raise EquationSyntaxError(
                f"leading coefficient (order {n}) is zero", 0)
        return tuple(Fraction(num * lead_den, den * lead)
                     for num, den in (merged.get(i, (0, 1)) for i in range(n))), rhs

    def lhs_term(self) -> tuple[int, tuple[int, int]]:
        text, pos, coeff = self.tokens[self.i]
        if coeff is None:
            coeff = (1, 1)
        else:
            self.i += 1
            text, pos, _ = self.tokens[self.i]
        order = 0
        if text[:1] == "T":
            digits = text[1:] or "1"
            if not digits.isdigit():
                self.fail("derivative 'T' or 'T<k>'")
            digits = digits.lstrip("0") or "0"
            # checked before any coefficient vector of that length is built
            if len(digits) > 3 or int(digits) > MAX_ORDER:
                raise EquationSyntaxError(
                    f"derivative order above the supported limit {MAX_ORDER}", pos)
            self.i += 1
            order = int(digits)
        if self.peek() != "y":
            self.fail("a left-side term: [number] [T<k>] 'y'")
        self.i += 1
        return order, coeff

    def expr(self, num: int, den: int) -> UExpr:
        """``num / den`` times a sum: every product's terms, canonicalised once."""
        terms = self.prod(num, den)
        while self.peek() in ("+", "-"):
            terms += self.prod(-num if self.take() == "-" else num, den)
        return canonicalize(terms)

    def prod(self, num: int, den: int) -> list[UTerm]:
        product = _Product(num, den)
        self.factor(product)
        while True:
            if self.peek() == "*":
                self.i += 1
            # implicit product: only before a symbol/function/parenthesis,
            # so "2 3" is rejected and "2 - 3" stays a subtraction
            elif self.peek() not in _IMPLICIT:
                return product.terms()
            self.factor(product)

    def factor(self, product: _Product):
        """Multiply the next factor into ``product``."""
        text, pos, value = self.tokens[self.i]
        if text == "-":
            self.i += 1
            product.num = -product.num
            self.factor(product)
        elif value is not None:
            self.i += 1
            product.scale(*value)
        elif text == "t":
            self.tpow_plain(product)
        elif text in _FUNCTIONS:
            self.func(product)
        elif text[:1].isalpha():
            raise EquationSyntaxError(
                f"{text!r} is not part of the exponential-polynomial-"
                "trigonometric forcing class", pos,
                "number, 't^a', exp/sin/cos, or '('")
        elif text == "(":
            # "(t^a)^" commits to a t-power; any other "(" opens a group
            if [t[0] for t in self.tokens[self.i:self.i + 6]] == _TPOW_PAREN:
                self.i += 6
                self.tpow(product, self.integer("a positive integer power"))
                return
            self.i += 1
            product.groups.append(self.expr(1, 1))
            self.expect(")")
        else:
            self.fail("a forcing factor")

    def tpow_plain(self, product: _Product):
        # "t^a" or "t^(k a)"
        self.i += 1  # t
        self.expect("^")
        if self.peek() == "(":
            self.i += 1
            k = self.integer("a positive integer power")
            self.expect("a")
            self.expect(")")
            self.tpow(product, k)
            return
        self.expect("a")
        self.tpow(product, 1)

    def tpow(self, product: _Product, k: int):
        # t^(k alpha) = (alpha u)^k
        power = self.powers.get(k)
        if power is None:
            power = self.powers[k] = (self.alpha[0] ** k, self.alpha[1] ** k)
        product.scale(*power)
        product.upow += k

    def func(self, product: _Product):
        kind = self.take()
        self.expect("(")
        num, den = 1, 1  # also "exp(-t^a)"
        if self.peek() == "-":
            self.i += 1
            num = -1
        value = self.tokens[self.i][2]
        if value is not None:
            num, den = num * value[0], value[1]
            self.i += 1
            if self.peek() == "*":
                self.i += 1
        if self.peek() != "t":
            self.fail("'t^a'")
        self.i += 1
        self.expect("^")
        self.expect("a")
        self.expect(")")
        # the rate c * alpha
        num, den = num * self.alpha[0], den * self.alpha[1]
        rank = _FUNCTIONS.index(kind)
        if not rank:
            product.enum, product.eden = _short(product.enum * den + num * product.eden,
                                                product.eden * den)
        elif not product.trig:
            product.trig, product.fnum, product.fden = rank, num, den
        else:  # product-to-sum, merged like a group's product
            product.groups.append(expr(_term_of(1, 1, 0, 0, 1, rank, num, den)))

    def integer(self, expected: str) -> int:
        """A positive integer t-power exponent written as digits, at most
        MAX_T_POWER: ``2.0`` and ``2e0`` are refused, although they equal 2."""
        text, pos, value = self.tokens[self.i]
        if not text.isdecimal() or value[0] <= 0:
            self.fail(expected)
        if value[0] > MAX_T_POWER:
            raise EquationSyntaxError(
                f"t-power exponent {value[0]} exceeds the supported limit {MAX_T_POWER}", pos)
        self.i += 1
        return value[0]


def problem_from_source(src: str, alpha: float) -> ProblemSpec:
    """Parse equation text at the given alpha into a monic ProblemSpec.

    Alpha is checked by :class:`SubstMap` and read as
    ``Fraction(repr(alpha))`` (0.3 is 3/10).  Malformed text raises
    :class:`EquationSyntaxError` with the offset of the fault.
    """
    exact_alpha = Fraction(repr(SubstMap(alpha).alpha))
    coeffs, forcing = _Parser(src, exact_alpha).equation()
    return ProblemSpec(coeffs, alpha, forcing)
