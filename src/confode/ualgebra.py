"""Canonical algebra of exponential-polynomial-trigonometric functions of u.

All symbolic work in this package happens in the substituted variable
``u = t**alpha / alpha``, where the conformable derivative of order alpha
acts as plain d/du.  Every function the solver manipulates -- homogeneous
solutions, forcing terms, particular solutions -- is a
finite sum of terms

    coeff * u**upow * exp(erate*u) * {1 | cos(tfreq*u) | sin(tfreq*u)}

and this module implements that sum type: canonical construction, the
ring operations, d/du, and evaluation back in the t domain, at one point
(:func:`eval_expr`) or at a fixed set of points (:class:`PointTable`).

Every number in a term is an exact rational, so the cancellation the
solver depends on is exact, and merging drops only exact zeros.  Numbers
are rounded to binary64 once per expression, in :attr:`UExpr.lowered`, which
evaluation, rendering and the JSON records read, and which the constant
fit and the oracle derive: the same float levels for an exact expression
and for a JSON document that holds only its lowering.

Exact work is done once.  Each term carries a merge key of plain ints
(``upow``, the numerator and denominator of ``erate``, the trig rank, the
numerator and denominator of ``tfreq``), computed when the term is built,
so :func:`canonicalize` hashes ints rather than :class:`~fractions.Fraction`
objects, and sorts exact rates as integers over a common denominator.  Terms
whose fields are already canonical (merged totals, derivative children)
are built by a private constructor that skips re-validation.  Each
:class:`UExpr` derives itself once: :func:`diff_u` returns the cached
:attr:`UExpr.derivative`, so every caller that differentiates the same
expression object (the constant fit, the oracle) shares its levels.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import repeat

COS = "cos"
SIN = "sin"

_TRIG_ORDER = {None: 0, COS: 1, SIN: 2}


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _read_only(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of a class whose attributes are
    set once, when it is built.

    ``__init__`` sets them with ``object.__setattr__``, one at a time, which
    keeps CPython's compact per-instance storage; assigning a whole
    ``__dict__`` makes an instance of one to three attributes 248 bytes
    instead of 88-104 (64-bit CPython 3.11).  :class:`UTerm`
    and :func:`_term` still assign the whole dict, which is the faster way
    to store its six entries.
    """
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class UTerm:
    """One product ``coeff * u^upow * e^(erate*u) * trig(tfreq*u)``.

    Construction normalizes trig parity so that ``tfreq`` is never
    negative (``cos(-b*u) = cos(b*u)``, ``sin(-b*u) = -sin(b*u)``) and
    collapses zero frequencies (``cos(0) = 1``, ``sin(0) = 0``), so a
    term with ``trig is None`` always has ``tfreq == 0`` and a term with
    a trig factor always has ``tfreq > 0``.

    A float is read as its dyadic value; only the terms of a
    :attr:`UExpr.lowered` expression hold floats.

    The fields are ``coeff``, ``upow``, ``erate``, ``trig`` and ``tfreq``;
    they are read-only.  The term also computes its integer merge key once
    (see :func:`_term`).  The key sits in the instance dict next to the
    fields, but equality, hashing and repr read only the fields.
    """

    def __init__(self, coeff: Fraction, upow: int = 0, erate: Fraction = Fraction(0),
                 trig: str | None = None, tfreq: Fraction = Fraction(0)):
        if upow != int(upow) or upow < 0:
            raise ValueError(f"upow must be a non-negative integer, got {upow!r}")
        if trig not in _TRIG_ORDER:
            raise ValueError(f"trig must be None, {COS!r} or {SIN!r}, got {trig!r}")
        coeff = _rat(coeff)
        erate = _rat(erate)
        tfreq = _rat(tfreq)
        if trig is None:
            if tfreq != 0:
                raise ValueError("tfreq must be zero when there is no trig factor")
        else:
            if tfreq < 0:
                if trig == SIN:
                    coeff = -coeff
                tfreq = -tfreq
            if tfreq == 0:
                coeff = coeff if trig == COS else Fraction(0)
                trig = None
        upow = int(upow)
        object.__setattr__(self, "__dict__", {
            "coeff": coeff, "upow": upow, "erate": erate, "trig": trig, "tfreq": tfreq,
            "_mkey": (upow, erate.numerator, erate.denominator, _TRIG_ORDER[trig],
                      tfreq.numerator, tfreq.denominator)})

    __setattr__ = __delattr__ = _read_only

    def _fields(self) -> tuple:
        return (self.coeff, self.upow, self.erate, self.trig, self.tfreq)

    def __eq__(self, other):
        if type(other) is not UTerm:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"UTerm(coeff={self.coeff!r}, upow={self.upow!r}, erate={self.erate!r}, "
                f"trig={self.trig!r}, tfreq={self.tfreq!r})")

    @property
    def key(self):
        """The key ``(upow, erate, trig rank, tfreq)`` canonical order sorts by."""
        return (self.upow, self.erate, self._mkey[3], self.tfreq)


def _term(coeff, upow: int, erate, trig: str | None, tfreq, mkey: tuple) -> UTerm:
    """A :class:`UTerm` from fields that are already canonical, not re-validated.

    ``mkey`` is the merge key ``UTerm(...)`` would compute for the exact
    fields: ``(upow, erate numerator, erate denominator, trig rank, tfreq
    numerator, tfreq denominator)``; a lowered term passes floats with it.
    """
    term = object.__new__(UTerm)
    object.__setattr__(term, "__dict__", {"coeff": coeff, "upow": upow, "erate": erate,
                                          "trig": trig, "tfreq": tfreq, "_mkey": mkey})
    return term


class UExpr:
    """A canonical sum of :class:`UTerm`: keys unique, sorted, no zero term.

    ``terms`` is the one field, read-only; the empty tuple is the zero
    function.  Instances are only built through :func:`canonicalize` (or
    the operations below, which all re-canonicalize), so structural
    equality of exact expressions is semantic equality.  Equality, hashing
    and repr read ``terms`` only, never the cached lowering and
    derivative.
    """

    def __init__(self, terms: tuple[UTerm, ...] = ()):
        object.__setattr__(self, "terms", terms)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if type(other) is not UExpr:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"UExpr(terms={self.terms!r})"

    @property
    def lowered(self) -> UExpr:
        """Every number rounded to binary64 once, as ``float(Fraction)`` does
        (``int / int``); terms that round to zero are dropped, terms whose
        rates round to the same binary64 values are merged, as reading the
        JSON records merges them, and a coefficient beyond binary64 raises
        OverflowError."""
        terms = self.terms
        return self if not terms or type(terms[0].coeff) is float else self._rounded

    @cached_property
    def _rounded(self) -> UExpr:
        out = []
        for t in self.terms:
            c = t.coeff.numerator / t.coeff.denominator
            if c:
                upow, erate_num, erate_den, rank, tfreq_num, tfreq_den = t._mkey
                erate, tfreq = erate_num / erate_den, tfreq_num / tfreq_den
                out.append(_term(c, upow, erate, t.trig, tfreq,
                                 (upow, *erate.as_integer_ratio(), rank,
                                  *tfreq.as_integer_ratio())))
        return canonicalize(out)

    @cached_property
    def float_rows(self) -> tuple[tuple[float, int, float, int, float], ...]:
        """``(coeff, upow, erate, trig rank, tfreq)`` per term of the lowering."""
        return tuple((t.coeff, t.upow, t.erate, t._mkey[3], t.tfreq) for t in self.lowered.terms)

    @cached_property
    def derivative(self) -> UExpr:
        """d/du of this expression, derived once per instance.

        :func:`diff_u` returns it, so the levels of one expression object
        are shared by every caller.  The derivative of a lowered expression
        is lowered: float products of its floats.
        """
        return _derive(self)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: UExpr) -> UExpr:
        return add(self, other)

    def __sub__(self, other: UExpr) -> UExpr:
        return add(self, scale(other, -1))

    def __neg__(self) -> UExpr:
        return scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, UExpr):
            return mul(self, other)
        return scale(self, other)

    __rmul__ = __mul__


ZERO = UExpr()


def expr(*terms: UTerm) -> UExpr:
    """Build a canonical expression from loose terms."""
    return canonicalize(terms)


class SubstMap:
    """Carries alpha (read-only) and the substitution ``u = t**alpha / alpha``."""

    def __init__(self, alpha: float):
        a = float(alpha)
        if not 0.0 < a <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        object.__setattr__(self, "alpha", a)

    __setattr__ = __delattr__ = _read_only

    def u_of(self, t: float | complex) -> float | complex:
        """``t**alpha / alpha``; a complex ``t`` is a step off a real point."""
        if t.real <= 0.0:
            raise ValueError(f"the substitution requires t > 0, got t={t!r}")
        return t ** self.alpha / self.alpha


def _slot_key(slot):
    return slot[1].key


def _canonical_order(acc: dict) -> list:
    """The slots of ``acc`` in the order of their terms' :attr:`UTerm.key`.

    Lowered terms hold binary64 rates, which compare exactly as they are.
    Exact rates are put over the common denominator of their kind, so the
    integer numerators order as the rates do and no
    :class:`~fractions.Fraction` is compared.  Either order is exact for
    any mix of terms; the first term picks the faster one.
    """
    slots = list(acc.values())
    if type(slots[0][1].erate) is float:
        return sorted(slots, key=_slot_key)
    e_den = math.lcm(*[k[2] for k in acc])
    f_den = math.lcm(*[k[5] for k in acc])

    def key(slot):
        upow, en, ed, rank, fn, fd = slot[1]._mkey
        return upow, en * (e_den // ed), rank, fn * (f_den // fd)
    return sorted(slots, key=key)


def canonicalize(terms) -> UExpr:
    """Merge like terms, drop exact zeros, sort by key.

    Terms merge on their integer keys, summed in input order, and a merged
    coefficient is dropped only when it is exactly zero.  Only the distinct
    keys are sorted (see :func:`_canonical_order`).

    Idempotent: applying it to an already-canonical expression returns an
    equal expression.
    """
    acc: dict[tuple, list] = {}
    for term in terms:
        slot = acc.get(term._mkey)
        if slot is None:
            acc[term._mkey] = [term.coeff, term]
        else:
            slot[0] += term.coeff
    out = []
    for total, t in _canonical_order(acc) if len(acc) > 1 else acc.values():
        if total:
            out.append(t if total is t.coeff  # not merged
                       else _term(total, t.upow, t.erate, t.trig, t.tfreq, t._mkey))
    return UExpr(tuple(out))


def add(f: UExpr, g: UExpr) -> UExpr:
    return canonicalize(f.terms + g.terms)


def scale(f: UExpr, c) -> UExpr:
    """``c * f``, with ``c`` read exactly (a float is its dyadic value)."""
    c = _rat(c)
    return canonicalize([_term(t.coeff * c, t.upow, t.erate, t.trig, t.tfreq, t._mkey)
                         for t in f.terms])


def _mul_terms(t1: UTerm, t2: UTerm) -> list[UTerm]:
    coeff = t1.coeff * t2.coeff
    upow = t1.upow + t2.upow
    erate = t1.erate + t2.erate
    if t1.trig is None and t2.trig is None:
        return [UTerm(coeff, upow, erate)]
    if t1.trig is None:
        return [UTerm(coeff, upow, erate, t2.trig, t2.tfreq)]
    if t2.trig is None:
        return [UTerm(coeff, upow, erate, t1.trig, t1.tfreq)]
    # Product-to-sum: the class is closed, each trig*trig pair gives two
    # terms at frequencies b1-b2 and b1+b2 (parity fixed at construction).
    b1, b2 = t1.tfreq, t2.tfreq
    half = coeff / 2
    pair = (t1.trig, t2.trig)
    if pair == (COS, COS):
        return [UTerm(half, upow, erate, COS, b1 - b2),
                UTerm(half, upow, erate, COS, b1 + b2)]
    if pair == (SIN, SIN):
        return [UTerm(half, upow, erate, COS, b1 - b2),
                UTerm(-half, upow, erate, COS, b1 + b2)]
    if pair == (SIN, COS):
        return [UTerm(half, upow, erate, SIN, b1 + b2),
                UTerm(half, upow, erate, SIN, b1 - b2)]
    return [UTerm(half, upow, erate, SIN, b1 + b2),
            UTerm(-half, upow, erate, SIN, b1 - b2)]


def mul(f: UExpr, g: UExpr) -> UExpr:
    out = []
    for t1 in f.terms:
        for t2 in g.terms:
            out.extend(_mul_terms(t1, t2))
    return canonicalize(out)


def diff_u(f: UExpr) -> UExpr:
    """Term-wise d/du (product rule; at most three child terms per term).

    Returns ``f.derivative``: each expression object is derived once.
    """
    return f.derivative


def _derive(f: UExpr) -> UExpr:
    # Children multiply the parent's fields (exact, or float for a lowered
    # term) and take the parent's merge keys: no term is re-validated.
    out = []
    for t in f.terms:
        coeff, upow, erate, tfreq, key = t.coeff, t.upow, t.erate, t.tfreq, t._mkey
        if upow:
            out.append(_term(coeff * upow, upow - 1, erate, t.trig, tfreq,
                             (upow - 1,) + key[1:]))
        if key[1]:  # erate != 0, tested exactly
            out.append(_term(coeff * erate, upow, erate, t.trig, tfreq, key))
        if key[3] == 1:  # COS
            out.append(_term(-coeff * tfreq, upow, erate, SIN, tfreq,
                             key[:3] + (2,) + key[4:]))
        elif key[3] == 2:  # SIN
            out.append(_term(coeff * tfreq, upow, erate, COS, tfreq,
                             key[:3] + (1,) + key[4:]))
    return canonicalize(out)


def lowered_levels(f: UExpr, count: int) -> list[UExpr]:
    """``f``'s binary64 lowering and its first ``count - 1`` u-derivatives.

    The levels are the lowering's cached derivative chain, so the constant
    fit and the oracle share every level either of them derives.
    """
    levels = [f.lowered]
    for _ in range(count - 1):
        levels.append(levels[-1].derivative)
    return levels


def eval_expr(f: UExpr, t: float, subst: SubstMap) -> float:
    """Evaluate back in the t domain through ``u = t**alpha / alpha``."""
    u = subst.u_of(t)
    total = 0.0
    for coeff, upow, erate, trig, tfreq in f.float_rows:
        v = coeff
        if upow:
            v *= u ** upow
        if erate:
            v *= math.exp(erate * u)
        if trig == 1:  # COS
            v *= math.cos(tfreq * u)
        elif trig == 2:  # SIN
            v *= math.sin(tfreq * u)
        total += v
    return total


class PointTable:
    """Evaluates expressions at a fixed set of points, all points at once.

    The factor values ``u**k``, ``exp(r*u)``, ``cos(b*u)`` and ``sin(b*u)``
    are filled on demand, one column per distinct key, and shared by every
    expression the table evaluates.  Columns use Python's ``**`` and
    :mod:`math`, and :meth:`eval` multiplies and sums them in the order of
    :func:`eval_expr`, so ``eval(f)[i] == eval_expr(f, ts[i], subst)``
    bit for bit.  Complex points (the oracle's complex step) take
    :mod:`cmath`'s functions instead; nothing else differs.  Their values'
    real parts then equal the real table's except where complex ``**``
    rounds ``u**k``, ``k >= 3``, differently, by an ulp or so.  Results
    are not kept: a caller that needs an expression's values twice keeps
    them itself, as :class:`~confode.conformable.OracleGrid` does.
    """

    def __init__(self, ts, subst: SubstMap):
        self.u = [subst.u_of(t) for t in ts]
        lib = cmath if any(type(u) is complex for u in self.u) else math
        self._exp, self._cos, self._sin = lib.exp, lib.cos, lib.sin
        self._columns: dict[tuple, list[float]] = {}

    def _column(self, kind, x) -> list[float]:
        """``u**x`` (kind None) or ``kind(x*u)`` at every point, filled once."""
        col = self._columns.get((kind, x))
        if col is None:
            if kind is None:
                col = [u ** x for u in self.u]
            else:
                col = [kind(x * u) for u in self.u]
            self._columns[kind, x] = col
        return col

    def eval(self, f: UExpr) -> tuple[float, ...]:
        """Values of ``f`` at every point.

        Each point's value depends on that point alone, so a point gives the
        same value in any table that holds it (verify's oracle adds ``t0``
        to the grid's table on that ground).
        """
        total = repeat(0.0, len(self.u))  # the first row adds to 0.0, as in eval_expr
        for coeff, upow, erate, trig, tfreq in f.float_rows:
            cols = []
            if upow:
                cols.append(self._column(None, upow))
            if erate:
                cols.append(self._column(self._exp, erate))
            if trig == 1:  # COS
                cols.append(self._column(self._cos, tfreq))
            elif trig == 2:  # SIN
                cols.append(self._column(self._sin, tfreq))
            # one product per point, left to right from coeff as in eval_expr
            if not cols:
                total = [s + coeff for s in total]
            elif len(cols) == 1:
                total = [s + coeff * a for s, a in zip(total, *cols)]
            elif len(cols) == 2:
                total = [s + coeff * a * b for s, a, b in zip(total, *cols)]
            else:
                total = [s + coeff * a * b * c for s, a, b, c in zip(total, *cols)]
        return tuple(total)


# ---------------------------------------------------------------------------
# rendering

def _fmt(x: float) -> str:
    if not math.isfinite(x):  # such as a rate over an alpha near zero
        raise OverflowError(f"the t form of the solution holds {x}")
    return f"{x:.10g}"


def _term_factors_t(term: UTerm, alpha: float) -> list[str]:
    # term is lowered: its numbers are floats
    factors = []
    if term.upow:
        factors.append("t^" + _fmt(term.upow * alpha))
    if term.erate:
        factors.append("e^{" + _fmt(term.erate / alpha) + "·t^" + _fmt(alpha) + "}")
    if term.trig:
        factors.append(f"{term.trig}({_fmt(term.tfreq / alpha)}·t^{_fmt(alpha)})")
    return factors


def _join(parts: list[tuple[float, list[str]]]) -> str:
    if not parts:
        return "0"
    chunks = []
    for i, (coeff, factors) in enumerate(parts):
        mag = abs(coeff)
        body = "·".join(([_fmt(mag)] if not factors or mag != 1.0 else []) + factors)
        if i == 0:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks)


def format_t(f: UExpr, subst: SubstMap) -> str:
    """Deterministic rendering in the t variable with alpha substituted.

    Powers of u are folded into the coefficient: ``u^k = t^(k*alpha) /
    alpha^k``.  The lowering is what is rendered.  A number that does not
    fit binary64 in the t form raises OverflowError.
    """
    alpha = subst.alpha
    # an alpha^k that underflows to 0 overflows the coefficient
    return _join([(t.coeff / alpha ** t.upow if alpha ** t.upow else math.inf,
                   _term_factors_t(t, alpha))
                  for t in f.lowered.terms])


def term_records(f: UExpr) -> list[dict]:
    """JSON-ready list of the lowering's term records (numbers as floats)."""
    return [
        {"coeff": t.coeff, "upow": t.upow, "erate": t.erate, "trig": t.trig, "tfreq": t.tfreq}
        for t in f.lowered.terms
    ]


def expr_from_records(records) -> UExpr:
    """Term records read exactly (NaN raises ValueError, inf OverflowError)."""
    return canonicalize([
        UTerm(float(r["coeff"]), int(r["upow"]), float(r["erate"]), r["trig"],
              float(r["tfreq"]))
        for r in records
    ])
