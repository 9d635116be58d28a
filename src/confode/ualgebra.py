"""Canonical algebra of exponential-polynomial-trigonometric functions of u.

All symbolic work in this package happens in the substituted variable
``u = t**alpha / alpha``, where the conformable derivative of order alpha
acts as plain d/du.  Every function the solver manipulates -- homogeneous
solutions, forcing terms, particular solutions -- is a
finite sum of terms

    coeff * u**upow * exp(erate*u) * {1 | cos(tfreq*u) | sin(tfreq*u)}

and this module implements that sum type: canonical construction, the
ring operations, d/du, and evaluation back in the t domain.  Evaluation
has one rounding rule: each row is ``coeff * shape``, the shape's factors
multiplied left to right, and the rows are summed in order, at one point
(:func:`eval_expr`) or at a fixed set of points (:class:`PointTable`,
whose shape columns the oracle reads too).

Every number in a term is an exact rational, so the cancellation the
solver depends on is exact, and merging drops only exact zeros.  The one
binary64 form of an expression is its rows, :attr:`UExpr.float_rows`: one
``(coeff, upow, erate, trig rank, tfreq)`` tuple of floats and ints per
term, each number rounded once.  Evaluation, rendering and the JSON records
read them.  The constant fit and the oracle read its derivative *levels*,
rows derived from the previous level's rows by :func:`lowered_levels`: the
same float levels for an exact expression and for a JSON document that
holds only its rows.

Exact work is done once.  Each term carries a merge key of plain ints
(``upow``, the numerator and denominator of ``erate``, the trig rank, the
numerator and denominator of ``tfreq``), computed when the term is built,
so :func:`canonicalize` hashes ints rather than :class:`~fractions.Fraction`
objects, and sorts exact rates as integers over a common denominator.  Terms
whose fields are already canonical (merged totals, derivative children)
are built by a private constructor that skips re-validation.  Each
:class:`UExpr` derives its binary64 levels once: :func:`lowered_levels`
returns the levels cached on the expression, so every caller that lowers
the same expression object (the constant fit, the oracle) shares them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property

COS = "cos"
SIN = "sin"

_TRIG_NAMES = (None, COS, SIN)  # by trig rank


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

    Every number a term holds is an exact
    :class:`~fractions.Fraction`; a float is read as its dyadic value.  The
    binary64 form of terms is the rows of :attr:`UExpr.float_rows`.

    The fields are ``coeff``, ``upow``, ``erate``, ``trig`` and ``tfreq``;
    they are read-only.  The term also computes its integer merge key once
    (see :func:`_term`).  The key sits in the instance dict next to the
    fields, but equality, hashing and repr read only the fields.
    """

    def __init__(self, coeff: Fraction, upow: int = 0, erate: Fraction = Fraction(0),
                 trig: str | None = None, tfreq: Fraction = Fraction(0)):
        if upow != int(upow) or upow < 0:
            raise ValueError(f"upow must be a non-negative integer, got {upow!r}")
        if trig not in _TRIG_NAMES:
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
            "_mkey": (upow, erate.numerator, erate.denominator, _TRIG_NAMES.index(trig),
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


def _term(coeff, upow: int, erate, trig: str | None, tfreq, mkey: tuple) -> UTerm:
    """A :class:`UTerm` from fields that are already canonical, not re-validated.

    ``mkey`` is the merge key ``UTerm(...)`` would compute for the exact
    fields: ``(upow, erate numerator, erate denominator, trig rank, tfreq
    numerator, tfreq denominator)``.
    """
    term = object.__new__(UTerm)
    object.__setattr__(term, "__dict__", {"coeff": coeff, "upow": upow, "erate": erate,
                                          "trig": trig, "tfreq": tfreq, "_mkey": mkey})
    return term


#: The binary64 form of an expression or of one of its derivative levels:
#: ``(coeff, upow, erate, trig rank, tfreq)`` per term, sorted by the rest.
Rows = tuple[tuple[float, int, float, int, float], ...]


class UExpr:
    """A canonical sum of :class:`UTerm`: keys unique, sorted, no zero term.

    ``terms`` is the one field, read-only; the empty tuple is the zero
    function.  Instances are only built through :func:`canonicalize` (or
    :func:`add`, :func:`scale`, :func:`mul` and :func:`diff_u`, which all
    re-canonicalize), so structural equality is semantic equality.
    Equality, hashing and repr read ``terms`` only, never the cached rows
    and levels.
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

    @cached_property
    def float_rows(self) -> Rows:
        """The binary64 form: ``(coeff, upow, erate, trig rank, tfreq)`` per
        term, trig rank 0, 1 for cos or 2 for sin.

        Every number is rounded once, as ``float(Fraction)`` does (``int /
        int``); a coefficient that rounds to zero drops its term, terms whose
        rates round to the same binary64 values merge in input order, as
        reading the JSON records merges them, and a merge that cancels
        drops its row.  The rows sort by ``(upow, erate, trig rank,
        tfreq)``.  A coefficient beyond binary64 raises OverflowError.
        """
        acc = {}
        for t in self.terms:
            if c := t.coeff.numerator / t.coeff.denominator:
                upow, erate_num, erate_den, rank, tfreq_num, tfreq_den = t._mkey
                key = (upow, erate_num / erate_den, rank, tfreq_num / tfreq_den)
                acc[key] = acc.get(key, 0.0) + c
        return tuple([(c, *key) for key, c in sorted(acc.items()) if c])

    @cached_property
    def _levels(self) -> list[Rows]:
        # the binary64 levels lowered_levels has derived so far
        return [self.float_rows]

    def is_zero(self) -> bool:
        return not self.terms


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


def _canonical_order(acc: dict) -> list:
    """The slots of ``acc`` in the order of their terms' ``(upow, erate,
    trig rank, tfreq)``.

    Rates are put over the common denominator of their kind, so the integer
    numerators order as the rates do and no :class:`~fractions.Fraction` is
    compared.
    """
    e_den = math.lcm(*[k[2] for k in acc])
    f_den = math.lcm(*[k[5] for k in acc])

    def key(slot):
        upow, en, ed, rank, fn, fd = slot[1]._mkey
        return upow, en * (e_den // ed), rank, fn * (f_den // fd)
    return sorted(acc.values(), key=key)


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


#: Product-to-sum: the product of two trig factors of frequencies b1 and b2
#: is half a sum of two terms of one kind, at b1 - b2 and b1 + b2 (parity
#: fixed at construction): ``(kind, sign at b1 - b2, sign at b1 + b2)``.
_PRODUCT_TO_SUM = {(COS, COS): (COS, 1, 1), (SIN, SIN): (COS, 1, -1),
                   (SIN, COS): (SIN, 1, 1), (COS, SIN): (SIN, -1, 1)}


def _mul_terms(t1: UTerm, t2: UTerm) -> list[UTerm]:
    coeff = t1.coeff * t2.coeff
    upow = t1.upow + t2.upow
    erate = t1.erate + t2.erate
    if t1.trig is None or t2.trig is None:
        trig, tfreq = (t2.trig, t2.tfreq) if t1.trig is None else (t1.trig, t1.tfreq)
        return [UTerm(coeff, upow, erate, trig, tfreq)]
    kind, minus, plus = _PRODUCT_TO_SUM[t1.trig, t2.trig]
    half = coeff / 2
    return [UTerm(minus * half, upow, erate, kind, t1.tfreq - t2.tfreq),
            UTerm(plus * half, upow, erate, kind, t1.tfreq + t2.tfreq)]


def mul(f: UExpr, g: UExpr) -> UExpr:
    out = []
    for t1 in f.terms:
        for t2 in g.terms:
            out.extend(_mul_terms(t1, t2))
    return canonicalize(out)


def diff_u(f: UExpr) -> UExpr:
    """Term-wise d/du (product rule; at most three child terms per term).

    Children multiply the parent's exact fields and take the parent's
    merge keys: no term is re-validated.
    """
    out = []
    for t in f.terms:
        coeff, upow, erate, tfreq, key = t.coeff, t.upow, t.erate, t.tfreq, t._mkey
        if upow:
            out.append(_term(coeff * upow, upow - 1, erate, t.trig, tfreq,
                             (upow - 1,) + key[1:]))
        if key[1]:  # erate != 0, tested exactly
            out.append(_term(coeff * erate, upow, erate, t.trig, tfreq, key))
        if key[3]:  # cos to -sin, sin to cos
            rank = 3 - key[3]
            out.append(_term((-coeff if rank == 2 else coeff) * tfreq, upow, erate,
                             _TRIG_NAMES[rank], tfreq, key[:3] + (rank,) + key[4:]))
    return canonicalize(out)


def _derive_rows(rows: Rows) -> Rows:
    """d/du of a level: :func:`diff_u`'s product rule on binary64 rows.

    The children ``coeff*upow``, ``coeff*erate`` and ``-coeff*tfreq`` (cos
    to sin) or ``coeff*tfreq`` (sin to cos) merge on their keys in input
    order, as :attr:`UExpr.float_rows` merges terms; zeros drop and the
    rest sort by key.
    """
    acc = {}
    for coeff, upow, erate, rank, tfreq in rows:
        if upow:
            key = (upow - 1, erate, rank, tfreq)
            acc[key] = acc.get(key, 0.0) + coeff * upow
        if erate:
            key = (upow, erate, rank, tfreq)
            acc[key] = acc.get(key, 0.0) + coeff * erate
        if rank:
            key = (upow, erate, 3 - rank, tfreq)
            acc[key] = acc.get(key, 0.0) + (-coeff if rank == 1 else coeff) * tfreq
    return tuple([(c, *key) for key, c in sorted(acc.items()) if c])


def lowered_levels(f: UExpr, count: int) -> list[Rows]:
    """``f``'s rows and the rows of its first ``count - 1`` u-derivatives.

    Each level is derived from the previous level's rows
    (:func:`_derive_rows`) once per expression object and cached on it, so
    the constant fit and the oracle share every level either of them
    derives.
    """
    levels = f._levels
    while len(levels) < count:
        levels.append(_derive_rows(levels[-1]))
    return levels[:count]


def eval_expr(f: UExpr | Rows, t: float, subst: SubstMap) -> float:
    """Evaluate an expression, or a level from :func:`lowered_levels`, back
    in the t domain through ``u = t**alpha / alpha``.

    Each row is ``coeff * shape``, the shape's factors multiplied left to
    right, and the rows are summed in order, as :meth:`PointTable.values`
    sums them at every point.
    """
    u = subst.u_of(t)
    total = 0.0
    for coeff, upow, erate, trig, tfreq in f.float_rows if isinstance(f, UExpr) else f:
        shape = u ** upow if upow else 1.0
        if erate:
            shape *= math.exp(erate * u)
        if trig == 1:  # COS
            shape *= math.cos(tfreq * u)
        elif trig == 2:  # SIN
            shape *= math.sin(tfreq * u)
        total += coeff * shape
    return total


class PointTable:
    """Evaluates term shapes and rows at a fixed set of points, all points at once.

    The factor values ``u**k``, ``exp(r*u)``, ``cos(b*u)`` and ``sin(b*u)``
    are filled on demand, one column per distinct key, and kept for every
    shape the table evaluates.  Columns use Python's ``**`` and :mod:`math`,
    and :meth:`values` rounds each row as :func:`eval_expr` does, so
    ``values(f.float_rows)[i] == eval_expr(f, ts[i], subst)`` bit for bit.
    Complex points (the oracle's complex step) take :mod:`cmath`'s functions
    instead, and :class:`~confode.conformable.OracleGrid` reads their
    :meth:`shape` columns only.
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

    def shape(self, upow: int, erate: float, trig: int, tfreq: float) -> list[float]:
        """The shape ``u**upow * exp(erate*u) * trig(tfreq*u)`` (trig rank 0,
        1 for cos or 2 for sin) at every point: its factor columns multiplied
        left to right, or 1.0 for the constant shape.  The product is not
        kept, and a one-factor shape is the table's own column: read it
        only."""
        cols = []
        if upow:
            cols.append(self._column(None, upow))
        if erate:
            cols.append(self._column(self._exp, erate))
        if trig:
            cols.append(self._column(self._cos if trig == 1 else self._sin, tfreq))
        if not cols:
            return [1.0] * len(self.u)
        z = cols[0]
        for col in cols[1:]:
            z = [a * b for a, b in zip(z, col)]
        return z

    def values(self, rows: Rows) -> list[float]:
        """The sum of ``rows`` at every point: ``s + coeff * shape`` over
        the rows in order, from 0.0."""
        total = [0.0] * len(self.u)
        for coeff, *shape in rows:
            total = [s + coeff * v for s, v in zip(total, self.shape(*shape))]
        return total


# ---------------------------------------------------------------------------
# rendering

def _fmt(x: float) -> str:
    if not math.isfinite(x):  # such as a rate over an alpha near zero
        raise OverflowError(f"the t form of the solution holds {x}")
    return f"{x:.10g}"


def _row_factors_t(upow: int, erate: float, rank: int, tfreq: float, alpha: float) -> list[str]:
    factors = []
    if upow:
        factors.append("t^" + _fmt(upow * alpha))
    if erate:
        factors.append("e^{" + _fmt(erate / alpha) + "·t^" + _fmt(alpha) + "}")
    if rank:
        factors.append(f"{_TRIG_NAMES[rank]}({_fmt(tfreq / alpha)}·t^{_fmt(alpha)})")
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
    alpha^k``.  The rows are what is rendered.  A number that does not
    fit binary64 in the t form raises OverflowError.
    """
    alpha = subst.alpha
    # an alpha^k that underflows to 0 overflows the coefficient
    return _join([(coeff / alpha ** upow if alpha ** upow else math.inf,
                   _row_factors_t(upow, *shape, alpha))
                  for coeff, upow, *shape in f.float_rows])


def term_records(f: UExpr) -> list[dict]:
    """JSON-ready list of term records, one per row (numbers as floats)."""
    return [
        {"coeff": coeff, "upow": upow, "erate": erate, "trig": _TRIG_NAMES[rank], "tfreq": tfreq}
        for coeff, upow, erate, rank, tfreq in f.float_rows
    ]


def json_int(value, key: str) -> int:
    """``value`` read from the JSON key ``key``, which must hold an integer:
    a float or a bool raises ValueError naming the key."""
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def json_float(value, key: str) -> float:
    """``value`` read from the JSON key ``key``, which must hold a number (a
    JSON int or float): a string, a bool or any other value raises
    ValueError naming the key."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def expr_from_records(records) -> UExpr:
    """Term records read exactly (NaN raises ValueError, inf OverflowError)."""
    return canonicalize([
        UTerm(json_float(r["coeff"], "coeff"), json_int(r["upow"], "upow"),
              json_float(r["erate"], "erate"), r["trig"], json_float(r["tfreq"], "tfreq"))
        for r in records
    ])
