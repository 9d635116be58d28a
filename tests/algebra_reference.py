"""The term algebra's hot paths as plain exact references, for equality tests.

``canonicalize`` merges terms in a dict of ``Fraction`` totals keyed by the
exact ``Fraction`` key and builds every surviving term through the
validating ``UTerm`` constructor; ``diff_u`` applies the product rule,
building each child term the same way from the parent's fields; and
``shift_response`` runs the exponential-shift synthetic division over
Gaussian rationals, normalising a ``Fraction`` at every step, with an
``== 0`` resonance test.  The library does the same arithmetic on integer
merge keys and plain integers, and the tests require results equal to
these.  ``key`` is the exact key ``(upow, erate, trig rank, tfreq)`` that
canonical order sorts by.

``lowered_levels`` is the binary64 derivation as the library once did it:
each exact term rounded to a float term (``num / den``), then float terms
derived by the product rule and merged, slot by slot, on the exact integer
ratios of their floats, as the float branch of ``canonicalize`` merged
them.  The library now derives rows from rows without building a term,
and the tests require its levels to equal these, row for row and type for
type.

``apply_operator`` applies an equation's left side to an expression with
the library's own exact operations; the tests require ``apply_operator(spec,
v) == q`` for a particular solution ``v`` of forcing ``q``, and a zero
result for every basis element.
"""

from __future__ import annotations

import math
from fractions import Fraction

from confode import ualgebra
from confode.ualgebra import COS, SIN, UExpr, UTerm

_TRIG_BY_ORDER = (None, COS, SIN)


def key(term: UTerm) -> tuple:
    """The exact key ``(upow, erate, trig rank, tfreq)`` of a term."""
    return (term.upow, term.erate, _TRIG_BY_ORDER.index(term.trig), term.tfreq)


def canonicalize(terms) -> UExpr:
    """Merge like terms on the exact key, drop exact zeros, sort."""
    acc: dict[tuple, Fraction] = {}
    for term in terms:
        k = key(term)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(term.coeff)
    out = []
    for k in sorted(acc):
        if acc[k]:
            upow, erate, trig_rank, tfreq = k
            out.append(UTerm(acc[k], upow, erate, _TRIG_BY_ORDER[trig_rank], tfreq))
    return UExpr(tuple(out))


def diff_u(f: UExpr) -> UExpr:
    """Term-wise d/du (product rule; at most three child terms per term)."""
    out = []
    for t in f.terms:
        if t.upow:
            out.append(UTerm(t.coeff * t.upow, t.upow - 1, t.erate, t.trig, t.tfreq))
        if t.erate:
            out.append(UTerm(t.coeff * t.erate, t.upow, t.erate, t.trig, t.tfreq))
        if t.trig == COS:
            out.append(UTerm(-t.coeff * t.tfreq, t.upow, t.erate, SIN, t.tfreq))
        elif t.trig == SIN:
            out.append(UTerm(t.coeff * t.tfreq, t.upow, t.erate, COS, t.tfreq))
    return canonicalize(out)


def _float_canonicalize(terms) -> tuple:
    """Merge float terms ``(coeff, upow, erate, rank, tfreq)`` on the integer
    ratios of their numbers, summed in input order from the first term,
    drop zero totals, sort by ``(upow, erate, rank, tfreq)``."""
    acc: dict[tuple, list] = {}
    for term in terms:
        coeff, upow, erate, rank, tfreq = term
        mkey = (upow, *erate.as_integer_ratio(), rank, *tfreq.as_integer_ratio())
        slot = acc.get(mkey)
        if slot is None:
            acc[mkey] = [coeff, term]
        else:
            slot[0] += coeff
    slots = sorted(acc.values(), key=lambda slot: slot[1][1:])
    return tuple((total, *term[1:]) for total, term in slots if total)


def _float_derive(rows) -> tuple:
    out = []
    for coeff, upow, erate, rank, tfreq in rows:
        if upow:
            out.append((coeff * upow, upow - 1, erate, rank, tfreq))
        if erate.as_integer_ratio()[0]:
            out.append((coeff * erate, upow, erate, rank, tfreq))
        if rank == 1:  # COS
            out.append((-coeff * tfreq, upow, erate, 2, tfreq))
        elif rank == 2:  # SIN
            out.append((coeff * tfreq, upow, erate, 1, tfreq))
    return _float_canonicalize(out)


def lowered_levels(f: UExpr, count: int) -> list[tuple]:
    """``f`` rounded once to float terms, then its first ``count - 1``
    u-derivatives in binary64, each as rows ``(coeff, upow, erate, trig
    rank, tfreq)``."""
    rounded = []
    for t in f.terms:
        coeff = t.coeff.numerator / t.coeff.denominator
        if coeff:  # the rates are rounded only for a term that survives
            rank = _TRIG_BY_ORDER.index(t.trig)
            rounded.append((coeff, t.upow, t.erate.numerator / t.erate.denominator, rank,
                            t.tfreq.numerator / t.tfreq.denominator))
    levels = [_float_canonicalize(rounded)]
    while len(levels) < count:
        levels.append(_float_derive(levels[-1]))
    return levels


def _gmul(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ginv(x: tuple[Fraction, Fraction]):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def shift_response(coeffs, s: tuple[Fraction, Fraction],
                   k: int) -> list[tuple[int, tuple[Fraction, Fraction]]]:
    """The polynomial w(u) with ``P(D)[e^(su) w(u)] = e^(su) u^k``, in Fractions.

    ``coeffs`` are read exactly (a float is its dyadic value).
    """
    n = len(coeffs)
    work = [(Fraction(1), Fraction(0))] + [(Fraction(c), Fraction(0)) for c in reversed(coeffs)]
    taylor: list[tuple[Fraction, Fraction]] = []
    m = None
    for j in range(n + 1):
        for i in range(1, n + 1 - j):
            step = _gmul(s, work[i - 1])
            work[i] = (work[i][0] + step[0], work[i][1] + step[1])
        a = work[n - j]
        if m is None:
            if a == (0, 0):
                continue
            m = j
        taylor.append(a)
        if j == m + k:
            break
    head = _ginv(taylor[0])
    inv = [head]
    for i in range(1, k + 1):
        acc = (Fraction(0), Fraction(0))
        for l in range(1, min(i, len(taylor) - 1) + 1):
            t = _gmul(taylor[l], inv[i - l])
            acc = (acc[0] + t[0], acc[1] + t[1])
        t = _gmul(head, acc)
        inv.append((-t[0], -t[1]))
    out = []
    for i, b in enumerate(inv):
        f = Fraction(math.factorial(k), math.factorial(k + m - i))
        out.append((k + m - i, (b[0] * f, b[1] * f)))
    return out


def apply_operator(spec, y: UExpr) -> UExpr:
    """Apply the equation's left side: n-fold d/du plus lower-order terms."""
    total = ualgebra.ZERO
    d = y
    for p in spec.coeffs:
        total = ualgebra.add(total, ualgebra.scale(d, p))
        d = ualgebra.diff_u(d)
    return ualgebra.add(total, d)
