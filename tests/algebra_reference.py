"""The term algebra's hot paths as plain exact references, for equality tests.

``canonicalize`` merges terms in a dict of ``Fraction`` totals keyed by the
exact ``Fraction`` key and builds every surviving term through the
validating ``UTerm`` constructor; ``diff_u`` applies the product rule,
building each child term the same way from the parent's fields; and
``shift_response`` runs the exponential-shift synthetic division over
Gaussian rationals, normalising a ``Fraction`` at every step, with an
``== 0`` resonance test.  The library does the same arithmetic on integer
keys, cached derivative levels and plain integers, and the tests require
results equal to these.

``apply_operator`` applies an equation's left side to an expression with
the library's own exact operations; the tests require ``apply_operator(spec,
v) - q`` to be exactly zero for a particular solution ``v`` of forcing ``q``
and exactly zero for every basis element.
"""

from __future__ import annotations

import math
from fractions import Fraction

from confode import ualgebra
from confode.ualgebra import COS, SIN, UExpr, UTerm

_TRIG_BY_ORDER = (None, COS, SIN)


def canonicalize(terms) -> UExpr:
    """Merge like terms on the exact key, drop exact zeros, sort."""
    acc: dict[tuple, Fraction] = {}
    for term in terms:
        acc[term.key] = acc.get(term.key, Fraction(0)) + Fraction(term.coeff)
    out = []
    for key in sorted(acc):
        if acc[key]:
            upow, erate, trig_rank, tfreq = key
            out.append(UTerm(acc[key], upow, erate, _TRIG_BY_ORDER[trig_rank], tfreq))
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
