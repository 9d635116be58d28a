"""Variation of parameters by Laplace/Cramer determinants: the paper's method.

The library builds particular solutions by exponential-shift inversion.
This module keeps the paper's route as an independent reference for the
tests: the symbolic Wronskian of the homogeneous basis is the Cramer
denominator, each Cramer numerator is the forcing times a signed
(n-1)-minor of the derivative matrix, and both are expanded by memoised
Laplace expansion over the 2^n column subsets, all in exact arithmetic
on the exact basis.  Its cost doubles with each order, so the tests use it
up to order 5.

The term antiderivative ``integrate_u`` lives here too: the Cramer
coefficient functions are its only use outside the tests of it.  So do
``one`` and the u-variable renderer ``format_u``, which the reference and
the tests use for determinants and failure messages.
"""

from __future__ import annotations

from confode.solver import ProblemSpec, SolutionBasis, SolverError
from confode.ualgebra import (
    COS,
    SIN,
    ZERO,
    UExpr,
    UTerm,
    add,
    _fmt,
    _join,
    canonicalize,
    diff_u,
    expr,
    mul,
    scale,
)


def one() -> UExpr:
    return expr(UTerm(1.0))


def _row_factors_u(upow: int, erate: float, rank: int, tfreq: float) -> list[str]:
    factors = []
    if upow == 1:
        factors.append("u")
    elif upow:
        factors.append(f"u^{upow}")
    if erate:
        factors.append("e^{" + _fmt(erate) + "·u}")
    if rank:
        factors.append(f"{(None, COS, SIN)[rank]}({_fmt(tfreq)}·u)")
    return factors


def format_u(f: UExpr) -> str:
    """Deterministic plain-text rendering of the binary64 rows in u."""
    return _join([(coeff, _row_factors_u(*shape)) for coeff, *shape in f.float_rows])


class WronskianError(SolverError):
    """The basis determinant did not collapse to a single exponential term."""


def div_by_term(f: UExpr, d: UTerm) -> UExpr:
    """Divide by a single pure-exponential term ``c * e^(a*u)``."""
    if d.coeff == 0.0:
        raise ZeroDivisionError("division by a zero term")
    if d.upow or d.trig is not None:
        raise ValueError(
            "division is only defined for pure exponential terms "
            f"(upow == 0, no trig), got {d!r}")
    return canonicalize([
        UTerm(t.coeff / d.coeff, t.upow, t.erate - d.erate, t.trig, t.tfreq)
        for t in f.terms
    ])


def _antiderivative(term: UTerm) -> list[UTerm]:
    c, k, a, trig, b = term.coeff, term.upow, term.erate, term.trig, term.tfreq
    if trig is None:
        if a == 0:
            # Pure power.
            return [UTerm(c / (k + 1), k + 1)]
        head = UTerm(c / a, k, a)
        if k == 0:
            return [head]
        return [head] + _antiderivative(UTerm(-c * k / a, k - 1, a))
    denom = a * a + b * b
    if trig == COS:
        base = [UTerm(c * a / denom, 0, a, COS, b),
                UTerm(c * b / denom, 0, a, SIN, b)]
    else:
        base = [UTerm(c * a / denom, 0, a, SIN, b),
                UTerm(-c * b / denom, 0, a, COS, b)]
    if k == 0:
        return base
    # integral(u^k * g) = u^k * G - k * integral(u^(k-1) * G) with G the
    # k = 0 antiderivative just computed; recursion descends on k.
    out = [UTerm(g.coeff, k, g.erate, g.trig, g.tfreq) for g in base]
    for g in base:
        out.extend(_antiderivative(UTerm(-k * g.coeff, k - 1, g.erate, g.trig, g.tfreq)))
    return out


def integrate_u(f: UExpr) -> UExpr:
    """Antiderivative with respect to u, integration constant fixed to 0, exact."""
    out = []
    for term in f.terms:
        out.extend(_antiderivative(term))
    return canonicalize(out)


def _subset_det(matrix: list[list[UExpr]], cols: tuple[int, ...], row: int,
                memo: dict) -> UExpr:
    """Determinant of rows row..row+len(cols)-1 restricted to ``cols``.

    Laplace expansion along the top row, memoized on (row, cols): the
    minors of the full determinant and of every Cramer numerator revisit
    the same subsets.
    """
    if not cols:
        return one()
    key = (row, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    acc = ZERO
    for pos, j in enumerate(cols):
        sub = _subset_det(matrix, cols[:pos] + cols[pos + 1:], row + 1, memo)
        piece = mul(matrix[row][j], sub)
        acc = add(acc, piece if pos % 2 == 0 else scale(piece, -1))
    memo[key] = acc
    return acc


def _collapse_wronskian(det: UExpr) -> UTerm:
    if len(det.terms) != 1:
        raise WronskianError(
            "basis determinant did not collapse to a single term "
            f"(got {format_u(det)}); the set is not fundamental or the "
            "algebra broke down")
    w = det.terms[0]
    if w.upow or w.trig is not None:
        raise WronskianError(
            f"basis determinant is not pure-exponential: {format_u(det)}")
    return w


def derivative_rows(basis: SolutionBasis) -> list[list[UExpr]]:
    """Row i holds the exact i-fold u-derivatives of the basis."""
    rows = [list(basis.elements)]
    for _ in range(basis.n - 1):
        rows.append([diff_u(e) for e in rows[-1]])
    return rows


def wronskian(basis: SolutionBasis) -> UTerm:
    """Determinant of the derivative matrix; always C * e^(a*u), C != 0."""
    matrix = derivative_rows(basis)
    return _collapse_wronskian(_subset_det(matrix, tuple(range(basis.n)), 0, {}))


def particular_solution(spec: ProblemSpec, basis: SolutionBasis) -> tuple[UExpr, list[UExpr]]:
    """Variation of parameters via Cramer's rule.

    The condition system makes every row of c'(u) combinations vanish
    except the last, which equals the forcing.  Each Cramer numerator is
    the forcing times a signed (n-1)-minor of the derivative matrix, and
    the shared denominator is the single-term Wronskian, so division stays
    inside the algebra.  Returns (v, [c_1..c_n]) with v = sum c_i * y_i.

    Resonant forcing needs no special path: a forcing rate equal to a root
    cancels the exponential in a numerator/Wronskian quotient, and the
    pure-power integration branch then produces the u-growth factor.
    """
    if spec.forcing.is_zero():
        raise ValueError("particular_solution needs a non-zero forcing")
    n = basis.n
    matrix = derivative_rows(basis)
    memo: dict = {}
    cols = tuple(range(n))
    w = _collapse_wronskian(_subset_det(matrix, cols, 0, memo))
    cfuncs: list[UExpr] = []
    for i in range(n):
        minor = _subset_det(matrix, cols[:i] + cols[i + 1:], 0, memo)
        sign = 1 if (n - 1 + i) % 2 == 0 else -1
        numer = scale(mul(spec.forcing, minor), sign)
        cfuncs.append(integrate_u(div_by_term(numer, w)))
    v = ZERO
    for c, y in zip(cfuncs, basis.elements):
        v = add(v, mul(c, y))
    return v, cfuncs
