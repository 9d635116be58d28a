"""The numeric oracle that verify checks closed-form solutions against.

Everything in :mod:`confode.ualgebra` and :mod:`confode.solver` is
symbolic; this module evaluates the same objects by the defining limit
quotient, so that a symbolic result is checked against an independent
computation.

The conformable derivative of order ``alpha`` acts on a function ``f`` of
``t > 0`` as the limit of ``(f(t + eps*t**(1-alpha)) - f(t)) / eps``; for
differentiable ``f`` this equals ``t**(1-alpha) * f'(t)``.
:class:`OracleGrid` takes its central variant at every point of a grid
at once, and :func:`operator_residual` combines those quotients into the
residual of a whole equation.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from .ualgebra import PointTable, SubstMap, UExpr, diff_u

_EPS = sys.float_info.epsilon

#: Numeric operations refuse points below this; the t**(1-alpha) stencil
#: factor degenerates as t -> 0.
DOMAIN_FLOOR = 1e-6

#: Upper end of the interval :class:`OracleGrid` evaluates on; stencils
#: must stay below it.
DOMAIN_CEILING = 1e6


class DomainError(ValueError):
    """An evaluation point (or a difference stencil around it) left the domain."""


def _stencil(t: float, alpha: float) -> tuple[float, float, float]:
    """``(eps, t - h, t + h)`` of the central quotient at ``t``, checked.

    Raises DomainError when ``t`` is not interior to ``(DOMAIN_FLOOR,
    DOMAIN_CEILING)``, or when the stencil ``[t - h, t + h]`` leaves it.
    """
    if t < DOMAIN_FLOOR:
        raise DomainError(f"t={t} is below the numeric domain floor {DOMAIN_FLOOR}")
    if not (DOMAIN_FLOOR < t < DOMAIN_CEILING):
        raise DomainError(f"t={t} is not interior to ({DOMAIN_FLOOR}, {DOMAIN_CEILING})")
    eps = _EPS ** (1.0 / 3.0) * max(1.0, t ** alpha)
    h = eps * t ** (1.0 - alpha)
    t_hi_pt, t_lo_pt = t + h, t - h
    if t_lo_pt <= DOMAIN_FLOOR or t_hi_pt >= DOMAIN_CEILING:
        raise DomainError(
            f"difference stencil [{t_lo_pt}, {t_hi_pt}] around t={t} leaves "
            f"the domain ({DOMAIN_FLOOR}, {DOMAIN_CEILING})")
    return eps, t_lo_pt, t_hi_pt


def log_grid(t_lo: float, t_hi: float, count: int) -> list[float]:
    """``count`` log-spaced points on [t_lo, t_hi] (endpoints included)."""
    if not (0.0 < t_lo < t_hi) or count < 2:
        raise ValueError(
            f"log grid needs 0 < t_lo < t_hi and count >= 2, got "
            f"[{t_lo}, {t_hi}] x {count}")
    ratio = (t_hi / t_lo) ** (1.0 / (count - 1))
    pts = [t_lo * ratio ** i for i in range(count)]
    pts[-1] = t_hi
    return pts


class OracleGrid:
    """The points of a verify grid with their first-order stencils.

    For each point ``t`` it holds ``2*eps`` and the stencil ends ``t - h``
    and ``t + h`` of the central quotient

        (f(t + h) - f(t - h)) / (2*eps),   h = eps * t**(1-alpha),

    with ``eps = eps_mach**(1/3) * max(1, t**alpha)`` balancing truncation
    against round-off.  These depend only on ``t`` and ``alpha``.  Two
    :class:`PointTable` s are shared by every expression checked on the
    grid: ``centre`` over the points themselves and ``stencil`` over the
    ``t + h`` and then the ``t - h`` ends, so a value is only computed
    where it is used.

    Points are checked in order, and the first bad one raises.

    Raises:
        ValueError: bad ``alpha``, or a point ``t <= 0``.
        DomainError: a point, or its stencil, leaves the domain
            ``(DOMAIN_FLOOR, DOMAIN_CEILING)``.
    """

    def __init__(self, alpha: float, ts: Sequence[float]):
        subst = SubstMap(alpha)
        self.ts = list(ts)
        two_eps, lo, hi = [], [], []
        for t in self.ts:
            subst.u_of(t)  # raises for t <= 0 ahead of the stencil checks
            eps, t_lo_pt, t_hi_pt = _stencil(t, alpha)
            two_eps.append(2.0 * eps)
            lo.append(t_lo_pt)
            hi.append(t_hi_pt)
        self.two_eps = two_eps
        self.centre = PointTable(self.ts, subst)
        self.stencil = PointTable(hi + lo, subst)
        self._quotients: dict[int, tuple[UExpr, list[float]]] = {}

    def values(self, f: UExpr) -> tuple[float, ...]:
        """``f`` at each grid point."""
        return self.centre.eval(f)

    def quotient(self, f: UExpr) -> list[float]:
        """The central limit quotient of ``f`` at each grid point.

        Kept per expression object, like :meth:`PointTable.eval`'s results.
        """
        hit = self._quotients.get(id(f))
        if hit is not None:
            return hit[1]
        vals = self.stencil.eval(f)
        out = [(up - down) / two_eps
               for up, down, two_eps in zip(vals, vals[len(self.ts):], self.two_eps)]
        self._quotients[id(f)] = (f, out)  # holding f keeps its id unique
        return out


#: A linear combination ``sum(c * f for c, f in parts)`` of expressions.
Combination = Sequence[tuple[float, UExpr]]


def _level(f: UExpr, k: int) -> UExpr:
    """The k-th u-derivative of ``f``'s binary64 lowering."""
    f = f.lowered
    for _ in range(k):
        f = diff_u(f)
    return f


def _pointwise(y: UExpr | Combination, k: int, values_of) -> Sequence[float]:
    """``values_of`` the k-th u-derivative of ``y``.

    A combination's is summed pointwise, in the order of its parts, from
    ``values_of`` the parts' own levels: no sum of expressions is built or
    derived.
    """
    if isinstance(y, UExpr):
        return values_of(_level(y, k))
    total: list[float] = []
    for i, (c, f) in enumerate(y):
        vals = values_of(_level(f, k))
        total = [c * v for v in vals] if i == 0 else [s + c * v for s, v in zip(total, vals)]
    return total


def operator_residual(coeffs: list[float], y: UExpr | Combination, forcing: UExpr,
                      grid: OracleGrid) -> list[float]:
    """Relative residuals of ``L_alpha[y] - q`` at each point of ``grid``.

    The operator is ``n``-fold sequential conformable differentiation plus
    the lower-order terms with the given coefficients (``coeffs[i]``
    multiplies the i-fold derivative; the leading n-fold coefficient is 1).
    Each i-fold derivative is estimated by one central difference quotient
    applied on top of the symbolically (i-1)-fold differentiated
    expression.  Nesting the quotient i times instead would lose a factor
    of ``eps**(1/3)`` in accuracy per level and drown the residual in noise
    for n beyond 2; one numeric level per term keeps every estimate at
    quotient accuracy while still exercising the defining limit.

    ``y`` is an expression, or a :data:`Combination` of ``(c, f)`` pairs
    (a fitted solution ``v + sum c_i e_i``).  A combination's values and
    quotients are summed pointwise from those of the ``f`` and their
    levels; the quotient is linear, so this is the combination's own
    quotient up to rounding.

    The symbolic levels are the cached derivative chain of each
    expression's binary64 :attr:`~confode.ualgebra.UExpr.lowered` form, so
    levels that the constant fit or an earlier check derived are reused.  Levels are
    evaluated on the grid's shared ``stencil`` table and ``y`` and the
    forcing on its ``centre`` table, all points at once, and the grid keeps
    each quotient, so nothing passed again on the same grid is evaluated
    again.  The quotients, sums and scales follow a point-by-point loop
    over :func:`~confode.ualgebra.eval_expr` operation for operation, so
    each residual for an expression ``y`` is the one that loop gives.

    Each residual is normalised by the magnitude of the terms being
    cancelled: ``|residual| / max(1, sum_i |p_i * D_i| + |D_n| + |q(t)|)``,
    so the value is comparable across equations whose solutions range over
    many orders of magnitude.
    """
    n = len(coeffs)
    if n < 1:
        raise ValueError("operator needs order n >= 1")
    values = [_pointwise(y, 0, grid.values)]
    values += [_pointwise(y, k, grid.quotient) for k in range(n)]
    out = []
    for row in zip(*values, grid.values(forcing)):
        top, q = row[n], row[n + 1]
        acc = top - q
        scale = abs(top) + abs(q)
        for p, v in zip(coeffs, row):
            term = p * v
            acc += term
            scale += abs(term)
        out.append(abs(acc) / max(scale, 1.0))  # a nan scale stays nan
    return out
