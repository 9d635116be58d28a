"""The numeric oracle that verify checks closed-form solutions against.

Everything in :mod:`confode.ualgebra` and :mod:`confode.solver` is
symbolic; this module evaluates the same objects by the defining limit
quotient, so that a symbolic result is checked against an independent
computation.

The conformable derivative of order ``alpha`` acts on a function ``f`` of
``t > 0`` as the limit of ``(f(t + eps*t**(1-alpha)) - f(t)) / eps``; for
differentiable ``f`` this equals ``t**(1-alpha) * f'(t)``.  Every function
of the term algebra is analytic for ``t > 0``, so the limit may be taken
along the imaginary axis: ``Im f(t + i*eps*t**(1-alpha)) / eps``, the
complex step (Squire & Trapp 1998), subtracts nothing and so cancels
nothing.  :class:`OracleGrid` takes it at every point of a grid at once,
and :func:`operator_residual` combines those quotients into the residual
of a whole equation.
"""

from __future__ import annotations

from collections.abc import Sequence

from .ualgebra import PointTable, SubstMap, UExpr, lowered_levels

#: The complex step ``eps``: a power of two, so dividing by it is exact,
#: and small enough that the quotient's truncation (``eps**2`` relative)
#: is far below binary64 round-off.
STEP = 2.0 ** -100

#: Points the oracle evaluates must be interior to ``(DOMAIN_FLOOR,
#: DOMAIN_CEILING)``; verify reports any other point as a configuration
#: error.
DOMAIN_FLOOR = 1e-6

#: See :data:`DOMAIN_FLOOR`.
DOMAIN_CEILING = 1e6


class DomainError(ValueError):
    """An evaluation point left the domain."""


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
    """The points of a verify grid, each stepped off the real axis.

    One :class:`PointTable` over the complex points ``t + i*STEP*t**(1-alpha)``
    is shared by every expression checked on the grid.  The real part of a
    value there is the value at ``t`` (to rounding: the step moves it by
    ``STEP**2`` relative), and its imaginary part divided by :data:`STEP`
    is the limit quotient at ``t``.

    Each point's values depend on that point alone, so a point may join
    any table: verify's one table holds the grid and, for a fitted
    solution, ``t0`` as its last point, whose values and quotients are
    those of a one-point grid at ``t0``.

    Points are checked in order, ``t0`` like any other, and the first bad
    one raises.

    Raises:
        ValueError: bad ``alpha``, or a point ``t <= 0``.
        DomainError: a point leaves the domain ``(DOMAIN_FLOOR,
            DOMAIN_CEILING)``.
    """

    def __init__(self, alpha: float, ts: Sequence[float]):
        subst = SubstMap(alpha)
        self.ts = list(ts)
        points = []
        for t in self.ts:
            subst.u_of(t)  # raises for t <= 0 ahead of the domain check
            if not DOMAIN_FLOOR < t < DOMAIN_CEILING:
                raise DomainError(
                    f"t={t} is not interior to ({DOMAIN_FLOOR}, {DOMAIN_CEILING})")
            points.append(complex(t, STEP * t ** (1.0 - alpha)))
        self.table = PointTable(points, subst)
        self._parts: dict[int, tuple[UExpr, list[float], list[float]]] = {}

    def _split(self, f: UExpr) -> tuple[UExpr, list[float], list[float]]:
        hit = self._parts.get(id(f))
        if hit is None:
            vals = self.table.eval(f)
            hit = (f, [v.real for v in vals], [v.imag / STEP for v in vals])
            self._parts[id(f)] = hit  # holding f keeps its id unique
        return hit

    def values(self, f: UExpr) -> list[float]:
        """``f`` at each grid point."""
        return self._split(f)[1]

    def quotient(self, f: UExpr) -> list[float]:
        """The limit quotient of ``f`` at each grid point.

        Values and quotients are kept per expression object, so the table
        evaluates each expression once per grid.
        """
        return self._split(f)[2]


def operator_residual(coeffs: list[float], y: UExpr, forcing: UExpr,
                      grid: OracleGrid) -> list[float]:
    """Relative residuals of ``L_alpha[y] - q`` at each point of ``grid``.

    The operator is ``n``-fold sequential conformable differentiation plus
    the lower-order terms with the given coefficients (``coeffs[i]``
    multiplies the i-fold derivative; the leading n-fold coefficient is 1).
    Each i-fold derivative is the grid's complex-step quotient of the
    symbolically (i-1)-fold differentiated expression: one numeric level
    per term exercises the defining limit, and keeps every estimate at
    binary64 accuracy.

    The symbolic levels are the cached derivative chain of ``y``'s binary64
    :attr:`~confode.ualgebra.UExpr.lowered` form, so levels that the
    constant fit or an earlier check derived are reused.
    Every expression is evaluated on the grid's one complex table, all
    points at once, and the grid keeps each value and quotient, so nothing
    passed again on the same grid is evaluated again.  The quotients, sums
    and scales follow a point-by-point loop over a complex
    :func:`~confode.ualgebra.eval_expr` operation for operation, so each
    residual is the one that loop gives.

    Each residual is normalised by the magnitude of the terms being
    cancelled: ``|residual| / max(1, sum_i |p_i * D_i| + |D_n| + |q(t)|)``,
    so the value is comparable across equations whose solutions range over
    many orders of magnitude.
    """
    n = len(coeffs)
    if n < 1:
        raise ValueError("operator needs order n >= 1")
    levels = lowered_levels(y, n)
    values = [grid.values(levels[0])] + [grid.quotient(f) for f in levels]
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
