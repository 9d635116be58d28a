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
once per term shape ``u**k * exp(r*u) * trig(b*u)``, and sums each
expression's values and quotients from those shape columns in binary64;
:func:`operator_residual` combines the quotients into the residual of a
whole equation.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from .ualgebra import PointTable, Rows, SubstMap, UExpr, lowered_levels

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
    holds the factor columns ``u**k``, ``exp(r*u)`` and ``cos``/``sin(b*u)``
    shared by every expression checked on the grid.  Every term of every
    derivative level is a real coefficient times a *shape*
    ``u**k * exp(r*u) * trig(b*u)``, keyed ``(upow, erate, trig, tfreq)``
    as in the rows of :attr:`~confode.ualgebra.UExpr.float_rows`, the
    library's one binary64 form of an expression and of each of its
    derivative levels.  The grid splits each shape's column,
    :meth:`PointTable.shape`, once and keeps both parts: the real part is
    the shape's value at ``t`` (to rounding: the step moves it by
    ``STEP**2`` relative), and the imaginary part divided by :data:`STEP`
    is the shape's limit quotient at ``t``.  The values and quotients of a
    level are binary64 sums, ``s + coeff * column`` over its rows in order,
    the rounding of :func:`~confode.ualgebra.eval_expr`.  Of those sums the
    grid keeps one expression's, the last that :meth:`columns` was asked
    for.

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
            if t <= 0.0:  # as the substitution refuses it, ahead of the domain check
                raise ValueError(f"the substitution requires t > 0, got t={t!r}")
            if not DOMAIN_FLOOR < t < DOMAIN_CEILING:
                raise DomainError(
                    f"t={t} is not interior to ({DOMAIN_FLOOR}, {DOMAIN_CEILING})")
            points.append(complex(t, STEP * t ** (1.0 - alpha)))
        self.table = PointTable(points, subst)
        self._shapes: dict[tuple, tuple[list[float], list[float]]] = {}
        # the expression columns() last summed, and its columns
        self._kept: tuple[UExpr, list[list[float]]] | None = None

    def _shape(self, key: tuple) -> tuple[list[float], list[float]]:
        """The values and quotients of the shape ``key`` at every point."""
        hit = self._shapes.get(key)
        if hit is None:
            z = self.table.shape(*key)
            hit = self._shapes[key] = ([v.real for v in z], [v.imag / STEP for v in z])
        return hit

    def _sum(self, level: Rows, part: int) -> list[float]:
        """``level``'s values (part 0) or quotients (part 1) at every point.

        Each point's sum starts from ``0.0`` and adds ``coeff * column``
        over the rows in order.  The first row is added to ``0.0`` as it is
        summed, not to a column of zeros: the same operation, and it keeps
        the sum ``+0.0`` where that row's product is ``-0.0`` (a negative
        coefficient on a column that underflows).
        """
        if not level:
            return [0.0] * len(self.ts)
        coeff, col = level[0][0], self._shape(level[0][1:])[part]
        total = [0.0 + coeff * v for v in col]
        for row in level[1:]:
            coeff, col = row[0], self._shape(row[1:])[part]
            total = [s + coeff * v for s, v in zip(total, col)]
        return total

    def values(self, level: Rows) -> list[float]:
        """``level`` (an expression's :attr:`~confode.ualgebra.UExpr.float_rows`
        or a level from :func:`~confode.ualgebra.lowered_levels`) at each
        grid point, summed each time it is asked for."""
        return self._sum(level, 0)

    def columns(self, y: UExpr, n: int) -> list[list[float]]:
        """``y``'s values at each grid point, then the limit quotients of its
        first ``n`` levels: ``n + 1`` columns.

        The grid keeps the columns of the last expression asked for, so
        asking again for the same expression object and ``n`` sums nothing,
        and releases them before it sums another's.
        """
        if self._kept is None or self._kept[0] is not y or len(self._kept[1]) != n + 1:
            self._kept = None
            levels = lowered_levels(y, n)
            self._kept = (y, [self._sum(levels[0], 0)]
                          + [self._sum(level, 1) for level in levels])
        return self._kept[1]


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

    The symbolic levels are ``y``'s binary64 rows and the rows derived from
    them, :func:`~confode.ualgebra.lowered_levels`, cached on ``y``, so
    levels that the constant fit or an earlier check derived are reused.
    :meth:`OracleGrid.columns` sums them from the grid's shape columns, all
    points at once, and the grid keeps them until it is asked for another
    expression's, so a caller reads ``y``'s columns again without summing
    them.  The sums, and then the combination and scale below, follow a
    point-by-point loop over the points in the same operations, so each
    residual is the one that loop gives.

    Each residual is normalised by the magnitude of the terms being
    cancelled: ``|residual| / max(1, sum_i |p_i * D_i| + |D_n| + |q(t)|)``,
    so the value is comparable across equations whose solutions range over
    many orders of magnitude.  The floor is written
    ``1.0 if 1.0 > scale else scale``, which is what ``max(scale, 1.0)``
    returns for every ``scale``: ``max`` keeps its first argument unless a
    later one compares greater, so a nan scale stays nan, and so does the
    residual, which verify then reports as not finite.
    """
    n = len(coeffs)
    if n < 1:
        raise ValueError("operator needs order n >= 1")
    out = []
    for row in zip(*grid.columns(y, n), grid.values(forcing.float_rows)):
        top, q = row[n], row[n + 1]
        acc = top - q
        scale = abs(top) + abs(q)
        for term in map(mul, coeffs, row):
            acc += term
            scale += abs(term)
        out.append(abs(acc) / (1.0 if 1.0 > scale else scale))
    return out
