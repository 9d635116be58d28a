"""Numeric conformable calculus: derivative quotients and weighted quadrature.

This module is the measurement side of the package.  Everything in
:mod:`confode.ualgebra` and :mod:`confode.solver` is symbolic; the functions
here evaluate the same objects by finite differences and adaptive quadrature
so that symbolic results can be checked against an independent computation.

The conformable derivative of order ``alpha`` acts on a function ``f`` of
``t > 0`` as the limit of ``(f(t + eps*t**(1-alpha)) - f(t)) / eps``; for
differentiable ``f`` this equals ``t**(1-alpha) * f'(t)``.  The matching
integral accumulates ``x**(alpha-1) * f(x)`` and inverts the derivative.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .ualgebra import PointTable, SubstMap, UExpr, diff_u, eval_expr

_EPS = 2.220446049250313e-16

#: Numeric operations refuse points below this; the t**(1-alpha) stencil
#: factor degenerates as t -> 0.
DOMAIN_FLOOR = 1e-6

#: Upper end of the interval :func:`expr_grid` and :class:`OracleGrid`
#: evaluate on; stencils must stay below it.
DOMAIN_CEILING = 1e6

#: Adaptive Simpson target (applied both absolutely and relative to the
#: running whole-interval estimate).
QUAD_TOL = 1e-10

#: Maximum bisection depth before the quadrature gives up.
QUAD_MAX_DEPTH = 40


class DomainError(ValueError):
    """An evaluation point (or a difference stencil around it) left the domain."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature hit max depth before meeting tolerance.

    Attributes:
        estimate: The best integral estimate accumulated before giving up.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class GridFn:
    """A real-valued callback on an open interval ``(t_lo, t_hi)`` of t > 0."""

    fn: Callable[[float], float]
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not (0.0 < self.t_lo < self.t_hi):
            raise ValueError(
                f"GridFn interval must satisfy 0 < t_lo < t_hi, got "
                f"({self.t_lo}, {self.t_hi})")

    def __call__(self, t: float) -> float:
        return float(self.fn(t))


def expr_grid(f: UExpr, subst: SubstMap, t_lo: float = DOMAIN_FLOOR,
              t_hi: float = DOMAIN_CEILING) -> GridFn:
    """Wrap a symbolic expression as a GridFn for the numeric routines."""
    return GridFn(lambda t: eval_expr(f, t, subst), t_lo, t_hi)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _stencil(t: float, alpha: float, order: int, t_lo: float,
             t_hi: float) -> tuple[float, float, float]:
    """``(eps, t - h, t + h)`` of the order-th quotient at ``t``, checked.

    Raises DomainError when ``t`` is below DOMAIN_FLOOR or not interior to
    ``(t_lo, t_hi)``, or when the stencil ``[t - h, t + h]`` leaves either.
    """
    if t < DOMAIN_FLOOR:
        raise DomainError(f"t={t} is below the numeric domain floor {DOMAIN_FLOOR}")
    if not (t_lo < t < t_hi):
        raise DomainError(f"t={t} is not interior to ({t_lo}, {t_hi})")
    noise = _EPS ** ((2.0 / 3.0) ** (order - 1))
    eps = noise ** (1.0 / 3.0) * max(1.0, t ** alpha)
    h = eps * t ** (1.0 - alpha)
    t_hi_pt, t_lo_pt = t + h, t - h
    if t_lo_pt <= t_lo or t_hi_pt >= t_hi or t_lo_pt < DOMAIN_FLOOR:
        raise DomainError(
            f"difference stencil [{t_lo_pt}, {t_hi_pt}] around t={t} leaves "
            f"the domain ({t_lo}, {t_hi})")
    return eps, t_lo_pt, t_hi_pt


def numeric_t_alpha_derivative(f: GridFn, t: float, alpha: float,
                               order: int = 1) -> float:
    """Estimate the order-fold conformable derivative of ``f`` at ``t``.

    Order 1 uses the central variant of the defining quotient,

        (f(t + eps*t**(1-alpha)) - f(t - eps*t**(1-alpha))) / (2*eps),

    with ``eps = eps_mach**(1/3) * max(1, t**alpha)`` balancing truncation
    against round-off.  Higher orders apply the same quotient to the
    recursively estimated lower-order derivative.  Each recursion level
    inherits the noise of the level below it, so the step is widened to
    ``noise**(1/3)`` with ``noise = eps_mach**((2/3)**(order-1))``; accuracy
    decays accordingly (roughly ``eps_mach**((2/3)**order)`` relative).

    Raises:
        DomainError: ``t`` (or the stencil around it) is outside the
            function's interval or below DOMAIN_FLOOR.
        ValueError: bad ``alpha`` or ``order``.
    """
    _check_alpha(alpha)
    if order < 1 or order != int(order):
        raise ValueError(f"order must be a positive integer, got {order}")
    eps, t_lo_pt, t_hi_pt = _stencil(t, alpha, order, f.t_lo, f.t_hi)
    if order == 1:
        return (f(t_hi_pt) - f(t_lo_pt)) / (2.0 * eps)
    lo = numeric_t_alpha_derivative(f, t_lo_pt, alpha, order - 1)
    hi = numeric_t_alpha_derivative(f, t_hi_pt, alpha, order - 1)
    return (hi - lo) / (2.0 * eps)


def numeric_conformable_integral(f: GridFn, a: float, t: float,
                                 alpha: float) -> float:
    """Integrate ``x**(alpha-1) * f(x)`` over ``[a, t]`` adaptively.

    Adaptive Simpson with Richardson correction; each subinterval must
    meet its share of ``QUAD_TOL * max(1, |whole estimate|)`` within
    QUAD_MAX_DEPTH bisections.  The weight is smooth on the interval since
    ``a > 0``.

    Raises:
        DomainError: endpoints out of order or outside the domain.
        QuadratureError: tolerance unmet at max depth; carries the
            accumulated estimate.
    """
    _check_alpha(alpha)
    if not (0.0 < a < t):
        raise DomainError(f"integral endpoints must satisfy 0 < a < t, got a={a}, t={t}")
    if a < DOMAIN_FLOOR:
        raise DomainError(f"a={a} is below the numeric domain floor {DOMAIN_FLOOR}")
    if a < f.t_lo or t > f.t_hi:
        raise DomainError(
            f"integration range [{a}, {t}] exceeds the domain ({f.t_lo}, {f.t_hi})")

    def g(x: float) -> float:
        return x ** (alpha - 1.0) * f(x)

    def _simpson(x0: float, x2: float, g0: float, g1: float, g2: float) -> float:
        return (x2 - x0) / 6.0 * (g0 + 4.0 * g1 + g2)

    shortfalls: list[float] = []

    def _adaptive(x0: float, x2: float, g0: float, g1: float, g2: float,
                  whole: float, tol: float, depth: int) -> float:
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        glm, grm = g(lm), g(rm)
        left = _simpson(x0, x1, g0, glm, g1)
        right = _simpson(x1, x2, g1, grm, g2)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err
        if depth >= QUAD_MAX_DEPTH:
            shortfalls.append(abs(err))
            return left + right + err
        return (_adaptive(x0, x1, g0, glm, g1, left, tol / 2.0, depth + 1)
                + _adaptive(x1, x2, g1, grm, g2, right, tol / 2.0, depth + 1))

    ga, gm, gt = g(a), g(0.5 * (a + t)), g(t)
    whole = _simpson(a, t, ga, gm, gt)
    tol = QUAD_TOL * max(1.0, abs(whole))
    estimate = _adaptive(a, t, ga, gm, gt, whole, tol, 0)
    if shortfalls:
        raise QuadratureError(
            f"quadrature on [{a}, {t}] missed tolerance {tol:.3g} at depth "
            f"{QUAD_MAX_DEPTH} (worst residual {max(shortfalls):.3g})",
            estimate)
    return estimate


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
    and ``t + h`` of :func:`numeric_t_alpha_derivative`, which depend only
    on ``t`` and ``alpha``, and one :class:`PointTable` over all ``3 *
    len(ts)`` points, shared by every expression checked on the grid.

    Points are checked in order, and the first bad one raises what
    evaluating ``y(t)`` and then :func:`numeric_t_alpha_derivative` on
    :func:`expr_grid` at that point raises.

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
            eps, t_lo_pt, t_hi_pt = _stencil(t, alpha, 1, DOMAIN_FLOOR, DOMAIN_CEILING)
            two_eps.append(2.0 * eps)
            lo.append(t_lo_pt)
            hi.append(t_hi_pt)
        self.two_eps = np.array(two_eps, dtype=float)
        self.table = PointTable(self.ts + hi + lo, subst)

    def values(self, f: UExpr) -> np.ndarray:
        """``f`` at each grid point."""
        return self.table.eval(f)[:len(self.ts)]

    def quotient(self, f: UExpr) -> np.ndarray:
        """The central limit quotient of ``f`` at each grid point."""
        n = len(self.ts)
        vals = self.table.eval(f)
        with np.errstate(all="ignore"):
            return (vals[n:2 * n] - vals[2 * n:]) / self.two_eps


def operator_residual(coeffs: list[float], y: UExpr, forcing: UExpr,
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

    The symbolic levels are built once per call.  Every level, and the
    forcing, is evaluated at all grid points at once through the grid's
    shared :class:`PointTable`; a forcing passed again on the same grid is
    not evaluated again.  The quotients, sums and scales are the same float
    operations in the same order as :func:`numeric_t_alpha_derivative` and
    :func:`eval_expr` point by point, so the residuals are equal to theirs.

    Each residual is normalised by the magnitude of the terms being
    cancelled: ``|residual| / max(1, sum_i |p_i * D_i| + |D_n| + |q(t)|)``,
    so the value is comparable across equations whose solutions range over
    many orders of magnitude.
    """
    n = len(coeffs)
    if n < 1:
        raise ValueError("operator needs order n >= 1")
    levels = [y]
    for _ in range(n - 1):
        levels.append(diff_u(levels[-1]))
    values = [grid.values(y)] + [grid.quotient(level) for level in levels]
    q_val = grid.values(forcing)
    with np.errstate(all="ignore"):  # inf and nan pass silently, as in float
        acc = values[n] - q_val
        scale = np.abs(values[n]) + np.abs(q_val)
        for i, p in enumerate(coeffs):
            term = p * values[i]
            acc += term
            scale += np.abs(term)
        return (np.abs(acc) / np.maximum(scale, 1.0)).tolist()
