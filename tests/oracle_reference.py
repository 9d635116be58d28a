"""The conformable limit quotient point by point, and weighted quadrature.

The library's verify runs only :class:`confode.conformable.OracleGrid`,
which takes the complex-step quotient at every grid point at once.  This
module keeps scalar definitions as references for the tests: the same
complex step at one point, operation for operation (the parity tests
compare the batched oracle against it bit for bit); verify's initial-value
check on a table of its own at ``t0``; and, independent of the complex
step, the central quotient of a callback at one point, nested to any
order, with the matching conformable integral by adaptive Simpson
quadrature.

The conformable derivative of order ``alpha`` acts on a function ``f`` of
``t > 0`` as the limit of ``(f(t + eps*t**(1-alpha)) - f(t)) / eps``; for
differentiable ``f`` this equals ``t**(1-alpha) * f'(t)``.  The matching
integral accumulates ``x**(alpha-1) * f(x)`` and inverts the derivative.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass

from confode.conformable import DOMAIN_CEILING, DOMAIN_FLOOR, STEP, DomainError, OracleGrid
from confode.ualgebra import SubstMap, UExpr, eval_expr, lowered_levels

_EPS = 2.220446049250313e-16

#: Adaptive Simpson target (applied both absolutely and relative to the
#: running whole-interval estimate).
QUAD_TOL = 1e-10

#: Maximum bisection depth before the quadrature gives up.
QUAD_MAX_DEPTH = 40


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


def complex_eval_expr(f: UExpr, t: complex, subst: SubstMap) -> complex:
    """:func:`~confode.ualgebra.eval_expr` at a complex point, with cmath."""
    u = subst.u_of(t)
    total = 0.0
    for coeff, upow, erate, trig, tfreq in f.float_rows:
        v = coeff
        if upow:
            v *= u ** upow
        if erate:
            v *= cmath.exp(erate * u)
        if trig == 1:  # COS
            v *= cmath.cos(tfreq * u)
        elif trig == 2:  # SIN
            v *= cmath.sin(tfreq * u)
        total += v
    return total


def complex_step(f: UExpr, t: float, alpha: float) -> tuple[float, float]:
    """``f(t)`` and the complex-step limit quotient of ``f`` at ``t``.

    Both come from one value at ``t + i*STEP*t**(1-alpha)``: its real part
    and its imaginary part divided by ``STEP``.  ``t`` is checked as
    :class:`~confode.conformable.OracleGrid` checks its points.
    """
    subst = SubstMap(alpha)
    subst.u_of(t)  # raises for t <= 0 ahead of the domain check
    if not DOMAIN_FLOOR < t < DOMAIN_CEILING:
        raise DomainError(f"t={t} is not interior to ({DOMAIN_FLOOR}, {DOMAIN_CEILING})")
    z = complex_eval_expr(f, complex(t, STEP * t ** (1.0 - alpha)), subst)
    return z.real, z.imag / STEP


def initial_value_check(sol) -> dict:
    """Verify's ``combined`` record of a fitted solution, on a one-point grid.

    ``v + sum c_i e_i`` and its first ``n - 1`` quotients at ``t0``,
    against the targets, each evaluated on an :class:`OracleGrid` that holds
    ``t0`` alone: level 0 is the value, level k the quotient of level k - 1.
    """
    t0, targets = sol.ic
    at_t0 = OracleGrid(sol.spec.alpha, [t0])
    parts = [] if sol.particular is None else [(1.0, sol.particular)]
    parts += zip(sol.constants, sol.basis.elements)
    rows = []
    for c, f in parts:
        levels = lowered_levels(f, sol.spec.order)
        rows.append([c * at_t0.values(levels[0])[0]]
                    + [c * at_t0.quotient(level)[0] for level in levels[:-1]])
    residuals = [abs(sum(terms) - target) / max(sum(map(abs, terms)), abs(target), 1.0)
                 for *terms, target in zip(*rows, targets)]
    return {"max_residual": max(residuals), "worst_t": t0}


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
