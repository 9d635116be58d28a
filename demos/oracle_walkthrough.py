"""Tour of the numeric oracle that keeps the symbolic side honest.

Run with:  python3 demos/oracle_walkthrough.py

Nothing here touches the term algebra's own calculus: derivatives come
from the limit-quotient definition (f(t + eps*t^{1-alpha}) - f(t))/eps
evaluated as a central difference, and integrals from adaptive Simpson
quadrature on the weighted integrand x^{alpha-1} f(x).  That independence
is the point — when a closed-form solution passes the oracle, the check
means something.
"""

import math

from confode import (
    GridFn,
    OracleGrid,
    numeric_conformable_integral,
    numeric_t_alpha_derivative,
    operator_residual,
    problem_from_source,
    solve_problem,
)
from confode.ualgebra import SubstMap, eval_expr

ALPHA = 0.5


def main():
    f = GridFn(lambda t: math.exp(2.0 * t**ALPHA), 1e-3, 50.0)

    # chain rule: t^{1-alpha} * f'(t) = 2 alpha * t^{1-alpha} t^{alpha-1} f,
    # so the conformable derivative of e^{2 t^alpha} is exactly 2*alpha*f.
    t = 1.7
    got = numeric_t_alpha_derivative(f, t, ALPHA)
    want = 2.0 * ALPHA * f(t)
    print(f"limit-quotient derivative at t={t}: {got:.10f}")
    print(f"closed form 2*alpha*f(t):          {want:.10f}")
    print(f"relative error: {abs(got - want) / abs(want):.2e}")
    print()

    # the weighted integral of t^{1-alpha} * g'(t) telescopes back to g
    g = GridFn(lambda t: math.sin(t), 1e-3, 50.0)
    lo, hi = 0.4, 2.1
    integral = numeric_conformable_integral(
        GridFn(lambda t: t ** (1.0 - ALPHA) * math.cos(t), 1e-3, 50.0),
        lo, hi, ALPHA)
    print(f"integral of the derivative over [{lo}, {hi}]: {integral:.10f}")
    print(f"g(hi) - g(lo):                              {g(hi) - g(lo):.10f}")
    print()

    # the full-equation residual: solve symbolically, check numerically
    spec_src = "T2 y + 4 T y + 3 y = sin(2 t^a)"
    sol = solve_problem(problem_from_source(spec_src, ALPHA))
    subst = SubstMap(ALPHA)
    print(f"residuals for the solved particular of  {spec_src}")
    points = (0.05, 0.3, 1.0, 2.5)
    residuals = operator_residual(list(sol.spec.coeffs), sol.particular,
                                  sol.spec.forcing, OracleGrid(ALPHA, points))
    for t, r in zip(points, residuals):
        v = eval_expr(sol.particular, t, subst)
        print(f"  t={t:<5} v(t)={v:+.6f}  residual={r:.2e}")


if __name__ == "__main__":
    main()
