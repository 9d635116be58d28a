"""Tour of the numeric oracle that keeps the symbolic side honest.

Run with:  python3 demos/oracle_walkthrough.py

Nothing here touches the term algebra's own calculus: derivatives come
from the limit-quotient definition (f(t + eps*t^{1-alpha}) - f(t))/eps,
taken as the complex step Im f(t + i*eps*t^{1-alpha}) / eps at every
point of an ``OracleGrid``.  The step subtracts no values, so nothing
cancels and the quotient is as accurate as a value.  That independence
is the point — when a closed-form solution passes the oracle, the check
means something.
"""

from fractions import Fraction

from confode import (
    OracleGrid,
    UTerm,
    expr,
    operator_residual,
    problem_from_source,
    solve_problem,
)
from confode.conformable import STEP

ALPHA = 0.5


def main():
    # f(t) = e^{2 t^alpha} is e^{2 alpha u} in u = t^alpha / alpha.  By the
    # chain rule t^{1-alpha} * f'(t) = 2 alpha * f(t), so the conformable
    # derivative of f is exactly 2*alpha*f.
    f = expr(UTerm(1.0, erate=Fraction(2) * Fraction(ALPHA)))
    points = (0.3, 1.7, 4.0)
    grid = OracleGrid(ALPHA, points)
    print(f"complex-step quotient Im f(t + i*eps*t^{{1-alpha}}) / eps, eps = {STEP!r}, "
          "of e^{2 t^alpha} against 2*alpha*f(t):")
    # the grid's columns of f: its values, then the quotient of its rows
    for t, value, got in zip(points, *grid.columns(f, 1)):
        want = 2.0 * ALPHA * value
        print(f"  t={t:<4} quotient={got:.10f}  closed form={want:.10f}  "
              f"relative error={abs(got - want) / abs(want):.2e}")
    print()

    # the full-equation residual: solve symbolically, check numerically
    spec_src = "T2 y + 4 T y + 3 y = sin(2 t^a)"
    sol = solve_problem(problem_from_source(spec_src, ALPHA))
    print(f"residuals for the solved particular of  {spec_src}")
    points = (0.05, 0.3, 1.0, 2.5)
    grid = OracleGrid(ALPHA, points)
    residuals = operator_residual(list(sol.spec.coeffs), sol.particular,
                                  sol.spec.forcing, grid)
    for t, v, r in zip(points, grid.values(sol.particular.float_rows), residuals):
        print(f"  t={t:<5} v(t)={v:+.6f}  residual={r:.2e}")


if __name__ == "__main__":
    main()
