"""Particular solutions for the five supported forcing families.

Run with:  python3 demos/particular_solutions.py

The same left side — T2 y + 4 T y + 3 y — is driven by an exponential, a
polynomial, a sinusoid, a power-times-exponential product, and an
exponential that collides with a characteristic root at special alpha
values.  The exponential shift P(D)[e^{su} p(u)] = e^{su} P(s+D) p(u)
handles all of them with one code path: at a root of multiplicity m the
first m Taylor coefficients of P at s vanish, and the m integrations that
follow produce the ramped u * e^{ru} growth.  The paper's variation of
parameters, which gives the same answers up to homogeneous terms, is kept
in tests/vop_reference.py as the reference the tests compare against.
"""

from confode import (
    OracleGrid,
    SubstMap,
    format_t,
    operator_residual,
    problem_from_source,
    solve_problem,
)

FORCINGS = [
    ("exponential", "exp(2 t^a)"),
    ("polynomial", "2 t^(2 a) + t^a - 3"),
    ("sinusoid", "sin(2 t^a)"),
    ("power times exponential", "t^a exp(2 t^a)"),
    ("root-colliding exponential", "exp(-4 t^a)"),
]


def main():
    for label, forcing in FORCINGS:
        source = f"T2 y + 4 T y + 3 y = {forcing}"
        print(f"== {label}: q(t) = {forcing}")
        for alpha in (0.5, 0.75, 1.0):
            sol = solve_problem(problem_from_source(source, alpha))
            subst = SubstMap(alpha)
            residual = max(operator_residual(list(sol.spec.coeffs), sol.particular,
                                             sol.spec.forcing,
                                             OracleGrid(alpha, (0.3, 1.0, 2.5))))
            print(f"   alpha={alpha:<5} v(t) = {format_t(sol.particular, subst)}")
            print(f"               residual at spot points: {residual:.2e}")
        print()


if __name__ == "__main__":
    main()
