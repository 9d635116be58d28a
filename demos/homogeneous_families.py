"""Walk through the three homogeneous root configurations.

Run with:  python3 demos/homogeneous_families.py

Every order-2 constant-coefficient problem lands in one of three cases —
two distinct real roots, one double root, or a complex pair — and the
change of variable u = t^alpha / alpha makes the fractional story
identical to the classical one.  This script solves one representative
of each family across the alpha sweep and checks each basis element
against the numeric oracle.
"""

from confode import (
    OracleGrid,
    SubstMap,
    find_roots,
    format_t,
    log_grid,
    operator_residual,
    problem_from_source,
    solve_problem,
)
from confode.ualgebra import ZERO

FAMILIES = [
    ("distinct real roots", "T2 y + 4 T y + 3 y = 0"),
    ("double root", "T2 y - 10 T y + 25 y = 0"),
    ("complex pair", "T2 y + T y + y = 0"),
]

ALPHAS = (0.25, 0.5, 0.75, 1.0)


def max_residual(spec, y):
    grid = log_grid(0.01, 3.0, 50)
    return max(operator_residual(list(spec.coeffs), y, ZERO,
                                 OracleGrid(spec.alpha, grid)))


def main():
    for label, source in FAMILIES:
        print(f"== {label}: {source}")
        spec = problem_from_source(source, 1.0)
        roots = find_roots(spec.char_poly())
        pretty = ", ".join(f"{r:.6g} (x{m})" for r, m in roots.entries)
        print(f"   characteristic roots: {pretty}")
        for alpha in ALPHAS:
            sol = solve_problem(problem_from_source(source, alpha))
            subst = SubstMap(alpha)
            rendered = " | ".join(format_t(e, subst) for e in sol.basis.elements)
            worst = max(max_residual(sol.spec, e) for e in sol.basis.elements)
            print(f"   alpha={alpha:<4}  basis: {rendered}")
            print(f"              worst oracle residual: {worst:.2e}")
        print()


if __name__ == "__main__":
    main()
