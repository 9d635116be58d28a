"""Watch a particular solution pass through resonance as alpha moves.

Run with:  python3 demos/resonance_sweep.py

For T2 y + 4 T y + 3 y = e^{-4 t^alpha} the forcing rate in the u
variable is -4*alpha.  The characteristic roots sit at -3 and -1, so the
non-resonant coefficient 1/(16 alpha^2 - 16 alpha + 3) blows up as alpha
approaches 3/4 or 1/4 — and exactly at those values the solver switches
(without any special case in the code) to a ramped u * e^{ru} term with
coefficient -1/2 or +1/2.
"""

from fractions import Fraction

from confode import SubstMap, format_t, problem_from_source, solve_problem

SOURCE = "T2 y + 4 T y + 3 y = exp(-4 t^a)"


def main():
    print("alpha        particular solution (t form)")
    for alpha in (0.5, 0.7, 0.74, 0.75, 0.76, 0.8, 1.0):
        sol = solve_problem(problem_from_source(SOURCE, alpha))
        subst = SubstMap(alpha)
        print(f"{alpha:<12} {format_t(sol.particular, subst)}")

    print()
    print("closed-form coefficient 1/(16a^2-16a+3) near the pole at a=3/4:")
    for alpha in (0.74, 0.749, 0.7499):
        print(f"  a={alpha:<7} -> {1.0 / (16 * alpha**2 - 16 * alpha + 3):.6g}")

    print()
    print("at exactly a=3/4 the exact-rate bookkeeping (rates are stored as")
    print("fractions, so -4 * 3/4 == -3 is an identity, not a float near-hit)")
    print("turns the collision into polynomial growth:")
    sol = solve_problem(problem_from_source(SOURCE, 0.75))
    ramped = [t for t in sol.particular.terms
              if t.upow == 1 and t.erate == Fraction(-3)]
    print(f"  ramped term coefficient: {ramped[0].coeff}  (expected -1/2, exactly)")


if __name__ == "__main__":
    main()
