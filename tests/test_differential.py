"""Differential tests: confode's answers against sympy's ``dsolve``.

In ``u = t^a / a`` a sequential conformable equation is a linear ODE in u
with constant coefficients, and ``t^a`` is ``a u``.  Each case below is
written twice: once as confode's equation text, and once, independently
of confode's parser, as the characteristic polynomial and the forcing in
``ta = t^a``, from which sympy builds ``L[y] = q`` in u.  The test requires

- confode's basis elements to be exactly the functions that multiply the
  constants in ``expand(dsolve(L[y] = q).rhs)``;
- sympy's ``L[v] - q`` to expand to exactly 0 for confode's particular
  solution v.

Every number is an exact rational on both sides, so both checks are exact.
"""

from __future__ import annotations

import pytest

from confode.eqparse import problem_from_source
from confode.solver import solve_problem

sympy = pytest.importorskip("sympy")

u, ta = sympy.symbols("u ta")
R = sympy.Rational

#: (equation, alpha, characteristic polynomial highest power first, forcing
#: in ``ta``); every equation but the first has resonant forcing.
CASES = {
    "distinct": ("T3 y + 6 T2 y + 11 T y + 6 y = exp(t^a)", "0.5",
                 [1, 6, 11, 6], sympy.exp(ta)),
    "triple": ("T3 y + 3 T2 y + 3 T y + y = exp(-2 t^a)", "0.5",
               [1, 3, 3, 1], sympy.exp(-2 * ta)),
    "quadruple": ("T4 y - 4 T3 y + 6 T2 y - 4 T y + y = t^a exp(2 t^a)", "0.5",
                  [1, -4, 6, -4, 1], ta * sympy.exp(2 * ta)),
    "gaussian-pair": ("T2 y - T y + 0.8125 y = t^a exp(t^a) cos(1.5 t^a)", "0.5",
                      [1, -1, R(13, 16)], ta * sympy.exp(ta) * sympy.cos(R(3, 2) * ta)),
    "double-pair": ("T4 y + 4 T3 y + 8 T2 y + 8 T y + 4 y = t^a exp(-2 t^a) sin(2 t^a)",
                    "0.5", [1, 4, 8, 8, 4], ta * sympy.exp(-2 * ta) * sympy.sin(2 * ta)),
    "pair-at-alpha-1": ("T2 y + 2 T y + 5 y = exp(-t^a) sin(2 t^a)", "1",
                        [1, 2, 5], sympy.exp(-ta) * sympy.sin(2 * ta)),
    "decimal-alpha": ("T2 y - 0.09 y = exp(t^a)", "0.3",
                      [1, 0, R(-9, 100)], sympy.exp(ta)),
}


def to_sympy(f) -> sympy.Expr:
    """A confode expression as a sympy function of u, exactly."""
    total = sympy.Integer(0)
    for t in f.terms:
        term = R(t.coeff.numerator, t.coeff.denominator) * u ** t.upow * sympy.exp(
            R(t.erate.numerator, t.erate.denominator) * u)
        if t.trig is not None:
            trig = sympy.cos if t.trig == "cos" else sympy.sin
            term *= trig(R(t.tfreq.numerator, t.tfreq.denominator) * u)
        total += term
    return total


@pytest.mark.parametrize("source, alpha, poly, forcing", list(CASES.values()), ids=list(CASES))
def test_solution_matches_sympy_dsolve(source, alpha, poly, forcing):
    n = len(poly) - 1

    def operator(f):
        return sum(c * sympy.diff(f, u, n - k) for k, c in enumerate(poly))

    q = forcing.subs(ta, R(alpha) * u)
    y = sympy.Function("y")
    general = sympy.expand(sympy.dsolve(sympy.Eq(operator(y(u)), q), y(u)).rhs)
    constants = general.free_symbols - {u}
    assert len(constants) == n
    sol = solve_problem(problem_from_source(source, float(alpha)))
    assert {to_sympy(e) for e in sol.basis.elements} == {general.coeff(c) for c in constants}
    assert sympy.expand(operator(to_sympy(sol.particular)) - q) == 0
