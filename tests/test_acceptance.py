"""Acceptance gate for the shipped behavior.

Each test covers one numbered criterion and prints a single
``[criterion NN] PASS/FAIL`` line (visible under ``pytest -s``).  The
checks pin closed-form coefficients, root structure, and numeric-oracle
residuals over the alpha sweep {0.25, 0.5, 0.75, 1.0}.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
from algebra_reference import apply_operator
from roots_reference import eval_poly

from confode.chareq import find_roots
from confode.conformable import OracleGrid, log_grid, operator_residual
from confode.eqparse import problem_from_source
from confode.solver import (
    ProblemSpec,
    particular_solution,
    solve_problem,
)
from confode.ualgebra import (
    COS,
    SIN,
    ZERO,
    SubstMap,
    UTerm,
    add,
    diff_u,
    expr,
    mul,
    scale,
)
from oracle_reference import GridFn, numeric_conformable_integral, numeric_t_alpha_derivative
from vop_reference import integrate_u, one

ALPHAS = (0.25, 0.5, 0.75, 1.0)
OPERATOR = "T2 y + 4 T y + 3 y"


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {description}")
        raise
    print(f"[criterion {num:02d}] PASS - {description}")


def rel_close(got, want, tol):
    assert want != 0.0
    assert abs(got - want) <= tol * abs(want), (got, want, tol)


def coeff_of(e, upow=0, erate=F(0), trig=None, tfreq=F(0)):
    for t in e.terms:
        if (t.upow, t.erate, t.trig, t.tfreq) == (upow, erate, trig, tfreq):
            return t.coeff
    return 0.0


def grid_residual(spec, y, forcing):
    grid = log_grid(0.01, 3.0, 50)
    return max(operator_residual(list(spec.coeffs), y, forcing,
                                 OracleGrid(spec.alpha, grid)))


def solve_text(src, alpha):
    return solve_problem(problem_from_source(src, alpha))


# ---------------------------------------------------------------------------


def test_criterion_01_distinct_real_roots():
    with criterion(1, "order-2 homogeneous solve gives the two fractional "
                      "exponentials, residuals < 1e-6 on the default grid"):
        for alpha in ALPHAS:
            sol = solve_text(f"{OPERATOR} = 0", alpha)
            assert sol.basis.n == 2
            rates = []
            for e in sol.basis.elements:
                assert len(e.terms) == 1
                term = e.terms[0]
                assert term.coeff == 1.0 and term.upow == 0 and term.trig is None
                rates.append(term.erate)
            assert rates == [F(-3), F(-1)]
            for e in sol.basis.elements:
                assert grid_residual(sol.spec, e, ZERO) < 1e-6


def test_criterion_02_double_root():
    with criterion(2, "double root found with multiplicity exactly 2; "
                      "u*exp(5u) element passes the oracle"):
        for alpha in ALPHAS:
            spec = problem_from_source("T2 y - 10 T y + 25 y = 0", alpha)
            roots = find_roots(spec.char_poly())
            assert roots.entries == ((5.0 + 0.0j, 2),)
            sol = solve_problem(spec)
            plain, ramped = sol.basis.elements
            assert plain.terms[0].upow == 0 and plain.terms[0].erate == F(5)
            assert ramped.terms[0].upow == 1 and ramped.terms[0].erate == F(5)
            assert [o.level for o in sol.basis.origins] == [0, 1]
            assert grid_residual(spec, ramped, ZERO) < 1e-6


def test_criterion_03_complex_pair():
    with criterion(3, "complex pair -1/2 +/- i*sqrt(3)/2 recovered to 1e-10; "
                      "damped-oscillation basis passes the oracle"):
        beta = math.sqrt(3.0) / 2.0
        for alpha in ALPHAS:
            spec = problem_from_source("T2 y + T y + y = 0", alpha)
            roots = find_roots(spec.char_poly())
            top = max((r for r, _ in roots.entries), key=lambda z: z.imag)
            assert abs(top.real + 0.5) < 1e-10
            assert abs(top.imag - beta) < 1e-10
            sol = solve_problem(spec)
            kinds = []
            for e in sol.basis.elements:
                term = e.terms[0]
                assert abs(float(term.erate) + 0.5) < 1e-10
                assert abs(float(term.tfreq) - beta) < 1e-10
                kinds.append(term.trig)
                assert grid_residual(spec, e, ZERO) < 1e-6
            assert kinds == [COS, SIN]


def test_criterion_04_single_exponential_forcing():
    with criterion(4, "exp(2 t^a) forcing: one-term particular solution with "
                      "coefficient 1/(4a^2+8a+3); 1/15 at a=1"):
        for alpha in ALPHAS:
            sol = solve_text(f"{OPERATOR} = exp(2 t^a)", alpha)
            v = sol.particular
            assert len(v.terms) == 1
            term = v.terms[0]
            assert term.upow == 0 and term.trig is None
            assert float(term.erate) == 2.0 * alpha
            rel_close(term.coeff, 1.0 / (4 * alpha**2 + 8 * alpha + 3), 1e-10)
        sol = solve_text(f"{OPERATOR} = exp(2 t^a)", 1.0)
        rel_close(sol.particular.terms[0].coeff, 1.0 / 15.0, 1e-10)


def test_criterion_05_polynomial_forcing():
    with criterion(5, "polynomial forcing: all three power coefficients "
                      "match the closed form to 1e-9"):
        for alpha in ALPHAS:
            sol = solve_text(f"{OPERATOR} = 2 t^(2 a) + t^a - 3", alpha)
            v = sol.particular
            # u^k coefficients correspond to t^{k*alpha} ones scaled by alpha^k
            rel_close(coeff_of(v, upow=2) / alpha**2, 2.0 / 3.0, 1e-9)
            rel_close(coeff_of(v, upow=1) / alpha,
                      (3.0 - 16.0 * alpha) / 9.0, 1e-9)
            rel_close(coeff_of(v, upow=0),
                      (52.0 * alpha**2 - 12.0 * alpha - 27.0) / 27.0, 1e-9)


def test_criterion_06_sinusoidal_forcing():
    with criterion(6, "sin(2 t^a) forcing: sin coefficient matches the closed "
                      "form; cos coefficient matches an independent 2x2 solve"):
        for alpha in ALPHAS:
            sol = solve_text(f"{OPERATOR} = sin(2 t^a)", alpha)
            v = sol.particular
            freq = F(2) * F(alpha)
            got_sin = coeff_of(v, trig=SIN, tfreq=freq)
            got_cos = coeff_of(v, trig=COS, tfreq=freq)
            rel_close(got_sin,
                      (3.0 - 4.0 * alpha**2)
                      / (16.0 * alpha**4 + 40.0 * alpha**2 + 9.0), 1e-9)
            d = 3.0 - 4.0 * alpha**2
            want_cos, want_sin = np.linalg.solve(
                np.array([[d, 8.0 * alpha], [-8.0 * alpha, d]]),
                np.array([0.0, 1.0]))
            rel_close(got_cos, want_cos, 1e-9)
            rel_close(got_sin, want_sin, 1e-9)
            assert grid_residual(sol.spec, v, sol.spec.forcing) < 1e-6


def test_criterion_07_power_times_exponential_forcing():
    with criterion(7, "t^a*exp(2 t^a) forcing: both particular coefficients "
                      "match the closed form to 1e-9"):
        for alpha in ALPHAS:
            sol = solve_text(f"{OPERATOR} = t^a exp(2 t^a)", alpha)
            v = sol.particular
            rate = F(2) * F(alpha)
            p2 = 4.0 * alpha**2 + 8.0 * alpha + 3.0
            rel_close(coeff_of(v, upow=1, erate=rate) / alpha, 1.0 / p2, 1e-9)
            rel_close(coeff_of(v, upow=0, erate=rate),
                      -(4.0 * alpha**2 + 4.0 * alpha) / p2**2, 1e-9)


def test_criterion_08_nonresonant_exponential_forcing():
    with criterion(8, "exp(-4 t^a) forcing away from resonance: single-term "
                      "coefficient 1/(16a^2-16a+3) to 1e-10"):
        for alpha in (0.5, 1.0):
            sol = solve_text(f"{OPERATOR} = exp(-4 t^a)", alpha)
            v = sol.particular
            assert len(v.terms) == 1
            rel_close(v.terms[0].coeff,
                      1.0 / (16.0 * alpha**2 - 16.0 * alpha + 3.0), 1e-10)


def test_criterion_09_resonant_exponential_forcing():
    with criterion(9, "exp(-4 t^a) forcing at resonance: ramped component "
                      "coefficient -1/2 at a=3/4 and +1/2 at a=1/4, modulo "
                      "homogeneous terms; residual < 1e-6"):
        for alpha, root, want in ((0.75, F(-3), -0.5), (0.25, F(-1), 0.5)):
            sol = solve_text(f"{OPERATOR} = exp(-4 t^a)", alpha)
            v = sol.particular
            got = coeff_of(v, upow=1, erate=root)
            rel_close(got, want, 1e-9)
            # same statement in the t-form normalization
            rel_close(got / alpha, want / alpha, 1e-9)
            assert grid_residual(sol.spec, v, sol.spec.forcing) < 1e-6


# ---------------------------------------------------------------------------
# criterion 10: property suites at scale


def _random_expr(rng, max_terms=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        trig = rng.choice([None, COS, SIN])
        freq = F(0) if trig is None else rng.choice([F(1), F(2), F(1, 2)])
        rate = rng.choice([F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)])
        coeff = round(rng.uniform(0.5, 3.0), 3) * rng.choice([-1.0, 1.0])
        terms.append(UTerm(coeff, rng.randint(0, 2), rate, trig, freq))
    e = expr(*terms)
    return e if not e.is_zero() else one()


def _exprs_close(a, b, tol=1e-9):
    diff = add(a, scale(b, -1.0))
    scale_mag = max([1.0] + [abs(t.coeff) for t in a.terms]
                    + [abs(t.coeff) for t in b.terms])
    return all(abs(t.coeff) <= tol * scale_mag for t in diff.terms)


def _random_spec(rng, max_order):
    n = rng.randint(1, max_order)
    coeffs = tuple(round(rng.uniform(-5, 5), 3) for _ in range(n))
    return ProblemSpec(coeffs, rng.choice(ALPHAS))


def _ring_and_antiderivative_suite(rng, rounds):
    failures = 0
    for _ in range(rounds):
        f, g, h = (_random_expr(rng) for _ in range(3))
        if not _exprs_close(add(f, g), add(g, f)):
            failures += 1
        if not _exprs_close(mul(f, add(g, h)), add(mul(f, g), mul(f, h))):
            failures += 1
        if not _exprs_close(diff_u(integrate_u(f)), f):
            failures += 1
    return failures


def _eigen_suite(rng, rounds):
    count = failures = 0
    while count < rounds:
        spec = _random_spec(rng, 5)
        poly = spec.char_poly()
        r = round(rng.uniform(-4, 4), 3)
        if abs(eval_poly(poly, r)) <= 1e-3:
            continue
        out = apply_operator(spec, expr(UTerm(1.0, 0, F(r))))
        want = eval_poly(poly, r).real
        if len(out.terms) != 1 or abs(coeff_of(out, erate=F(r)) - want) > 1e-10 * max(1.0, abs(want)):
            failures += 1
        count += 1
    return count, failures


def _inverse_suite(rng, rounds):
    count = failures = 0
    a = 0.5
    while count < rounds:
        alpha = rng.choice(ALPHAS)
        coeffs = [round(rng.uniform(-2, 2), 3) for _ in range(rng.randint(1, 4))]
        f = GridFn(lambda x, c=tuple(coeffs): sum(
            ci * x**i for i, ci in enumerate(c)), 0.4, 5.0)
        t = rng.uniform(0.8, 3.0)
        integral = GridFn(
            lambda x, al=alpha: numeric_conformable_integral(f, a, x, al),
            0.55, 4.0)
        got = numeric_t_alpha_derivative(integral, t, alpha)
        want = f(t)
        if abs(got - want) > 1e-4 * max(1.0, abs(want)):
            failures += 1
        count += 1
    return count, failures


def _variation_residual_suite(rng, rounds):
    count = failures = 0
    while count < rounds:
        spec0 = _random_spec(rng, 3)
        spec = ProblemSpec(spec0.coeffs, spec0.alpha, _random_expr(rng))
        v = particular_solution(spec)
        symbolic = add(apply_operator(spec, v), scale(spec.forcing, -1.0))
        ok = symbolic.is_zero()
        if ok:
            ok = max(operator_residual(list(spec.coeffs), v, spec.forcing,
                                       OracleGrid(spec.alpha, (0.3, 1.1, 2.4)))) <= 1e-5
        if not ok:
            failures += 1
        count += 1
    return count, failures


def test_criterion_10_property_suites():
    with criterion(10, "property suites: ring/antiderivative laws, >=200 "
                       "eigen-identity pairs, >=50 inverse-property "
                       "integrands, >=100 residual instances, zero failures"):
        rng = random.Random(20260823)
        assert _ring_and_antiderivative_suite(rng, 60) == 0
        count, failures = _eigen_suite(rng, 200)
        assert count >= 200 and failures == 0
        count, failures = _inverse_suite(rng, 50)
        assert count >= 50 and failures == 0
        count, failures = _variation_residual_suite(rng, 100)
        assert count >= 100 and failures == 0


# ---------------------------------------------------------------------------
# criterion 11: classical reduction at alpha = 1


def test_criterion_11_classical_reduction():
    with criterion(11, "alpha = 1 reduces every worked case to the classical "
                       "constant-coefficient answers"):
        sol = solve_text(f"{OPERATOR} = 0", 1.0)
        assert [e.terms[0].erate for e in sol.basis.elements] == [F(-3), F(-1)]

        sol = solve_text("T2 y - 10 T y + 25 y = 0", 1.0)
        assert [(e.terms[0].upow, e.terms[0].erate)
                for e in sol.basis.elements] == [(0, F(5)), (1, F(5))]

        sol = solve_text("T2 y + T y + y = 0", 1.0)
        beta = math.sqrt(3.0) / 2.0
        for e in sol.basis.elements:
            assert abs(float(e.terms[0].erate) + 0.5) < 1e-10
            assert abs(float(e.terms[0].tfreq) - beta) < 1e-10

        sol = solve_text(f"{OPERATOR} = exp(2 t^a)", 1.0)
        rel_close(sol.particular.terms[0].coeff, 1.0 / 15.0, 1e-12)

        sol = solve_text(f"{OPERATOR} = 2 t^(2 a) + t^a - 3", 1.0)
        rel_close(coeff_of(sol.particular, upow=2), 2.0 / 3.0, 1e-12)
        rel_close(coeff_of(sol.particular, upow=1), -13.0 / 9.0, 1e-12)
        rel_close(coeff_of(sol.particular, upow=0), 13.0 / 27.0, 1e-12)

        sol = solve_text(f"{OPERATOR} = sin(2 t^a)", 1.0)
        rel_close(coeff_of(sol.particular, trig=COS, tfreq=F(2)),
                  -8.0 / 65.0, 1e-12)
        rel_close(coeff_of(sol.particular, trig=SIN, tfreq=F(2)),
                  -1.0 / 65.0, 1e-12)

        sol = solve_text(f"{OPERATOR} = t^a exp(2 t^a)", 1.0)
        rel_close(coeff_of(sol.particular, upow=1, erate=F(2)), 1.0 / 15.0, 1e-12)
        rel_close(coeff_of(sol.particular, upow=0, erate=F(2)),
                  -8.0 / 225.0, 1e-12)

        sol = solve_text(f"{OPERATOR} = exp(-4 t^a)", 1.0)
        rel_close(sol.particular.terms[0].coeff, 1.0 / 3.0, 1e-12)

        # the classical forms evaluate identically in t and u
        subst = SubstMap(1.0)
        assert subst.u_of(2.5) == 2.5
