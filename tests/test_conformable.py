"""Tests for the numeric conformable derivative/integral oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confode import conformable
from confode.conformable import (
    DOMAIN_FLOOR,
    DomainError,
    GridFn,
    QuadratureError,
    expr_grid,
    log_grid,
    numeric_conformable_integral,
    numeric_t_alpha_derivative,
    operator_residual,
)
from confode.solver import ProblemSpec, homogeneous_basis, particular_solution
from confode.ualgebra import COS, SIN, SubstMap, UTerm, ZERO, diff_u, eval_expr, expr

ALPHAS = [0.25, 0.5, 0.75, 1.0]


def wide(fn):
    return GridFn(fn, DOMAIN_FLOOR, 1e6)


def integration_by_parts_check(f, g, a: float, b: float, alpha: float) -> float:
    """Defect of the conformable by-parts identity for symbolic f, g.

    Compares ``int_a^b f * T_alpha(g)`` against ``f*g |_a^b - int_a^b
    g * T_alpha(f)`` (both integrals in the conformable sense, evaluated
    by quadrature) and returns the absolute difference.  Both derivatives
    are taken symbolically, so the defect measures the consistency of
    diff_u, eval_expr and the quadrature with one another.
    """
    if not (0.0 < a < b):
        raise DomainError(f"by-parts interval must satisfy 0 < a < b, got [{a}, {b}]")
    subst = SubstMap(alpha)
    df, dg = diff_u(f), diff_u(g)
    lhs = numeric_conformable_integral(
        GridFn(lambda x: eval_expr(f, x, subst) * eval_expr(dg, x, subst),
               0.5 * a, 2.0 * b), a, b, alpha)
    boundary = (eval_expr(f, b, subst) * eval_expr(g, b, subst)
                - eval_expr(f, a, subst) * eval_expr(g, a, subst))
    rhs_int = numeric_conformable_integral(
        GridFn(lambda x: eval_expr(g, x, subst) * eval_expr(df, x, subst),
               0.5 * a, 2.0 * b), a, b, alpha)
    return abs(lhs - (boundary - rhs_int))


# ---------------------------------------------------------------------------
# GridFn


def test_gridfn_rejects_bad_intervals():
    with pytest.raises(ValueError):
        GridFn(lambda t: t, 0.0, 1.0)
    with pytest.raises(ValueError):
        GridFn(lambda t: t, 2.0, 1.0)


def test_gridfn_coerces_to_float():
    g = GridFn(lambda t: 3, 0.1, 5.0)
    assert g(1.0) == 3.0 and isinstance(g(1.0), float)


# ---------------------------------------------------------------------------
# Derivative quotient


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
def test_conformable_exponential_is_fixed_point(alpha, t):
    f = wide(lambda s: math.exp(s ** alpha / alpha))
    want = math.exp(t ** alpha / alpha)
    got = numeric_t_alpha_derivative(f, t, alpha)
    assert abs(got - want) <= 1e-5 * abs(want)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
def test_power_rule(alpha, p):
    f = wide(lambda s: s ** p)
    for t in (0.6, 1.0, 2.3):
        want = p * t ** (p - alpha)
        got = numeric_t_alpha_derivative(f, t, alpha)
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_power_rule_worked_value():
    # p = 2, alpha = 1/2, t = 1: derivative is 2 * 1^(3/2) = 2.
    got = numeric_t_alpha_derivative(wide(lambda s: s * s), 1.0, 0.5)
    assert abs(got - 2.0) <= 1e-5 * 2.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_constant_derivative_is_zero(alpha):
    got = numeric_t_alpha_derivative(wide(lambda s: 7.0), 1.3, alpha)
    assert abs(got) <= 1e-7


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_second_order_recursion(alpha):
    # (T_alpha)^2 applied to e^(u) and to u^3 (u = t^alpha/alpha).
    f = wide(lambda s: math.exp(s ** alpha / alpha))
    t = 1.7
    want = math.exp(t ** alpha / alpha)
    got = numeric_t_alpha_derivative(f, t, alpha, order=2)
    assert abs(got - want) <= 1e-4 * abs(want)

    cubic = wide(lambda s: (s ** alpha / alpha) ** 3)
    want = 6.0 * t ** alpha / alpha
    got = numeric_t_alpha_derivative(cubic, t, alpha, order=2)
    assert abs(got - want) <= 1e-4 * abs(want)


def test_third_order_recursion():
    alpha = 0.5
    t = 1.2
    f = wide(lambda s: math.exp(2.0 * s ** alpha / alpha))
    want = 8.0 * math.exp(2.0 * t ** alpha / alpha)
    got = numeric_t_alpha_derivative(f, t, alpha, order=3)
    assert abs(got - want) <= 1e-2 * abs(want)


def test_step_halving_shrinks_error_quadratically():
    # Hand-rolled central quotient at explicit eps values: the error
    # against the exact derivative should drop ~4x per halving.
    alpha = 0.5
    t = 1.6

    def f(s):
        return math.exp(s ** alpha / alpha)

    exact = f(t)
    errs = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        h = eps * t ** (1.0 - alpha)
        errs.append(abs((f(t + h) - f(t - h)) / (2.0 * eps) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_derivative_domain_guards():
    f = GridFn(lambda s: s, 0.5, 1.5)
    with pytest.raises(DomainError):
        numeric_t_alpha_derivative(f, 0.4, 0.5)  # outside interval
    with pytest.raises(DomainError):
        numeric_t_alpha_derivative(f, 1.5 - 1e-9, 0.5)  # stencil escapes
    low = GridFn(lambda s: s, 1e-8, 1.0)
    with pytest.raises(DomainError):
        numeric_t_alpha_derivative(low, 1e-7, 0.5)  # below floor
    with pytest.raises(ValueError):
        numeric_t_alpha_derivative(f, 1.0, 1.5)
    with pytest.raises(ValueError):
        numeric_t_alpha_derivative(f, 1.0, 0.5, order=0)


# ---------------------------------------------------------------------------
# Quadrature


def test_integral_of_one_classical():
    got = numeric_conformable_integral(wide(lambda x: 1.0), 1.0, 2.0, 1.0)
    assert abs(got - 1.0) <= 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
def test_weight_cancellation(alpha):
    # f = x^(1-alpha) makes the integrand exactly 1 on [1, 3].
    got = numeric_conformable_integral(
        wide(lambda x: x ** (1.0 - alpha)), 1.0, 3.0, alpha)
    assert abs(got - 2.0) <= 1e-9


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_integral_known_antiderivative(alpha):
    # integral of x^(alpha-1) * x^alpha = t^(2 alpha) / (2 alpha) | bounds.
    a, t = 0.5, 2.5
    want = (t ** (2 * alpha) - a ** (2 * alpha)) / (2 * alpha)
    got = numeric_conformable_integral(wide(lambda x: x ** alpha), a, t, alpha)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_integral_domain_guards():
    f = wide(lambda x: 1.0)
    with pytest.raises(DomainError):
        numeric_conformable_integral(f, 2.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        numeric_conformable_integral(f, 1e-8, 1.0, 0.5)
    narrow = GridFn(lambda x: 1.0, 0.5, 1.5)
    with pytest.raises(DomainError):
        numeric_conformable_integral(narrow, 0.6, 2.0, 0.5)


def test_quadrature_failure_carries_estimate(monkeypatch):
    want = numeric_conformable_integral(wide(math.exp), 1.0, 2.0, 0.7)
    monkeypatch.setattr(conformable, "QUAD_MAX_DEPTH", 0)
    with pytest.raises(QuadratureError) as info:
        numeric_conformable_integral(wide(math.exp), 1.0, 2.0, 0.7)
    err = info.value
    assert "depth" in str(err)
    # The coarse estimate is still in the right ballpark.
    assert abs(err.estimate - want) < 1e-2 * abs(want)


@settings(max_examples=25)
@given(
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    alpha=st.sampled_from(ALPHAS),
    t=st.floats(0.7, 2.5),
)
def test_inverse_property(coeffs, alpha, t):
    # T_alpha applied to s -> I_alpha(f)(s) recovers f(t) for polynomial f.
    def f(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    a = 0.5
    integral = GridFn(
        lambda s: numeric_conformable_integral(wide(f), a, s, alpha),
        0.55, 4.0)
    got = numeric_t_alpha_derivative(integral, t, alpha)
    want = f(t)
    assert abs(got - want) <= 1e-4 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Integration by parts


def test_by_parts_classical():
    f = expr(UTerm(1.0, upow=1))
    g = expr(UTerm(1.0, erate=Fraction(1)))
    assert integration_by_parts_check(f, g, 1.0, 2.0, 1.0) < 1e-8


def test_by_parts_constant_left_factor():
    f = expr(UTerm(4.0))
    g = expr(UTerm(1.0, upow=2), UTerm(-2.0, erate=Fraction(1, 2)))
    assert integration_by_parts_check(f, g, 1.0, 2.0, 1.0) < 1e-8


def test_by_parts_trig_exp_half_order():
    f = expr(UTerm(1.0, trig=SIN, tfreq=Fraction(2)))
    g = expr(UTerm(1.0, erate=Fraction(-1)))
    assert integration_by_parts_check(f, g, 0.5, 2.0, 0.5) < 1e-6


def test_by_parts_interval_guard():
    with pytest.raises(DomainError):
        integration_by_parts_check(expr(UTerm(1.0)), expr(UTerm(1.0)), 2.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Symbolic/numeric consistency (the limit-quotient bridge used everywhere)


_trig_parts = st.one_of(
    st.just((None, Fraction(0))),
    st.tuples(st.sampled_from(["cos", "sin"]),
              st.sampled_from([Fraction(1), Fraction(3, 2)])),
)

_u_terms = st.builds(
    lambda c, k, rate, trig: UTerm(c, k, rate, trig[0], trig[1]),
    st.floats(0.2, 3.0).map(lambda c: round(c, 3)),
    st.integers(0, 2),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]),
    _trig_parts,
)


@settings(max_examples=40)
@given(
    terms=st.lists(_u_terms, min_size=1, max_size=3),
    alpha=st.sampled_from(ALPHAS),
    t=st.floats(0.3, 2.5),
)
def test_quotient_matches_symbolic_derivative(terms, alpha, t):
    f = expr(*terms)
    subst = SubstMap(alpha)
    sym = eval_expr(diff_u(f), t, subst)
    num = numeric_t_alpha_derivative(expr_grid(f, subst), t, alpha)
    assert abs(num - sym) <= 1e-4 * max(1.0, abs(sym))


# ---------------------------------------------------------------------------
# Residual and grid helpers


def test_log_grid_shape():
    pts = log_grid(0.01, 3.0, 50)
    assert len(pts) == 50
    assert pts[0] == 0.01 and pts[-1] == 3.0
    ratios = [pts[i + 1] / pts[i] for i in range(48)]
    assert max(ratios) - min(ratios) < 1e-9
    with pytest.raises(ValueError):
        log_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        log_grid(0.1, 1.0, 1)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_operator_residual_annihilates_true_solution(alpha):
    # y = e^{-3u} solves y'' + 4y' + 3y = 0 in the u variable.
    y = expr(UTerm(1.0, erate=Fraction(-3)))
    for r in operator_residual([3.0, 4.0], alpha, y, ZERO, (0.3, 1.0, 2.4)):
        assert r < 1e-8


def test_operator_residual_flags_wrong_solution():
    y = expr(UTerm(1.0, erate=Fraction(-3, 1)), UTerm(0.05, erate=Fraction(1, 2)))
    worst = max(operator_residual([3.0, 4.0], 0.5, y, ZERO, (0.5, 1.0, 2.0)))
    assert worst > 1e-3


def test_operator_residual_with_forcing():
    # y = (1/15) e^{2u} solves y'' + 4y' + 3y = e^{2u}.
    y = expr(UTerm(1.0 / 15.0, erate=Fraction(2)))
    q = expr(UTerm(1.0, erate=Fraction(2)))
    for alpha in ALPHAS:
        assert operator_residual([3.0, 4.0], alpha, y, q, [1.3])[0] < 1e-8


# (r+1)^3 (r+2)^2: repeated roots, so the basis carries u^2 e^{-u}.
_ORDER_FIVE = (4.0, 16.0, 25.0, 19.0, 7.0)


def test_operator_residual_grid_matches_single_points_order_five():
    spec = ProblemSpec(_ORDER_FIVE, 0.5)
    y = max(homogeneous_basis(spec).elements, key=lambda e: e.terms[0].upow)
    assert y.terms[0].upow == 2
    grid = log_grid(0.01, 3.0, 50)
    got = operator_residual(list(spec.coeffs), spec.alpha, y, ZERO, grid)
    want = [operator_residual(list(spec.coeffs), spec.alpha, y, ZERO, [t])[0]
            for t in grid]
    assert got == want


def test_operator_residual_grid_matches_single_points_forced():
    forcing = expr(UTerm(1.0, 1, Fraction(-1)),
                   UTerm(2.0, 0, Fraction(1, 2), COS, Fraction(3)))
    spec = ProblemSpec(_ORDER_FIVE, 0.3, forcing)
    v = particular_solution(spec)
    grid = log_grid(0.01, 3.0, 50)
    got = operator_residual(list(spec.coeffs), spec.alpha, v, forcing, grid)
    want = [operator_residual(list(spec.coeffs), spec.alpha, v, forcing, [t])[0]
            for t in grid]
    assert got == want
    assert max(got) < 1e-6
