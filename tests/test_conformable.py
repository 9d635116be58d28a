"""Tests for the numeric conformable derivative/integral oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference
import oracle_reference
from confode.conformable import (
    DOMAIN_CEILING,
    DOMAIN_FLOOR,
    DomainError,
    OracleGrid,
    log_grid,
    operator_residual,
)
from confode.solver import ProblemSpec, homogeneous_basis, particular_solution
from confode.ualgebra import (
    COS,
    SIN,
    ZERO,
    PointTable,
    SubstMap,
    UTerm,
    diff_u,
    eval_expr,
    expr,
    lowered_levels,
)
from oracle_reference import (
    GridFn,
    QuadratureError,
    complex_step,
    expr_grid,
    numeric_conformable_integral,
    numeric_t_alpha_derivative,
    shape_step,
)

ALPHAS = [0.25, 0.5, 0.75, 1.0]


def wide(fn):
    return GridFn(fn, DOMAIN_FLOOR, DOMAIN_CEILING)


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
    monkeypatch.setattr(oracle_reference, "QUAD_MAX_DEPTH", 0)
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
    batched = OracleGrid(alpha, [t]).columns(f, 1)[1][0]
    assert abs(batched - sym) <= 1e-4 * max(1.0, abs(sym))


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
    for r in operator_residual([3.0, 4.0], y, ZERO, OracleGrid(alpha, (0.3, 1.0, 2.4))):
        assert r < 1e-8


def test_operator_residual_flags_wrong_solution():
    y = expr(UTerm(1.0, erate=Fraction(-3, 1)), UTerm(0.05, erate=Fraction(1, 2)))
    worst = max(operator_residual([3.0, 4.0], y, ZERO, OracleGrid(0.5, (0.5, 1.0, 2.0))))
    assert worst > 1e-3


def test_operator_residual_needs_an_operator():
    y = expr(UTerm(1.0, erate=Fraction(-3)))
    with pytest.raises(ValueError, match="order n >= 1"):
        operator_residual([], y, ZERO, OracleGrid(0.5, [1.0]))


def test_operator_residual_with_forcing():
    # y = (1/15) e^{2u} solves y'' + 4y' + 3y = e^{2u}.
    y = expr(UTerm(1.0 / 15.0, erate=Fraction(2)))
    q = expr(UTerm(1.0, erate=Fraction(2)))
    for alpha in ALPHAS:
        assert operator_residual([3.0, 4.0], y, q, OracleGrid(alpha, [1.3]))[0] < 1e-8


# (r+1)^3 (r+2)^2: repeated roots, so the basis carries u^2 e^{-u}.
_ORDER_FIVE = (4.0, 16.0, 25.0, 19.0, 7.0)


def test_operator_residual_grid_matches_single_points_order_five():
    spec = ProblemSpec(_ORDER_FIVE, 0.5)
    y = max(homogeneous_basis(spec).elements, key=lambda e: e.terms[0].upow)
    assert y.terms[0].upow == 2
    grid = log_grid(0.01, 3.0, 50)
    got = operator_residual(list(spec.coeffs), y, ZERO, OracleGrid(spec.alpha, grid))
    want = [operator_residual(list(spec.coeffs), y, ZERO, OracleGrid(spec.alpha, [t]))[0]
            for t in grid]
    assert got == want


def test_operator_residual_grid_matches_single_points_forced():
    forcing = expr(UTerm(1.0, 1, Fraction(-1)),
                   UTerm(2.0, 0, Fraction(1, 2), COS, Fraction(3)))
    spec = ProblemSpec(_ORDER_FIVE, 0.3, forcing)
    v = particular_solution(spec)
    grid = log_grid(0.01, 3.0, 50)
    got = operator_residual(list(spec.coeffs), v, forcing, OracleGrid(spec.alpha, grid))
    want = [operator_residual(list(spec.coeffs), v, forcing, OracleGrid(spec.alpha, [t]))[0]
            for t in grid]
    assert got == want
    assert max(got) < 1e-6


# ---------------------------------------------------------------------------
# The batched oracle against point-by-point references


def point_by_point_residual(coeffs, alpha, y, forcing, ts):
    """operator_residual as one loop over the points, scalar throughout,
    each value and quotient summed in the oracle's order (shape_step)."""
    n = len(coeffs)
    if n < 1:
        raise ValueError("operator needs order n >= 1")
    # the oracle derives the binary64 rows; the reference derives float terms
    levels = algebra_reference.lowered_levels(y, n)
    out = []
    for t in ts:
        values = [shape_step(y, t, alpha)[0]]
        for level in levels:
            values.append(shape_step(level, t, alpha)[1])
        q_val = shape_step(forcing, t, alpha)[0]
        acc = values[n] - q_val
        scale = abs(values[n]) + abs(q_val)
        for i, p in enumerate(coeffs):
            acc += p * values[i]
            scale += abs(p * values[i])
        out.append(abs(acc) / max(1.0, scale))
    return out


_RATES = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(7, 10),
          Fraction(2), Fraction(-1, 3)]
_FREQS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(5, 3)]


def random_expr(rng, size):
    """A poly·exp·trig expression of ``size`` terms with mixed signs."""
    terms = []
    for _ in range(size):
        trig = rng.choice([None, COS, SIN])
        terms.append(UTerm(rng.uniform(-3.0, 3.0), rng.randint(0, 3), rng.choice(_RATES),
                           trig, Fraction(0) if trig is None else rng.choice(_FREQS)))
    return expr(*terms)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
def test_operator_residual_equals_point_by_point_loop(alpha):
    rng = random.Random(int(alpha * 10))
    grid = log_grid(0.01, 3.0, 50)
    for n in range(1, 11):
        coeffs = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        y = random_expr(rng, rng.randint(1, 4))
        for forcing in (ZERO, random_expr(rng, rng.randint(1, 3))):
            got = operator_residual(coeffs, y, forcing, OracleGrid(alpha, grid))
            assert got == point_by_point_residual(coeffs, alpha, y, forcing, grid), (n, y)


def test_operator_residual_reuses_one_grid_across_expressions():
    rng = random.Random(5)
    grid = log_grid(0.05, 2.5, 20)
    oracle = OracleGrid(0.3, grid)
    forcing = random_expr(rng, 3)
    for _ in range(6):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        y = random_expr(rng, 3)
        got = operator_residual(coeffs, y, forcing, oracle)
        assert got == point_by_point_residual(coeffs, 0.3, y, forcing, grid)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
def test_oracle_grid_agrees_with_the_per_term_complex_step(alpha):
    # complex_step sums each term's complex value coeff*a*b*c as eval_expr
    # would; the grid multiplies coeff into the split shape a*b*c instead.
    # Only rounding differs: a few ulps of the summed term magnitudes, those
    # of f's terms for values and those of their derivatives for quotients.
    rng = random.Random(int(alpha * 10) + 40)
    subst = SubstMap(alpha)
    grid = log_grid(0.01, 3.0, 50)
    oracle = OracleGrid(alpha, grid)
    for _ in range(30):
        f = random_expr(rng, rng.randint(1, 5))
        for t, value, quotient in zip(grid, *oracle.columns(f, 1)):
            terms = [(row,) for row in f.float_rows]  # one level per row
            steps = [complex_step(term, t, alpha) for term in terms]
            sizes = (sum(abs(eval_expr(term, t, subst)) for term in terms),
                     sum(abs(eval_expr((d,), t, subst))
                         for term in f.terms for d in lowered_levels(expr(term), 2)[1]))
            for k, got in enumerate((value, quotient)):
                want = sum(step[k] for step in steps)
                assert abs(got - want) <= 4 * 2.0 ** -52 * sizes[k], (f, t, k)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_a_root_family_shares_one_shape_column_per_power(m):
    # (r+1)^m: the basis is u^l e^{-u}, l < m, and every derivative level of
    # every element is a combination of the same m shapes u^k e^{-u}
    spec = ProblemSpec(tuple(float(math.comb(m, k)) for k in range(m)), 0.5)
    oracle = OracleGrid(spec.alpha, log_grid(0.01, 3.0, 20))
    for element in homogeneous_basis(spec).elements:
        assert max(operator_residual(list(spec.coeffs), element, ZERO, oracle)) < 1e-12
    assert len(oracle._shapes) <= m


def test_point_table_equals_eval_expr_at_every_point():
    rng = random.Random(17)
    for alpha in (0.1, 0.5, 1.0):
        subst = SubstMap(alpha)
        ts = [rng.uniform(1e-4, 40.0) for _ in range(60)]
        table = PointTable(ts, subst)
        for _ in range(15):
            f = random_expr(rng, rng.randint(0, 5))
            got = table.values(f.float_rows)
            assert got == [eval_expr(f, t, subst) for t in ts]


# one row of each shape kind: (coeff, upow, erate, trig rank, tfreq)
_SHAPE_ROWS = {
    "constant": (-2.5, 0, 0.0, 0, 0.0),
    "power": (1.75, 3, 0.0, 0, 0.0),
    "exp": (0.3, 0, -1.25, 0, 0.0),
    "cos": (-0.7, 0, 0.0, 1, 2.5),
    "sin": (1.1, 0, 0.0, 2, 1.0 / 3.0),
    "power-exp": (2.0 / 3.0, 2, 0.7, 0, 0.0),
    "exp-sin": (-1.3, 0, -0.4, 2, 5.0 / 3.0),
    "power-cos": (0.9, 1, 0.0, 1, 0.6),
    "power-exp-cos": (1.0 / 7.0, 4, -1.1, 1, 2.0),
    "power-exp-sin": (-3.3, 1, 0.45, 2, 0.8),
}


@pytest.mark.parametrize("rows", [(row,) for row in _SHAPE_ROWS.values()]
                         + [tuple(_SHAPE_ROWS.values()),
                            # one shape repeated across rows
                            (_SHAPE_ROWS["power-exp-sin"], (0.25, 1, 0.45, 2, 0.8),
                             _SHAPE_ROWS["constant"], (-7.0, 1, 0.45, 2, 0.8))],
                         ids=[*_SHAPE_ROWS, "every-kind", "repeated-shape"])
def test_point_table_rounds_each_row_as_eval_expr(rows):
    # coeff * shape, the shape's factors multiplied left to right, rows
    # summed in order from 0.0: bit for bit at every real point
    for alpha in (0.3, 1.0):
        subst = SubstMap(alpha)
        ts = log_grid(0.01, 30.0, 40)
        assert PointTable(ts, subst).values(rows) == [eval_expr(rows, t, subst) for t in ts]


def test_oracle_grid_constant_row_is_its_coefficient_with_zero_quotient():
    y = expr(UTerm(Fraction(-5, 3)))
    oracle = OracleGrid(0.5, log_grid(0.01, 3.0, 20))
    values, quotients = oracle.columns(y, 1)
    assert values == [-5 / 3] * 20
    assert quotients == [0.0] * 20


def test_a_level_whose_first_product_is_negative_zero_sums_to_positive_zero():
    # e^{-2000u} underflows to +0.0 at every point, and its quotient to
    # -0.0: -1 times the value and 2000 times the level-1 quotient are -0.0,
    # and each sum starts from 0.0, so every column holds +0.0
    y = expr(UTerm(-1, 0, Fraction(-2000)))
    assert math.copysign(1.0, -1.0 * math.exp(-2000.0)) == -1.0
    columns = OracleGrid(1.0, log_grid(0.5, 3.0, 7)).columns(y, 2)
    assert [[math.copysign(1.0, v) for v in column] for column in columns] == [[1.0] * 7] * 3
    assert columns == [[0.0] * 7] * 3


def test_a_non_finite_level_keeps_its_residual_nan():
    # 1e300 e^{2t} overflows from t = 9.5 on, and its quotient from 9.2:
    # from there the sum is inf - 2v, with v finite or inf, over an inf
    # scale, so the residual is nan (not inf, and not 0 or 1 from a floor)
    grid = log_grid(1.0, 20.0, 11)
    y = expr(UTerm(1e300, 0, Fraction(2)))
    got = operator_residual([-2.0], y, ZERO, OracleGrid(1.0, grid))
    finite = [t for t, r in zip(grid, got) if math.isfinite(r)]
    assert finite == grid[:len(finite)] and 0 < len(finite) < len(grid) - 1
    assert max(got[:len(finite)]) < 1e-12
    assert all(math.isnan(r) for r in got[len(finite):])


def _raised(fn):
    try:
        fn()
    except Exception as err:  # noqa: BLE001 -- the class is what is compared
        return type(err), str(err)
    return None


_DOMAIN_Y = expr(UTerm(1.5, 1, Fraction(-1)), UTerm(0.5, 0, Fraction(0), SIN, Fraction(2)))
_DOMAIN_FORCING = expr(UTerm(2.0, 0, Fraction(-1, 2)))


@pytest.mark.parametrize("ts", [
    [0.5, 1.0, -1.0, 2.0],          # t <= 0
    [0.5, 0.0],
    [1.0, 5e-7, 2.0],               # below DOMAIN_FLOOR
    [1.0, 1e6],                     # at DOMAIN_CEILING
    [2e6, 1.0],                     # beyond it
    [1e-6],                         # at DOMAIN_FLOOR
    [999999.0, 2e6],                # just inside, then beyond: 2e6 decides
    [0.5, 1e-6 + 1e-12, -1.0],      # -1.0 is the bad point
    [0.5, -1.0, 5e-7],              # the first bad point decides
    [float("nan")],
])
def test_operator_residual_domain_errors_match_point_by_point_loop(ts):
    want = _raised(lambda: point_by_point_residual([3.0, 4.0], 0.5, _DOMAIN_Y,
                                                   _DOMAIN_FORCING, ts))
    assert want is not None
    got = _raised(lambda: operator_residual([3.0, 4.0], _DOMAIN_Y, _DOMAIN_FORCING,
                                            OracleGrid(0.5, ts)))
    assert got == want


def test_oracle_grid_takes_one_substitution_per_point(monkeypatch):
    # t > 0 is tested directly, so u = t^alpha / alpha is taken once per
    # point: at the complex point the table evaluates
    taken = []
    u_of = SubstMap.u_of
    monkeypatch.setattr(SubstMap, "u_of", lambda self, t: taken.append(t) or u_of(self, t))
    ts = log_grid(0.01, 3.0, 50)
    oracle = OracleGrid(0.5, ts)
    assert len(taken) == 50 and all(type(t) is complex for t in taken)
    assert [t.real for t in taken] == ts == oracle.ts


@pytest.mark.parametrize("ts", [[999999.0], [1e-6 + 1e-12]])
def test_points_just_inside_the_domain_are_accepted(ts):
    # the step leaves the real axis, not the domain
    got = operator_residual([3.0, 4.0], _DOMAIN_Y, _DOMAIN_FORCING, OracleGrid(0.5, ts))
    assert got == point_by_point_residual([3.0, 4.0], 0.5, _DOMAIN_Y, _DOMAIN_FORCING, ts)
    assert all(math.isfinite(r) for r in got)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 1.0])
def test_quotient_is_within_rounding_of_the_exact_derivative(alpha):
    # The complex step subtracts nothing, so its error is rounding in the
    # terms of f', not a difference of values of f.
    rng = random.Random(int(alpha * 100))
    subst = SubstMap(alpha)
    grid = log_grid(0.01, 300.0, 40)
    oracle = OracleGrid(alpha, grid)
    for _ in range(25):
        f = random_expr(rng, rng.randint(1, 5))
        df = diff_u(f)
        for t, got in zip(grid, oracle.columns(f, 1)[1]):
            magnitude = sum(abs(eval_expr(expr(term), t, subst)) for term in df.terms)
            assert abs(got - eval_expr(df, t, subst)) <= 1e-12 * max(magnitude, 1e-300), (f, t)
