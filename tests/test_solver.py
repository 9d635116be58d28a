"""Solver tests: basis construction, particular solutions by exponential
shift, and the variation-of-parameters reference they are checked against."""

import json
import math
import random
import re
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import algebra_reference as ref
from algebra_reference import apply_operator
from roots_reference import eval_poly

from confode import cli, ualgebra
from confode.chareq import CharPoly, find_roots
from confode.conformable import log_grid
from confode.conformable import OracleGrid, operator_residual
from confode.eqparse import MAX_T_POWER, problem_from_source
from confode.solver import (
    BasisOrigin,
    GeneralSolution,
    ProblemSpec,
    SingularSystemError,
    SolutionBasis,
    _shift_response,
    _solve_linear,
    fit_constants,
    format_solution,
    homogeneous_basis,
    particular_solution,
    solution_from_doc,
    solution_to_doc,
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
    eval_expr,
    expr,
    mul,
    scale,
)
from vop_reference import (
    WronskianError,
    derivative_rows,
    div_by_term,
    format_u,
    one,
    wronskian,
)
from vop_reference import particular_solution as vop_particular_solution

ALPHAS = [0.25, 0.5, 0.75, 1.0]


def close(got, want, tol):
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


def coeff_of(e, upow=0, erate=F(0), trig=None, tfreq=F(0)):
    for t in e.terms:
        if (t.upow, t.erate, t.trig, t.tfreq) == (upow, erate, trig, tfreq):
            return t.coeff
    return 0.0


def exp_term(rate, coeff=1.0, upow=0):
    return expr(UTerm(coeff, upow, F(rate)))


# ---------------------------------------------------------------------------
# ProblemSpec / structural validation


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec((), 0.5)
    with pytest.raises(ValueError):
        ProblemSpec((1.0,), 0.0)
    with pytest.raises(ValueError):
        ProblemSpec((1.0,), 1.2)
    with pytest.raises(TypeError):
        ProblemSpec((1.0,), 0.5, forcing=1.0)
    spec = ProblemSpec([3, 4], 0.5)
    assert spec.coeffs == (3.0, 4.0) and spec.order == 2


def test_general_solution_validation():
    spec = ProblemSpec((3.0, 4.0), 1.0)
    basis = homogeneous_basis(spec)
    with pytest.raises(ValueError):
        GeneralSolution(spec, basis, particular=one())
    with pytest.raises(ValueError):
        GeneralSolution(spec, basis, constants=(1.0,))
    # fitted constants come with the initial values they were fitted to
    with pytest.raises(ValueError, match="'ic'"):
        GeneralSolution(spec, basis, constants=(1.0, 0.0))
    with pytest.raises(ValueError, match="'ic'"):
        GeneralSolution(spec, basis, ic=(1.0, (1.0, 0.0)))
    for ic in [(1.0, (1.0,)), (0.0, (1.0, 0.0)), (math.inf, (1.0, 0.0)),
               (math.nan, (1.0, 0.0))]:
        with pytest.raises(ValueError, match="'ic'"):
            GeneralSolution(spec, basis, constants=(1.0, 0.0), ic=ic)
    sol = GeneralSolution(spec, basis, constants=(1.0, 0.0), ic=(1.0, (1.0, 0.0)))
    assert sol.ic == (1.0, (1.0, 0.0))


def test_general_solution_is_order_elements_and_a_particular_when_forced():
    forced = ProblemSpec((3.0, 4.0), 1.0, exp_term(1))
    with pytest.raises(ValueError, match="'particular'"):
        GeneralSolution(forced, homogeneous_basis(forced))
    spec = ProblemSpec((3.0, 4.0), 1.0)
    with pytest.raises(ValueError, match="'basis' must hold order 2 elements, got 1"):
        GeneralSolution(spec, SolutionBasis(homogeneous_basis(spec).elements[:1]))


# ---------------------------------------------------------------------------
# apply_operator


def test_operator_on_exponential_worked():
    spec = ProblemSpec((3.0, 4.0), 0.5)
    out = apply_operator(spec, exp_term(2))
    assert len(out.terms) == 1
    close(coeff_of(out, erate=F(2)), 15.0, 1e-14)


def test_operator_annihilates_simple_root():
    spec = ProblemSpec((3.0, 4.0), 0.5)
    assert apply_operator(spec, exp_term(-3)).is_zero()
    assert apply_operator(spec, exp_term(-1)).is_zero()


def test_operator_annihilates_double_root_level():
    spec = ProblemSpec((25.0, -10.0), 0.5)
    assert apply_operator(spec, exp_term(5, upow=1)).is_zero()


# ---------------------------------------------------------------------------
# homogeneous_basis


@pytest.mark.parametrize("alpha", ALPHAS)
def test_basis_distinct_real_roots(alpha):
    basis = homogeneous_basis(ProblemSpec((3.0, 4.0), alpha))
    assert basis.elements == (exp_term(-3), exp_term(-1))
    assert [o.part for o in basis.origins] == [None, None]
    assert [o.root for o in basis.origins] == [(-3 + 0j), (-1 + 0j)]


def test_basis_double_root():
    basis = homogeneous_basis(ProblemSpec((25.0, -10.0), 0.5))
    assert basis.elements == (exp_term(5), exp_term(5, upow=1))
    assert [o.level for o in basis.origins] == [0, 1]


def test_basis_complex_pair():
    basis = homogeneous_basis(ProblemSpec((1.0, 1.0), 0.5))
    (o1, o2) = basis.origins
    assert abs(o1.root.real + 0.5) < 1e-10
    assert abs(abs(o1.root.imag) - math.sqrt(3) / 2) < 1e-10
    assert (o1.part, o2.part) == (COS, SIN)
    t1, t2 = basis.elements[0].terms[0], basis.elements[1].terms[0]
    assert (t1.trig, t2.trig) == (COS, SIN)
    assert t1.erate == t2.erate and t1.tfreq == t2.tfreq > 0


def test_basis_rate_of_a_decimal_root_is_exact():
    # the double root -1/10 of (r + 0.1)^2 reaches the basis as -1/10, not
    # as the binary64 value nearest it
    spec = problem_from_source("T2 y + 0.2 T y + 0.01 y = 0", 1.0)
    basis = homogeneous_basis(spec)
    assert [e.terms[0].erate for e in basis.elements] == [F(-1, 10)] * 2
    for element in basis.elements:
        assert apply_operator(spec, element).is_zero()


def test_basis_count_matches_order():
    rng = random.Random(20250823)
    for _ in range(20):
        n = rng.randint(1, 5)
        coeffs = tuple(round(rng.uniform(-5, 5), 3) for _ in range(n))
        basis = homogeneous_basis(ProblemSpec(coeffs, rng.choice(ALPHAS)))
        assert basis.n == n


# ---------------------------------------------------------------------------
# the constant fit's derivative matrix / wronskian (the reference's Cramer
# denominator)


def derivative_matrix(basis):
    """Row i holds the i-fold u-derivative levels of the basis' rows, as the
    constant fit evaluates them."""
    columns = [ualgebra.lowered_levels(e, basis.n) for e in basis.elements]
    return [list(row) for row in zip(*columns)]


def test_derivative_matrix_worked():
    basis = homogeneous_basis(ProblemSpec((3.0, 4.0), 0.5))
    m = derivative_matrix(basis)
    assert m[0][0] == exp_term(-3).float_rows and m[0][1] == exp_term(-1).float_rows
    assert m[1][0] == exp_term(-3, coeff=-3.0).float_rows
    assert m[1][1] == exp_term(-1, coeff=-1.0).float_rows
    # the levels derive the rows: float numbers throughout
    assert all(type(r[0]) is type(r[2]) is type(r[4]) is float
               for row in m for level in row for r in level)


def test_derivative_matrix_order_one():
    basis = homogeneous_basis(ProblemSpec((2.0,), 1.0))
    m = derivative_matrix(basis)
    assert m == [[exp_term(-2).float_rows]]


def test_derivative_matrix_double_root_row():
    basis = homogeneous_basis(ProblemSpec((25.0, -10.0), 0.5))
    row = derivative_matrix(basis)[1]
    assert row[0] == exp_term(5, coeff=5.0).float_rows
    assert [r[:3] for r in row[1]] == [(1.0, 0, 5.0), (5.0, 1, 5.0)]


def test_wronskian_distinct_roots():
    w = wronskian(homogeneous_basis(ProblemSpec((3.0, 4.0), 0.5)))
    assert w.erate == F(-4) and w.upow == 0 and w.trig is None
    close(w.coeff, 2.0, 1e-14)


def test_wronskian_double_root():
    w = wronskian(homogeneous_basis(ProblemSpec((25.0, -10.0), 0.5)))
    assert w.erate == F(10)
    close(w.coeff, 1.0, 1e-14)


def test_wronskian_complex_pair():
    w = wronskian(homogeneous_basis(ProblemSpec((1.0, 1.0), 0.5)))
    assert w.erate == F(-1) and w.trig is None
    close(w.coeff, math.sqrt(3) / 2, 1e-12)


def test_wronskian_rejects_dependent_set():
    # the reference reads .elements and .n only; SolutionBasis refuses the pair
    pair = (exp_term(-1), exp_term(-1, coeff=2.0))
    with pytest.raises(WronskianError):
        wronskian(SimpleNamespace(elements=pair, n=2))
    with pytest.raises(ValueError, match="'basis' elements must differ"):
        SolutionBasis(pair)


def _pair_term(level, part, rate=F(-1, 2), freq=F(3)):
    return expr(UTerm(1, level, rate, part, freq))


def test_solution_basis_derives_origins_from_its_terms():
    basis = SolutionBasis((exp_term(-1), exp_term(-1, upow=1), exp_term(-1, upow=2),
                           *(_pair_term(level, part) for level in (0, 1) for part in (COS, SIN))))
    assert basis.origins == (
        *(BasisOrigin(-1 + 0j, level, None) for level in (0, 1, 2)),
        *(BasisOrigin(-0.5 + 3j, level, part) for level in (0, 1) for part in (COS, SIN)))
    for elements in [(), (expr(UTerm(1), UTerm(1, 1)),)]:
        with pytest.raises(ValueError, match="one-term"):
            SolutionBasis(elements)


@pytest.mark.parametrize("elements, named", [
    pytest.param((exp_term(-1), exp_term(-1, upow=2), _pair_term(1, COS)),
                 "a level-2 element of root -1.0 but no level-1 element", id="real-gap"),
    # the rate of a double root's level-0 element moved by 1%
    pytest.param((exp_term(-1.5), exp_term(-1.5, upow=1), exp_term(-1.01), exp_term(-1, upow=1)),
                 "a level-1 element of root -1.0 but no level-0 element", id="moved-rate"),
    pytest.param((_pair_term(0, COS),),
                 "the cos element of root (-0.5+3j) at level 0 but not the sin element",
                 id="pair-without-sin"),
    pytest.param((_pair_term(0, COS), _pair_term(0, SIN), _pair_term(1, SIN)),
                 "the sin element of root (-0.5+3j) at level 1 but not the cos element",
                 id="pair-without-cos"),
    pytest.param((_pair_term(0, COS), _pair_term(0, SIN), _pair_term(2, COS),
                  _pair_term(2, SIN)),
                 "a level-2 element of root (-0.5+3j) but no level-1 element", id="pair-gap"),
    # the same frequency at another rate is another root
    pytest.param((_pair_term(0, COS), _pair_term(0, SIN, rate=F(-1, 3))),
                 "the cos element of root (-0.5+3j) at level 0 but not the sin element",
                 id="pair-split-by-rate"),
])
def test_solution_basis_refuses_a_root_without_all_its_levels_and_parts(elements, named):
    with pytest.raises(ValueError, match=re.escape(f"'basis' has {named}")):
        SolutionBasis(elements)


def test_div_by_term():
    f = expr(UTerm(3.0, 1, F(2)), UTerm(1.0, 0, F(5)))
    d = UTerm(2.0, 0, F(2))
    assert div_by_term(f, d) == expr(UTerm(0.5, 0, F(3)), UTerm(1.5, 1))
    with pytest.raises(ValueError):
        div_by_term(f, UTerm(1.0, 1))
    with pytest.raises(ValueError):
        div_by_term(f, UTerm(1.0, 0, 0, COS, F(1)))
    with pytest.raises(ZeroDivisionError):
        div_by_term(f, UTerm(0.0))


@pytest.mark.parametrize("coeffs", [(3.0, 4.0), (25.0, -10.0), (1.0, 1.0),
                                    (-1.0, 3.0, -3.0), (2.0, 0.0, 1.0, 0.5)])
def test_wronskian_rate_is_trace(coeffs):
    # Abel: the Wronskian's exponential rate equals minus the next-to-leading
    # coefficient.
    basis = homogeneous_basis(ProblemSpec(coeffs, 0.5))
    w = wronskian(basis)
    assert abs(float(w.erate) + coeffs[-1]) <= 1e-8 * (1.0 + abs(coeffs[-1]))


# ---------------------------------------------------------------------------
# particular_solution: the worked forcing families


@pytest.mark.parametrize("alpha", ALPHAS)
def test_particular_single_exponential(alpha):
    # q = e^{2 t^alpha}; the response coefficient is 1/P(2 alpha).
    spec = ProblemSpec((3.0, 4.0), alpha, exp_term(F(2) * F(alpha)))
    v = particular_solution(spec)
    assert len(v.terms) == 1
    rate = F(2) * F(alpha)
    close(coeff_of(v, erate=rate), 1.0 / (4 * alpha ** 2 + 8 * alpha + 3), 1e-10)
    # the reference's first undetermined function's derivative: -(1/2) e^{(2a+3)u}
    _, cfuncs = vop_particular_solution(spec, homogeneous_basis(spec))
    c1p = diff_u(cfuncs[0])
    assert len(c1p.terms) == 1
    close(coeff_of(c1p, erate=rate + 3), -0.5, 1e-10)
    assert apply_operator(spec, v) == spec.forcing


def test_particular_single_exponential_classical():
    spec = ProblemSpec((3.0, 4.0), 1.0, exp_term(2))
    v = particular_solution(spec)
    close(coeff_of(v, erate=F(2)), 1.0 / 15.0, 1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_particular_polynomial(alpha):
    # q = 2 t^{2a} + t^a - 3 written in u; the three response coefficients
    # in t form are 2/3, (3-16a)/9 and (52a^2-12a-27)/27.
    q = expr(UTerm(2 * alpha ** 2, 2), UTerm(alpha, 1), UTerm(-3.0))
    spec = ProblemSpec((3.0, 4.0), alpha, q)
    v = particular_solution(spec)
    close(coeff_of(v, upow=2), (2.0 / 3.0) * alpha ** 2, 1e-9)
    close(coeff_of(v, upow=1), alpha * (3 - 16 * alpha) / 9.0, 1e-9)
    close(coeff_of(v, upow=0), (52 * alpha ** 2 - 12 * alpha - 27) / 27.0, 1e-9)
    assert apply_operator(spec, v) == q


@pytest.mark.parametrize("alpha", ALPHAS)
def test_particular_sine_forcing(alpha):
    # q = sin(2 t^alpha).  The sin response coefficient follows the closed
    # form (3-4a^2)/(16a^4+40a^2+9); the cos coefficient is checked against
    # an independently solved 2x2 undetermined-coefficient system.
    freq = F(2) * F(alpha)
    q = expr(UTerm(1.0, trig=SIN, tfreq=freq))
    spec = ProblemSpec((3.0, 4.0), alpha, q)
    v = particular_solution(spec)
    den = 16 * alpha ** 4 + 40 * alpha ** 2 + 9
    close(coeff_of(v, trig=SIN, tfreq=freq), (3 - 4 * alpha ** 2) / den, 1e-9)
    system = np.array([[3 - 4 * alpha ** 2, 8 * alpha],
                       [-8 * alpha, 3 - 4 * alpha ** 2]])
    a_cos, b_sin = np.linalg.solve(system, [0.0, 1.0])
    close(coeff_of(v, trig=COS, tfreq=freq), a_cos, 1e-9)
    close(coeff_of(v, trig=SIN, tfreq=freq), b_sin, 1e-9)
    assert apply_operator(spec, v) == q


@pytest.mark.parametrize("alpha", ALPHAS)
def test_particular_exponential_times_power(alpha):
    # q = t^a e^{2 t^a} = a u e^{2 a u}.
    rate = F(2) * F(alpha)
    q = expr(UTerm(alpha, 1, rate))
    spec = ProblemSpec((3.0, 4.0), alpha, q)
    v = particular_solution(spec)
    p2a = 4 * alpha ** 2 + 8 * alpha + 3
    close(coeff_of(v, upow=1, erate=rate), alpha / p2a, 1e-9)
    close(coeff_of(v, upow=0, erate=rate), -(4 * alpha ** 2 + 4 * alpha) / p2a ** 2, 1e-9)
    assert apply_operator(spec, v) == q


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_particular_decaying_exponential_nonresonant(alpha):
    # q = e^{-4 t^a}: rate -4a misses both roots, single-term response
    # 1/(16a^2 - 16a + 3).
    rate = F(-4) * F(alpha)
    spec = ProblemSpec((3.0, 4.0), alpha, exp_term(rate))
    v = particular_solution(spec)
    assert len(v.terms) == 1
    close(coeff_of(v, erate=rate), 1.0 / (16 * alpha ** 2 - 16 * alpha + 3), 1e-10)


@pytest.mark.parametrize("alpha,root,want", [(0.75, F(-3), -0.5), (0.25, F(-1), 0.5)])
def test_particular_resonant(alpha, root, want):
    # q = e^{-4 t^a} with -4a hitting a characteristic root: the response
    # grows a u * e^{root u} component.  Compared modulo the homogeneous
    # space (the pure-exponential component depends on the integration
    # constant convention), so only the u-bearing coefficient is pinned.
    spec = ProblemSpec((3.0, 4.0), alpha, exp_term(F(-4) * F(alpha)))
    v = particular_solution(spec)
    close(coeff_of(v, upow=1, erate=root), want, 1e-9)
    assert apply_operator(spec, v) == spec.forcing


def test_particular_requires_forcing():
    spec = ProblemSpec((3.0, 4.0), 0.5)
    with pytest.raises(ValueError):
        particular_solution(spec)


# ---------------------------------------------------------------------------
# particular_solution: cases the Laplace/Cramer route got wrong


def test_particular_decimal_resonance(capsys):
    # alpha 0.3 is read as 3/10, so s = 3 * 3/10 is the root 9/10 exactly
    # and the answer is u e^{9u/10}, not a 1e16-sized multiple of e^{su}
    source = "T y - 0.9 y = exp(3 t^a)"
    spec = problem_from_source(source, 0.3)
    v = particular_solution(spec)
    assert spec.forcing.terms[0].erate == F(9, 10)
    assert v == expr(UTerm(1, 1, F(9, 10)))
    assert cli.main(["solve", "--alpha", "0.3", "--json", source]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["particular"] == [{"coeff": 1.0, "upow": 1, "erate": 0.9, "trig": None,
                                  "tfreq": 0.0}]
    assert solution_from_doc(doc).particular == expr(UTerm(1, 1, 0.9))


def test_particular_double_root_resonance():
    spec = ProblemSpec((1.0, 2.0), 0.5, exp_term(-1))
    assert particular_solution(spec) == exp_term(-1, coeff=0.5, upow=2)


def test_particular_trig_resonance():
    spec = ProblemSpec((4.0, 0.0), 0.5, expr(UTerm(1.0, trig=COS, tfreq=F(2))))
    assert particular_solution(spec) == expr(UTerm(0.25, 1, trig=SIN, tfreq=F(2)))


def test_order_nine_repeated_roots_solve():
    # roots -4 (x3), 2 (x3), -5/2 (x2), -7: the Laplace/Cramer Wronskian
    # failed to collapse to one term here
    spec = problem_from_source(
        "T9 y + 18 T8 y + 101.25 T7 y + 59.25 T6 y - 1192.5 T5 y - 2619 T4 y "
        "+ 4206 T3 y + 13896 T2 y - 4320 T y - 22400 y "
        "= t^a * exp(0.5 t^a) + sin(t^a)", 0.5)
    sol = solve_problem(spec)
    assert apply_operator(spec, sol.particular) == spec.forcing


# ---------------------------------------------------------------------------
# fit_constants


def test_fit_constants_worked_roundtrip():
    spec = ProblemSpec((3.0, 4.0), 1.0)
    sol = GeneralSolution(spec, homogeneous_basis(spec))
    targets = (math.exp(-3) + math.exp(-1), -3 * math.exp(-3) - math.exp(-1))
    consts = fit_constants(sol, 1.0, targets)
    close(consts[0], 1.0, 1e-10)
    close(consts[1], 1.0, 1e-10)


def test_fit_constants_order_one_zero_target():
    spec = ProblemSpec((1.0,), 0.5)
    sol = GeneralSolution(spec, homogeneous_basis(spec))
    assert fit_constants(sol, 1.0, (0.0,)) == (0.0,)


def test_fit_constants_zero_targets_give_zero():
    spec = ProblemSpec((1.0, 1.0), 0.75)
    sol = GeneralSolution(spec, homogeneous_basis(spec))
    for c in fit_constants(sol, 0.8, (0.0, 0.0)):
        assert abs(c) < 1e-12


def test_fit_constants_with_particular():
    # Forward: y = 2 y1 - y2 + v, read off derivative targets, invert.
    alpha = 0.5
    spec = ProblemSpec((3.0, 4.0), alpha, exp_term(F(1)))
    sol = solve_problem(spec)
    subst = SubstMap(alpha)
    y = add(sol.particular, add(scale(sol.basis.elements[0], 2.0),
                                scale(sol.basis.elements[1], -1)))
    t0 = 1.3
    targets = [eval_expr(y, t0, subst)]
    targets.append(eval_expr(diff_u(y), t0, subst))
    consts = fit_constants(sol, t0, targets)
    close(consts[0], 2.0, 1e-8)
    close(consts[1], -1.0, 1e-8)


def test_fit_constants_validation_and_singularity():
    spec = ProblemSpec((3.0, 4.0), 1.0)
    sol = GeneralSolution(spec, homogeneous_basis(spec))
    with pytest.raises(ValueError):
        fit_constants(sol, -1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        fit_constants(sol, 1.0, (0.0,))
    with pytest.raises(ValueError, match="base point t0"):
        solve_problem(spec, targets=(0.0, 0.0))
    # both basis values underflow to 0 at t0 = 800
    with pytest.raises(SingularSystemError):
        fit_constants(sol, 800.0, (1.0, 0.0))


def test_solve_linear_agrees_with_numpy():
    # seeded random well-conditioned systems, rows scaled over six decades
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 11))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = rng.standard_normal(n)
        rows, rhs = a.tolist(), b.tolist()
        x = _solve_linear(rows, rhs)
        assert (rows, rhs) == (a.tolist(), b.tolist())  # inputs untouched
        want = np.linalg.solve(a, b)
        assert np.abs(np.array(x) - want).max() <= 1e-12 * np.abs(want).max(), (a, b)
        checked += 1


def test_solve_linear_pivots_and_reports_a_zero_pivot():
    assert _solve_linear([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0]) == [3.0, 2.0]
    # without row exchange the tiny pivot would lose x[0] entirely
    x = _solve_linear([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert abs(x[0] - 1.0) < 1e-15 and abs(x[1] - 1.0) < 1e-15
    assert _solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0]) is None
    assert _solve_linear([[0.0]], [1.0]) is None


def test_back_substitution_adds_left_to_right():
    # x = (?, 1e16, 1.0, -1e16): row 0 subtracts 1e16 + 1.0 - 1e16, which is
    # 0.0 added left to right from 0 and 1.0 compensated (CPython 3.12's sum)
    rows = [[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0]]
    x = _solve_linear(rows, [1.0, 1e16, 1.0, -1e16])
    assert x == [1.0 - ((0 + 1e16) + 1.0 + -1e16), 1e16, 1.0, -1e16]
    assert x[0] == 1.0


@pytest.mark.parametrize("t0, kind", [
    (800.0, "is singular"),               # both basis values underflow to 0
    (360.0, "is numerically singular"),   # e^{-2u} is subnormal: x overflows
])
def test_fit_constants_refuses_singular_systems(t0, kind):
    spec = ProblemSpec((2.0, 3.0), 1.0)
    sol = GeneralSolution(spec, homogeneous_basis(spec))
    with pytest.raises(SingularSystemError, match=kind):
        fit_constants(sol, t0, (1.0, 0.0))


# ---------------------------------------------------------------------------
# solve_problem / rendering / serialization


def test_solve_problem_homogeneous():
    sol = solve_problem(ProblemSpec((3.0, 4.0), 0.5))
    assert sol.particular is None and sol.constants is None
    assert sol.basis.n == 2


def test_solve_problem_forced_with_ic():
    spec = ProblemSpec((3.0, 4.0), 1.0, exp_term(2))
    sol = solve_problem(spec, t0=1.0, targets=(1.0, 0.0))
    assert sol.particular is not None and len(sol.constants) == 2
    subst = SubstMap(1.0)
    y = sol.particular
    for c, e in zip(sol.constants, sol.basis.elements):
        y = add(y, scale(e, c))
    close(eval_expr(y, 1.0, subst), 1.0, 1e-10)
    close(eval_expr(diff_u(y), 1.0, subst), 0.0, 1e-10)


def test_format_solution_free_constants():
    sol = solve_problem(ProblemSpec((3.0, 4.0), 0.5, exp_term(1)))
    txt = format_solution(sol)
    assert txt.startswith("y(t) = c1·")
    assert "c2·" in txt and "e^{" in txt and "t^0.5" in txt


def test_format_solution_fitted():
    sol = solve_problem(ProblemSpec((3.0, 4.0), 1.0), t0=1.0,
                        targets=(math.exp(-3) + math.exp(-1),
                                 -3 * math.exp(-3) - math.exp(-1)))
    txt = format_solution(sol)
    assert "c1" not in txt and txt.startswith("y(t) = ")


def test_solution_doc_roundtrip():
    spec = ProblemSpec((3.0, 4.0), 0.75, exp_term(F(-4) * F(0.75)))
    sol = solve_problem(spec, t0=1.0, targets=(0.5, -0.25))
    doc = json.loads(json.dumps(solution_to_doc(sol)))
    back = solution_from_doc(doc)
    assert back.spec == sol.spec
    assert back.basis == sol.basis
    assert back.particular == sol.particular
    assert back.constants == sol.constants


def test_solution_from_doc_rejects_order_mismatch():
    doc = solution_to_doc(solve_problem(ProblemSpec((3.0, 4.0), 0.5)))
    doc["order"] = 3
    with pytest.raises(ValueError):
        solution_from_doc(doc)


# ---------------------------------------------------------------------------
# property suites (seeded; the acceptance run re-executes these at scale)


def random_spec(rng, max_order, alpha_pool=ALPHAS):
    n = rng.randint(1, max_order)
    coeffs = tuple(round(rng.uniform(-5, 5), 3) for _ in range(n))
    return ProblemSpec(coeffs, rng.choice(alpha_pool))


RATE_POOL = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]


def random_forcing(rng, max_terms=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        trig = rng.choice([None, COS, SIN])
        freq = F(0) if trig is None else rng.choice([F(1), F(2)])
        coeff = round(rng.uniform(0.5, 3.0), 3) * rng.choice([-1.0, 1.0])
        terms.append(UTerm(coeff, rng.randint(0, 2), rng.choice(RATE_POOL), trig, freq))
    q = expr(*terms)
    return q if not q.is_zero() else one()


def test_eigen_identity_property():
    rng = random.Random(11)
    for _ in range(60):
        spec = random_spec(rng, 5)
        poly = spec.char_poly()
        while True:
            r = round(rng.uniform(-4, 4), 3)
            if abs(eval_poly(poly, r)) > 1e-3:
                break
        out = apply_operator(spec, exp_term(F(r)))
        assert len(out.terms) == 1
        close(coeff_of(out, erate=F(r)), eval_poly(poly, r).real, 1e-10)


def _operator_scale(spec, y):
    """The largest coefficient among the terms ``apply_operator(spec, y)``
    sums, ``|p_i|`` times each coefficient of the i-th derivative (with
    ``p_n = 1``), and at least 1."""
    big, d = 1, y
    for p in (*spec.coeffs, 1):
        big = max([big] + [abs(p * t.coeff) for t in d.terms])
        d = diff_u(d)
    return big


def test_annihilation_property():
    # A root that landed is exact, and L annihilates its elements exactly.
    # A certified irrational root is known to binary64 only, so L leaves
    # its rounding: below 1e-12 of the largest term L sums.
    rng = random.Random(12)
    kinds = set()
    for _ in range(12):
        spec = random_spec(rng, 5)
        basis = homogeneous_basis(spec)
        assert basis.n == spec.order
        roots = find_roots(spec.char_poly())
        landed = {z for (z, _), x in zip(roots.entries, roots.exact_parts) if x is not None}
        for element, origin in zip(basis.elements, basis.origins):
            residue = apply_operator(spec, element)
            kinds.add(origin.root in landed)
            if origin.root in landed:
                assert residue.is_zero(), (spec, format_u(residue))
            else:
                bound = 1e-12 * _operator_scale(spec, element)
                assert all(abs(t.coeff) <= bound for t in residue.terms), (
                    spec, format_u(residue))
            ts = [rng.uniform(0.1, 3.0) for _ in range(10)]
            residuals = operator_residual(list(spec.coeffs), element, ZERO,
                                          OracleGrid(spec.alpha, ts))
            for t, res in zip(ts, residuals):
                assert res < 1e-5, (spec, t, res)
    assert kinds == {True, False}


def test_wronskian_rate_property():
    rng = random.Random(13)
    for _ in range(25):
        spec = random_spec(rng, 4)
        w = wronskian(homogeneous_basis(spec))
        want = -spec.coeffs[-1]
        assert abs(float(w.erate) - want) <= 1e-8 * (1.0 + abs(want))


def test_variation_of_parameters_residual_property():
    rng = random.Random(14)
    for _ in range(30):
        spec = random_spec(rng, 4)
        spec = ProblemSpec(spec.coeffs, spec.alpha, random_forcing(rng))
        v = particular_solution(spec)
        lhs = apply_operator(spec, v)
        assert lhs == spec.forcing, (spec, format_u(lhs))
        ts = [rng.uniform(0.1, 3.0) for _ in range(10)]
        residuals = operator_residual(list(spec.coeffs), v, spec.forcing,
                                      OracleGrid(spec.alpha, ts))
        for t, res in zip(ts, residuals):
            assert res < 1e-6, (spec, t, res)


def test_variation_of_parameters_conditions():
    # The n-1 intermediate rows of the condition system vanish; the last
    # row reproduces the forcing.
    rng = random.Random(15)
    for _ in range(15):
        spec = random_spec(rng, 4)
        if spec.order < 2:
            spec = ProblemSpec((spec.coeffs[0], 1.0), spec.alpha)
        spec = ProblemSpec(spec.coeffs, spec.alpha, random_forcing(rng, 2))
        basis = homogeneous_basis(spec)
        _, cfuncs = vop_particular_solution(spec, basis)
        rows = derivative_rows(basis)
        cprime = [diff_u(c) for c in cfuncs]
        for i in range(spec.order):
            total = ZERO
            for cp, entry in zip(cprime, rows[i]):
                total = add(total, mul(cp, entry))
            if i < spec.order - 1:
                assert total.is_zero(), (spec, i, format_u(total))
            else:
                assert total == spec.forcing, (spec, format_u(total))


# ---------------------------------------------------------------------------
# differential test: exponential shift against variation of parameters


def _expand(roots):
    """Ascending coefficients of prod (r - z)^m over (z, m), monic."""
    poly = [complex(1)]
    for z, m in roots:
        for _ in range(m):
            poly = [(poly[i - 1] if i else 0) - z * (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + 1)]
    return tuple(c.real for c in poly[:-1])


def _planted_roots(rng, max_order):
    """Half-integer real roots and conjugate pairs with integer imaginary
    parts, multiplicities up to 3, total degree 1..max_order."""
    roots, degree = [], 0
    target = rng.randint(1, max_order)
    while degree < target:
        m = rng.randint(1, min(3, target - degree))
        if target - degree >= 2 * m and rng.random() < 0.4:
            z = complex(rng.randint(-6, 4) / 2, rng.randint(1, 2))
            if all(z != w for w, _ in roots):
                roots += [(z, m), (z.conjugate(), m)]
                degree += 2 * m
        else:
            z = complex(rng.randint(-6, 4) / 2)
            if all(z != w for w, _ in roots):
                roots.append((z, m))
                degree += m
    return roots


def test_shift_matches_variation_of_parameters():
    # Both answers solve L[v] = q, so they differ by a homogeneous solution
    # and L applied to the difference must vanish.  A third of the forcing
    # terms sit on a root, at the rates of the basis, so that the reference
    # sees resonance.  The planted roots land, so the basis is exact, and the
    # reference's exact Cramer quotients leave no gap either.
    rng = random.Random(16)
    multiplicities = set()
    for _ in range(40):
        spec = ProblemSpec(_expand(_planted_roots(rng, 5)), rng.choice(ALPHAS))
        basis = homogeneous_basis(spec)
        for element in basis.elements:
            assert apply_operator(spec, element).is_zero(), (spec, format_u(element))
        mult = {}
        for o in basis.origins:
            mult[o.root] = max(mult.get(o.root, 0), o.level + 1)
        terms = []
        for _ in range(rng.randint(1, 3)):
            coeff = round(rng.uniform(0.5, 3.0), 3) * rng.choice([-1.0, 1.0])
            upow = rng.randint(0, 2)
            if rng.random() < 1 / 3:
                i = rng.randrange(basis.n)
                root = basis.elements[i].terms[0]
                multiplicities.add(mult[basis.origins[i].root])
                trig = None if root.trig is None else rng.choice([COS, SIN])
                terms.append(UTerm(coeff, upow, root.erate, trig, root.tfreq))
            else:
                trig = rng.choice([None, COS, SIN])
                freq = F(0) if trig is None else rng.choice([F(1), F(3, 2)])
                terms.append(UTerm(coeff, upow, rng.choice(RATE_POOL), trig, freq))
        spec = ProblemSpec(spec.coeffs, spec.alpha, expr(*terms))
        v_shift = particular_solution(spec)
        v_vop, _ = vop_particular_solution(spec, basis)
        assert apply_operator(spec, v_shift) == spec.forcing, spec
        gap = apply_operator(spec, add(v_shift, scale(v_vop, -1)))
        assert gap.is_zero(), (spec, format_u(v_shift), format_u(v_vop), format_u(gap))
    assert multiplicities == {1, 2, 3}


# --- shift response against the Fraction reference -----------------------

def _response(poly, s, k):
    """``_shift_response``'s ``(upow, re, im, q)`` terms in the reference's
    shape, ``(upow, (re / q, im / q))``: the same exact values."""
    return [(upow, (F(re, q), F(im, q))) for upow, re, im, q in _shift_response(poly, s, k)]


def _expand_poly(real_roots, pair, m):
    """p_0..p_{n-1} of prod (r - z) over the roots, expanded in the
    arithmetic of the roots given: binary64 for floats, exact for Fractions."""
    poly = [1]

    def times(factor):
        out = [0] * (len(poly) + len(factor) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        return out

    a, b = pair
    for _ in range(m):
        poly = times([1, -2 * a, a * a + b * b] if b else [1, -a])
    for z in real_roots:
        poly = times([1, -z])
    return tuple(reversed(poly[1:]))


@given(st.sampled_from([0.1, 0.3, 0.7, 0.9, 0.5]),
       st.sampled_from(["3", "-2", "0.5", "1.5", "-0.7"]),
       st.sampled_from(["0", "0", "1", "2", "0.5"]),
       st.integers(0, 3), st.integers(0, 3),
       st.lists(st.sampled_from([-1.0, 0.5, 2.0, -2.5, 0.9]), min_size=0, max_size=2))
def test_shift_response_equals_reference(alpha, c, b, m, k, others):
    # s = (c + i b) * alpha as the parser lowers a forcing rate; the planted
    # root is float(s), m times (a conjugate pair when b != 0), expanded in
    # binary64, so at most alphas it is a rounding away from s.
    s = (F(c) * F(repr(alpha)), F(b) * F(repr(alpha)))
    if m == 0 and not others:
        others = [1.0]
    coeffs = _expand_poly(others, (float(s[0]), float(s[1])), m)
    assert _response(CharPoly(coeffs), s, k) == ref.shift_response(coeffs, s, k)


def test_shift_response_equals_reference_on_resonances():
    # every resonance multiplicity up to 3: an exact polynomial with the
    # root s resonates at multiplicity m; the binary64 expansion of the
    # decimal root 9/10 is one rounding off it, does not resonate, and gets
    # the exact response for its own coefficients
    decimal = (F(9, 10), F(0))
    for m in range(4):
        for k in range(4):
            for s in ((F(2), F(0)), (F(-1, 2), F(3, 2)), decimal):
                coeffs = _expand_poly([F(1, 4)], s, m)
                got = _response(CharPoly(coeffs), s, k)
                assert got == ref.shift_response(coeffs, s, k)
                assert got[0][0] == k + m  # the resonance is seen
            coeffs = _expand_poly([0.25], (float(decimal[0]), 0.0), m)
            got = _response(CharPoly(coeffs), decimal, k)
            assert got == ref.shift_response(coeffs, decimal, k)
            assert got[0][0] == k  # no resonance


PAIR = (F(-1, 2), F(3, 2))
QUARTERS = [F(-j, 4) for j in range(1, 25)]


@pytest.mark.parametrize("s, m, others, k", [
    # resonance multiplicity 4, 5 and 8, at a real and a Gaussian s
    ((F(-1, 2), F(0)), 4, [F(1, 4)], 8),
    (PAIR, 4, [F(1, 4)], 0),
    (PAIR, 5, [F(1, 4)], 8),
    ((F(2), F(0)), 8, [], 8),
    (PAIR, 8, [], 8),
    # k up to MAX_T_POWER, resonant or not
    ((F(1, 2), F(0)), 0, [F(-1), F(-2)], MAX_T_POWER),
    ((F(-1), F(0)), 4, [F(1, 3)], MAX_T_POWER),
    ((F(1, 3), F(2)), 1, [F(-1)], MAX_T_POWER),
    # planted polynomials of order 12, 16 and 24
    ((F(-13, 4), F(0)), 1, QUARTERS[:11], 8),
    ((F(-1, 8), F(1, 4)), 2, QUARTERS[:12], 8),
    ((F(1, 2), F(0)), 0, QUARTERS, 8),
    (PAIR, 0, QUARTERS, 1),
    ((F(-5, 3), F(0)), 4, QUARTERS[:20], 8),
], ids=["m4-real", "m4-pair-k0", "m5-pair", "m8-real", "m8-pair", "k64", "k64-m4",
        "k64-pair", "order12-m1", "order16-pair-m2", "order24", "order24-pair", "order24-m4"])
def test_shift_response_equals_reference_at_scale(s, m, others, k):
    coeffs = _expand_poly(others, s, m)
    got = _response(CharPoly(coeffs), s, k)
    assert got == ref.shift_response(coeffs, s, k)
    assert got[0][0] == k + m  # the resonance multiplicity is seen exactly


@pytest.mark.parametrize("alpha", ["0.1", "0.3", "0.7"])
@pytest.mark.parametrize("c, b", [(3, 0), (-2, 5)])
def test_shift_response_equals_reference_at_decimal_alpha(alpha, c, b):
    # s as the parser lowers exp(c t^a) {cos|sin}(b t^a): an exact
    # polynomial with the root s four times resonates at multiplicity 4;
    # its binary64 expansion is a rounding off s and does not resonate
    s = (c * F(alpha), b * F(alpha))
    for k in (0, 8):
        coeffs = _expand_poly([F(1, 4), F(-2)], s, 4)
        got = _response(CharPoly(coeffs), s, k)
        assert got == ref.shift_response(coeffs, s, k)
        assert got[0][0] == k + 4
        coeffs = _expand_poly([0.25, -2.0], (float(s[0]), float(s[1])), 4)
        got = _response(CharPoly(coeffs), s, k)
        assert got == ref.shift_response(coeffs, s, k)
        assert got[0][0] == k


@pytest.mark.parametrize("others, pair, m", [
    (QUARTERS[:8], PAIR, 4),  # order 16
    (QUARTERS[:16], PAIR, 4),  # order 24
], ids=["order16", "order24"])
def test_particular_is_exact_at_high_order(others, pair, m):
    # every forcing term resonates: e^{-u/4} is a simple root, the pair
    # -1/2 ± 3i/2 is a quadruple one
    coeffs = _expand_poly(others, pair, m)
    forcing = expr(UTerm(F(3, 2), 2, F(-1, 4)), UTerm(1, 1, PAIR[0], COS, PAIR[1]),
                   UTerm(F(-2, 3), 0, PAIR[0], SIN, PAIR[1]))
    spec = ProblemSpec(coeffs, 0.5, forcing)
    assert len(coeffs) == len(others) + 2 * m
    v = particular_solution(spec)
    assert apply_operator(spec, v) == spec.forcing
    assert {t.upow for t in v.terms if t.trig is not None} >= {m, m + 1}


@pytest.mark.parametrize("alpha, terms", [
    (0.5, [UTerm(3)]),
    (0.5, [UTerm(2, 0, F(1, 2), COS, F(3))]),
    (0.5, [UTerm(-1, 0, F(0), SIN, F(1, 3))]),
    (0.5, [UTerm(F(1, 3), 3, F(2))]),
    (0.5, [UTerm(1, 1, F(-1)), UTerm(F(5, 2), 0, F(0), SIN, F(2)),
           UTerm(-1, 2, F(0), COS, F(2))]),
    (0.3, [UTerm(1, 0, F(7, 10) * F("0.3")), UTerm(F(9, 10), 1, F(-3, 10), COS, F(9, 10))]),
], ids=["plain", "cos", "sin", "u^k", "resonant", "decimal-rate"])
def test_particular_terms_are_what_the_constructor_builds(alpha, terms):
    # particular_solution builds its terms without re-validating them:
    # each must equal, key for key, the term UTerm() would build
    # (r + 1)^2 (r^2 + 4): -1 is a double root and ±2i a simple pair
    spec = ProblemSpec((F(4), F(8), F(5), F(2)), alpha, expr(*terms))
    v = particular_solution(spec)
    assert v.terms
    assert_built_as_the_constructor(v)
    assert apply_operator(spec, v) == spec.forcing


def assert_built_as_the_constructor(f):
    """Each term of ``f`` equals, key for key, the term ``UTerm()`` builds
    from its fields, and none is zero."""
    for t in f.terms:
        built = UTerm(t.coeff, t.upow, t.erate, t.trig, t.tfreq)
        assert built == t and built._mkey == t._mkey, t
        assert (t.tfreq > 0) == (t.trig is not None)
        assert t.coeff != 0


def test_bench_solutions_are_exact_and_built_as_the_constructor(bench_workloads):
    # every order-sweep (batches 0-1) and forcing-sweep (batches 0-5) source
    # the benchmark runs at seed 7: L[v] == q exactly, and the terms of the
    # parsed forcing, of v and of each basis element are what UTerm() builds
    cases = [case for batch in range(2) for case in bench_workloads.order_sweep(7, batch)]
    cases += [case for batch in range(6) for case in bench_workloads.forcing_sweep(7, batch)]
    assert len(cases) == 68 + 198
    for case in cases:
        spec = problem_from_source(case.source, case.alpha)
        v = particular_solution(spec)
        assert apply_operator(spec, v) == spec.forcing, case.source
        for f in (spec.forcing, v, *homogeneous_basis(spec).elements):
            assert_built_as_the_constructor(f)


# --- derivation count -----------------------------------------------------

@pytest.mark.parametrize("source, ic", [
    ("T4 y + 2 T2 y + y = t^a * exp(t^a) + cos(2 t^a)", (1.0, (1.0, 0.0, -1.0, 0.5))),
    ("T3 y + 3 T2 y + 3 T y + y = exp(2 t^a)", None),
    ("T2 y + 3 T y + 2 y = 0", (1.0, (1.0, 0.0))),
])
def test_each_level_is_derived_once(monkeypatch, source, ic):
    # The constant fit and verify share the basis and particular levels, v's
    # n-th level is never built, and the initial-value check takes the
    # fitted sum's levels at t0 from them, not derived.  Each level is
    # summed once per check on verify's grid, from the level objects the
    # expressions hold: the underflow test and the t0 entries read the
    # columns the residual summed.
    derived, exact, summed = [], [], []
    derive_rows, sum_rows = ualgebra._derive_rows, OracleGrid._sum

    def counting(rows):
        derived.append(rows)  # holding the rows keeps their id unique
        return derive_rows(rows)

    def counting_sums(grid, level, part):
        summed.append((part, level))
        return sum_rows(grid, level, part)

    monkeypatch.setattr(ualgebra, "_derive_rows", counting)
    monkeypatch.setattr(ualgebra, "diff_u", lambda f: exact.append(f))
    monkeypatch.setattr(OracleGrid, "_sum", counting_sums)
    spec = problem_from_source(source, 0.5)
    n = spec.order
    sol = solve_problem(spec) if ic is None else solve_problem(spec, t0=ic[0], targets=ic[1])
    grid = log_grid(cli.DEFAULT_GRID_LO, cli.DEFAULT_GRID_HI, cli.DEFAULT_GRID_COUNT)
    cli._verify_one(sol, grid, cli.DEFAULT_TOL)
    ids = [id(rows) for rows in derived]
    assert len(set(ids)) == len(ids)
    # the numeric consumers derive the binary64 rows, never the exact form
    assert exact == []
    checks = [(e, ualgebra.ZERO) for e in sol.basis.elements]
    if sol.particular is not None:
        checks.append((sol.particular, sol.spec.forcing))
    want = []
    for f, forcing in checks:
        levels = ualgebra.lowered_levels(f, n)
        assert levels[0] is f.float_rows
        assert [id(level) in ids for level in levels] == [True] * (n - 1) + [False]
        # per check: level 0's values, each level's quotients, the forcing's values
        want += [(0, levels[0])] + [(1, level) for level in levels] + [(0, forcing.float_rows)]
    assert len(derived) == len(checks) * (n - 1)
    assert [part for part, _ in summed] == [part for part, _ in want]
    assert all(got is rows for (_, got), (_, rows) in zip(summed, want))
