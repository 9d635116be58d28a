"""Parser tests: grammar coverage, monic normalization, lowering, errors."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confode.eqparse import (
    EquationAst,
    EquationSyntaxError,
    TAdd,
    TFunc,
    TMul,
    TNeg,
    TNum,
    TPow,
    TSub,
    lower_forcing,
    parse_equation,
    problem_from_source,
)
from confode.ualgebra import SIN, SubstMap, UTerm, eval_expr, expr


def eval_ast(ast, t: float, alpha: float) -> float:
    """Direct t-domain evaluation of a forcing AST (oracle for lowering)."""
    if ast is None:
        return 0.0
    if isinstance(ast, TNum):
        return ast.value
    if isinstance(ast, TPow):
        return t ** (ast.k * alpha)
    if isinstance(ast, TFunc):
        arg = ast.c * t ** alpha
        return {"exp": math.exp, "sin": math.sin, "cos": math.cos}[ast.kind](arg)
    if isinstance(ast, TNeg):
        return -eval_ast(ast.child, t, alpha)
    if isinstance(ast, TAdd):
        return eval_ast(ast.left, t, alpha) + eval_ast(ast.right, t, alpha)
    if isinstance(ast, TSub):
        return eval_ast(ast.left, t, alpha) - eval_ast(ast.right, t, alpha)
    if isinstance(ast, TMul):
        return eval_ast(ast.left, t, alpha) * eval_ast(ast.right, t, alpha)
    raise TypeError(f"not a forcing AST node: {ast!r}")


# ---------------------------------------------------------------------------
# rendering: canonical text that reparses to the same AST


def _num_text(x: float) -> str:
    return repr(float(x))


_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _prec(node) -> int:
    if isinstance(node, (TAdd, TSub)):
        return _PREC_SUM
    if isinstance(node, TMul):
        return _PREC_PROD
    if isinstance(node, TNeg):
        return _PREC_UNARY
    return _PREC_ATOM


def render_texpr(node) -> str:
    """Canonical text for a forcing AST; reparses to the identical tree."""

    def go(n, floor: int) -> str:
        if isinstance(n, TNum):
            txt = _num_text(n.value)
        elif isinstance(n, TPow):
            txt = "t^a" if n.k == 1 else f"t^({n.k} a)"
        elif isinstance(n, TFunc):
            arg = "t^a" if n.c == 1.0 else f"{_num_text(n.c)} t^a"
            txt = f"{n.kind}({arg})"
        elif isinstance(n, TNeg):
            txt = "-" + go(n.child, _PREC_UNARY)
        elif isinstance(n, TAdd):
            txt = go(n.left, _PREC_SUM) + " + " + go(n.right, _PREC_SUM + 1)
        elif isinstance(n, TSub):
            txt = go(n.left, _PREC_SUM) + " - " + go(n.right, _PREC_SUM + 1)
        elif isinstance(n, TMul):
            txt = go(n.left, _PREC_PROD) + " * " + go(n.right, _PREC_PROD + 1)
        else:
            raise TypeError(f"not a forcing AST node: {n!r}")
        return f"({txt})" if _prec(n) < floor else txt

    return go(node, _PREC_SUM)


def render_equation(eq: EquationAst) -> str:
    """Canonical text for an equation; reparses to the identical AST."""
    chunks = []
    for i, (order, coeff) in enumerate(eq.terms):
        mag = abs(coeff)
        body = "" if mag == 1.0 else _num_text(mag) + " "
        body += ("y" if order == 0 else "T y" if order == 1 else f"T{order} y")
        if i == 0:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    rhs = "0" if eq.rhs is None else render_texpr(eq.rhs)
    return "".join(chunks) + " = " + rhs


def terms_dict(eq: EquationAst) -> dict:
    return dict(eq.terms)


# ---------------------------------------------------------------------------
# worked source strings


def test_parse_forced_equation():
    eq = parse_equation("T2 y + 4 T y + 3 y = exp(2 t^a)")
    assert terms_dict(eq) == {2: 1.0, 1: 4.0, 0: 3.0}
    assert eq.rhs == TFunc("exp", 2.0)
    assert eq.coeff_vector() == (3.0, 4.0)


def test_parse_homogeneous_equation():
    eq = parse_equation("T2 y - 10 T y + 25 y = 0")
    assert terms_dict(eq) == {2: 1.0, 1: -10.0, 0: 25.0}
    assert eq.rhs is None


def test_parse_polynomial_forcing():
    eq = parse_equation("T2 y + 4 T y + 3 y = 2 t^(2 a) + t^a - 3")
    assert eq.rhs == TSub(TAdd(TMul(TNum(2.0), TPow(2)), TPow(1)), TNum(3.0))


def test_parse_sine_and_product_forcing():
    assert parse_equation("T y = sin(2 t^a)").rhs == TFunc("sin", 2.0)
    assert parse_equation("T y = exp(2 t^a) t^a").rhs == TMul(TFunc("exp", 2.0), TPow(1))
    assert parse_equation("T y = sin(2 * t^a)").rhs == TFunc("sin", 2.0)


def test_parse_negative_function_rate():
    assert parse_equation("T y = exp(-4 t^a)").rhs == TFunc("exp", -4.0)
    assert parse_equation("T y = exp(-t^a)").rhs == TFunc("exp", -1.0)


def test_parse_tpow_spellings_agree():
    a = parse_equation("T y = t^(3 a)").rhs
    b = parse_equation("T y = (t^a)^3").rhs
    assert a == b == TPow(3)
    assert parse_equation("T y = t^a").rhs == TPow(1)


def test_parse_bare_derivative_and_order_zero():
    eq = parse_equation("T y + y = 0")
    assert terms_dict(eq) == {1: 1.0, 0: 1.0}
    eq = parse_equation("T3 y - y = 0")
    assert eq.coeff_vector() == (-1.0, 0.0, 0.0)


def test_monic_normalization_scales_forcing():
    eq = parse_equation("2 T2 y + 8 T y + 6 y = exp(2 t^a)")
    assert terms_dict(eq) == {2: 1.0, 1: 4.0, 0: 3.0}
    assert eq.rhs == TMul(TNum(0.5), TFunc("exp", 2.0))


def test_duplicate_orders_merge():
    eq = parse_equation("T y + T y + y = 0")
    assert terms_dict(eq) == {1: 1.0, 0: 0.5}


def test_unary_minus_and_grouping():
    eq = parse_equation("T y = -(3 - t^a) * cos(t^a)")
    assert eq.rhs == TMul(TNeg(TSub(TNum(3.0), TPow(1))), TFunc("cos", 1.0))


# ---------------------------------------------------------------------------
# errors


def test_dangling_plus_is_positioned():
    src = "T2 y + y + = 3"
    with pytest.raises(EquationSyntaxError) as info:
        parse_equation(src)
    assert info.value.offset == src.index("=")
    assert "left-side term" in str(info.value)


@pytest.mark.parametrize("src,needle", [
    ("y = 0", "at least one derivative"),
    ("0 T2 y + y = 0", "leading coefficient"),
    ("T2 y = tan(t^a)", "forcing class"),
    ("T2 y = t", "'^'"),
    ("T2 y = 2 3", "end of input"),
    ("T2 y = t^(0 a)", "positive integer"),
    ("T2 y + 4 T y + 3 y", "'='"),
    ("", "left-side term"),
    ("T2 y = @", "unexpected character"),
])
def test_malformed_inputs(src, needle):
    with pytest.raises(EquationSyntaxError) as info:
        parse_equation(src)
    assert needle in str(info.value)
    assert 0 <= info.value.offset <= len(src)


@settings(max_examples=120)
@given(st.text(alphabet="Tty2a^()+-=* .3exp", max_size=30))
def test_error_totality(src):
    # the parser either succeeds or raises its positioned error; it never
    # escapes with another exception type
    try:
        parse_equation(src)
    except EquationSyntaxError as err:
        assert 0 <= err.offset <= len(src)


# ---------------------------------------------------------------------------
# round-trip


ROUND_TRIP_SOURCES = [
    "T2 y + 4 T y + 3 y = exp(2 t^a)",
    "T2 y - 10 T y + 25 y = 0",
    "T2 y + T y + y = 0",
    "T2 y + 4 T y + 3 y = 2 t^(2 a) + t^a - 3",
    "T2 y + 4 T y + 3 y = sin(2 t^a)",
    "T2 y + 4 T y + 3 y = exp(2 t^a) t^a",
    "T2 y + 4 T y + 3 y = exp(-4 t^a)",
    "2 T2 y + 8 T y + 6 y = exp(2 t^a)",
    "T y = (t^a)^3",
    "T3 y - y = t^(2 a) * cos(t^a) - (3 - t^a)",
    "T y = -(3 - t^a) * cos(t^a)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_render_roundtrip(src):
    ast = parse_equation(src)
    assert parse_equation(render_equation(ast)) == ast


# ---------------------------------------------------------------------------
# lowering


def test_lower_exponential_rate_arithmetic():
    out = lower_forcing(TFunc("exp", 2.0), SubstMap(0.5))
    assert out == expr(UTerm(1.0, erate=F(1)))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_lower_polynomial_worked(alpha):
    ast = parse_equation("T y = 2 t^(2 a) + t^a - 3").rhs
    out = lower_forcing(ast, SubstMap(alpha))
    got = {t.upow: t.coeff for t in out.terms}
    assert got[2] == pytest.approx(2 * alpha ** 2, rel=1e-15)
    assert got[1] == pytest.approx(alpha, rel=1e-15)
    assert got[0] == -3.0


def test_lower_sine_worked():
    out = lower_forcing(TFunc("sin", 2.0), SubstMap(0.75))
    assert out == expr(UTerm(1.0, trig=SIN, tfreq=F(3, 2)))


def test_lower_zero_and_power_limit():
    assert lower_forcing(None, SubstMap(0.5)).is_zero()
    with pytest.raises(ValueError):
        lower_forcing(TPow(65), SubstMap(0.5))
    with pytest.raises(ValueError):
        lower_forcing(parse_equation("T y = (t^a)^65").rhs, SubstMap(0.5))


_atoms = st.one_of(
    st.floats(-5.0, 5.0).map(lambda v: TNum(round(v, 3))),
    st.integers(1, 4).map(TPow),
    st.builds(TFunc, st.sampled_from(["exp", "sin", "cos"]),
              st.floats(-2.0, 2.0).map(lambda v: round(v, 3))),
)


def _trees(children):
    return st.one_of(
        st.builds(TNeg, children),
        st.builds(TAdd, children, children),
        st.builds(TSub, children, children),
        st.builds(TMul, children, children),
    )


_forcing_asts = st.recursive(_atoms, _trees, max_leaves=8)


@settings(max_examples=60)
@given(ast=_forcing_asts, alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       t=st.floats(0.3, 2.0))
def test_lowering_soundness(ast, alpha, t):
    subst = SubstMap(alpha)
    lowered = lower_forcing(ast, subst)
    direct = eval_ast(ast, t, alpha)
    via_u = eval_expr(lowered, t, subst)
    # normalise by the term-magnitude scale: a difference of two large
    # products cancels in both representations, leaving round-off of the
    # large parts, not of the small result
    scale = sum(abs(eval_expr(expr(term), t, subst)) for term in lowered.terms)
    assert abs(via_u - direct) <= 1e-10 * max(1.0, abs(direct), scale)


@settings(max_examples=40)
@given(ast=_forcing_asts)
def test_texpr_render_roundtrip(ast):
    txt = render_texpr(ast)
    assert parse_equation(f"T y = {txt}").rhs == _fold_zero(_canon(ast))


def _canon(ast):
    # the parser folds unary minus into numeric literals and reads every
    # literal exactly from its text; synthetic trees must be folded and read
    # the same way before comparison
    if isinstance(ast, TNum):
        return TNum(F(_num_text(ast.value)))
    if isinstance(ast, TFunc):
        return TFunc(ast.kind, F(_num_text(ast.c)))
    if isinstance(ast, TNeg):
        child = _canon(ast.child)
        return TNum(-child.value) if isinstance(child, TNum) else TNeg(child)
    if isinstance(ast, (TAdd, TSub, TMul)):
        return type(ast)(_canon(ast.left), _canon(ast.right))
    return ast


def _fold_zero(ast):
    # "T y = <rendered 0.0>" normalises a literal zero rhs to None; mirror
    # that for comparison
    return None if ast == TNum(0.0) else ast


# ---------------------------------------------------------------------------
# end-to-end


def test_problem_from_source():
    spec = problem_from_source("T2 y - 10 T y + 25 y = 0", 0.5)
    assert spec.coeffs == (25.0, -10.0)
    assert spec.alpha == 0.5
    assert spec.forcing.is_zero()

    spec = problem_from_source("T2 y + 4 T y + 3 y = exp(2 t^a)", 0.25)
    assert spec.forcing == expr(UTerm(1.0, erate=F(1, 2)))


def test_problem_from_source_eval_agreement():
    src = "T2 y + 4 T y + 3 y = 2 t^(2 a) + t^a - 3"
    ast = parse_equation(src)
    for alpha in (0.25, 0.75, 1.0):
        spec = problem_from_source(src, alpha)
        subst = SubstMap(alpha)
        for t in (0.4, 1.0, 2.2):
            direct = eval_ast(ast.rhs, t, alpha)
            assert eval_expr(spec.forcing, t, subst) == pytest.approx(direct, rel=1e-12)
