"""Parser tests: grammar coverage, monic normalization, the forcing in the
u variable, errors.

The parser builds the forcing as a :class:`~confode.ualgebra.UExpr` while it
reads the text.  Exact canonical forms are unique, so each test compares
``problem_from_source(src, alpha)`` with the exact expression it must give,
and sources are chosen so that a wrong associativity, precedence or sign
changes the value.  The forcing trees hypothesis generates are this
module's own: :func:`render_texpr` writes one as text, :func:`eval_ast`
evaluates it in the t domain, and :func:`lower_reference` rewrites it in u
node by node, the exact reference the parsed forcing must equal.  The
parser's outcome, a problem or an error, must also equal that of
``tests/parse_reference.py``, a copy of the parser before its one-pass
rewrite, on the benchmark's sources, on one-character edits and on those
trees.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parse_reference import reference_problem

from confode import eqparse, ualgebra
from confode.eqparse import MAX_ORDER, EquationSyntaxError, problem_from_source
from confode.ualgebra import COS, SIN, SubstMap, UTerm, add, eval_expr, expr, mul, scale

# ---------------------------------------------------------------------------
# a forcing tree, its text, its value and its exact rewrite in u


@dataclass(frozen=True)
class TNum:
    value: F


@dataclass(frozen=True)
class TPow:
    """t^(k*alpha), k a positive integer."""

    k: int


@dataclass(frozen=True)
class TFunc:
    """exp/sin/cos of c * t^alpha."""

    kind: str
    c: F


@dataclass(frozen=True)
class TNeg:
    child: object


@dataclass(frozen=True)
class TAdd:
    left: object
    right: object


@dataclass(frozen=True)
class TSub:
    left: object
    right: object


@dataclass(frozen=True)
class TMul:
    left: object
    right: object


def eval_ast(ast, t: float, alpha: float) -> float:
    """Direct t-domain evaluation of a forcing tree."""
    if isinstance(ast, TNum):
        return float(ast.value)
    if isinstance(ast, TPow):
        return t ** (ast.k * alpha)
    if isinstance(ast, TFunc):
        arg = float(ast.c) * t ** alpha
        return {"exp": math.exp, "sin": math.sin, "cos": math.cos}[ast.kind](arg)
    if isinstance(ast, TNeg):
        return -eval_ast(ast.child, t, alpha)
    if isinstance(ast, TAdd):
        return eval_ast(ast.left, t, alpha) + eval_ast(ast.right, t, alpha)
    if isinstance(ast, TSub):
        return eval_ast(ast.left, t, alpha) - eval_ast(ast.right, t, alpha)
    if isinstance(ast, TMul):
        return eval_ast(ast.left, t, alpha) * eval_ast(ast.right, t, alpha)
    raise TypeError(f"not a forcing node: {ast!r}")


def lower_reference(ast, alpha: float):
    """The tree rewritten in u = t^alpha / alpha, node by node.

    t^(k*alpha) = (alpha*u)^k, e^(c*t^alpha) = e^(c*alpha*u), and likewise
    for sin/cos, with alpha read as ``Fraction(repr(alpha))``.
    """
    a = F(repr(alpha))

    def go(node):
        if isinstance(node, TNum):
            return expr(UTerm(node.value))
        if isinstance(node, TPow):
            return expr(UTerm(a ** node.k, node.k))
        if isinstance(node, TFunc):
            rate = node.c * a
            if node.kind == "exp":
                return expr(UTerm(1, erate=rate))
            return expr(UTerm(1, trig=SIN if node.kind == "sin" else COS, tfreq=rate))
        if isinstance(node, TNeg):
            return scale(go(node.child), -1)
        if isinstance(node, TAdd):
            return add(go(node.left), go(node.right))
        if isinstance(node, TSub):
            return add(go(node.left), scale(go(node.right), -1))
        if isinstance(node, TMul):
            return mul(go(node.left), go(node.right))
        raise TypeError(f"not a forcing node: {node!r}")

    return go(ast)


def _num_text(x) -> str:
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
    """Text for a forcing tree, parenthesised so it parses as that tree."""

    def go(n, floor: int) -> str:
        if isinstance(n, TNum):
            txt = _num_text(n.value)
        elif isinstance(n, TPow):
            txt = "t^a" if n.k == 1 else f"t^({n.k} a)"
        elif isinstance(n, TFunc):
            arg = "t^a" if n.c == 1 else f"{_num_text(n.c)} t^a"
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
            raise TypeError(f"not a forcing node: {n!r}")
        return f"({txt})" if _prec(n) < floor else txt

    return go(node, _PREC_SUM)


def _decimal(x: F) -> str:
    """Exact decimal text of a rational whose denominator is 2^i 5^j."""
    digits = 0
    while (x * 10 ** digits).denominator != 1:
        digits += 1
        assert digits < 400, f"{x} has no finite decimal"
    text = str(abs(x * 10 ** digits).numerator).rjust(digits + 1, "0")
    if digits:
        text = text[:-digits] + "." + text[-digits:]
    return ("-" if x < 0 else "") + text


def _join(pairs) -> str:
    """``c body`` pairs as a signed sum; a unit coefficient is left out."""
    out = ""
    for c, body in pairs:
        text = body if abs(c) == 1 and body else f"{_decimal(abs(c))} {body}".strip()
        if out:
            out += (" - " if c < 0 else " + ") + text
        else:
            out = ("-" if c < 0 else "") + text
    return out or "0"


def render_problem(spec) -> str:
    """Text for a problem at alpha 1, where u = t and a rate is the number
    written.  Every coefficient is scaled by their least common
    denominator, which the parser's monic scaling divides out again."""
    assert spec.alpha == 1.0
    scale_by = math.lcm(*(c.denominator for c in spec.coeffs),
                        *(t.coeff.denominator for t in spec.forcing.terms))
    left = [(scale_by, f"T{spec.order} y")] + [
        (c * scale_by, "y" if k == 0 else f"T{k} y")
        for k, c in sorted(enumerate(spec.coeffs), reverse=True) if c]
    right = []
    for t in spec.forcing.terms:
        factors = [f"t^({t.upow} a)"] if t.upow else []
        if t.erate:
            factors.append(f"exp({_decimal(t.erate)} t^a)")
        if t.trig:
            factors.append(f"{t.trig}({_decimal(t.tfreq)} t^a)")
        right.append((t.coeff * scale_by, " * ".join(factors)))
    return f"{_join(left)} = {_join(right)}"


# ---------------------------------------------------------------------------
# worked source strings


def term(coeff, upow=0, erate=0, trig=None, tfreq=0) -> UTerm:
    return UTerm(F(coeff), upow, F(erate), trig, F(tfreq))


def forcing(src: str, alpha: float = 1.0):
    return problem_from_source(src, alpha).forcing


def test_parse_forced_equation():
    spec = problem_from_source("T2 y + 4 T y + 3 y = exp(2 t^a)", 0.5)
    assert spec.coeffs == (3, 4)
    assert spec.forcing == expr(term(1, erate=1))


def test_parse_homogeneous_equation():
    spec = problem_from_source("T2 y - 10 T y + 25 y = 0", 0.5)
    assert spec.coeffs == (25, -10)
    assert spec.forcing.is_zero()


def test_parse_polynomial_forcing():
    # at alpha 1/2, t^(k a) = (u/2)^k
    assert forcing("T2 y + 4 T y + 3 y = 2 t^(2 a) + t^a - 3", 0.5) == expr(
        term(F(1, 2), 2), term(F(1, 2), 1), term(-3))
    # left-associative: (1 - t^a) - 2, not 1 - (t^a - 2)
    assert forcing("T y = 1 - t^a - 2") == expr(term(-1), term(-1, 1))
    # a product binds tighter than a sum, both spelled and implicit
    assert forcing("T y = 1 + 2 * t^a") == forcing("T y = 1 + 2 t^a") == expr(
        term(1), term(2, 1))
    # unary minus takes one factor: (-1) + t^a, not -(1 + t^a)
    assert forcing("T y = - 1 + t^a") == expr(term(-1), term(1, 1))


def test_parse_sine_and_product_forcing():
    assert forcing("T y = sin(2 t^a)") == expr(term(1, trig=SIN, tfreq=2))
    assert forcing("T y = exp(2 t^a) t^a") == expr(term(1, 1, erate=2))
    assert forcing("T y = sin(2 * t^a)") == forcing("T y = sin(2 t^a)")


def test_parse_negative_function_rate():
    assert forcing("T y = exp(-4 t^a)") == expr(term(1, erate=-4))
    assert forcing("T y = exp(-t^a)") == expr(term(1, erate=-1))


def test_parse_tpow_spellings_agree():
    a = forcing("T y = t^(3 a)", 0.5)
    b = forcing("T y = (t^a)^3", 0.5)
    assert a == b == expr(term(F(1, 8), 3))
    assert forcing("T y = t^a", 0.5) == expr(term(F(1, 2), 1))
    # "(t^a)" not followed by "^" is a group
    assert forcing("T y = (t^a) + 1") == expr(term(1), term(1, 1))


def test_parse_bare_derivative_and_order_zero():
    assert problem_from_source("T y + y = 0", 1.0).coeffs == (1,)
    assert problem_from_source("T3 y - y = 0", 1.0).coeffs == (-1, 0, 0)


def test_monic_normalization_scales_forcing():
    spec = problem_from_source("2 T2 y + 8 T y + 6 y = exp(2 t^a)", 1.0)
    assert spec.coeffs == (3, 4)
    assert spec.forcing == expr(term(F(1, 2), erate=2))
    spec = problem_from_source("3 T y + 3 y = 1 - t^a", 1.0)
    assert spec.coeffs == (1,)
    assert spec.forcing == expr(term(F(1, 3)), term(F(-1, 3), 1))


def test_duplicate_orders_merge():
    assert problem_from_source("T y + T y + y = 0", 1.0).coeffs == (F(1, 2),)
    assert problem_from_source("T2 y + y - 3 y + T2 y = 0", 1.0).coeffs == (-1, 0)


def test_unary_minus_and_grouping():
    # -(3 - t^a) cos(t^a) = (t^a - 3) cos(t^a)
    assert forcing("T y = -(3 - t^a) * cos(t^a)") == expr(
        term(-3, trig=COS, tfreq=1), term(1, 1, trig=COS, tfreq=1))


# ---------------------------------------------------------------------------
# errors


def test_dangling_plus_is_positioned():
    src = "T2 y + y + = 3"
    with pytest.raises(EquationSyntaxError) as info:
        problem_from_source(src, 0.5)
    assert info.value.offset == src.index("=")
    assert "left-side term" in str(info.value)


LONG_LITERAL = "T y + y = 0." + "0" * 5000 + "1"


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
    pytest.param(LONG_LITERAL, "4300 digits", id="long-literal"),
    pytest.param("T y = 1e-99999999", "exponent 4300", id="long-exponent"),
    pytest.param("T y = (t^a)^0", "positive integer power", id="tpow-paren-zero"),
    pytest.param("T y = (t^a)^65", "supported limit 64", id="tpow-paren-limit"),
    pytest.param("T y = t^(65 a)", "supported limit 64", id="tpow-limit"),
    pytest.param("T1000000 y + y = 0", "supported limit 256", id="order-limit"),
    pytest.param("T y = )", "offset 6 (expected a forcing factor)", id="no-forcing-factor"),
    pytest.param("T y = exp(2)", "offset 11 (expected 't^a')", id="exp-without-tpow"),
    pytest.param("T y = t^b", "offset 8 (expected 'a')", id="tpow-not-alpha"),
])
def test_malformed_inputs(src, needle):
    with pytest.raises(EquationSyntaxError) as info:
        problem_from_source(src, 0.5)
    assert needle in str(info.value)
    assert 0 <= info.value.offset <= len(src)


@pytest.mark.parametrize("src,at", [
    (LONG_LITERAL, LONG_LITERAL.index("0.")),
    ("T y = (t^a)^0", len("T y = (t^a)^")),
    ("T y = (t^a)^65", len("T y = (t^a)^")),
    ("T y = 2 - t^(65 a)", len("T y = 2 - t^(")),
    ("T2 y + T1000000 y + y = 0", len("T2 y + ")),
    ("T2 y + T" + "0" * 5000 + "257 y = 0", len("T2 y + ")),
])
def test_limits_point_at_their_token(src, at):
    with pytest.raises(EquationSyntaxError) as info:
        problem_from_source(src, 0.5)
    assert info.value.offset == at


def test_order_limit_is_inclusive():
    assert problem_from_source(f"T{MAX_ORDER} y + y = 0", 1.0).order == MAX_ORDER
    assert problem_from_source("T0001 y + y = 0", 1.0).order == 1
    with pytest.raises(EquationSyntaxError, match="limit 256"):
        problem_from_source(f"T{MAX_ORDER + 1} y + y = 0", 1.0)


_FOUND_Y = "a left-side term: [number] [T<k>] 'y'"
_FACTOR = "number, 't^a', exp/sin/cos, or '('"
_LITERAL_LIMIT = "numeric literal beyond 4300 digits or exponent 4300"


# One source per place the parser raises, with the exact message, offset
# and expected tokens it gives.
@pytest.mark.parametrize("src,message,offset,expected", [
    pytest.param("T2 y = @", "unexpected character '@'", 7, None, id="character"),
    pytest.param(LONG_LITERAL, _LITERAL_LIMIT, 10, None, id="literal-digits"),
    pytest.param("T y = 1e-99999999", _LITERAL_LIMIT, 6, None, id="literal-exponent"),
    pytest.param("T y = 2 + 1e400", "non-finite numeric literal", 10, None, id="non-finite"),
    pytest.param("T2x y = 0", "found 'T2x'", 0, "derivative 'T' or 'T<k>'", id="bad-T"),
    pytest.param("T2 y + T257 y = 0", "derivative order above the supported limit 256", 7,
                 None, id="order-limit"),
    pytest.param("T2 y + 3 x = 0", "found 'x'", 9, _FOUND_Y, id="missing-y"),
    pytest.param("T2 y + 4 T y + 3 y", "found end of input", 18, "'='", id="missing-equals"),
    pytest.param("T2 y = 2 3", "found '3'", 9, "end of input", id="trailing"),
    pytest.param("T y = )", "found ')'", 6, "a forcing factor", id="missing-factor"),
    pytest.param("T2 y = tan(t^a)", "'tan' is not part of the exponential-polynomial-"
                 "trigonometric forcing class", 7, _FACTOR, id="outside-class"),
    pytest.param("T y = exp(2)", "found ')'", 11, "'t^a'", id="exp-without-tpow"),
    pytest.param("T y = t^b", "found 'b'", 8, "'a'", id="tpow-not-alpha"),
    pytest.param("T y = t^(0 a)", "found '0'", 9, "a positive integer power", id="zero-power"),
    pytest.param("T y = (t^a)^1.5", "found '1.5'", 12, "a positive integer power",
                 id="fractional-power"),
    # an integer value not written as digits
    pytest.param("T y = t^(2.0 a)", "found '2.0'", 9, "a positive integer power",
                 id="decimal-point-power"),
    pytest.param("T y = (t^a)^2e0", "found '2e0'", 12, "a positive integer power",
                 id="exponent-power"),
    pytest.param("T y = t^(20e-1 a)", "found '20e-1'", 9, "a positive integer power",
                 id="scaled-exponent-power"),
    pytest.param("T y = 1 + t^(65 a)", "t-power exponent 65 exceeds the supported limit 64",
                 13, None, id="power-limit"),
    pytest.param("0 T2 y + y = 0", "leading coefficient (order 2) is zero", 0, None,
                 id="zero-lead"),
    pytest.param("y = 0", "equation needs at least one derivative of y", 0, None,
                 id="no-derivative"),
])
def test_every_parse_error_is_pinned(src, message, offset, expected):
    with pytest.raises(EquationSyntaxError) as info:
        problem_from_source(src, 0.5)
    detail = f" (expected {expected})" if expected else ""
    assert str(info.value) == f"{message} at offset {offset}{detail}"
    assert (info.value.offset, info.value.expected) == (offset, expected)


@settings(max_examples=120)
@given(st.text(alphabet="Tty2a^()+-=* .3exp", max_size=30))
def test_error_totality(src):
    # the parser either succeeds or raises its positioned error; it never
    # escapes with another exception type
    try:
        problem_from_source(src, 0.5)
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
    spec = problem_from_source(src, 1.0)
    assert problem_from_source(render_problem(spec), 1.0) == spec


# ---------------------------------------------------------------------------
# the forcing in u


def test_lower_exponential_rate_arithmetic():
    assert forcing("T y = exp(2 t^a)", 0.5) == expr(term(1, erate=1))
    # alpha is read as its shortest decimal: 3 * 0.3 is exactly 9/10
    assert forcing("T y = exp(3 t^a)", 0.3) == expr(term(1, erate=F(9, 10)))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_lower_polynomial_worked(alpha):
    a = F(repr(alpha))
    assert forcing("T y = 2 t^(2 a) + t^a - 3", alpha) == expr(
        term(2 * a ** 2, 2), term(a, 1), term(-3))


def test_lower_sine_worked():
    assert forcing("T y = sin(2 t^a)", 0.75) == expr(term(1, trig=SIN, tfreq=F(3, 2)))


def test_lower_zero_and_power_limit():
    assert forcing("T y = 0", 0.5).is_zero()
    assert forcing("T y = 1 - 1", 0.5).is_zero()
    assert forcing("T y = (t^a)^64", 0.5) == expr(term(F(1, 2) ** 64, 64))
    with pytest.raises(EquationSyntaxError):
        forcing("T y = t^(65 a)", 0.5)
    with pytest.raises(EquationSyntaxError):
        forcing("T y = (t^a)^65", 0.5)


_atoms = st.one_of(
    st.floats(-5.0, 5.0).map(lambda v: TNum(F(repr(round(v, 3))))),
    st.integers(1, 4).map(TPow),
    st.builds(TFunc, st.sampled_from(["exp", "sin", "cos"]),
              st.floats(-2.0, 2.0).map(lambda v: F(repr(round(v, 3))))),
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
    lowered = forcing(f"T y = {render_texpr(ast)}", alpha)
    direct = eval_ast(ast, t, alpha)
    via_u = eval_expr(lowered, t, subst)
    # normalise by the term-magnitude scale: a difference of two large
    # products cancels in both representations, leaving round-off of the
    # large parts, not of the small result
    magnitude = sum(abs(eval_expr(expr(part), t, subst)) for part in lowered.terms)
    assert abs(via_u - direct) <= 1e-10 * max(1.0, abs(direct), magnitude)


@settings(max_examples=40)
@given(ast=_forcing_asts, alpha=st.sampled_from([0.25, 0.3, 0.5, 1.0]))
def test_texpr_render_roundtrip(ast, alpha):
    assert forcing(f"T y = {render_texpr(ast)}", alpha) == lower_reference(ast, alpha)


# ---------------------------------------------------------------------------
# end-to-end


def test_problem_from_source():
    spec = problem_from_source("T2 y - 10 T y + 25 y = 0", 0.5)
    assert spec.coeffs == (25.0, -10.0)
    assert spec.alpha == 0.5
    assert spec.forcing.is_zero()

    spec = problem_from_source("T2 y + 4 T y + 3 y = exp(2 t^a)", 0.25)
    assert spec.forcing == expr(UTerm(1.0, erate=F(1, 2)))
    with pytest.raises(ValueError, match="alpha"):
        problem_from_source("T y = 1", 1.5)


def test_problem_from_source_eval_agreement():
    src = "T2 y + 4 T y + 3 y = 2 t^(2 a) + t^a - 3"
    ast = TSub(TAdd(TMul(TNum(F(2)), TPow(2)), TPow(1)), TNum(F(3)))
    for alpha in (0.25, 0.75, 1.0):
        spec = problem_from_source(src, alpha)
        assert spec.forcing == lower_reference(ast, alpha)
        subst = SubstMap(alpha)
        for t in (0.4, 1.0, 2.2):
            direct = eval_ast(ast, t, alpha)
            assert eval_expr(spec.forcing, t, subst) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# against the reference parser (tests/parse_reference.py)


def parse_outcome(parse, src: str, alpha: float):
    """What ``parse(src, alpha)`` gives: the exact coefficients and forcing,
    and the forcing's rows; or the error's class, text, offset and
    expected tokens."""
    try:
        spec = parse(src, alpha)
    except Exception as err:  # the class is part of the outcome compared
        return (type(err), str(err), getattr(err, "offset", None),
                getattr(err, "expected", None))
    try:
        rows = spec.forcing.float_rows
    except OverflowError as err:  # a coefficient beyond binary64
        rows = str(err)
    return spec, repr((spec.coeffs, spec.forcing)), rows


def assert_parses_as_reference(src: str, alpha: float):
    assert parse_outcome(problem_from_source, src, alpha) == \
        parse_outcome(reference_problem, src, alpha), src


def test_bench_sources_parse_as_the_reference(bench_workloads):
    wl = bench_workloads
    cases = [case for seed in (5, 7, 11) for batch in range(2)
             for case in wl.order_sweep(seed, batch) + wl.forcing_sweep(seed, batch)]
    cases += [case.equation for seed in (5, 7, 11) for batch in range(3)
              for case in wl.cli_roundtrip(seed, batch)]
    assert len(cases) > 400
    for case in cases:
        assert_parses_as_reference(case.source, case.alpha)


EDGE_SOURCES = [
    # literals read from their digits, with and without an exponent
    "T y + y = 007", "T y + y = 1.", "T y + y = .5", "T y + y = 1e-3", "T y + y = 2E+2",
    "007 T y + 1. y = .5 t^(007 a) * exp(1e-3 t^a) * cos(2E+2 t^a)",
    # 308 digits cannot overflow binary64; 309 digits may
    "T y + y = " + "9" * 308, "T y + y = " + "9" * 309, "T y + y = 1" + "0" * 308,
    "9" * 309 + " T y + y = 0", "T y + y = exp(" + "9" * 309 + " t^a)",
    # literals at the digit limit and just past it
    "T y + y = 0." + "0" * 4297 + "1", "T y + y = 0." + "0" * 4298 + "1",
    "T y + y = " + "1" * 4300, "T y + y = " + "1" * 4301,
    "T y + y = 1e4300", "T y + y = 1e-4299", "T y + y = 1e43000",
    # signed, zero and cancelling rates and frequencies
    "T y + y = exp(-.5 t^a)", "T y + y = sin(-2 t^a)", "T y + y = cos(-2 t^a)",
    "T y + y = cos(0 t^a)", "T y + y = sin(0 t^a)", "T y + y = sin(0 t^a) + 1",
    "T y + y = exp(t^a) exp(-t^a) t^a", "T y + y = exp(0 t^a) sin(-0 t^a) - 2",
    "T y + y = sin(2 t^a) cos(2 t^a)", "T y + y = cos(2 t^a) * cos(2 t^a)",
    "T y + y = sin(2 t^a) sin(-2 t^a) exp(t^a)", "T y + y = cos(3 t^a) sin(3 t^a) cos(3 t^a)",
    # leading coefficients: merged, negative, decimal, zero
    "-2 T y + 0.5 T y + y = 3 t^a", "-0.5 T2 y + y = sin(t^a)", "0.25 T y - y = 1",
    "T y - T y + y = 1", "0 T y + y = 1",
]


@pytest.mark.parametrize("alpha", [0.3, 1.0])
@pytest.mark.parametrize("src", EDGE_SOURCES)
def test_literal_and_product_edge_cases_parse_as_the_reference(src, alpha):
    assert_parses_as_reference(src, alpha)


MUTATED_SOURCES = [
    "\tT2 y + 4 T y + 3 y = exp(2 t^a)\n ",
    "T3 y - 0.5 T y + 1.25 y = 2 t^(2 a) * cos(3 t^a) - (t^a)^2 sin(t^a)",
    "2 T2 y + y = -(3 - t^a) * exp(-1.5e-1 t^a) + .5",
    "T4 y + T0002 y - y = t^a exp(t^a) sin(2 t^a) cos(0.3 t^a) - 7",
]


@pytest.mark.parametrize("src", MUTATED_SOURCES)
def test_one_character_edits_parse_as_the_reference(src):
    # every deletion, duplication and replacement of one character
    edits = set()
    for i in range(len(src)):
        edits.add(src[:i] + src[i + 1:])
        edits.add(src[:i] + src[i] + src[i:])
        edits.update(src[:i] + c + src[i + 1:] for c in " )(^-.e")
    for text in sorted(edits):
        assert_parses_as_reference(text, 0.3)


@given(ast=_forcing_asts, alpha=st.sampled_from([0.25, 0.3, 0.5, 1.0]))
def test_forcing_trees_parse_as_the_reference(ast, alpha):
    assert_parses_as_reference(f"T2 y - 3 T y + 0.5 y = {render_texpr(ast)}", alpha)


@pytest.fixture
def visited(monkeypatch):
    """The length of every term list ``canonicalize`` merges from here on."""
    lengths = []
    canonicalize = ualgebra.canonicalize

    def counting(terms):
        terms = list(terms)
        lengths.append(len(terms))
        return canonicalize(terms)

    for module in (ualgebra, eqparse):  # the sum, the products' groups and mul
        monkeypatch.setattr(module, "canonicalize", counting)
    return lengths


def test_parse_work_is_linear_in_the_terms_of_a_sum(visited):
    # the terms canonicalisation visits while parsing a sum of n distinct
    # exponentials; merging the growing sum at every "+" visits ~n^2/2
    def visits(n: int) -> int:
        visited.clear()
        src = "T y + y = " + " + ".join(f"exp({k} t^a)" for k in range(1, n + 1))
        assert len(problem_from_source(src, 0.5).forcing.terms) == n
        return sum(visited)

    assert visits(200) >= 200
    assert visits(400) <= 2.2 * visits(200)


def test_parse_merges_a_trig_products_terms_after_each_factor(visited):
    # sin(t^a)^16 has 9 frequencies, and merging after each factor keeps the
    # partial products that short (~250 terms visited in all); multiplying
    # the factors out before merging doubles the terms per factor (2^15)
    src = "T y = " + " ".join(["sin(t^a)"] * 16)
    assert len(problem_from_source(src, 0.5).forcing.terms) == 9
    assert sum(visited) <= 2 * 16 ** 2
    assert_parses_as_reference(src, 0.5)


def test_parse_keeps_a_long_products_integers_short(monkeypatch):
    # each literal and t-power multiplies the coefficient's integers; they
    # are reduced once they grow long, not carried as 10^200 / 10^200
    lengths = []
    terms = eqparse._Product.terms

    def recording(product):
        lengths.append(max(product.num.bit_length(), product.den.bit_length(),
                           product.enum.bit_length(), product.eden.bit_length()))
        return terms(product)

    monkeypatch.setattr(eqparse._Product, "terms", recording)
    src = "T y = " + "exp(t^a) * exp(-t^a) * 2 * 0.5 * " * 200 + "t^a"
    assert problem_from_source(src, 0.3).forcing == expr(UTerm(F(3, 10), 1))
    assert lengths and max(lengths) <= 128
