import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confode.ualgebra import (
    COS,
    SIN,
    SubstMap,
    UExpr,
    UTerm,
    ZERO,
    add,
    canonicalize,
    diff_u,
    eval_expr,
    expr,
    expr_from_records,
    format_t,
    lowered_levels,
    mul,
    scale,
    term_records,
)
import algebra_reference as ref
from confode import ualgebra
from test_conformable import random_expr
from vop_reference import format_u, integrate_u


def assert_expr_close(f, g, rtol=1e-12):
    """Same canonical keys, coefficients within rtol relative."""
    assert [ref.key(t) for t in f.terms] == [ref.key(t) for t in g.terms], (
        f"{format_u(f)}  !=  {format_u(g)}")
    for a, b in zip(f.terms, g.terms):
        assert a.coeff == pytest.approx(b.coeff, rel=rtol)


# --- term construction / normalization ------------------------------------

def test_trig_parity_normalization():
    assert UTerm(2.0, 0, 0, COS, Fraction(-3)) == UTerm(2.0, 0, 0, COS, Fraction(3))
    assert UTerm(2.0, 0, 0, SIN, Fraction(-3)) == UTerm(-2.0, 0, 0, SIN, Fraction(3))


def test_zero_frequency_collapses():
    assert UTerm(2.0, 0, 0, COS, 0) == UTerm(2.0)
    zero_sin = UTerm(2.0, 0, 0, SIN, 0)
    assert zero_sin.coeff == 0.0 and zero_sin.trig is None


def test_invalid_terms_rejected():
    with pytest.raises(ValueError):
        UTerm(1.0, -1)
    with pytest.raises(ValueError):
        UTerm(1.0, 0, 0, "tan", 1)
    with pytest.raises(ValueError):
        UTerm(1.0, 0, 0, None, 2)


def test_substmap_validation():
    with pytest.raises(ValueError):
        SubstMap(0.0)
    with pytest.raises(ValueError):
        SubstMap(1.5)
    SubstMap(1.0)  # the classical endpoint is allowed


# --- canonicalization ------------------------------------------------------

def test_merge_and_prune():
    f = canonicalize([UTerm(1.0, 0, Fraction(2)), UTerm(2.5, 0, Fraction(2))])
    assert f.terms == (UTerm(3.5, 0, Fraction(2)),)
    # exact cancellation disappears entirely
    g = canonicalize([UTerm(1.0, 1), UTerm(-1.0, 1)])
    assert g == ZERO
    # near-cancellation keeps its exact remainder, however small
    h = canonicalize([UTerm(1e6, 2), UTerm(-1e6 + 1e-8, 2)])
    remainder = Fraction(-1e6 + 1e-8) + 10 ** 6
    assert remainder != 0 and h == expr(UTerm(remainder, 2))


def test_canonical_order_cos_before_sin():
    f = expr(UTerm(1.0, 0, 0, SIN, Fraction(1)), UTerm(1.0, 0, 0, COS, Fraction(1)))
    assert [t.trig for t in f.terms] == [COS, SIN]


def test_add_inverse_is_zero():
    f = expr(UTerm(0.3, 1, Fraction(2)), UTerm(-1.7, 0, 0, SIN, Fraction(3)))
    assert add(f, scale(f, -1.0)) == ZERO


# --- worked integrals (checked through the derivative round-trip) ----------

def test_integral_power_times_exp():
    # integral of u*e^{3u} is (u/3 - 1/9)e^{3u}
    f = expr(UTerm(1.0, 1, Fraction(3)))
    F = integrate_u(f)
    assert_expr_close(F, expr(UTerm(-1.0 / 9.0, 0, Fraction(3)),
                              UTerm(1.0 / 3.0, 1, Fraction(3))))
    assert_expr_close(diff_u(F), f)


def test_integral_exp_times_sin():
    # integral of sin(2u)e^{3u} is e^{3u}(3 sin 2u - 2 cos 2u)/13
    f = expr(UTerm(1.0, 0, Fraction(3), SIN, Fraction(2)))
    F = integrate_u(f)
    assert_expr_close(F, expr(UTerm(-2.0 / 13.0, 0, Fraction(3), COS, Fraction(2)),
                              UTerm(3.0 / 13.0, 0, Fraction(3), SIN, Fraction(2))))
    assert_expr_close(diff_u(F), f)


def test_integral_of_constant_and_resonant_power():
    assert integrate_u(one_term(1.0)) == expr(UTerm(1.0, 1))
    assert integrate_u(expr(UTerm(2.0, 1))) == expr(UTerm(1.0, 2))


def one_term(c):
    return expr(UTerm(c))


def test_product_to_sum():
    c2 = expr(UTerm(1.0, 0, 0, COS, Fraction(2)))
    assert mul(c2, c2) == expr(UTerm(0.5), UTerm(0.5, 0, 0, COS, Fraction(4)))
    s2 = expr(UTerm(1.0, 0, 0, SIN, Fraction(2)))
    # sin^2 + cos^2 = 1
    assert add(mul(s2, s2), mul(c2, c2)) == one_term(1.0)


# --- evaluation ------------------------------------------------------------

def test_eval_spec_points():
    assert eval_expr(expr(UTerm(1.0, 0, Fraction(-3))), 1.0, SubstMap(1.0)) == \
        pytest.approx(math.exp(-3.0), rel=1e-15)
    assert eval_expr(expr(UTerm(1.0, 2)), 4.0, SubstMap(0.5)) == pytest.approx(16.0)


def test_eval_domain_error():
    with pytest.raises(ValueError):
        eval_expr(one_term(1.0), 0.0, SubstMap(0.5))
    with pytest.raises(ValueError):
        eval_expr(one_term(1.0), -2.0, SubstMap(0.5))


# --- special derivatives ---------------------------------------------------

def test_special_derivatives_exact():
    sin_u = expr(UTerm(1.0, 0, 0, SIN, Fraction(1)))
    cos_u = expr(UTerm(1.0, 0, 0, COS, Fraction(1)))
    assert diff_u(sin_u) == cos_u
    assert diff_u(cos_u) == scale(sin_u, -1.0)
    e_u = expr(UTerm(1.0, 0, Fraction(1)))
    assert diff_u(e_u) == e_u
    e_ru = expr(UTerm(1.0, 0, Fraction(7, 2)))
    assert diff_u(e_ru) == expr(UTerm(3.5, 0, Fraction(7, 2)))


# --- property tests --------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False, width=64)


def _rates(lo=0.01, hi=4.0):
    # zero (the resonant branch) or magnitudes bounded away from zero:
    # rates below ~1e-2 are numerically near-resonant and produce huge
    # antiderivative coefficients that drown every tolerance.
    nonzero = st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)
    return st.one_of(st.just(0.0), nonzero, nonzero.map(lambda x: -x))


@st.composite
def uterms(draw):
    # magnitudes bounded away from zero, so the antiderivative and
    # evaluation tolerances stay meaningful
    mag = draw(st.floats(min_value=1e-3, max_value=5.0, **finite))
    coeff = -mag if draw(st.booleans()) else mag
    upow = draw(st.integers(0, 3))
    erate = Fraction(draw(_rates()))
    if draw(st.booleans()):
        trig = draw(st.sampled_from([COS, SIN]))
        tfreq = Fraction(draw(st.floats(min_value=0.05, max_value=4.0, **finite)))
    else:
        trig, tfreq = None, Fraction(0)
    return UTerm(coeff, upow, erate, trig, tfreq)


uexprs = st.lists(uterms(), min_size=0, max_size=4).map(canonicalize)

EVAL_POINTS = [random.Random(1234).uniform(1e-3, 5.0) for _ in range(20)]


@given(uexprs)
def test_canonicalize_idempotent(f):
    assert canonicalize(f.terms) == f


@given(uexprs)
def test_canonical_shape(f):
    keys = [ref.key(t) for t in f.terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for t in f.terms:
        assert t.coeff != 0.0
        assert (t.trig is None) == (t.tfreq == 0)
        assert t.tfreq >= 0


@given(uexprs)
def test_additive_inverse(f):
    assert add(f, scale(f, -1.0)) == ZERO


@given(uexprs, uexprs, uexprs)
def test_ring_laws_by_evaluation(f, g, h):
    subst = SubstMap(0.5)
    for t in EVAL_POINTS:
        fv, gv, hv = (eval_expr(x, t, subst) for x in (f, g, h))
        prod = eval_expr(mul(f, g), t, subst)
        tol = 1e-9 * (1.0 + abs(fv) * abs(gv) + abs(prod))
        assert abs(prod - fv * gv) <= tol
        assert mul(f, g) == mul(g, f)
        lhs = eval_expr(mul(f, add(g, h)), t, subst)
        rhs = eval_expr(add(mul(f, g), mul(f, h)), t, subst)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(fv) * (abs(gv) + abs(hv)) + abs(lhs))


def _eval_by_terms(f, t, subst):
    """Term-by-term evaluation converting each Fraction rate on every call:
    the shape's factors multiplied left to right, then the coefficient."""
    u = subst.u_of(t)
    total = 0.0
    for term in f.terms:
        shape = 1.0
        if term.upow:
            shape *= u ** term.upow
        if term.erate:
            shape *= math.exp(float(term.erate) * u)
        if term.trig == COS:
            shape *= math.cos(float(term.tfreq) * u)
        elif term.trig == SIN:
            shape *= math.sin(float(term.tfreq) * u)
        total += term.coeff * shape
    return total


@given(st.lists(uterms(), min_size=1, max_size=6).map(canonicalize),
       st.sampled_from([0.1, 0.3, 0.5, 0.75, 1.0]))
def test_eval_bit_identical_to_term_loop(f, alpha):
    # eval_expr reads the rows, rounded once per expression; every value must
    # match the per-term Fraction loop exactly, not just closely.
    subst = SubstMap(alpha)
    for t in EVAL_POINTS:
        assert eval_expr(f, t, subst) == _eval_by_terms(f, t, subst)


def test_float_rows_stay_out_of_equality_hash_and_repr():
    f = expr(UTerm(1.5, 2, Fraction(-3, 10), COS, Fraction(7, 3)), UTerm(-0.5, 1))
    g = expr(*f.terms)
    before = repr(f)
    eval_expr(f, 1.3, SubstMap(0.5))
    lowered_levels(f, 3)
    assert f.float_rows == ((-0.5, 1, 0.0, 0, 0.0), (1.5, 2, -0.3, 1, 7 / 3))
    assert f == g and hash(f) == hash(g)
    assert repr(f) == before == repr(g)


def test_derivative_stays_out_of_equality_hash_and_repr():
    f = expr(UTerm(1.5, 2, Fraction(-3, 10), COS, Fraction(7, 3)), UTerm(-0.5, 1))
    g = expr(*f.terms)
    before = repr(f)
    d = diff_u(f)
    assert UExpr(f.terms) == f
    assert f == g and hash(f) == hash(g)
    assert repr(f) == before == repr(g)
    # an equal expression is a different object and derives on its own
    assert diff_u(g) == d and diff_u(g) is not d


def test_diff_u_of_equal_expressions_is_equal_and_caches_nothing():
    terms = (UTerm(Fraction(-7, 3), 3, Fraction(1, 2), SIN, Fraction(5, 4)),
             UTerm(2, 0, -1), UTerm(Fraction(1, 9), 1, 0, COS, 3))
    f, g = expr(*terms), canonicalize(reversed(terms))
    assert f is not g and f == g
    lowered_levels(f, 2)
    before = dict(vars(f))
    assert diff_u(f) == diff_u(g)
    assert diff_u(diff_u(f)) == diff_u(diff_u(g)) == ref.diff_u(ref.diff_u(g))
    assert vars(f) == before


# --- equality with the reference algebra ----------------------------------
#
# The library merges on integer keys and builds canonical terms without
# re-validation; algebra_reference keeps plain Fraction-keyed, fully
# validating versions.  Results must be equal, not close.

# Rates that collide in value but arrive by different routes: decimal text,
# the binary64 of a decimal, sums of those, halves and integers.
_KEY_RATES = [Fraction(0), Fraction(2), Fraction(-1, 2), Fraction("0.3"), Fraction(0.3),
              Fraction(0.1) + Fraction(0.2), Fraction(3) * Fraction(0.3), Fraction("-0.9")]
_KEY_FREQS = [Fraction(0), Fraction(1), Fraction(-1), Fraction("0.7"), Fraction(-0.7),
              Fraction(5, 2)]


@st.composite
def colliding_term_lists(draw):
    """Terms over a few shared keys, with exact and near cancellation.

    Negative frequencies exercise trig parity, zero frequencies the
    collapse to no trig factor (sin(0 u) = 0 included).
    """
    pool = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_KEY_RATES),
                                   st.sampled_from([None, COS, SIN]),
                                   st.sampled_from(_KEY_FREQS)),
                         min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        upow, erate, trig, tfreq = draw(st.sampled_from(pool))
        if trig is None:
            tfreq = Fraction(0)
        kind = draw(st.sampled_from(["plain", "plain", "cancel", "near", "tiny"]))
        if kind != "plain" and terms:
            prev = draw(st.sampled_from(terms)).coeff
        else:
            prev = draw(st.floats(min_value=-5.0, max_value=5.0, **finite))
        if kind == "cancel":
            coeff = -prev
        elif kind == "near":
            coeff = -prev * (1.0 + draw(st.sampled_from([-2e-12, -1e-12, 5e-13, 1e-12, 3e-12])))
        elif kind == "tiny":
            coeff = draw(st.sampled_from([1e-13, -9.99e-13, 1e-12, 1.01e-12]))
        else:
            coeff = prev
        terms.append(UTerm(coeff, upow, erate, trig, tfreq))
    return terms


@given(colliding_term_lists())
def test_canonicalize_equals_reference(terms):
    got, want = canonicalize(terms), ref.canonicalize(terms)
    assert got == want
    assert repr(got) == repr(want)


# Rates that are distinct but round to one binary64 value, and one beyond
# binary64: canonical order must still be the order of the exact keys.
_CLOSE_RATES = [Fraction(0), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30),
                Fraction(-1, 3), Fraction(-1, 3) - Fraction(1, 10**30), Fraction(1, 2),
                Fraction("0.3"), Fraction(0.3), Fraction(2 * 10**308)]
_CLOSE_FREQS = [Fraction(1), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30),
                Fraction(5, 2), Fraction("0.7"), Fraction(0.7)]


@given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=4.0, **finite),
                          st.integers(0, 2), st.sampled_from(_CLOSE_RATES),
                          st.sampled_from([None, COS, SIN]), st.sampled_from(_CLOSE_FREQS)),
                min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_canonical_order_is_the_sort_by_key(fields, rng):
    # positive coefficients: no merged term cancels, so every key survives
    terms = [UTerm(c, upow, erate, trig, tfreq if trig else 0)
             for c, upow, erate, trig, tfreq in fields]
    f = canonicalize(terms)
    assert [ref.key(t) for t in f.terms] == sorted({ref.key(t) for t in terms})
    finite_terms = [t for t in f.terms if abs(t.erate) < 1e300]
    if finite_terms:
        # the rows, and the rows derived from them in any order, sort by key
        rows = list(canonicalize(finite_terms).float_rows)
        rng.shuffle(rows)
        for level in (canonicalize(finite_terms).float_rows, ualgebra._derive_rows(rows)):
            keys = [row[1:] for row in level]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


@given(colliding_term_lists().map(canonicalize))
def test_diff_u_equals_reference(f):
    want = ref.diff_u(f)
    assert diff_u(f) == want
    assert repr(diff_u(f)) == repr(want)
    assert diff_u(diff_u(f)) == ref.diff_u(want)


@given(colliding_term_lists())
def test_private_constructor_builds_what_validation_would(terms):
    built = []
    make = ualgebra._term

    def recording(*args):
        term = make(*args)
        built.append(term)
        return term

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ualgebra, "_term", recording)
        f = canonicalize(terms)
        diff_u(diff_u(f))
        scale(f, -2.5)
    for term in built:
        again = UTerm(term.coeff, term.upow, term.erate, term.trig, term.tfreq)
        assert term == again and term._mkey == again._mkey
        assert type(term.coeff) is Fraction and type(term.upow) is int
        assert type(term.erate) is Fraction and type(term.tfreq) is Fraction


@given(uexprs)
def test_fundamental_theorem_in_u(f):
    assert_expr_close(diff_u(integrate_u(f)), f, rtol=1e-12)


@given(uexprs, st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       st.floats(min_value=0.3, max_value=3.0, **finite))
def test_derivative_matches_limit_quotient(f, alpha, t):
    # centred difference quotient of the defining limit, eps = 1e-6
    subst = SubstMap(alpha)
    eps = 1e-6
    shift = eps * t ** (1.0 - alpha)
    quotient = (eval_expr(f, t + shift, subst) - eval_expr(f, t - shift, subst)) / (2 * eps)
    exact = eval_expr(diff_u(f), t, subst)
    assert quotient == pytest.approx(exact, rel=1e-4, abs=1e-4)


@given(uexprs, uexprs)
def test_mul_smallest_representation(f, g):
    # product of single trig terms expands to at most two terms per pair
    out = mul(f, g)
    assert len(out.terms) <= 2 * max(1, len(f.terms)) * max(1, len(g.terms))


# --- rendering and serialization ------------------------------------------

def test_format_u_examples():
    f = expr(UTerm(1.0 / 15.0, 0, Fraction(2)))
    assert format_u(f) == "0.06666666667·e^{2·u}"
    assert format_u(ZERO) == "0"
    g = expr(UTerm(-1.0, 1), UTerm(2.0, 0, Fraction(-3), COS, Fraction(2)))
    # canonical order sorts on (upow, erate, trig, tfreq)
    assert format_u(g) == "2·e^{-3·u}·cos(2·u) - u"


def test_format_t_folds_alpha_powers():
    # u^2 at alpha = 1/2 is 4 t
    f = expr(UTerm(1.0, 2))
    assert format_t(f, SubstMap(0.5)) == "4·t^1"
    g = expr(UTerm(1.0, 0, Fraction(-3)))
    assert format_t(g, SubstMap(0.5)) == "e^{-6·t^0.5}"


@given(uexprs)
def test_json_term_records_round_trip(f):
    # the records hold the binary64 lowering, which reads back to itself
    records = term_records(f)
    for r in records:
        assert set(r) == {"coeff", "upow", "erate", "trig", "tfreq"}
        assert all(type(r[k]) is float for k in ("coeff", "erate", "tfreq"))
    assert term_records(expr_from_records(records)) == records
    assert expr_from_records(records).float_rows == f.float_rows
    # the records read back exactly: no term holds a float
    assert all(type(x) is Fraction
               for t in expr_from_records(records).terms for x in (t.coeff, t.erate, t.tfreq))


def test_lowering_merges_rates_equal_in_binary64():
    # 9/10 and 90000000000000001/10**17 are two exact rates and one binary64
    near = Fraction("0.90000000000000001")
    f = expr(UTerm(Fraction(13, 10), erate=Fraction(9, 10)), UTerm(Fraction(-7, 10), erate=near))
    assert len(f.terms) == 2
    assert f.float_rows == ((1.3 - 0.7, 0, 0.9, 0, 0.0),)
    records = term_records(f)
    assert len(records) == 1
    assert expr_from_records(records).float_rows == f.float_rows
    assert lowered_levels(f, 3) == lowered_levels(expr_from_records(records), 3)


# Levels equal the float-term derivation (algebra_reference.lowered_levels)
# bit for bit, on rates that round to one binary64, a coefficient that
# rounds to 0, merges that cancel to exactly 0, and sin/cos alternation.
_NEAR = Fraction("0.90000000000000001")
_LEVEL_CASES = [
    expr(UTerm(Fraction(13, 10), erate=Fraction(9, 10)), UTerm(Fraction(-7, 10), erate=_NEAR)),
    expr(UTerm(Fraction(1, 10 ** 400), 2, 1), UTerm(Fraction(3, 7), 1, Fraction(-1, 3), COS, 2)),
    expr(UTerm(Fraction(1, 2), 1, Fraction(9, 10)), UTerm(Fraction(-1, 2), 1, _NEAR)),
    expr(UTerm(1, 1, -1), UTerm(1, 0, -1)),  # level 1 cancels e^{-u}
    expr(UTerm(1, 3, -1, SIN, Fraction(5, 3)), UTerm(2, 0, 0, COS, 1),
         UTerm(Fraction(-1, 3), 1, Fraction(1, 2), SIN, 1)),
]


def _assert_levels_are_the_float_term_derivation(f):
    got, want = lowered_levels(f, 17), ref.lowered_levels(f, 17)
    assert got == want
    assert [[tuple(map(type, row)) for row in level] for level in got] == \
        [[tuple(map(type, row)) for row in level] for level in want]


def test_levels_equal_the_float_term_derivation():
    rng = random.Random(26)
    for f in _LEVEL_CASES + [random_expr(rng, rng.randint(0, 8)) for _ in range(150)]:
        _assert_levels_are_the_float_term_derivation(f)
    assert lowered_levels(_LEVEL_CASES[1], 1) == [((3 / 7, 1, -1 / 3, 1, 2.0),)]
    assert lowered_levels(_LEVEL_CASES[2], 1) == [()]
    assert [len(level) for level in lowered_levels(_LEVEL_CASES[3], 3)] == [2, 1, 2]


@given(st.one_of(uexprs, colliding_term_lists().map(canonicalize)))
def test_levels_equal_the_float_term_derivation_on_drawn_expressions(f):
    _assert_levels_are_the_float_term_derivation(f)


@given(uexprs)
def test_rendering_is_deterministic(f):
    assert format_u(f) == format_u(canonicalize(f.terms))
