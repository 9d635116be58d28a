import math
from fractions import Fraction

import numpy as np
import pytest
import roots_reference
from hypothesis import assume, given
from hypothesis import strategies as st
from roots_reference import eval_poly, eval_poly_deriv, full

import confode.chareq as chareq
from confode.chareq import CharPoly, RootFindingError, RootSet, find_roots


def reconstruct_coeffs(rs: RootSet) -> np.ndarray:
    """Expand the product of (r - root)^mult; highest-first real
    coefficients (imaginary dust from float expansion is discarded, the
    set being conjugate-closed)."""
    c = np.array([1.0 + 0.0j])
    for z, m in rs.entries:
        for _ in range(m):
            c = np.convolve(c, np.array([1.0, -z]))
    return c.real


def entries(p_coeffs):
    return find_roots(CharPoly(p_coeffs)).entries


def test_charpoly_validation():
    with pytest.raises(ValueError):
        CharPoly(())
    assert CharPoly((3, 4)).degree == 2
    assert full(CharPoly((3, 4))) == [1.0, 4.0, 3.0]


def test_eval_poly_horner():
    p = CharPoly((3.0, 4.0))  # r^2 + 4r + 3
    assert eval_poly(p, 0.0) == 3.0
    assert eval_poly(p, -1.0) == 0.0
    assert eval_poly(p, 2.0) == 15.0
    assert eval_poly(p, 1j) == (2 + 4j)


def test_eval_poly_deriv():
    p = CharPoly((3.0, 4.0))
    assert eval_poly_deriv(p, 2.0, 0) == 15.0
    assert eval_poly_deriv(p, 2.0, 1) == 8.0   # 2r + 4
    assert eval_poly_deriv(p, 2.0, 2) == 2.0
    assert eval_poly_deriv(p, 2.0, 3) == 0.0
    assert eval_poly_deriv(p, 2.0, 7) == 0.0


# --- worked root sets ------------------------------------------------------

def test_two_simple_real_roots():
    got = entries((3.0, 4.0))
    assert len(got) == 2
    (z1, m1), (z2, m2) = got
    assert (m1, m2) == (1, 1)
    assert z1 == pytest.approx(-3.0, abs=1e-12)
    assert z2 == pytest.approx(-1.0, abs=1e-12)


def test_double_root():
    got = entries((25.0, -10.0))
    assert got == ((5.0 + 0.0j, 2),)


def test_complex_pair():
    got = entries((1.0, 1.0))
    s3 = math.sqrt(3.0) / 2.0
    assert len(got) == 2
    assert got[0][0] == got[1][0].conjugate()
    top = got[1][0]
    assert top.real == pytest.approx(-0.5, abs=1e-12)
    assert top.imag == pytest.approx(s3, abs=1e-12)


def test_triple_root():
    # (r - 1)^3 = r^3 - 3 r^2 + 3 r - 1
    got = entries((-1.0, 3.0, -3.0))
    assert got == ((1.0 + 0.0j, 3),)


def test_degree_one():
    assert entries((5.0,)) == ((-5.0 + 0.0j, 1),)


def test_double_complex_pair():
    # (r^2 + 1)^2
    got = entries((1.0, 0.0, 2.0, 0.0))
    assert got == ((-1j, 2), (1j, 2))


def test_nonconvergence_is_reported(monkeypatch):
    monkeypatch.setattr(chareq, "ABERTH_MAX_ITER", 0)
    with pytest.raises(RootFindingError) as err:
        find_roots(CharPoly((3.0, 4.0)))
    assert "r^2" in str(err.value)


def test_an_update_that_lands_on_another_point_is_nudged(monkeypatch):
    # From the start (2, -2), the first update of 2 for r^2 + 4 lands exactly
    # on -2, every step dyadic: 2 - (8/4) / (1 - (8/4) / (2 - -2)) = -2.
    # Unnudged, the next repulsion would divide by a zero difference.
    monkeypatch.setattr(chareq, "_start", lambda n, radius: [2 + 0j, -2 + 0j])
    z = sorted(chareq._aberth([1.0, 0.0, 4.0]), key=lambda w: w.imag)
    assert abs(z[0] + 2j) <= 1e-12 and abs(z[1] - 2j) <= 1e-12, z


# --- invariants ------------------------------------------------------------

def _mult_consistency(p: CharPoly, rs: RootSet):
    scale = max([1.0] + [abs(c) for c in p.coeffs])
    for z, m in rs.entries:
        for j in range(m):
            assert abs(eval_poly_deriv(p, z, j)) < 1e-6 * scale, (p, z, m, j)
        assert abs(eval_poly_deriv(p, z, m)) > 1e-3 * scale, (p, z, m)


@pytest.mark.parametrize("coeffs", [
    (3.0, 4.0), (25.0, -10.0), (1.0, 1.0), (-1.0, 3.0, -3.0),
    (1.0, 0.0, 2.0, 0.0), (5.0,),
])
def test_multiplicity_consistency(coeffs):
    p = CharPoly(coeffs)
    _mult_consistency(p, find_roots(p))


coeff_lists = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5)


def mpmath_roots(p: CharPoly) -> list[complex]:
    """p's roots to 50 digits, by mpmath, rounded to complex."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in full(p)]
        return [complex(z) for z in mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)]


def roots_or_refusal(p: CharPoly) -> RootSet | None:
    """find_roots(p), or None when it refuses.  A refusal is correct only
    when mpmath shows two roots within 1e-6·(1 + |z|) of each other (such as
    those of r^2 + 5e-324), which no inclusion disc can tell apart."""
    try:
        return find_roots(p)
    except RootFindingError:
        zs = mpmath_roots(p)
        assert any(abs(a - b) <= 1e-6 * (1.0 + abs(a))
                   for i, a in enumerate(zs) for b in zs[i + 1:]), (p, zs)
        return None


@given(coeff_lists)
def test_random_polys_resolve_and_reconstruct(coeffs):
    p = CharPoly(tuple(coeffs))
    rs = roots_or_refusal(p)
    if rs is None:
        return
    assert rs.total_multiplicity == p.degree
    # conjugate closure is exact
    as_set = {(z.real, z.imag, m) for z, m in rs.entries}
    for z, m in rs.entries:
        assert (z.real, -z.imag, m) in as_set
    # sorted deterministically
    keys = [(z.real, z.imag) for z, _ in rs.entries]
    assert keys == sorted(keys)
    recon = reconstruct_coeffs(rs)
    want = np.array([float(c) for c in full(p)])
    assert np.max(np.abs(recon - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def planted_decimal_root_sets():
    """40 random root sets of degree <= 6 with multiplicities <= 3, each
    root's parts decimals with two places, pairwise at least 0.15 apart."""
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        roots: list[tuple[complex, int]] = []
        degree = 0
        while degree < 6:
            m = int(rng.integers(1, 4))
            if degree + m > 6:
                break
            if rng.random() < 0.5:
                z = complex(round(rng.uniform(-3, 3), 2), 0.0)
                need = m
            else:
                z = complex(round(rng.uniform(-2, 2), 2), round(rng.uniform(0.2, 2), 2))
                need = 2 * m
            if degree + need > 6:
                continue
            if any(abs(z - w) < 0.15 or abs(z - w.conjugate()) < 0.15 for w, _ in roots):
                continue
            roots.append((z, m))
            degree += need
        yield roots


def test_reconstruction_from_planted_root_sets():
    # planted exactly, every root is rational or Gaussian-rational, so it
    # comes back as the binary64 value nearest it with its multiplicity
    for roots in planted_decimal_root_sets():
        planted = [(Fraction(str(z.real)), Fraction(str(z.imag)), m) for z, m in roots]
        p = CharPoly(tuple(reversed(expand(planted)[1:])))
        assert find_roots(p).entries == planted_entries(planted), planted


@pytest.mark.parametrize("root", ["0.1", "-1.3", "2.7"])
def test_binary64_expansion_of_a_decimal_triple_root_is_refused(root):
    # (r - x)^3 expanded in binary64 from the float x nearest the decimal:
    # rounding splits the triple root into simple roots about eps^(1/3)
    # apart, too close for their inclusion discs to separate
    full = np.array([1.0])
    for _ in range(3):
        full = np.convolve(full, np.array([1.0, -float(root)]))
    with pytest.raises(RootFindingError, match="cannot separate"):
        find_roots(CharPoly(tuple(full[1:][::-1])))


def test_root_records_shape():
    rs = find_roots(CharPoly((1.0, 1.0)))
    recs = [{"re": z.real, "im": z.imag, "mult": m} for z, m in rs.entries]
    assert recs == sorted(recs, key=lambda r: (r["re"], r["im"]))
    assert all(set(r) == {"re", "im", "mult"} for r in recs)


# --- exact roots -------------------------------------------------------------
#
# Every root below is dyadic, and every coefficient of its expansion is a
# binary64 value, so find_roots must return the planted set exactly.


def expand(planted) -> list[Fraction]:
    """Highest-first exact coefficients of the product over (re, im, mult)
    entries of (r - re)^mult, or of (r^2 - 2 re r + re^2 + im^2)^mult."""
    poly = [Fraction(1)]
    for re, im, m in planted:
        factor = [Fraction(1), -re] if im == 0 else [Fraction(1), -2 * re, re * re + im * im]
        for _ in range(m):
            out = [Fraction(0)] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
    return poly


def float_exact(poly) -> bool:
    return all(Fraction(float(c)) == c for c in poly)


def planted_poly(planted) -> CharPoly:
    return CharPoly(tuple(float(c) for c in reversed(expand(planted)[1:])))


def planted_entries(planted):
    out = []
    for re, im, m in planted:
        out.append((complex(float(re), float(im)), m))
        if im:
            out.append((complex(float(re), -float(im)), m))
    return tuple(sorted(out, key=lambda e: (e[0].real, e[0].imag)))


def dyadic(lo, hi):
    """k/d with d in {1, 2, 4, 16} and lo <= k/d <= hi."""
    return st.sampled_from((1, 2, 4, 16)).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda k: Fraction(k, d)))


planted_sets = st.lists(
    st.one_of(
        st.tuples(dyadic(-8, 8), st.just(Fraction(0)), st.integers(1, 5)),
        st.tuples(dyadic(-8, 8), dyadic(0, 8).filter(bool), st.integers(1, 5))),
    min_size=1, max_size=8, unique_by=lambda e: (e[0], e[1]),
).filter(lambda ps: sum((2 if im else 1) * m for _, im, m in ps) <= 16
         ).filter(lambda ps: float_exact(expand(ps)))


@given(planted_sets)
def test_planted_dyadic_roots_come_back_exactly(planted):
    assert find_roots(planted_poly(planted)).entries == planted_entries(planted)


def real_roots(*roots, mult=1):
    return [(Fraction(r), Fraction(0), mult) for r in roots]


def test_squarefree_factors_carry_exact_multiplicities():
    # (r + 1)^3 (r - 2)^2 (r^2 + 1), lifted to integers
    planted = real_roots(-1, mult=3) + real_roots(2, mult=2) + [(Fraction(0), Fraction(1), 1)]
    f = [int(c) for c in expand(planted)]
    assert chareq._squarefree_factors(f) == [([1, 0, 1], 1), ([1, -2], 2), ([1, 1], 3)]
    assert chareq._squarefree_factors([1, 0, 1]) == [([1, 0, 1], 1)]


def test_non_finite_coefficients_are_reported():
    with pytest.raises(RootFindingError, match="non-finite"):
        find_roots(CharPoly((math.inf, 1.0)))
    with pytest.raises(RootFindingError, match="non-finite"):
        find_roots(CharPoly((math.nan,)))


@pytest.mark.parametrize("coeffs", [
    (Fraction("1e-400"), Fraction(2)),  # underflows to 0.0
    (Fraction("0.1"), Fraction(1, 3), Fraction(-7, 6)),
    (Fraction(3, 10**400), Fraction(10**300, 7)),  # a small and a large denominator
    (0.1, -2.5, 1e300),
], ids=["underflow", "decimals", "wide-denominators", "floats"])
def test_charpoly_lowers_the_lifted_form_per_coefficient(coeffs):
    p = CharPoly(coeffs)
    den = p.lifted[0]
    assert full(p) == [Fraction(c, den) for c in p.lifted]
    assert math.gcd(*p.lifted) == 1  # the least integer multiple
    # int / int rounds correctly, so the lifted form gives each coefficient's
    # own binary64 value
    assert p._lowered == [1.0] + [c.numerator / c.denominator for c in reversed(p.coeffs)]


@pytest.mark.parametrize("coeffs", [(Fraction(10) ** 400,), (Fraction(1, 3), -Fraction(10) ** 309)],
                         ids=["integer", "beside-a-fraction"])
def test_coefficient_beyond_binary64_is_reported(coeffs):
    with pytest.raises(RootFindingError) as err:
        CharPoly(coeffs)
    assert str(err.value) == (
        "non-finite coefficient in binary64 (integer division result too large for a float)")


@pytest.mark.parametrize("planted", [
    real_roots(-1, mult=4),
    real_roots(-1, mult=5),
    real_roots(*range(-12, 0)),
    real_roots(-2, mult=3) + real_roots(Fraction(-5, 2), mult=2),
    real_roots(*(Fraction(-k, 2) for k in range(1, 13))),
    real_roots(*(Fraction(-k, 4) for k in range(1, 15))),
], ids=["(r+1)^4", "(r+1)^5", "-1..-12", "(r+2)^3 (r+5/2)^2", "-1/2..-6", "-1/4..-7/2"])
def test_planted_regressions_come_back_exactly(planted):
    assert float_exact(expand(planted))
    assert find_roots(planted_poly(planted)).entries == planted_entries(planted)


START_CIRCLE = pytest.mark.xfail(strict=True, raises=RootFindingError, reason=(
    "the start circle: Aberth starts every root on one circle of radius "
    "1 + max|p_i| (about 2e13 for N = 16), far outside -1..-N, and does not "
    "converge within ABERTH_MAX_ITER sweeps; a Newton-polygon start would fix it"))


@pytest.mark.parametrize("n", [15, *(pytest.param(n, marks=START_CIRCLE) for n in (16, 17, 18))])
def test_consecutive_integer_roots_come_back_exactly(n):
    planted = real_roots(*range(-n, 0))
    p = CharPoly(tuple(reversed(expand(planted)[1:])))
    assert find_roots(p).entries == planted_entries(planted)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_certified_roots_are_within_two_ulps_of_mpmath(n):
    # r^n + 3r + 1 has no rational root and no repeated factor, so every
    # root is certified; each part lies within 2 ulps of the true root's
    mpmath = pytest.importorskip("mpmath")
    rs = find_roots(CharPoly((1, 3) + (0,) * (n - 2)))
    assert rs.exact_parts == (None,) * n
    with mpmath.workdps(50):
        want = [mpmath.mpc(w) for w in mpmath.polyroots(
            [1] + [0] * (n - 2) + [3, 1], maxsteps=400, extraprec=400)]
        for z, m in rs.entries:  # one to one: each root has its own partner
            w = min(want, key=lambda w: abs(w - z))
            want.remove(w)
            assert m == 1
            for got, part in ((z.real, w.real), (z.imag, w.imag)):
                assert abs(got - part) <= 2 * math.ulp(float(part)), (z, w)


def test_close_simple_roots_are_certified_apart():
    # (r^2 - 2)(r^2 - 2 - 2^-20): four simple real roots, two pairs 3.4e-7
    # apart, which float clustering used to merge into two double roots
    e = Fraction(1, 2**20)
    p = CharPoly((4 + 2 * e, 0, -4 - e, 0))
    rs = find_roots(p)
    assert [(z.imag, m) for z, m in rs.entries] == [(0.0, 1)] * 4
    want = sorted(mpmath_roots(p), key=lambda w: w.real)
    for (z, _), w in zip(rs.entries, want):
        assert abs(z - w) <= 1e-9, (z, w)


@pytest.mark.parametrize("coeffs", [
    (4 + Fraction(2, 2**27), 0, -4 - Fraction(1, 2**27), 0),
    (1e-300, 0.0),
    (1e300, 1.0),
], ids=["(r^2-2)(r^2-2-2^-27)", "r^2+1e-300", "r^2+r+1e300"])
def test_roots_without_separating_discs_are_refused(coeffs):
    with pytest.raises(RootFindingError):
        find_roots(CharPoly(coeffs))


def test_describe_names_the_coefficients_exactly():
    p = CharPoly((4 + Fraction(2, 2**27), 0, -4 - Fraction(1, 2**27), 0))
    assert p.describe() == "r^4 - 4.000000007450581·r^2 + 4.000000014901161"
    with pytest.raises(RootFindingError, match="4.000000007450581"):
        find_roots(p)
    assert CharPoly((Fraction(1, 10), 2, 0)).describe() == "r^3 + 2·r + 0.1"


def has_exact_structure(p: CharPoly) -> bool:
    """Whether p has a repeated factor, a rational root or a
    Gaussian-rational root, decided over Q by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(*c.as_integer_ratio()) for c in full(p)], x,
                      domain="QQ")
    for factor, mult in poly.factor_list()[1]:
        if mult > 1 or factor.degree() == 1:
            return True
        if factor.degree() == 2:
            a, b, c = factor.all_coeffs()
            disc = b * b - 4 * a * c
            if disc < 0 and sympy.sqrt(-disc).is_rational:
                return True
    return False


@given(coeff_lists)
def test_inexact_inputs_keep_the_float_pipeline(coeffs):
    # no exact root, so every root is a certified simple root
    p = CharPoly(tuple(coeffs))
    assume(not has_exact_structure(p))
    rs = roots_or_refusal(p)
    if rs is None:
        return
    want = mpmath_roots(p)
    for z, m in rs.entries:  # one to one: each root has its own partner
        assert m == 1
        w = min(want, key=lambda w: abs(w - z))
        assert abs(w - z) <= 1e-9 * (1.0 + abs(z)), (p, z, w)
        want.remove(w)


separated_roots = st.lists(
    st.one_of(
        st.tuples(st.floats(-3.0, 3.0), st.just(0.0)),
        st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 3.0))),
    min_size=1, max_size=5,
).map(lambda pairs: [complex(re, s * im) for re, im in pairs for s in ((1, -1) if im else (1,))]
      ).filter(lambda zs: len(zs) >= 2 and all(
          abs(a - b) > 1e-3 for i, a in enumerate(zs) for b in zs[i + 1:]))


@given(separated_roots)
def test_aberth_matches_the_numpy_reference(roots):
    planted = [(Fraction(z.real), Fraction(abs(z.imag)), 1) for z in roots if z.imag >= 0]
    p = CharPoly(tuple(float(c) for c in reversed(expand(planted)[1:])))
    assume(len(chareq._squarefree_factors(p.lifted)) == 1)
    floats = [float(c) for c in full(p)]
    got = chareq._aberth(floats)
    want = list(roots_reference._aberth(floats))
    assert len(got) == len(want) == p.degree
    for z in got:  # one to one: each approximation has its own partner
        w = min(want, key=lambda w: abs(w - z))
        # Either iteration may stop anywhere |p| is below the noise floor,
        # about floor / |p'| from the root: tight clusters widen that radius.
        frozen = chareq._noise_floor([abs(c) for c in floats], z) / abs(eval_poly_deriv(p, z))
        assert abs(w - z) <= 1e-9 * (1.0 + abs(z)) + 2.0 * frozen, (p, z, w)
        want.remove(w)
