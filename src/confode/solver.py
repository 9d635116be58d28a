"""Closed-form solutions for sequential linear conformable equations.

Everything here works in the substituted variable ``u = t**alpha / alpha``,
where the conformable derivative acts as d/du and the equation becomes a
constant-coefficient linear ODE.  The pipeline is:

  1. characteristic roots (:mod:`confode.chareq`) -> homogeneous basis,
  2. a particular solution by exponential-shift inversion, term by term
     over the forcing (no roots, basis or determinants), worked on Gaussian
     integers,
  3. optional constant fitting against initial values.

Steps 1 and 2 are exact (resonance is an exact zero test, and the
operator applied to the particular solution gives the forcing exactly);
step 3 evaluates the binary64 rows of each expression and of its levels.
The exact steps compute on Python ints and make one
:class:`~fractions.Fraction` per number a term stores: a basis element's
coefficient and its root's two parts, each particular coefficient.  The
binary64 sums (back-substitution, the fit's defect check) add left to
right from 0 on every supported Python; CPython 3.12's builtin ``sum``
would compensate them.

The paper's variation of parameters (Wronskian and Cramer minors) is kept
in the test suite as an independent reference.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from . import ualgebra
from .chareq import CharPoly, find_roots
from .ualgebra import (
    _TRIG_NAMES,
    ZERO,
    SubstMap,
    UExpr,
    UTerm,
    _read_only,
    _term,
    add,
    canonicalize,
    expr_from_records,
    format_t,
    json_float,
    json_int,
    lowered_levels,
    scale,
    term_records,
)


class SolverError(ArithmeticError):
    """Base class for structural failures while building a solution."""


class SingularSystemError(SolverError):
    """The constant-fitting linear system was singular or unstable."""


class ProblemSpec:
    """An order-n equation: n-fold derivative + sum p_i * (i-fold) = forcing.

    The coefficients are exact rationals, as in :class:`CharPoly` (a float
    is read as the dyadic value it is).  ``coeffs``, ``alpha`` and
    ``forcing`` are read-only.
    """

    def __init__(self, coeffs: tuple[Fraction, ...], alpha: float, forcing: UExpr = ZERO):
        if len(coeffs) < 1:
            raise ValueError("equation order must be at least 1")
        poly = CharPoly(coeffs)
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if not isinstance(forcing, UExpr):
            raise TypeError("forcing must be a UExpr")
        object.__setattr__(self, "coeffs", poly.coeffs)
        object.__setattr__(self, "_poly", poly)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "forcing", forcing)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if type(other) is not ProblemSpec:
            return NotImplemented
        return ((self.coeffs, self.alpha, self.forcing)
                == (other.coeffs, other.alpha, other.forcing))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def char_poly(self) -> CharPoly:
        return self._poly


class BasisOrigin(NamedTuple):
    """Where a basis element came from: ``root``, power ``level`` and trig
    ``part`` (None for a real root, COS/SIN for a conjugate pair)."""

    root: complex
    level: int
    part: str | None


class SolutionBasis:
    """One-term ``elements`` that differ in more than their coefficients,
    and the ``origins`` their terms imply: root ``erate + i·tfreq``, level
    ``upow`` and part ``trig``.  Both are read-only.

    A root's levels come whole, as :func:`homogeneous_basis` makes them: a
    level-l element needs the level-(l-1) element of the same exact root
    and part, and a conjugate pair needs its cos and its sin element at
    every level.  Any other basis is refused, naming the root and level,
    so a rate moved in one element of a multiple root cannot pass as that
    root's.
    """

    def __init__(self, elements: tuple[UExpr, ...]):
        if not elements or any(len(e.terms) != 1 for e in elements):
            raise ValueError("'basis' needs one or more one-term elements")
        # per element (upow, erate num, erate den, trig rank, tfreq num, tfreq den)
        keys = [t._mkey for (t,) in (e.terms for e in elements)]
        held = set(keys)
        if len(held) != len(keys):
            raise ValueError("'basis' elements must differ in more than their coefficients")
        origins = tuple(BasisOrigin(complex(en / ed, fn / fd), upow, _TRIG_NAMES[rank])
                        for upow, en, ed, rank, fn, fd in keys)
        for (upow, en, ed, rank, fn, fd), o in zip(keys, origins):
            root = o.root if rank else o.root.real
            if upow and (upow - 1, en, ed, rank, fn, fd) not in held:
                raise ValueError(f"'basis' has a level-{upow} element of root {root!r} "
                                 f"but no level-{upow - 1} element")
            if rank and (upow, en, ed, 3 - rank, fn, fd) not in held:
                raise ValueError(f"'basis' has the {o.part} element of root {root!r} at "
                                 f"level {upow} but not the {_TRIG_NAMES[3 - rank]} element")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "origins", origins)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if type(other) is not SolutionBasis:
            return NotImplemented
        return self.elements == other.elements

    @property
    def n(self) -> int:
        return len(self.elements)


class GeneralSolution:
    """A problem's ``spec``, its ``basis`` of ``spec.order`` elements, the
    ``particular`` solution exactly when it is forced, and, together or not
    at all, the initial values ``ic = (t0, targets)`` (the 0..n-1-fold
    derivatives at a finite ``t0 > 0``) and the ``constants`` fitted to
    them, all read-only."""

    def __init__(self, spec: ProblemSpec, basis: SolutionBasis,
                 particular: UExpr | None = None, constants: tuple[float, ...] | None = None,
                 ic: tuple[float, tuple[float, ...]] | None = None):
        if basis.n != spec.order:
            raise ValueError(f"'basis' must hold order {spec.order} elements, got {basis.n}")
        if (particular is None) != spec.forcing.is_zero():
            raise ValueError("'particular' must be given exactly when there is forcing")
        if constants is not None and len(constants) != basis.n:
            raise ValueError("need one fitted constant per basis element")
        if (ic is None) != (constants is None):
            raise ValueError("'ic' and 'constants' must be given together")
        if ic is not None and (len(ic[1]) != spec.order or not 0.0 < ic[0] < math.inf):
            raise ValueError(f"'ic' needs a finite t0 > 0 and {spec.order} targets, got {ic}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "ic", ic)

    __setattr__ = __delattr__ = _read_only


def homogeneous_basis(spec: ProblemSpec) -> SolutionBasis:
    """n independent solutions from the characteristic roots.

    A real root r of multiplicity m contributes u^l * e^(r*u) for
    l = 0..m-1.  A conjugate pair theta +/- i*beta of multiplicity m
    contributes the real pair u^l * e^(theta*u) * cos(beta*u) and the
    matching sin element for each level; their real span equals the span
    of the complex exponentials.

    A root that landed gives its exact rate, a certified irrational root
    its binary64 value, each part as a reduced ``(num, den)``: the merge
    key's integers, so each element is built with one coefficient and the
    root's two parts.
    """
    roots = find_roots(spec.char_poly())
    elements: list[UExpr] = []
    for (root, mult), exact in zip(roots.entries, roots.exact_parts):
        if root.imag < 0:
            continue  # handled via its conjugate partner
        real, imag = exact or (root.real.as_integer_ratio(), root.imag.as_integer_ratio())
        theta, beta = Fraction(*real), Fraction(*imag)
        for level in range(mult):
            for rank in (1, 2) if imag[0] else (0,):
                elements.append(UExpr((_term(Fraction(1), level, theta, _TRIG_NAMES[rank], beta,
                                             (level, *real, rank, *imag)),)))
    return SolutionBasis(tuple(elements))


def _shift_response(poly: CharPoly, s: tuple[Fraction, Fraction],
                    k: int) -> list[tuple[int, int, int, int]]:
    """The polynomial w(u) with ``P(D)[e^(su) w(u)] = e^(su) u^k``.

    Exponential shift: ``P(D)[e^(su) w] = e^(su) P(s + D) w`` and
    ``P(s + D) = sum_j a_j D^j`` with ``a_j = P^(j)(s) / j!``.  If the first
    m coefficients are exactly zero (m is the resonance multiplicity), the
    rest form a series with a non-zero head, inverted up to degree k and
    applied to ``u^k``; m integrations then give ``w``.  Returns ``(upow,
    re, im, q)`` per term, its coefficient ``(re + i im) / q`` over the
    Gaussian rationals, not reduced.

    It runs on Gaussian integers (pairs of ints) and reduces nothing.  With
    ``s = complex(sa, sb) / d`` and ``lcd = poly.lifted[0]``, the common
    denominator of the coefficients, slot i of the synthetic division holds
    its value times ``lcd * d**i``, so each step is ``W_i += complex(sa, sb)
    * W_(i-1)`` and a slot is zero exactly when both its integers are.  The
    kept slots give ``a_(m+i) = A_i / D`` with ``A_i = W_(n-m-i) * d**i``
    and ``D = lcd * d**(n-m)``, and the inverse is ``b_i = D * B_i /
    A_0**(i+1)`` with ``B_0 = 1``, ``B_i = -sum_(l=1..i) A_l * B_(i-l) *
    A_0**(l-1)``, and the output is ``D k! B_i conj(A_0)**(i+1) /
    (|A_0|**(2i+2) (k+m-i)!)``: no :class:`~fractions.Fraction` is made.
    """
    n = poly.degree
    # Repeated synthetic division by (r - s), highest coefficient first:
    # pass j leaves a_j in slot n - j.
    d = math.lcm(s[0].denominator, s[1].denominator)
    sa, sb = s[0].numerator * (d // s[0].denominator), s[1].numerator * (d // s[1].denominator)
    # Slot i starts as lcd * d**i * c_(n-i), imaginary part zero.
    w_re = [c * d ** i for i, c in enumerate(poly.lifted)]
    w_im = [0] * (n + 1)
    kept, m = [], None  # A_0, A_1, ... and the multiplicity
    for j in range(n + 1):
        for i in range(1, n + 1 - j):
            xr, xi = w_re[i - 1], w_im[i - 1]
            w_re[i] += sa * xr - sb * xi
            w_im[i] += sa * xi + sb * xr
        slot = n - j
        if m is None:
            if not (w_re[slot] or w_im[slot]):
                continue
            m = j
        kept.append((w_re[slot] * d ** (j - m), w_im[slot] * d ** (j - m)))
        if j == m + k:
            break
    # steps[l-1] = A_l * A_0**(l-1), so that B_i = -sum_l steps[l-1] * B_(i-l).
    (hr, hi), pr, pi, steps = kept[0], 1, 0, []
    for ar, ai in kept[1:]:
        steps.append((ar * pr - ai * pi, ar * pi + ai * pr))
        pr, pi = pr * hr - pi * hi, pr * hi + pi * hr
    b_re, b_im = [1], [0]
    for i in range(1, k + 1):
        acc_re = acc_im = 0
        for l, (qr, qi) in enumerate(steps[:i], 1):
            xr, xi = b_re[i - l], b_im[i - l]
            acc_re += qr * xr - qi * xi
            acc_im += qr * xi + qi * xr
        b_re.append(-acc_re)
        b_im.append(-acc_im)
    # b_i D^i u^k integrated m times: b_i * k! / (k + m - i)! * u^(k + m - i).
    num = poly.lifted[0] * d ** (n - m) * math.factorial(k)
    norm = hr * hr + hi * hi
    cr, ci, den = num * hr, -num * hi, norm  # num * conj(A_0)**(i+1), |A_0|**(2(i+1))
    out = []
    for i, (xr, xi) in enumerate(zip(b_re, b_im)):
        out.append((k + m - i, xr * cr - xi * ci, xr * ci + xi * cr,
                    den * math.factorial(k + m - i)))
        cr, ci, den = cr * hr + ci * hi, ci * hr - cr * hi, den * norm
    return out


def particular_solution(spec: ProblemSpec) -> UExpr:
    """A particular solution by exponential-shift inversion, term by term.

    Each forcing term ``c u^k e^(au) {1 | cos(bu) | sin(bu)}`` is the real
    or imaginary part of ``c u^k e^(su)`` with ``s = a + ib``; its response
    is worked out exactly over the Gaussian rationals, and so is the
    result.  Resonant forcing (s a root of multiplicity m, tested exactly)
    picks up the ``u^m`` growth from the m-fold integration.  No roots,
    basis or determinants are involved.  The fields are canonical, so a term
    keeps its forcing term's merge key, with its own ``upow`` and trig rank;
    ``c`` multiplies the response's integers, and each stored coefficient
    is one :class:`~fractions.Fraction`.
    """
    if spec.forcing.is_zero():
        raise ValueError("particular_solution needs a non-zero forcing")
    out: list[UTerm] = []
    for term in spec.forcing.terms:
        c, a, b, trig, key = term.coeff, term.erate, term.tfreq, term.trig, term._mkey
        cn, cd = c.numerator, c.denominator
        # c (wr + i wi) / q for each response term
        for upow, wr, wi, q in _shift_response(spec.char_poly(), (a, b), term.upow):
            rkey = (upow,) + key[1:]
            out.append(_term(Fraction(cn * wr, cd * q), upow, a, trig, b, rkey))
            if trig:  # Re (cos) or Im (sin) of (wr + i wi)(cos bu + i sin bu)
                rank = 3 - key[3]
                out.append(_term(Fraction((-cn if rank == 2 else cn) * wi, cd * q), upow, a,
                                 _TRIG_NAMES[rank], b, rkey[:3] + (rank,) + rkey[4:]))
    return canonicalize(out)


def _sum_in_order(values) -> float:
    """``values`` added left to right from 0, as the builtin ``sum`` adds
    floats before CPython 3.12 (3.12 compensates them), so every supported
    Python rounds alike."""
    return reduce(operator.add, values, 0)


def _solve_linear(a: list[list[float]], b: list[float]) -> list[float] | None:
    """x with ``a x = b``, by Gaussian elimination with partial pivoting.

    None when a pivot is exactly zero; a non-finite entry comes out as a
    non-finite x.  ``a`` and ``b`` are not modified.
    """
    n = len(b)
    rows = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[pivot][k] == 0.0:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for row in rows[k + 1:]:
            f = row[k] / top[k]
            if f:
                for j in range(k + 1, n + 1):
                    row[j] -= f * top[j]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        x[k] = (row[n] - _sum_in_order(row[j] * x[j] for j in range(k + 1, n))) / row[k]
    return x


def fit_constants(sol: GeneralSolution, t0: float, targets):
    """Solve for the c_i matching the 0..n-1-fold derivative values at t0.

    Row i of the system evaluates the i-fold u-derivative levels of the
    basis elements, and of the particular solution, at ``t0``: binary64 rows
    from :func:`~confode.ualgebra.lowered_levels`, cached on each
    expression, so verify's oracle reads the same levels without deriving
    them again.
    """
    if t0 <= 0.0:
        raise ValueError(f"initial point must be positive, got {t0}")
    subst = SubstMap(sol.spec.alpha)
    n = sol.basis.n
    b = [float(v) for v in targets]
    if len(b) != n:
        raise ValueError(f"need {n} target values, got {len(b)}")
    # eval_expr is looked up on its module, where the benchmark's tracer wraps it
    columns = [lowered_levels(e, n) for e in sol.basis.elements]
    a = [[ualgebra.eval_expr(col[i], t0, subst) for col in columns] for i in range(n)]
    if sol.particular is not None:
        for i, level in enumerate(lowered_levels(sol.particular, n)):
            b[i] -= ualgebra.eval_expr(level, t0, subst)
    x = _solve_linear(a, b)
    if x is None:
        raise SingularSystemError(f"initial-condition system is singular at t0={t0}")
    defect = max(abs(_sum_in_order(map(operator.mul, row, x)) - bi) for row, bi in zip(a, b))
    bound = 1e-8 * (max(abs(aij) for row in a for aij in row) * max(abs(xj) for xj in x)
                    + max(abs(bi) for bi in b) + 1.0)
    if not all(math.isfinite(xj) for xj in x) or defect > bound:
        raise SingularSystemError(
            f"initial-condition system is numerically singular at t0={t0} "
            f"(defect {defect:.3g})")
    return tuple(x)


def solve_problem(spec: ProblemSpec, t0: float | None = None,
                  targets=None, basis: SolutionBasis | None = None) -> GeneralSolution:
    """Full pipeline: basis, particular solution, optional constant fit.

    ``basis``, when given, is the basis of an equation with the same
    coefficients (at another alpha, say), used instead of finding the roots
    again: the u-basis does not depend on alpha.
    """
    basis = basis or homogeneous_basis(spec)
    particular = None
    if not spec.forcing.is_zero():
        particular = particular_solution(spec)
    sol = GeneralSolution(spec, basis, particular)
    if targets is not None:
        if t0 is None:
            raise ValueError("initial conditions need a base point t0")
        sol = GeneralSolution(spec, basis, particular,
                              fit_constants(sol, t0, targets), (t0, tuple(targets)))
    return sol


def format_solution(sol: GeneralSolution) -> str:
    """Human-readable y(t) with alpha substituted into the exponents."""
    subst = SubstMap(sol.spec.alpha)
    if sol.constants is not None:
        combo = sol.particular if sol.particular is not None else ZERO
        for c, y in zip(sol.constants, sol.basis.elements):
            combo = add(combo, scale(y, c))
        return "y(t) = " + format_t(combo, subst)
    parts = [f"c{i + 1}·{format_t(e, subst)}"
             for i, e in enumerate(sol.basis.elements)]
    body = " + ".join(parts)
    if sol.particular is not None:
        ptxt = format_t(sol.particular, subst)
        if len(sol.particular.terms) > 1 or ptxt.startswith("-"):
            ptxt = f"({ptxt})"
        body += " + " + ptxt
    return "y(t) = " + body


def solution_to_doc(sol: GeneralSolution) -> dict:
    """JSON-ready document; see README for the schema."""
    return {
        "alpha": sol.spec.alpha,
        "order": sol.spec.order,
        "coeffs": [float(c) for c in sol.spec.coeffs],
        "forcing": term_records(sol.spec.forcing),
        "basis": [term_records(e) for e in sol.basis.elements],
        "origins": [
            {"root": [o.root.real, o.root.imag], "level": o.level, "part": o.part}
            for o in sol.basis.origins
        ],
        "particular": None if sol.particular is None else term_records(sol.particular),
        "constants": None if sol.constants is None else list(sol.constants),
        "ic": None if sol.ic is None else {"t0": sol.ic[0], "targets": list(sol.ic[1])},
    }


def _finite(value, key: str) -> float:
    if not math.isfinite(x := json_float(value, key)):
        raise ValueError(f"{x!r} is not finite")
    return x


def solution_from_doc(doc) -> GeneralSolution:
    """Rebuild a GeneralSolution from its JSON document.

    Each float is read as its dyadic value, and must be a JSON number
    (``"0.5"`` or ``true`` is refused); ``order``, each record's ``upow``
    and each origin's ``level`` must be JSON integers (``2.0`` or ``true``
    is refused).  A document that is not an object, lacks a
    required key, or holds a value of the wrong shape or a non-finite number
    (json reads ``NaN``) raises ValueError naming the key.
    ``particular``, ``constants`` and ``ic`` may be absent or null.  A
    document that is not a general solution raises too (the records refuse
    it, so fitted ``constants`` without their ``ic`` name ``'ic'``), as does
    an ``order`` other than the number of coefficients, or ``origins``
    other than the ones the basis terms imply: root ``(erate, tfreq)``,
    level ``upow``, part ``trig``.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"a solution document must be a JSON object, got {type(doc).__name__}")

    def field(key, convert, required=True):
        if key not in doc:
            if required:
                raise ValueError(f"solution document lacks the key {key!r}")
            return None
        if not required and doc[key] is None:
            return None
        try:
            return convert(doc[key])
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as err:
            detail = f"missing {err.args[0]!r}" if isinstance(err, KeyError) else str(err)
            raise ValueError(f"solution document key {key!r} is ill-typed ({detail})") from err

    def origin(o):
        return BasisOrigin(complex(*(_finite(x, "root") for x in o["root"])),
                           json_int(o["level"], "level"), o["part"])

    coeffs = field("coeffs", lambda v: tuple(Fraction(json_float(c, "coeffs")) for c in v))
    alpha = field("alpha", lambda v: _finite(v, "alpha"))
    forcing = field("forcing", expr_from_records)
    spec = ProblemSpec(coeffs, alpha, forcing)
    order = field("order", lambda v: json_int(v, "order"))
    if order != spec.order:
        raise ValueError(f"order field {order} does not match {spec.order} coefficients")
    basis = SolutionBasis(field("basis", lambda v: tuple(expr_from_records(r) for r in v)))
    if field("origins", lambda v: tuple(origin(o) for o in v)) != basis.origins:
        raise ValueError("solution document key 'origins' differs from the roots, levels "
                         "and parts of the basis elements")
    particular = field("particular", expr_from_records, required=False)
    constants = field("constants", lambda v: tuple(_finite(c, "constants") for c in v),
                      required=False)
    ic = field("ic", lambda v: (_finite(v["t0"], "t0"),
                                tuple(_finite(x, "targets") for x in v["targets"])),
               required=False)
    return GeneralSolution(spec, basis, particular, constants, ic)
