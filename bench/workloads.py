"""Seeded workload generators for the confode benchmark.

Every case is planted: the generator picks characteristic roots with their
multiplicities, expands them with exact rational arithmetic into the
equation text, and keeps the planted roots so the checker can compare the
program's answer against them.  Real and imaginary parts are multiples of
1/2 (of 1/16 in the close clusters), so every coefficient is a dyadic rational that both the text and a
binary64 float hold exactly; the only inexact inputs are the decimal roots
a case plants on purpose (resonant with a decimal alpha).

Each workload is a stream of batches (see the workloads section below).
The shape of a batch (orders, families, term counts, alphas) is the same for
every seed and batch, so two runs load the same layers by the same amounts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ALPHAS = (0.3, 0.5, 0.7, 1.0)


@dataclass(frozen=True)
class EquationCase:
    """One equation to solve and verify, with its planted roots."""

    label: str
    source: str
    alpha: float
    roots: tuple[tuple[complex, int], ...]
    ic: tuple[float, tuple[float, ...]] | None = None
    known_defect: str | None = None


@dataclass(frozen=True)
class RootsCase:
    """A monic polynomial (lower coefficients p_0..p_{n-1}) with planted roots."""

    label: str
    coeffs: tuple[float, ...]
    roots: tuple[tuple[complex, int], ...]
    known_defect: str | None = None


@dataclass(frozen=True)
class CliCase:
    """One ``confode`` process; ``pipe`` feeds it the previous case's stdout."""

    label: str
    argv: tuple[str, ...]
    equation: EquationCase
    pipe: bool = False
    known_defect: str | None = None

    def sample_points(self) -> list[float]:
        """The t values ``confode sample --range lo:hi:count`` prints, in order."""
        lo, hi, count = self.argv[self.argv.index("--range") + 1].split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        step = (hi - lo) / (count - 1)
        return [hi if i == count - 1 else lo + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# exact expansion and text


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expand(planted) -> list[Fraction]:
    """Monic coefficients, highest first, of prod (r - z)^m.

    ``planted`` holds (re, im, m) with exact rationals; an entry with
    im > 0 stands for the conjugate pair re +/- i*im.
    """
    poly = [Fraction(1)]
    for re, im, m in planted:
        factor = [Fraction(1), -re] if im == 0 else [Fraction(1), -2 * re, re * re + im * im]
        for _ in range(m):
            poly = _polymul(poly, factor)
    return poly


def root_list(planted) -> tuple[tuple[complex, int], ...]:
    """Planted roots as (complex, multiplicity), conjugates listed apart."""
    out = []
    for re, im, m in planted:
        out.append((complex(re, im), m))
        if im:
            out.append((complex(re, -im), m))
    return tuple(sorted(out, key=lambda e: (e[0].real, e[0].imag)))


def decimal(x: Fraction) -> str:
    """Exact decimal text of a rational whose denominator is 2^a * 5^b."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    digits = 0
    while (x * 10 ** digits).denominator != 1:
        digits += 1
        if digits > 60:
            raise ValueError(f"{x} has no finite decimal expansion")
    whole = x * 10 ** digits
    text = str(whole.numerator)
    if digits:
        text = text.rjust(digits + 1, "0")
        text = text[:-digits] + "." + text[-digits:]
    return sign + text


def equation_text(poly: list[Fraction], forcing: str) -> str:
    n = len(poly) - 1
    parts = ["T y" if n == 1 else f"T{n} y"]
    for i, c in enumerate(poly[1:], 1):
        if c == 0:
            continue
        k = n - i
        sym = "y" if k == 0 else "T y" if k == 1 else f"T{k} y"
        mag = "" if abs(c) == 1 else decimal(abs(c)) + " "
        parts.append(("- " if c < 0 else "+ ") + mag + sym)
    return " ".join(parts) + " = " + forcing


def _factors(coeff: Fraction, upow: int, rate: Fraction, trig: str | None,
             freq: int) -> list[str]:
    """Factors of ``coeff * t^(upow a) * exp(rate t^a) * trig(freq t^a)``."""
    factors = []
    if abs(coeff) != 1 or (upow == 0 and rate == 0 and trig is None):
        factors.append(decimal(abs(coeff)))
    if upow:
        factors.append("t^a" if upow == 1 else f"t^({upow} a)")
    if rate:
        factors.append(f"exp({decimal(rate)} t^a)")
    if trig:
        factors.append(f"{trig}({freq} t^a)")
    return factors


def forcing_text(terms) -> str:
    """Join (coeff, upow, rate, trig, freq) tuples into forcing text."""
    out = ""
    for coeff, upow, rate, trig, freq in terms:
        body = " * ".join(_factors(coeff, upow, rate, trig, freq))
        if not out:
            out = ("-" if coeff < 0 else "") + body
        else:
            out += (" - " if coeff < 0 else " + ") + body
    return out


def _exact_floats(poly) -> bool:
    return all(Fraction(float(c)) == c for c in poly)


def _resonates(rate: Fraction, freq: int, alpha: float, planted, gap: float = 0.25) -> bool:
    """Whether exp(rate t^a) * trig(freq t^a), lowered to u (rate*alpha,
    freq*alpha), lies within ``gap`` of a planted root.  Near-resonant
    forcing has a legitimately large particular solution, which the
    cancellation check cannot tell from a wrong one, so unplanted terms keep
    this distance."""
    z = complex(float(rate) * alpha, freq * alpha)
    return any(abs(z - complex(r, i)) < gap for r, i, _ in planted)


# ---------------------------------------------------------------------------
# root families


def _halves(rng, lo, hi, count, avoid=()):
    pool = [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]
    pool = [z for z in pool if z not in avoid]
    return rng.sample(pool, count)


def _pairs(rng, count):
    seen, out = set(), []
    while len(out) < count:
        re, im = Fraction(rng.randint(-6, 2), 2), Fraction(rng.randint(1, 2))
        if (re, im) not in seen:
            seen.add((re, im))
            out.append((re, im, 1))
    return out


def plant(rng, family: str, n: int):
    """(re, im, m) entries of one of the four root families, degree n."""
    if family == "real":
        return [(z, Fraction(0), 1) for z in _halves(rng, -8, 3, n)]
    if family == "repeated":
        mults = []
        while sum(mults) < n:
            mults.append(min(rng.choice((2, 3)) if not mults else rng.randint(1, 3),
                             n - sum(mults)))
        return [(z, Fraction(0), m) for z, m in zip(_halves(rng, -8, 3, len(mults)), mults)]
    if family == "complex":
        out = _pairs(rng, n // 2)
        if n % 2:
            out += [(z, Fraction(0), 1) for z in _halves(rng, -6, 2, 1)]
        return out
    if family == "mixed":
        out = _pairs(rng, 1)
        if n >= 4:
            out += [(z, Fraction(0), 2) for z in _halves(rng, -6, 2, 1)]
        rest = n - sum((2 if im else 1) * m for _, im, m in out)
        avoid = {re for re, im, _ in out if im == 0}
        out += [(z, Fraction(0), 1) for z in _halves(rng, -8, 3, rest, avoid)]
        return out
    raise ValueError(f"unknown root family {family!r}")


def planted_poly(rng, family: str, n: int):
    while True:
        planted = plant(rng, family, n)
        poly = expand(planted)
        if _exact_floats(poly):
            return planted, poly


# ---------------------------------------------------------------------------
# workloads
#
# A workload is an endless, deterministic stream of batches: batch b of seed
# s is built from its own generator, so the same (seed, batch) always gives
# the same cases.  A run takes the first few batches of its seed
# (RUN_BATCHES in run.py), so it averages over many distinct inputs, which
# keeps one run's percentiles close to the next run's, and its failure count
# does not depend on how many operations the time allowed.

FAMILIES = ("real", "repeated", "complex", "mixed")

#: The all-complex family stops at order 7: at order 8 one solve takes 1-2 s
#: and at order 10 5-9 s on a 2-core x86_64 host, which would leave a 20 s run
#: too few operations for a 90th percentile.  Higher orders still meet
#: complex pairs in the mixed family.
COMPLEX_MAX_ORDER = 7

#: Seed of the root patterns and forcing shapes.  The Laplace/Cramer solve
#: at order n costs 2-4x more or less depending on how many subset sums of
#: the roots coincide, and whether a repeated-root basis raises
#: WronskianError depends on the float dust of its roots; with roots drawn
#: per batch, the p50 of one run differed from the next by 20%.  So the
#: patterns are fixed.  order-sweep uses them as they are and draws only the
#: forcing values and initial values per batch; forcing-sweep, whose orders
#: are too low for either effect, shifts each pattern by a per-batch offset.
PATTERN_SEED = 2016

ORDER10_DEFECT = ("order 10 with roots -1..-10 fails the default verify "
                  "tolerance (ROADMAP item 3)")
RESONANCE_DEFECT = ("resonance on a root the float pipeline does not reproduce exactly "
                    "(a decimal root, or any root of a polynomial with multiple or "
                    "complex roots): the particular solution balances only by "
                    "cancellation (ROADMAP items 3 and 4)")
MULTIPLICITY_DEFECT = "multiplicity >= 4 (ROADMAP item 3)"
HIGH_DEGREE_DEFECT = ("degree >= 10: distinct roots merge into a false multiple root or "
                      "the iteration stalls, as with roots -1..-12 and -1..-16 "
                      "(ROADMAP item 3)")

#: Degree from which planted polynomials hit HIGH_DEGREE_DEFECT: clusters
#: 1/16 apart merge in about 5% of draws at degree 10, any family at 11.
HIGH_DEGREE = 10


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{batch}")


def _shift(rng, pattern):
    """The pattern moved by a random multiple of 1/2 in [-1, 1/2] (which
    keeps every coincidence among its roots), with coefficients that
    binary64 holds exactly."""
    while True:
        shift = Fraction(rng.randint(-2, 1), 2)
        planted = [(re + shift, im, m) for re, im, m in pattern]
        poly = expand(planted)
        if _exact_floats(poly):
            return planted, poly


RATES = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def _term(rng, shape, alpha, planted):
    """A forcing term of the given (upow, has exp, has trig) shape whose
    rate and frequency stay away from every planted root.

    When every rate and frequency of the shape is near a root (a pure power
    resonates with a root at 0), the term gains an exp factor, then a trig
    factor, whichever it lacks.
    """
    upow, has_exp, has_trig = shape
    for has_exp, has_trig in ((has_exp, has_trig), (True, has_trig), (True, True)):
        combos = [(rate, freq) for rate in (RATES if has_exp else (Fraction(0),))
                  for freq in ((1, 2, 3) if has_trig else (0,))]
        rng.shuffle(combos)
        for rate, freq in combos:
            if not _resonates(rate, freq, alpha, planted):
                return (rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 2),
                                    Fraction(-2))),
                        upow, rate, rng.choice(("sin", "cos")) if has_trig else None, freq)
    raise ValueError(f"no non-resonant forcing term for roots {planted}")


def _ic(rng, n):
    return (1.0, tuple(rng.randint(-100, 100) / 100 for _ in range(n)))


def order_sweep(seed: int, batch: int) -> list[EquationCase]:
    """Orders 2-10 in four root families, two forcing terms, fitted ICs."""
    patterns = random.Random(PATTERN_SEED)
    rng = _rng("order-sweep", seed, batch)
    cases = []
    for n in range(2, 11):
        for fi, family in enumerate(FAMILIES):
            if family == "complex" and n > COMPLEX_MAX_ORDER:
                continue
            alpha = ALPHAS[(n + fi) % len(ALPHAS)]
            planted, poly = planted_poly(patterns, family, n)
            terms = [_term(rng, (1 + (n + fi) % 2, True, False), alpha, planted),
                     _term(rng, (0, False, True), alpha, planted)]
            cases.append(EquationCase(f"n={n} {family} alpha={alpha}",
                                      equation_text(poly, forcing_text(terms)), alpha,
                                      root_list(planted), _ic(rng, n)))
    planted = [(Fraction(-k), Fraction(0), 1) for k in range(1, 11)]
    cases.append(EquationCase(
        "n=10 roots -1..-10 (reference)",
        equation_text(expand(planted), "t^(2 a) * exp(t^a) + sin(2 t^a)"), 0.5,
        root_list(planted), known_defect=ORDER10_DEFECT))
    return cases


def forcing_sweep(seed: int, batch: int) -> list[EquationCase]:
    """Orders 1-4 with 1-8 forcing terms; a third of them resonant.

    A resonant slot at dyadic alpha puts its first term exactly on a
    planted root; at decimal alpha it plants the decimal root c*alpha.  The
    float pipeline reproduces a dyadic root exactly only when every root is
    simple and real, so resonance in any other family is the known
    RESONANCE_DEFECT.
    """
    patterns = random.Random(PATTERN_SEED)
    rng = _rng("forcing-sweep", seed, batch)
    cases = []
    for k in range(1, 9):
        for n in range(1, 5):
            alpha = ALPHAS[(k + 2 * n) % len(ALPHAS)]
            resonant = (k + n) % 3 == 0
            decimal_alpha = Fraction(alpha).denominator not in (1, 2)
            family = "real" if n == 1 or (resonant and decimal_alpha) \
                else FAMILIES[(k + n) % len(FAMILIES)]
            pattern, _ = planted_poly(patterns, family, n)
            shapes = [(patterns.randint(0, 2), patterns.random() < 0.6, patterns.random() < 0.5)
                      for _ in range(k)]
            planted, poly = _shift(rng, pattern)
            defect = None
            terms = []
            if resonant and decimal_alpha:
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                planted[-1] = (Fraction(c) * Fraction(str(alpha)), Fraction(0), 1)
                poly = expand(planted)
                terms.append((Fraction(1), shapes[0][0] % 2, Fraction(c), None, 0))
                defect = RESONANCE_DEFECT
            elif resonant:
                re, im, _ = rng.choice(planted)
                terms.append((Fraction(1), shapes[0][0] % 2,
                              Fraction(float(re) / alpha).limit_denominator(4),
                              None if im == 0 else "sin", int(im / Fraction(alpha))))
                if family != "real":
                    defect = RESONANCE_DEFECT
            terms += [_term(rng, shape, alpha, planted) for shape in shapes[len(terms):]]
            label = f"n={n} terms={k} alpha={alpha}" + (" resonant" if resonant else "")
            cases.append(EquationCase(label, equation_text(poly, forcing_text(terms)), alpha,
                                      root_list(planted), known_defect=defect))
    planted = [(Fraction(9, 10), Fraction(0), 1)]
    cases.append(EquationCase("T y - 0.9 y = exp(3 t^a) at alpha=0.3", "T y - 0.9 y = exp(3 t^a)",
                              0.3, root_list(planted), known_defect=RESONANCE_DEFECT))
    return cases


def _cluster(rng, n):
    """Two pairs of roots 1/16 apart (one pair below degree 4), the rest
    spread over multiples of 1/2."""
    pairs = 1 if n < 4 else 2
    zs = _halves(rng, -6, 3, n - pairs)
    out = [(z, Fraction(0), 1) for z in zs]
    return out + [(z + Fraction(1, 16), Fraction(0), 1) for z in zs[:pairs]]


def _high_multiplicity(rng, n):
    """One root of multiplicity 4 or 5, the rest simple."""
    m = min(n, rng.choice((4, 5)))
    zs = _halves(rng, -6, 3, 1 + n - m)
    return [(zs[0], Fraction(0), m)] + [(z, Fraction(0), 1) for z in zs[1:]]


def _conjugate(rng, n):
    """Complex pairs, one of them double when n >= 6, plus a real root if n is odd."""
    out, seen = [], set()
    left = n - n % 2
    while left:
        re, im = Fraction(rng.randint(-6, 2), 2), Fraction(rng.randint(1, 4), 2)
        if (re, im) in seen:
            continue
        seen.add((re, im))
        m = 2 if left >= 4 and not out and n >= 6 else 1
        out.append((re, im, m))
        left -= 2 * m
    if n % 2:
        out += [(z, Fraction(0), 1) for z in _halves(rng, -6, 2, 1)]
    return out


ROOT_FAMILIES = {
    "distinct": lambda rng, n: [(z, Fraction(0), 1) for z in _halves(rng, -8, 4, n)],
    "repeated": lambda rng, n: plant(rng, "repeated", n),
    "cluster": _cluster,
    "conjugate": _conjugate,
    "multiplicity4-5": _high_multiplicity,
}

NAMED_ROOT_DEFECTS = (
    ("(r+1)^4", [(Fraction(-1), Fraction(0), 4)], MULTIPLICITY_DEFECT),
    ("roots -1..-12", [(Fraction(-k), Fraction(0), 1) for k in range(1, 13)], HIGH_DEGREE_DEFECT),
    ("roots -1..-16", [(Fraction(-k), Fraction(0), 1) for k in range(1, 17)], HIGH_DEGREE_DEFECT),
)


def roots(seed: int, batch: int) -> list[RootsCase]:
    """Planted polynomials of degree 2-16 for find_roots alone."""
    rng = _rng("roots", seed, batch)
    cases = []
    for n in range(2, 17):
        for family, make in ROOT_FAMILIES.items():
            if family == "multiplicity4-5" and n < 4:
                continue
            while True:
                planted = make(rng, n)
                poly = expand(planted)
                if _exact_floats(poly):
                    break
            defect = (MULTIPLICITY_DEFECT if family == "multiplicity4-5"
                      else HIGH_DEGREE_DEFECT if n >= HIGH_DEGREE else None)
            cases.append(RootsCase(f"degree={n} {family}", _lower(poly), root_list(planted),
                                   defect))
    for label, planted, defect in NAMED_ROOT_DEFECTS:
        cases.append(RootsCase(label, _lower(expand(planted)), root_list(planted), defect))
    return cases


def _lower(poly) -> tuple[float, ...]:
    """p_0..p_{n-1} of a monic highest-first coefficient list."""
    return tuple(float(c) for c in reversed(poly[1:]))


SAMPLE_POINTS = 10000


def cli_roundtrip(seed: int, batch: int) -> list[CliCase]:
    """README-style commands, one confode process each.

    solve, an alpha sweep, an initial-value fit, a text verify, solve --json
    piped into verify --json, and a 10000-point sample with every column.
    """
    rng = _rng("cli-roundtrip", seed, batch)
    cases = []

    def add(label, family, alpha, shape, argv, ic=None):
        planted, poly = planted_poly(rng, family, 2)
        terms = [_term(rng, shape, alpha, planted)] if shape else []
        source = equation_text(poly, forcing_text(terms) if terms else "0")
        eq = EquationCase(label, source, alpha, root_list(planted), ic)
        cases.append(CliCase(label, (*argv, source), eq))

    add("solve", "real", 0.5, (0, True, False), ("solve", "--alpha", "0.5"))
    add("solve --alpha-list", "repeated", 0.25, None,
        ("solve", "--alpha-list", "0.25,0.5,0.75,1.0"))
    ic = _ic(rng, 2)
    add("solve --ic", "real", 1.0, None,
        ("solve", "--alpha", "1", "--ic", f"{ic[0]}:{ic[1][0]},{ic[1][1]}"), ic=ic)
    add("verify", "real", 0.75, (2, False, False), ("verify", "--alpha", "0.75"))
    add("solve --json", "complex", 0.75, (0, False, True),
        ("solve", "--alpha", "0.75", "--json"))
    cases.append(CliCase("verify --json <- solve --json",
                         ("verify", "--alpha", "0.75", "--json"), cases[-1].equation, pipe=True))
    add("sample", "complex", 0.5, (0, False, True),
        ("sample", "--alpha", "0.5", "--range", f"0.5:4:{SAMPLE_POINTS}", "--columns", "full"))
    return cases


WORKLOADS = {
    "order-sweep": order_sweep,
    "forcing-sweep": forcing_sweep,
    "cli-roundtrip": cli_roundtrip,
    "roots": roots,
}


def record(case) -> dict:
    """JSON-ready form of a case, for the results file."""
    out = {"label": case.label, "known_defect": case.known_defect}
    if isinstance(case, CliCase):
        out.update(argv=list(case.argv), pipe=case.pipe, equation=record(case.equation))
        return out
    out["roots"] = [[z.real, z.imag, m] for z, m in case.roots]
    if isinstance(case, RootsCase):
        out["coeffs"] = list(case.coeffs)
    else:
        out.update(source=case.source, alpha=case.alpha,
                   ic=None if case.ic is None else [case.ic[0], list(case.ic[1])])
    return out
