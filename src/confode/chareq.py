"""Characteristic polynomials and their roots, with multiplicities.

A monic polynomial ``r^n + p_{n-1} r^{n-1} + ... + p_0`` is represented
by its lower coefficients only.  Every binary64 coefficient is a dyadic
rational, so :func:`find_roots` first decides what is exact in the math:

* lifted: the coefficients are scaled by a power of two to integers,
  which loses nothing;
* split: Yun's square-free factorisation gives factors whose roots are
  all simple, each with its exact multiplicity (a gcd modulo one prime
  certifies the common square-free case without rational arithmetic);
* certified: Aberth-Ehrlich simultaneous iteration approximates each
  factor's roots, each approximation is rounded to the dyadic real
  ``a/2^j`` or Gaussian ``(a ± ib)/2^j`` with the fewest bits within
  ``CANDIDATE_RADIUS`` of it, and a candidate is accepted only when it divides the factor exactly;
  accepted roots are deflated exactly and the iteration repeats on the
  smaller factor while candidates keep landing.  A rational root of a
  monic dyadic polynomial is dyadic, so rational and Gaussian-rational
  roots come back as exact binary64 values.

What does not land (irrational roots, and inputs such as decimal-derived
coefficients that have no exact rational or repeated root) keeps the
float treatment of its factor's last approximations, with each
multiplicity times the factor's:

* clustered: iterates of an m-fold zero stall on a cluster of radius
  roughly ``eps**(1/m)`` around it, so points within a relative radius of
  1e-6 are merged into one entry carrying the cluster size as its
  multiplicity (which also means genuinely distinct roots closer than
  that radius are reported as one multiple root);
* snapped: an imaginary part below 1e-8 (relative) is dropped;
* polished: a few modified-Newton steps per representative, which lands
  simple roots on their correctly rounded values;
* paired: complex entries are matched with their conjugates and averaged
  so the stored set is exactly conjugate-symmetric.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

ABERTH_MAX_ITER = 200
ABERTH_STEP_TOL = 1e-13
CLUSTER_RADIUS = 1e-6
IMAG_SNAP = 1e-8
# a dyadic candidate is tried at the fewest bits that put it this close
# (relative) to its approximation
CANDIDATE_RADIUS = 1e-6
# word-sized prime for the square-free certificate
_PRIME = 2**61 - 1

_EPS = sys.float_info.epsilon


class RootFindingError(RuntimeError):
    pass


@dataclass(frozen=True)
class CharPoly:
    """Coefficients ``p_0 ... p_{n-1}``; the leading coefficient is an
    implied 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a characteristic polynomial needs degree >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full(self) -> list[float]:
        """Highest-first coefficient list including the leading 1."""
        return [1.0, *reversed(self.coeffs)]

    def describe(self) -> str:
        parts = [f"r^{self.degree}"]
        for i in range(self.degree - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0.0:
                continue
            piece = f"{abs(c):g}" + (f"·r^{i}" if i > 1 else ("·r" if i == 1 else ""))
            parts.append(("- " if c < 0 else "+ ") + piece)
        return " ".join(parts)


def _horner(coeffs, z):
    acc = 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


def eval_poly(p: CharPoly, r: complex) -> complex:
    return _horner(p.full(), r)


def eval_poly_deriv(p: CharPoly, r: complex, order: int = 1) -> complex:
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    coeffs = p.full()
    for _ in range(order):
        m = len(coeffs) - 1
        if m == 0:
            return 0.0 * r
        coeffs = [c * k for c, k in zip(coeffs[:-1], range(m, 0, -1))]
    return _horner(coeffs, r)


@dataclass(frozen=True)
class RootSet:
    """Distinct roots with multiplicities; conjugate-closed, sorted by
    (real, imag), multiplicities summing to the degree."""

    entries: tuple[tuple[complex, int], ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def to_records(self) -> list[dict]:
        return [{"re": z.real, "im": z.imag, "mult": m} for z, m in self.entries]


def _aberth(p: CharPoly) -> list[complex]:
    n = p.degree
    if n == 1:
        return [complex(-p.coeffs[0])]
    full = p.full()
    deriv = [c * k for c, k in zip(full[:-1], range(n, 0, -1))]
    absfull = [abs(c) for c in full]
    floor = 4.0 * n * _EPS
    radius = 1.0 + max(abs(c) for c in p.coeffs)
    # small angular offset breaks the conjugate symmetry of the start set
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(ABERTH_MAX_ITER):
        # A Jacobi step: every update below reads the iterates of the
        # previous step only.
        if len(set(z)) < n:  # nudge every point that meets another
            z = [zi + 1e-9 * radius * (1 + 1j) if z.count(zi) > 1 else zi for zi in z]
            continue
        new, done = [], True
        for i, zi in enumerate(z):
            pv = _horner(full, zi)
            # Freeze a point once |p| is at the evaluation noise floor: no
            # finite step can improve it, and iterates around a multiple
            # zero would otherwise jiggle there forever without meeting the
            # step criterion below.
            if abs(pv) <= floor * _horner(absfull, abs(zi)):
                new.append(zi)
                continue
            dv = _horner(deriv, zi)
            w = pv / dv if dv != 0 else complex(0.01 * (1.0 + abs(zi)))
            repulse = sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
            denom = 1.0 - w * repulse
            delta = w if abs(denom) < 1e-12 else w / denom
            zi = zi - delta
            new.append(zi)
            done = done and abs(delta) <= ABERTH_STEP_TOL * (1.0 + abs(zi))
        z = new
        if done:
            return z
    raise RootFindingError(
        f"root iteration did not converge within {ABERTH_MAX_ITER} steps "
        f"for {p.describe()}")


def _noise_floor(p: CharPoly, z) -> float:
    # Horner evaluation error bound ~ 2n*eps*B with B = sum |a_i| |z|^i;
    # doubled again for headroom.
    return 4.0 * p.degree * _EPS * _horner([abs(c) for c in p.full()], abs(z))


def _merge_radius(p: CharPoly, z: complex) -> float:
    # Iterates of an m-fold zero stall where |p| hits the evaluation noise
    # floor, i.e. at distance ~ floor**(1/m) from it, and two stalled
    # points can sit twice that apart.  The m = 3 stall radius dominates
    # the fixed relative radius, so the merge radius must cover it (with
    # margin) for triple roots to cluster; multiplicity >= 4 stalls wider
    # still and may mis-cluster.
    return max(CLUSTER_RADIUS * (1.0 + abs(z)), 3.0 * _noise_floor(p, z) ** (1.0 / 3.0))


def _cluster(p: CharPoly, points: list[complex]) -> list[tuple[complex, int]]:
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            tol = min(_merge_radius(p, points[i]), _merge_radius(p, points[j]))
            if abs(points[i] - points[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(points[i]))
    return [(sum(g) / len(g), len(g)) for g in groups.values()]


def _polish(p: CharPoly, z: complex, mult: int) -> complex:
    # An m-fold zero of p is a simple zero of the (m-1)-th derivative, so
    # plain Newton on that derivative reaches full binary64 precision
    # where iterating on p itself would stall at the cancellation noise
    # floor.  Exactly representable roots land on their exact values.
    last_step = float("inf")
    for _ in range(60):
        pv = eval_poly_deriv(p, z, mult - 1)
        if pv == 0:
            return z
        dv = eval_poly_deriv(p, z, mult)
        if dv == 0:
            return z
        step = pv / dv
        if abs(step) > 0.1 * (1.0 + abs(z)) or abs(step) > last_step:
            return z
        last_step = abs(step)
        nxt = z - step
        if nxt == z:
            return z
        z = nxt
    return z


def _pair_conjugates(p: CharPoly, entries: list[tuple[complex, int]]):
    out = [(z, m) for z, m in entries if z.imag == 0]
    pos = sorted(((z, m) for z, m in entries if z.imag > 0), key=lambda e: (e[0].real, e[0].imag))
    neg = [(z, m) for z, m in entries if z.imag < 0]
    for z, m in pos:
        best = None
        for idx, (zn, mn) in enumerate(neg):
            d = abs(z - zn.conjugate())
            if best is None or d < best[0]:
                best = (d, idx)
        if best is None or best[0] > _merge_radius(p, z) or neg[best[1]][1] != m:
            raise RootFindingError(
                f"conjugate pairing failed near root {z!r} of {p.describe()}")
        zn, _ = neg.pop(best[1])
        theta = 0.5 * (z.real + zn.real)
        beta = 0.5 * (z.imag - zn.imag)
        out.append((complex(theta, beta), m))
        out.append((complex(theta, -beta), m))
    if neg:
        raise RootFindingError(
            f"unpaired complex root {neg[0][0]!r} of {p.describe()}")
    return out


def _cluster_roots(p: CharPoly, raw: list[complex]) -> list[tuple[complex, int]]:
    clustered = _cluster(p, raw)
    # cluster means of multiple roots carry imaginary dust up to the
    # stall radius, so the snap threshold widens with the cluster size
    snapped = [
        (complex(z.real, 0.0)
         if abs(z.imag) < max(IMAG_SNAP * (1.0 + abs(z)),
                              _merge_radius(p, z) if m > 1 else 0.0)
         else z, m)
        for z, m in clustered
    ]
    polished = [(_polish(p, z, m), m) for z, m in snapped]
    return _pair_conjugates(p, polished)


# --- exact integer polynomials ----------------------------------------------
#
# Highest-first lists of Python ints; the zero polynomial is [].


def _lift(p: CharPoly) -> list[int]:
    """p's full coefficients times the least power of two that makes them
    all integers."""
    if not all(math.isfinite(c) for c in p.coeffs):
        raise RootFindingError(f"non-finite coefficient in {p.describe()}")
    ratios = [c.as_integer_ratio() for c in p.full()]
    den = max(d for _, d in ratios)  # all powers of two
    return [n * (den // d) for n, d in ratios]


def _deriv(f: list[int]) -> list[int]:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, with a positive leading coefficient."""
    while f and f[0] == 0:
        f = f[1:]
    if not f:
        return f
    g = math.gcd(*f)
    return [c // g for c in f] if f[0] > 0 else [-c // g for c in f]


def _quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g if the primitive g divides f in Z[x] (equivalently in Q[x]),
    else None."""
    f = list(f)
    lead, n = g[0], len(g)
    q = []
    for i in range(len(f) - n + 1):
        c, r = divmod(f[i], lead)
        if r:
            return None
        q.append(c)
        if c:
            for j in range(1, n):
                f[i + j] -= c * g[j]
    return None if any(f[len(q):]) else q


def _sub(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    r = [x - y for x, y in zip([0] * (n - len(f)) + f, [0] * (n - len(g)) + g)]
    while r and r[0] == 0:
        r = r[1:]
    return r


def _prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g: lc(g)^k f mod g, leading zeros kept."""
    f = list(f)
    lead, n = g[0], len(g)
    for i in range(len(f) - n + 1):
        c = f[i]
        for j in range(i + 1, len(f)):
            f[j] *= lead
        for j in range(1, n):
            f[i + j] -= c * g[j]
    return f[len(f) - n + 1:]


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd over Z (primitive pseudo-remainder sequence)."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_prem(f, g))
    return f


def _coprime_mod_prime(f: list[int], g: list[int]) -> bool:
    """Whether f and g are coprime modulo _PRIME.  Neither leading
    coefficient may vanish modulo it, and len(f) >= len(g)."""
    f = [c % _PRIME for c in f]
    g = [c % _PRIME for c in g]
    while len(g) > 1:
        inv = pow(g[0], -1, _PRIME)
        n = len(g)
        for i in range(len(f) - n + 1):
            c = f[i] * inv % _PRIME
            if c:
                for j in range(1, n):
                    f[i + j] = (f[i + j] - c * g[j]) % _PRIME
        r = f[len(f) - n + 1:]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            return False
        f, g = g, r
    return True


def _squarefree_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free factorisation: primitive pairwise-coprime factors,
    each with roots of exactly the given multiplicity."""
    df = _deriv(f)
    # f's leading coefficient is a power of two, so it survives reduction
    # modulo an odd prime, and then coprimality there proves f square-free
    if _coprime_mod_prime(f, df):
        return [(_primitive(f), 1)]
    a = _gcd(f, df)
    b, c = _quotient(f, a), _quotient(df, a)
    out = []
    mult = 1
    while len(b) > 1:
        d = _sub(c, _deriv(b))
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, mult))
        b, c = _quotient(b, a), _quotient(d, a)
        mult += 1
    return out


# --- certified roots ---------------------------------------------------------


def _candidate(z: complex) -> tuple[float, float]:
    """The dyadic (re, |im|) with the fewest bits within CANDIDATE_RADIUS
    of z.  Both parts are binary64 values, so they are exact."""
    tol = CANDIDATE_RADIUS * (1.0 + abs(z))
    re, im = z.real, abs(z.imag)
    scale = 1.0
    while True:  # ends by 2^-j <= tol, at most ~20 rounds
        a, b = round(re * scale) / scale, round(im * scale) / scale
        if abs(re - a) <= tol and abs(im - b) <= tol:
            return a, b
        scale *= 2.0


def _divisor(a: float, b: float) -> list[int]:
    """Primitive integer polynomial whose roots are a ± ib (just a when
    b = 0)."""
    na, da = a.as_integer_ratio()
    if b == 0.0:
        return [da, -na]
    nb, db = b.as_integer_ratio()
    den = max(da, db)  # both powers of two
    na, nb = na * (den // da), nb * (den // db)
    # den^2 (x - a)^2 + den^2 b^2
    return _primitive([den * den, -2 * na * den, na * na + nb * nb])


def _monic(g: list[int]) -> CharPoly:
    # the leading coefficient is a power of two; int / int rounds correctly
    return CharPoly(tuple(c / g[0] for c in reversed(g[1:])))


def _factor_roots(p: CharPoly, g: list[int], mult: int) -> list[tuple[complex, int]]:
    """Roots of the square-free primitive factor g of p, each of
    multiplicity mult: exact where a dyadic candidate divides g, float
    clusters for the rest."""
    out: list[tuple[complex, int]] = []
    while True:
        # the whole polynomial keeps p itself, so that an input with no
        # repeated or exact root gets exactly the float treatment of p
        q = p if len(g) == p.degree + 1 else _monic(g)
        approx = _aberth(q)
        rest = g
        for a, b in dict.fromkeys(_candidate(z) for z in approx):
            smaller = _quotient(rest, _divisor(a, b))
            if smaller is not None:
                rest = smaller
                out.append((complex(a, b), mult))
                if b:
                    out.append((complex(a, -b), mult))
        if len(rest) == 1:
            return out
        if len(rest) == len(g):
            return out + [(z, m * mult) for z, m in _cluster_roots(q, approx)]
        g = rest


def find_roots(p: CharPoly) -> RootSet:
    entries = []
    for g, mult in _squarefree_factors(_lift(p)):
        entries.extend(_factor_roots(p, g, mult))
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    rs = RootSet(tuple(entries))
    assert rs.total_multiplicity == p.degree
    return rs
