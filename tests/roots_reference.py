"""The float root pipeline of ``confode.chareq`` before exact roots.

A verbatim copy of Aberth-Ehrlich iteration followed by clustering,
imaginary-part snapping, Newton polishing and conjugate pairing, as
``find_roots`` ran it on every input.  ``find_roots`` now certifies exact
roots first and keeps this pipeline for what does not land, so on a
polynomial with no repeated factor and no rational or Gaussian-rational
root the two must return equal entries (``tests/test_chareq.py``).

``_aberth`` keeps the numpy iteration as a reference for the library's
pure-Python one.  numpy's complex ``*`` and ``abs`` may differ from
CPython's in the last bit (its SIMD loops use fused multiply-add), so the
two iterations agree closely but not bit for bit.  :func:`find_roots`
therefore takes the approximations its later stages start from as an
argument: given ``confode.chareq._aberth``'s, it must return exactly
what the library returns.
"""

from __future__ import annotations

import numpy as np

from confode.chareq import CharPoly, RootFindingError, RootSet

ABERTH_MAX_ITER = 200
ABERTH_STEP_TOL = 1e-13
CLUSTER_RADIUS = 1e-6
IMAG_SNAP = 1e-8

_EPS = float(np.finfo(float).eps)


def _horner(coeffs, z):
    acc = 0.0 * z if isinstance(z, np.ndarray) else 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


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


def _aberth(p: CharPoly) -> np.ndarray:
    n = p.degree
    if n == 1:
        return np.array([complex(-p.coeffs[0])])
    full = np.array(p.full())
    deriv = full[:-1] * np.arange(n, 0, -1)
    absfull = np.abs(full)
    radius = 1.0 + max(abs(c) for c in p.coeffs)
    # small angular offset breaks the conjugate symmetry of the start set
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
    for _ in range(ABERTH_MAX_ITER):
        pv = _horner(full, z)
        dv = _horner(deriv, z)
        # Freeze a point once |p| is at the evaluation noise floor: no
        # finite step can improve it, and iterates around a multiple zero
        # would otherwise jiggle there forever without meeting the step
        # criterion below.
        settled = np.abs(pv) <= 4.0 * p.degree * _EPS * _horner(absfull, np.abs(z))
        w = np.where(dv == 0, 0.01 * (1.0 + np.abs(z)), pv / np.where(dv == 0, 1.0, dv))
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        if np.any(diff == 0):
            bad = (diff == 0).any(axis=1)
            z = np.where(bad, z + 1e-9 * radius * (1 + 1j), z)
            continue
        repulse = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * repulse
        delta = np.where(np.abs(denom) < 1e-12, w, w / np.where(denom == 0, 1.0, denom))
        delta = np.where(settled, 0.0, delta)
        z = z - delta
        if np.all(settled | (np.abs(delta) <= ABERTH_STEP_TOL * (1.0 + np.abs(z)))):
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


def _cluster(p: CharPoly, points: np.ndarray) -> list[tuple[complex, int]]:
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


def find_roots(p: CharPoly, raw=None) -> RootSet:
    """The float pipeline on p, from the approximations ``raw`` (by
    default this module's numpy ``_aberth``)."""
    if raw is None:
        raw = _aberth(p)
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
    entries = _pair_conjugates(p, polished)
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    rs = RootSet(tuple(entries))
    assert rs.total_multiplicity == p.degree
    return rs
