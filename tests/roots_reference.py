"""Test-only helpers for characteristic polynomials.

* :func:`full` lists a :class:`~confode.chareq.CharPoly`'s coefficients
  highest first, the leading 1 included, the order numpy, mpmath and sympy
  read.
* :func:`eval_poly` and :func:`eval_poly_deriv` evaluate a
  :class:`~confode.chareq.CharPoly` (or a derivative of it) by Horner's
  rule in binary64.  ``tests/test_chareq.py``, ``tests/test_solver.py``
  and ``tests/test_acceptance.py`` use them to check roots and
  multiplicities; the library itself never evaluates a polynomial this way.
* :func:`_aberth` is an independent numpy reference for
  ``confode.chareq._aberth`` (``test_aberth_matches_the_numpy_reference``).
  It keeps the Jacobi form, where every update of a sweep reads the
  previous sweep's points, while the library sweeps in place (Gauss-Seidel)
  over its unfrozen points; both start from the same circle and freeze at
  the same noise floor, so they approximate the same roots by different
  paths.  numpy's complex ``*`` and ``abs`` may also differ from CPython's
  in the last bit (its SIMD loops use fused multiply-add), so the two agree
  closely but not bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from confode.chareq import CharPoly, RootFindingError

ABERTH_MAX_ITER = 200
ABERTH_STEP_TOL = 1e-13

_EPS = float(np.finfo(float).eps)


def _horner(coeffs, z):
    acc = 0.0 * z if isinstance(z, np.ndarray) else 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


def full(p: CharPoly) -> list[Fraction]:
    """Highest-first coefficient list including the leading 1."""
    return [Fraction(1), *reversed(p.coeffs)]


def _floats(p: CharPoly) -> list[float]:
    return [float(c) for c in full(p)]


def eval_poly(p: CharPoly, r: complex) -> complex:
    return _horner(_floats(p), r)


def eval_poly_deriv(p: CharPoly, r: complex, order: int = 1) -> complex:
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    coeffs = _floats(p)
    for _ in range(order):
        m = len(coeffs) - 1
        if m == 0:
            return 0.0 * r
        coeffs = [c * k for c, k in zip(coeffs[:-1], range(m, 0, -1))]
    return _horner(coeffs, r)


def _aberth(coeffs: list[float]) -> np.ndarray:
    """Root approximations of the monic highest-first ``coeffs``."""
    n = len(coeffs) - 1
    full = np.array(coeffs)
    if n == 1:
        return np.array([complex(-full[1])])
    deriv = full[:-1] * np.arange(n, 0, -1)
    absfull = np.abs(full)
    radius = 1.0 + max(abs(c) for c in full[1:])
    # small angular offset breaks the conjugate symmetry of the start set
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
    for _ in range(ABERTH_MAX_ITER):
        pv = _horner(full, z)
        dv = _horner(deriv, z)
        # Freeze a point once |p| is at the evaluation noise floor: no
        # finite step can improve it, and iterates around a multiple zero
        # would otherwise jiggle there forever without meeting the step
        # criterion below.
        settled = np.abs(pv) <= 4.0 * n * _EPS * _horner(absfull, np.abs(z))
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
        f"for {coeffs}")
