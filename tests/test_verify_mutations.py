"""Verify must refuse a solution document that was changed after solve.

Each case solves a planted family at alpha 0.5 with forcing ``1 + t^a +
exp(t^a) + cos(2 t^a)`` and initial values ``1:1,0,...,0`` (``solve --json
--ic``), changes the document, and runs ``verify`` on it with the default
grid and tolerance.  The families, of order n:

- ``k/4``: the distinct roots -k/4, k = 1..n;
- ``pairs``: the roots -k/4, k = 1..n/2, and the pairs -k/8 +- i k/4,
  k = 1..n/4;
- ``2xn/2``: the roots -1 and -3/2, each of multiplicity n/2;
- ``-1..-n``: the roots -1, ..., -n.

The changes:

- ``element``: the last basis element's rate ``erate + i tfreq`` and its
  origin's root, times 1 + 1e-3;
- ``root-1e-3``, ``root-1e-6`` and ``root-1e-9``: every element and origin
  of the first element's root, times 1 + 1e-3, 1 + 1e-6 or 1 + 1e-9;
- ``particular``: the first particular-solution coefficient, times 1 + 1e-9;
- ``drop``: the last basis element and its origin, removed.

Each family runs at orders 4 and 8, and all but ``-1..-n`` at order 16
too (solve refuses ``-1..-n`` from order 16).

Every changed document is wrong, so verify should exit non-zero.  A float
residual cannot see a small enough change; the cases that verify passes
today are strict xfails that quote the max residual verify reports (the
tolerance is 1e-6).
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F
from functools import cache

import pytest

from confode import cli

FORCING = "1 + t^a + exp(t^a) + cos(2 t^a)"


def planted(family: str, n: int) -> list[tuple[F, F, int]]:
    """``(re, im, multiplicity)`` per root; ``im > 0`` stands for a pair."""
    if family == "k/4":
        return [(F(-k, 4), F(0), 1) for k in range(1, n + 1)]
    if family == "pairs":
        return ([(F(-k, 4), F(0), 1) for k in range(1, n // 2 + 1)]
                + [(F(-k, 8), F(k, 4), 1) for k in range(1, n // 4 + 1)])
    if family == "2xn/2":
        return [(F(-1), F(0), n // 2), (F(-3, 2), F(0), n // 2)]
    return [(F(-k), F(0), 1) for k in range(1, n + 1)]


def _decimal(c: F) -> str:
    """The exact decimal text of ``|c|``, whose denominator is a power of 2."""
    digits = c.denominator.bit_length() - 1
    text = str(abs(c.numerator) * 5 ** digits).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def equation(roots) -> str:
    """``P(T) y = FORCING`` for the monic P with these roots."""
    poly = [F(1)]  # highest power first
    for re, im, m in roots:
        factor = [F(1), -re] if im == 0 else [F(1), -2 * re, re * re + im * im]
        for _ in range(m):
            poly = [sum(poly[j] * factor[i - j] for j in range(len(poly))
                        if 0 <= i - j < len(factor))
                    for i in range(len(poly) + len(factor) - 1)]
    n = len(poly) - 1
    parts = [f"T{n} y"]
    for k, c in zip(range(n - 1, -1, -1), poly[1:]):
        if c:
            parts.append(f"{'-' if c < 0 else '+'} {_decimal(c)} {f'T{k} y' if k else 'y'}")
    return " ".join(parts) + " = " + FORCING


def run(argv) -> tuple[int, str]:
    """The exit code and stdout of one in-process ``cli.main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@cache
def solved(family: str, n: int) -> str:
    """The ``solve --json --ic`` document of a family, solved once per run."""
    ic = "1:" + ",".join(["1"] + ["0"] * (n - 1))
    code, out = run(["solve", "--alpha", "0.5", "--json", "--ic", ic,
                     equation(planted(family, n))])
    assert code == 0
    return out


def move(doc: dict, index: int, factor: float) -> None:
    """Element ``index``'s rate and its origin's root, times ``factor``."""
    [term], origin = doc["basis"][index], doc["origins"][index]
    term["erate"] *= factor
    term["tfreq"] *= factor
    origin["root"] = [x * factor for x in origin["root"]]


def mutate(doc: dict, change: str) -> None:
    if change == "element":
        move(doc, len(doc["basis"]) - 1, 1 + 1e-3)
    elif change == "drop":
        del doc["basis"][-1], doc["origins"][-1]
    elif change == "particular":
        doc["particular"][0]["coeff"] *= 1 + 1e-9
    else:
        factor = 1 + float(change.removeprefix("root-"))
        root = doc["origins"][0]["root"]
        for i, origin in enumerate(doc["origins"]):
            if origin["root"] == root:
                move(doc, i, factor)


#: The cases verify passes today, with the max residual it reports.
PASSES_TODAY = {
    ("k/4", 4, "root-1e-6"): "3.21e-07",
    ("k/4", 4, "root-1e-9"): "3.21e-10",
    ("k/4", 4, "particular"): "2.44e-10",
    ("k/4", 8, "root-1e-6"): "2.95e-07",
    ("k/4", 8, "root-1e-9"): "2.95e-10",
    ("k/4", 8, "particular"): "2.29e-10",
    ("k/4", 16, "root-1e-6"): "7.16e-08",
    ("k/4", 16, "root-1e-9"): "7.16e-11",
    ("k/4", 16, "particular"): "1.08e-10",
    ("pairs", 4, "root-1e-6"): "9.99999e-07",
    ("pairs", 4, "root-1e-9"): "1.00e-09",
    ("pairs", 4, "particular"): "3.82e-10",
    ("pairs", 8, "root-1e-9"): "1.70e-09",
    ("pairs", 8, "particular"): "2.69e-10",
    ("pairs", 16, "root-1e-9"): "1.16e-09",
    ("pairs", 16, "particular"): "6.91e-11",
    ("2xn/2", 4, "root-1e-6"): "9.48e-07",
    ("2xn/2", 4, "root-1e-9"): "9.48e-10",
    ("2xn/2", 4, "particular"): "7.87e-11",
    ("2xn/2", 8, "root-1e-9"): "1.11e-09",
    ("2xn/2", 8, "particular"): "1.47e-10",
    ("2xn/2", 16, "root-1e-9"): "1.10e-09",
    ("2xn/2", 16, "particular"): "4.42e-11",
    ("-1..-n", 4, "root-1e-9"): "1.42e-09",
    ("-1..-n", 4, "particular"): "6.12e-12",
    ("-1..-n", 8, "root-1e-6"): "8.51e-07",
    ("-1..-n", 8, "root-1e-9"): "8.51e-10",
    ("-1..-n", 8, "particular"): "4.22e-11",
}


def _cases():
    for family in ("k/4", "pairs", "2xn/2", "-1..-n"):
        for n in (4, 8) if family == "-1..-n" else (4, 8, 16):
            for change in ("element", "root-1e-3", "root-1e-6", "root-1e-9", "particular",
                           "drop"):
                key = (family, n, change)
                marks = ()
                if key in PASSES_TODAY:
                    marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                        f"verify exits 0 at max residual {PASSES_TODAY[key]}: "
                        "the float residual cannot see this change"))
                yield pytest.param(*key, marks=marks, id=f"{family}-{n}-{change}")


@pytest.mark.parametrize("family, n, change", list(_cases()))
def test_verify_refuses_a_changed_document(family, n, change):
    doc = json.loads(solved(family, n))
    mutate(doc, change)
    code, out = run(["verify", "--alpha", "0.5", "--json", json.dumps(doc)])
    # 1: the basis is refused as incomplete; 3: a residual exceeds the tolerance
    assert code in (1, 3), out
