"""Output checks, run outside the timed region.

An operation fails when it raises or exits non-zero, when its roots or
multiplicities differ from the planted ones, when the oracle residual on
the default grid reaches the tolerance, or when its particular solution
only balances the forcing through cancellation: its operator terms exceed
the forcing scale by more than 1/tol somewhere on the grid.  A process of
cli-roundtrip also fails when its output differs from the in-process
answer.

A failure is *silent* when the program handed back the wrong answer as if
it were right: wrong roots, a particular solution that passes verify only
through cancellation, or CLI output that differs from the in-process
answer.  Raising, a non-zero exit and a verify report that says "not ok"
are the program refusing, which is counted as failed but is not silent.
"""

from __future__ import annotations

import json
import math

from confode.cli import DEFAULT_GRID_COUNT, DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_TOL
from confode.conformable import log_grid
from confode.eqparse import problem_from_source
from confode.solver import solution_to_doc, solve_problem
from confode.ualgebra import SubstMap, diff_u, eval_expr

#: The grid ``confode verify`` uses by default.
GRID = log_grid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_COUNT)
ROOT_TOL = 1e-6
RESIDUAL_FLOOR = 1e-17


def log10_floor(x: float) -> float:
    return math.log10(max(x, RESIDUAL_FLOOR))


def match_roots(found, planted) -> bool:
    """Whether found (complex, mult) entries equal the planted ones.

    Each planted root takes the nearest unused found root, which must lie
    within ROOT_TOL relative distance and carry the same multiplicity.
    """
    if len(found) != len(planted):
        return False
    unused = list(found)
    for z, m in planted:
        best = min(range(len(unused)), key=lambda i: abs(unused[i][0] - z))
        w, mw = unused.pop(best)
        if abs(w - z) > ROOT_TOL * (1.0 + abs(z)) or mw != m:
            return False
    return True


def basis_roots(sol) -> list[tuple[complex, int]]:
    """(root, multiplicity) pairs read off a solution's basis origins."""
    mult: dict[complex, int] = {}
    for o in sol.basis.origins:
        for z in {o.root, o.root.conjugate()}:
            mult[z] = max(mult.get(z, 0), o.level + 1)
    return list(mult.items())


def particular_scales(sol) -> tuple[float, float]:
    """(cancellation ratio, symbolic residual) of the particular solution.

    The ratio is the largest operator-term sum sum_i |p_i D^i v| + |D^n v|
    on the grid over the largest |q| on the grid.  The symbolic residual is
    max |L[v] - q| over max |q|, with L applied by the term algebra.
    """
    spec, v = sol.spec, sol.particular
    subst = SubstMap(spec.alpha)
    levels = [v]
    for _ in range(spec.order):
        levels.append(diff_u(levels[-1]))
    coeffs = list(spec.coeffs) + [1.0]
    q_max = terms_max = resid_max = 0.0
    for t in GRID:
        vals = [eval_expr(d, t, subst) for d in levels]
        q = eval_expr(spec.forcing, t, subst)
        q_max = max(q_max, abs(q))
        terms_max = max(terms_max, sum(abs(p * x) for p, x in zip(coeffs, vals)))
        resid_max = max(resid_max, abs(sum(p * x for p, x in zip(coeffs, vals)) - q))
    if q_max == 0.0 or not math.isfinite(terms_max):
        return math.inf, math.inf
    return terms_max / q_max, resid_max / q_max


def check(case, outcome) -> tuple[bool, bool, dict]:
    """(failed, silent, details) of one operation's outcome."""
    if isinstance(outcome, Exception):
        return True, False, {"error": f"{type(outcome).__name__}: {outcome}"}
    kind = type(case).__name__
    if kind == "RootsCase":
        ok = match_roots(list(outcome.entries), case.roots)
        return not ok, not ok, {"mult_mismatch": not ok}
    if kind == "EquationCase":
        return _check_solution(case, *outcome)
    code, stdout, stderr = outcome
    details = {"exit": code, "stdout_bytes": len(stdout.encode())}
    if code != 0:
        details["stderr"] = stderr.strip()[-300:]
        return True, False, details
    try:
        wrong = _cli_output_wrong(case, stdout)
    except (ValueError, KeyError, IndexError) as err:  # malformed output
        wrong = f"unreadable output: {err}"
    if wrong:
        details["wrong_output"] = wrong
    return bool(wrong), bool(wrong), details


def _check_solution(case, sol, report):
    over_tol = not report["ok"]
    mismatch = not match_roots(basis_roots(sol), case.roots)
    details = {"residual": report["max_residual"], "over_tol": over_tol,
               "mult_mismatch": mismatch, "cancel": False}
    if sol.particular is not None:
        ratio, sym = particular_scales(sol)
        details.update(cancel=ratio > 1.0 / DEFAULT_TOL, cancel_ratio=ratio, sym_residual=sym,
                       particular_terms=len(sol.particular.terms))
    wrong = mismatch or details["cancel"]
    return over_tol or wrong, wrong and not over_tol, details


def _cli_output_wrong(case, stdout) -> str:
    """Compare a successful process's stdout with the in-process answer."""
    eq, argv = case.equation, case.argv
    if argv[0] == "solve" and "--json" in argv:
        sol = solve_problem(problem_from_source(eq.source, eq.alpha))
        want = json.loads(json.dumps(solution_to_doc(sol)))
        return "" if json.loads(stdout) == want else "solve --json differs from in-process"
    if argv[0] == "solve":
        alphas = argv[argv.index("--alpha-list") + 1].split(",") if "--alpha-list" in argv else [1]
        lines = [ln for ln in stdout.splitlines() if ln.startswith("y(t) = ")]
        return "" if len(lines) == len(alphas) else "missing general-solution lines"
    if argv[0] == "verify" and "--json" in argv:
        return "" if json.loads(stdout)["ok"] else "verify --json says not ok with exit 0"
    if argv[0] == "verify":
        return "" if stdout.rstrip().endswith("-> ok") else "verify text lacks '-> ok'"
    return _sample_wrong(case, stdout)


def _sample_wrong(case, stdout) -> str:
    eq = case.equation
    sol = solve_problem(problem_from_source(eq.source, eq.alpha))
    subst = SubstMap(eq.alpha)
    rows = stdout.splitlines()
    ts = case.sample_points()
    columns = list(sol.basis.elements) + [sol.particular]
    header = ["t", "y"] + [f"y_basis_{i + 1}" for i in range(sol.basis.n)] + ["y_particular"]
    if not rows or rows[0].split(",") != header or len(rows) != len(ts) + 1:
        return "sample header or row count differs"
    for i in range(0, len(ts), 997):
        got = [float(v) for v in rows[i + 1].split(",")]
        want = [ts[i], eval_expr(sol.particular, ts[i], subst)]
        want += [eval_expr(e, ts[i], subst) for e in columns]
        if not all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300) for a, b in zip(got, want)):
            return f"sample row {i} differs from in-process evaluation"
    return ""
