"""The names the benchmark under ``bench/`` reaches into confode by.

The benchmark traces functions by patching module attributes and calls a
few private helpers, so a refactor that renames or re-signs one of them
breaks the benchmark without breaking any other test.  These tests read
``bench/`` and fail first.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from fractions import Fraction
from pathlib import Path

from confode import cli, solver, ualgebra
from confode.chareq import CharPoly, find_roots
from confode.conformable import log_grid
from confode.eqparse import problem_from_source
from confode.solver import solve_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists_and_is_callable():
    traced = _load_spans().TRACED
    assert traced
    for module, attr, _ in traced:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_names_imported_from_confode_by_bench_exist():
    for path in (BENCH / "checks.py", BENCH / "run.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("confode"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def test_module_attributes_used_by_the_runner_exist():
    source = (BENCH / "run.py").read_text(encoding="utf-8")
    used = set(re.findall(r"self\.(chareq|cli|eqparse|solver|ualgebra)\.(\w+)", source))
    assert ("cli", "_verify_one") in used
    for module, attr in used:
        assert hasattr(importlib.import_module(f"confode.{module}"), attr), f"{module}.{attr}"


def test_solve_problem_calls_particular_solution_through_the_module(monkeypatch):
    # bench/spans.py times solver.particular_ms by patching this attribute
    calls = []
    real = solver.particular_solution

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(solver, "particular_solution", counting)
    forced = problem_from_source("T2 y + 4 T y + 3 y = exp(2 t^a)", 0.5)
    solve_problem(forced)
    assert calls == [forced]
    solve_problem(problem_from_source("T2 y + 4 T y + 3 y = 0", 0.5))
    assert calls == [forced]


def test_fit_constants_calls_eval_expr_through_the_module(monkeypatch):
    # bench/spans.py times ualgebra.eval_ms by patching this attribute
    calls = []
    real = ualgebra.eval_expr

    def counting(f, t, subst):
        calls.append(t)
        return real(f, t, subst)

    monkeypatch.setattr(ualgebra, "eval_expr", counting)
    forced = problem_from_source("T2 y + 4 T y + 3 y = exp(2 t^a)", 0.5)
    sol = solve_problem(forced, t0=1.5, targets=(1.0, 0.0))
    assert sol.constants is not None
    # two basis values and two particular values at each of two levels
    assert calls == [1.5] * 6


def test_eval_expr_takes_an_exact_expression_or_a_level():
    # bench/checks.py evaluates exact diff_u levels; the constant fit
    # evaluates the binary64 levels of lowered_levels
    f = ualgebra.expr(ualgebra.UTerm(Fraction(3, 2), 2, Fraction(-1, 3), ualgebra.COS, 2),
                      ualgebra.UTerm(Fraction(1, 7), 0, Fraction(1, 2)))
    subst = ualgebra.SubstMap(0.5)
    exact = [f, ualgebra.diff_u(f), ualgebra.diff_u(ualgebra.diff_u(f))]
    levels = ualgebra.lowered_levels(f, 3)
    assert ualgebra.eval_expr(levels[0], 1.3, subst) == ualgebra.eval_expr(f, 1.3, subst)
    for d, level in zip(exact, levels):
        want, got = ualgebra.eval_expr(d, 1.3, subst), ualgebra.eval_expr(level, 1.3, subst)
        assert type(want) is type(got) is float
        assert abs(got - want) <= 1e-14 * abs(want)


def test_verify_one_accepts_a_plain_list_of_floats():
    grid = log_grid(cli.DEFAULT_GRID_LO, cli.DEFAULT_GRID_HI, cli.DEFAULT_GRID_COUNT)
    assert type(grid) is list and all(type(t) is float for t in grid)
    sol = solve_problem(problem_from_source("T2 y + 4 T y + 3 y = exp(2 t^a)", 0.5))
    report = cli._verify_one(sol, grid, cli.DEFAULT_TOL)
    assert report["ok"]
    assert report["grid"] == {"t_lo": grid[0], "t_hi": grid[-1], "count": len(grid)}
    assert report["worst_t"] in grid


def test_verify_one_calls_operator_residual_through_the_module_once_per_check(monkeypatch):
    # bench/spans.py times conformable.residual_ms by patching this attribute
    calls = []
    real = cli.operator_residual

    def counting(coeffs, y, forcing, grid):
        calls.append(y)
        return real(coeffs, y, forcing, grid)

    monkeypatch.setattr(cli, "operator_residual", counting)
    grid = log_grid(cli.DEFAULT_GRID_LO, cli.DEFAULT_GRID_HI, cli.DEFAULT_GRID_COUNT)
    for source, ic in [("T2 y + 4 T y + 3 y = 0", None),
                       ("T2 y + 4 T y + 3 y = exp(2 t^a)", None),
                       ("T3 y + 2 T y + y = cos(t^a)", (1.5, (1.0, 0.0, -1.0)))]:
        spec = problem_from_source(source, 0.5)
        sol = solve_problem(spec) if ic is None else solve_problem(spec, t0=ic[0], targets=ic[1])
        calls.clear()
        assert cli._verify_one(sol, grid, cli.DEFAULT_TOL)["ok"]
        checks = [*sol.basis.elements] + ([] if sol.particular is None else [sol.particular])
        assert len(calls) == len(checks) and all(a is b for a, b in zip(calls, checks))


def test_equal_root_sets_have_equal_reprs():
    # the runner checks each distinct roots outcome once, keyed by its repr
    first, second = (find_roots(CharPoly((2, 3))) for _ in range(2))
    assert first is not second
    assert repr(first) == repr(second) == ("RootSet(entries=(((-2+0j), 1), ((-1+0j), 1)), "
                                           "exact_parts=(((-2, 1), (0, 1)), ((-1, 1), (0, 1))))")
    # equal polynomials given as ints, floats and Fractions: a triple root,
    # a conjugate pair, and certified irrational roots
    for ints, other in [((1, 3, 3), (1.0, Fraction(3), 3.0)),
                        ((5, 2), (Fraction(10, 2), 2.0)),
                        ((-2, 0), (-2.0, Fraction(0)))]:
        first, second = find_roots(CharPoly(ints)), find_roots(CharPoly(other))
        assert first is not second and repr(first) == repr(second)
