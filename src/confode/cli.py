"""Command-line front door: solve, verify, sample.

Each command takes only the flags it reads, each under its full name
only, and argparse checks each flag value as it parses it:

    solve   --alpha | --alpha-list, --json, --ic, --file
    verify  the solve flags, plus --range and --tol
    sample  --alpha, --json, --ic, --range (required), --columns, --file

Exit codes are a stable contract:

    0  success
    1  usage, parse, or configuration error, including a flag value that
       is not a finite number and a closed standard output
    2  solver failure (root non-convergence, singular constant fit), a value
       that overflows binary64, or a verify check whose values all underflow
    3  verification failure (residual above tolerance)

Errors are one line on stderr, ``confode: <kind>: <message>`` with the kind
``parse error`` (equation text), ``config error`` (a usage error, a bad
flag value or a bad solution document) or ``solver error``, or that kind
and message as a JSON object under ``--json``; an error writes nothing to
stdout.  Until argv parses, ``--json`` anywhere in it selects JSON.

Every command takes its input through one step, ``_solutions``, which
yields one solution per alpha.  The source is the positional argument or
``--file``; ``verify`` accepts either equation text (which it solves
first, fitting ``--ic`` when given) or what ``solve --json`` prints: one
solution document, or an array of them for ``--alpha-list`` — input
starting with ``{`` or ``[`` is treated as JSON.  A document fixes its
solution: ``--ic``, or alphas other than the documents' in order, is a
configuration error.  With no positional source and no ``--file``, verify
reads standard input, so ``solve --json | verify`` works as a pipe.
Verify checks each basis element and the particular solution on
``--range`` (by default 50 log-spaced points on [0.01, 3]), and a fitted
solution's derivatives at ``t0`` against its initial values.  One oracle
table holds the grid and, last, ``t0``: a point outside the oracle's
domain, ``t0`` included, is a configuration error before any check runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator

from .chareq import RootFindingError
from .conformable import OracleGrid, log_grid, operator_residual, relative_residuals
from .eqparse import EquationSyntaxError, problem_from_source
from .solver import (
    GeneralSolution,
    _sum_in_order,
    format_solution,
    solution_from_doc,
    solution_to_doc,
    solve_problem,
)
from .ualgebra import ZERO, PointTable, SubstMap, format_t, weighted_sum

DEFAULT_TOL = 1e-6
DEFAULT_GRID_LO = 0.01
DEFAULT_GRID_HI = 3.0
DEFAULT_GRID_COUNT = 50


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Usage error, bad flag value or unusable input.  When a flag's ``type``
    callable raises it, argparse reports ``argument --flag: message``."""


class _Parser(argparse.ArgumentParser):
    # main reports usage errors on its one error path, exit 1
    def error(self, message):
        raise ConfigError(message)


class _CommandParser(_Parser):
    def parse_known_args(self, args=None, namespace=None):
        # A flag this command does not read is named before argparse parses:
        # a misspelt required flag would read as that flag missing, and the
        # positional would take the flag's value and be reported too.
        # Like argparse, "--" ends the flags and a token with a space is text.
        flags = args[:args.index("--")] if "--" in args else args
        stray = [a for a in flags if a.startswith("--") and " " not in a
                 and a.split("=", 1)[0] not in self._option_string_actions]
        if stray:
            self.error(f"unrecognized arguments: {' '.join(stray)}")
        return super().parse_known_args(args, namespace)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"invalid float value: {text!r}") from None


def _alphas(values: list[float]) -> tuple[float, ...]:
    for a in values:
        if not (0.0 < a <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {a}")
    return tuple(values)


def _alpha(text: str) -> tuple[float, ...]:
    return _alphas([_float(text)])


def _alpha_list(text: str) -> tuple[float, ...]:
    return _alphas([_float(v) for v in text.split(",")])


def _tol(text: str) -> float:
    tol = _float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")
    return tol


def _parse_ic(text: str):
    try:
        head, tail = text.split(":", 1)
        t0 = float(head)
        targets = tuple(float(v) for v in tail.split(","))
    except ValueError as err:
        raise ConfigError(f"bad --ic (want t0:v0,v1,...): {err}") from err
    if not all(math.isfinite(v) for v in (t0, *targets)):
        raise ConfigError(f"initial conditions must be finite, got {text}")
    if t0 <= 0.0:
        raise ConfigError(f"initial point must be positive, got {t0}")
    return t0, targets


def _parse_range(text: str):
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as err:
        raise ConfigError(f"bad --range (want lo:hi:count): {err}") from err
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range ends must be finite, got {lo}:{hi}")
    if lo <= 0.0:
        raise ConfigError(f"range start must be positive, got {lo}")
    if hi <= lo:
        raise ConfigError(f"range must be increasing, got {lo}:{hi}")
    if n < 2:
        raise ConfigError(f"range needs at least 2 points, got {n}")
    return lo, hi, n


def build_parser() -> _Parser:
    p = _Parser(prog="confode", allow_abbrev=False, description=(
        "Closed-form general solutions to sequential linear conformable "
        "fractional differential equations with constant coefficients."))
    sub = p.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    # no prefixes: the flag table in the module docstring is every spelling
    solve = sub.add_parser("solve", allow_abbrev=False,
                           help="solve an equation and print the general solution")
    verify = sub.add_parser("verify", allow_abbrev=False,
                            help="check a solution numerically on a grid")
    sample = sub.add_parser("sample", allow_abbrev=False, help="evaluate a solution to CSV")
    alpha_help = "derivative order in (0, 1]"
    for sp in (solve, verify):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_alpha,
                           help=alpha_help)
        group.add_argument("--alpha-list", dest="alphas", metavar="ALPHA_LIST",
                           type=_alpha_list, help="comma-separated alpha values to sweep")
    sample.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_alpha, required=True,
                        help=alpha_help)
    for sp in (solve, verify, sample):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--ic", type=_parse_ic, help="initial conditions t0:v0,v1,...")
    verify.add_argument("--range", dest="trange", metavar="RANGE", type=_parse_range,
                        default=(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_COUNT),
                        help="log-spaced t grid lo:hi:count")
    sample.add_argument("--range", dest="trange", metavar="RANGE", type=_parse_range,
                        required=True, help="t grid lo:hi:count")
    verify.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                        help="verification tolerance (relative)")
    sample.add_argument("--columns", choices=("basic", "full"), default="basic",
                        help="emit per-basis columns with 'full'")
    for sp in (solve, verify, sample):
        sp.add_argument("--file", help="read the equation/solution from a file")
        sp.add_argument("source", nargs="?",
                        help="equation text, or solution JSON for verify")
    return p


def _solutions(ns: argparse.Namespace) -> Iterator[GeneralSolution]:
    """One solution per alpha, one at a time.

    The source is inline, from ``--file`` or, for verify only, from standard
    input.  Equation text is solved at each alpha, fitting ``--ic`` when
    given; the roots are found at the first alpha only, and the later ones
    take its basis.  Verify also reads solution documents, one or an array
    of them, whose alphas in order must be the requested ones; ``--ic`` is
    refused.
    """
    if ns.source is not None and ns.file is not None:
        raise ConfigError("give the equation either inline or via --file, not both")
    text = ns.source
    if ns.file is not None:
        try:
            with open(ns.file, encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as err:
            raise ConfigError(f"cannot read --file: {err}") from err
    if text is None:
        if ns.command != "verify":
            raise ConfigError("missing equation (positional argument or --file)")
        text = sys.stdin.read().strip()
    if text.lstrip().startswith(("{", "[")):
        if ns.command != "verify":
            raise ConfigError("solution JSON input is only accepted by verify")
        try:
            docs = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad solution JSON: {err}") from err
        if ns.ic is not None:
            raise ConfigError("--ic does not apply to a solution document; "
                              "fit the constants with solve --ic")
        sols = [solution_from_doc(doc) for doc in (docs if isinstance(docs, list) else [docs])]
        alphas = tuple(sol.spec.alpha for sol in sols)
        if alphas != ns.alphas:
            raise ConfigError(f"alphas {list(ns.alphas)} differ from the solution "
                              f"documents' alphas {list(alphas)}")
        yield from sols
        return
    sol = None
    for alpha in ns.alphas:
        spec = problem_from_source(text, alpha)
        t0, targets = ns.ic or (None, None)
        if targets is not None and len(targets) != spec.order:
            raise ConfigError(
                f"--ic needs {spec.order} target values for this equation, "
                f"got {len(targets)}")
        # the u-basis does not depend on alpha: the first alpha's serves all
        sol = solve_problem(spec, t0=t0, targets=targets, basis=sol.basis if sol else None)
        yield sol


# ---------------------------------------------------------------------------
# solve


def _solution_lines(sol: GeneralSolution) -> list[str]:
    subst = SubstMap(sol.spec.alpha)
    lines = [f"alpha = {sol.spec.alpha!r}", "basis:"]
    for i, e in enumerate(sol.basis.elements):
        lines.append(f"  y{i + 1}(t) = {format_t(e, subst)}")
    if sol.particular is not None:
        lines.append(f"particular: v(t) = {format_t(sol.particular, subst)}")
    if sol.constants is not None:
        pretty = ", ".join(f"c{i + 1} = {c!r}" for i, c in enumerate(sol.constants))
        lines.append(f"constants: {pretty}")
    lines.append(format_solution(sol))
    return lines


def cmd_solve(ns: argparse.Namespace) -> int:
    # everything is rendered before anything is printed: a failure prints nothing
    sols = list(_solutions(ns))
    if ns.json:
        docs = [solution_to_doc(sol) for sol in sols]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        print("\n".join(line for sol in sols for line in _solution_lines(sol)))
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_one(sol: GeneralSolution, grid, tol: float) -> dict:
    """Verify's report on ``sol``: each check's worst residual on ``grid``.

    The oracle is one :class:`OracleGrid` over the grid and, for a fitted
    solution, ``t0`` as its last point, so the initial-value check reads
    the values and quotients that the grid checks evaluated there: the
    numbers a one-point table at ``t0`` gives.  The grid keeps the columns
    of the expression whose check runs, which the residual summed; the
    underflow test reads them at the grid's points, and after each check
    only their ``t0`` entries are kept, each times the check's constant.
    Residuals and worst points read the grid's points only.  ``t0`` is
    checked like every grid point: one outside the oracle's domain raises
    before any check runs, and a value that overflows there fails the first
    check that evaluates it.
    """
    alpha = sol.spec.alpha
    coeffs = [float(c) for c in sol.spec.coeffs]
    # each check's constant scales its entries at t0; unfitted, none are taken
    constants = sol.constants or (1.0,) * sol.basis.n
    checks = [(f"basis element {i + 1}", e, ZERO, c)
              for i, (e, c) in enumerate(zip(sol.basis.elements, constants))]
    if sol.particular is not None:
        checks.append(("particular solution", sol.particular, sol.spec.forcing, 1.0))
    count = len(grid)
    oracle = OracleGrid(alpha, grid, None if sol.ic is None else sol.ic[0])

    def worst_point(ts, residuals: list[float]) -> dict:
        # the first maximum, as a loop keeping only a strictly greater one
        if not all(map(math.isfinite, residuals)):  # a value overflowed
            for t, r in zip(ts, residuals):
                if not math.isfinite(r):
                    raise OverflowError(f"the residual at t = {t!r} is not finite")
        worst = max(residuals)
        return {"max_residual": worst, "worst_t": ts[residuals.index(worst)]}

    found = {}
    # per check, its terms of v + sum c_i e_i at t0: the constant times
    # level 0's value and the quotient of each level below the last, at
    # the table's last point; the particular (constant 1.0) is summed first
    at_t0 = []
    n = sol.spec.order
    for label, y, forcing, c in checks:
        found[label] = worst_point(grid, operator_residual(coeffs, y, forcing, oracle))
        # y's columns are the grid's, summed by the residual; no name here
        # holds them, so the grid releases them before the next check's.
        # Values that all underflow to 0 check nothing.
        if not y.is_zero() and not any(oracle.columns(y, n)[0][:count]):
            raise FloatingPointError(f"every value of the {label} underflows to 0")
        if sol.ic is not None:
            at_t0.append([c * column[-1] for column in oracle.columns(y, n)[:n]])
    if sol.ic is not None:
        t0, targets = sol.ic
        if sol.particular is not None:  # its check ran last
            at_t0.insert(0, at_t0.pop())
        # the sum at t0 against the targets: level 0 is the value, level k
        # the quotient of level k - 1, which the fit never takes
        # each relative to its own max(sum |terms|, |target|), unfloored:
        # level k grows like |rate|^k, so one level floors no other
        rows = list(zip(*at_t0, targets))
        found["initial values"] = worst_point([t0] * len(targets), relative_residuals(
            [_sum_in_order(terms) - target for *terms, target in rows],
            [max(_sum_in_order(map(abs, terms)), abs(target)) for *terms, target in rows],
            0.0))
    worst_part = max(found, key=lambda label: found[label]["max_residual"])
    overall, overall_t = found[worst_part]["max_residual"], found[worst_part]["worst_t"]
    return {
        "alpha": sol.spec.alpha,
        "order": sol.spec.order,
        "tol": tol,
        "grid": {"t_lo": grid[0], "t_hi": grid[-1], "count": len(grid)},
        "elements": [{"index": i, **found[f"basis element {i + 1}"]}
                     for i in range(sol.basis.n)],
        "particular": found.get("particular solution"),
        "combined": found.get("initial values"),
        "max_residual": overall,
        "worst_t": overall_t,
        "worst_part": worst_part,
        "ok": overall < tol,
    }


def cmd_verify(ns: argparse.Namespace) -> int:
    grid = log_grid(*ns.trange)
    # one alpha at a time: the first failure reported is the first alpha's
    reports = [_verify_one(sol, grid, ns.tol) for sol in _solutions(ns)]
    if ns.json:
        print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    else:
        for rep in reports:
            state = "ok" if rep["ok"] else "FAIL"
            print(f"alpha = {rep['alpha']!r}: max residual {rep['max_residual']:.3e} "
                  f"({rep['worst_part']} at t = {rep['worst_t']:.6g}) "
                  f"tol {rep['tol']:.1e} -> {state}")
    return 0 if all(rep["ok"] for rep in reports) else 3


# ---------------------------------------------------------------------------
# sample


def cmd_sample(ns: argparse.Namespace) -> int:
    lo, hi, count = ns.trange
    [sol] = _solutions(ns)
    subst = SubstMap(sol.spec.alpha)

    header = ["t", "y"]
    if ns.columns == "full":
        header += [f"y_basis_{i + 1}" for i in range(sol.basis.n)]
        if sol.particular is not None:
            header.append("y_particular")
    step = (hi - lo) / (count - 1)
    ts = [hi if i == count - 1 else lo + i * step for i in range(count)]
    table = PointTable(ts, subst)
    vals = [table.values(e.float_rows) for e in sol.basis.elements]
    weights = list(sol.constants or (0.0,) * sol.basis.n)
    if sol.particular is not None:
        vals.append(table.values(sol.particular.float_rows))
        weights.append(1.0)
    # y = sum c_i e_i + v, summed left to right at each point
    columns = [weighted_sum(zip(weights, vals), count)]
    if ns.columns == "full":
        columns += vals
    if not all(all(map(math.isfinite, col)) for col in columns):
        raise OverflowError("a sampled value is not finite")
    # one write for the whole CSV: unbuffered stdout makes each call a syscall
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in zip(ts, *columns)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry


def _report_error(json_out: bool, kind: str, message: str) -> None:
    if json_out:
        print(json.dumps({"error": {"kind": kind, "message": message}}),
              file=sys.stderr)
    else:
        print(f"confode: {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    json_out = "--json" in argv  # until argv parses
    try:
        ns = build_parser().parse_args(argv)
        json_out = ns.json
        command = {"solve": cmd_solve, "verify": cmd_verify, "sample": cmd_sample}[ns.command]
        code = command(ns)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _report_error(json_out, "config error", "standard output is closed")
        return 1
    except EquationSyntaxError as err:
        _report_error(json_out, "parse error", str(err))
        return 1
    except ValueError as err:  # ConfigError, DomainError, a bad solution document
        _report_error(json_out, "config error", str(err))
        return 1
    except (RootFindingError, ArithmeticError) as err:
        message = str(err)
        if isinstance(err, OverflowError):  # the last argument is the text
            message = f"a value overflows binary64 ({err.args[-1] if err.args else ''})"
        _report_error(json_out, "solver error", message)
        return 2


if __name__ == "__main__":
    sys.exit(main())
