"""Command-line front door: solve, verify, sample.

Exit codes are a stable contract:

    0  success
    1  usage, parse, or configuration error, including a flag value that
       is not a finite number
    2  solver failure (root non-convergence, incomplete basis, singular
       constant fit), or a value that overflows binary64
    3  verification failure (residual above tolerance)

Errors are one line on stderr, ``confode: <kind>: <message>`` with the kind
``parse error`` (equation text), ``config error`` or ``solver error``, or
that kind and message as a JSON object under ``--json``; a failing
``solve`` or ``sample`` writes nothing to stdout.

``verify`` accepts either equation text (which it solves first, fitting
``--ic`` when given) or a solution document produced by ``solve --json`` —
input starting with ``{`` is treated as JSON.  A document fixes its
solution: ``--ic``, or an alpha other than the document's, is a
configuration error.  With no positional source and no ``--file``, verify
reads standard input, so ``solve --json | verify`` works as a pipe.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .chareq import RootFindingError
from .conformable import OracleGrid, log_grid, operator_residual
from .eqparse import EquationSyntaxError, problem_from_source
from .solver import (
    GeneralSolution,
    format_solution,
    solution_from_doc,
    solution_to_doc,
    solve_problem,
)
from .ualgebra import ZERO, PointTable, SubstMap, _read_only, format_t

DEFAULT_TOL = 1e-6
DEFAULT_GRID_LO = 0.01
DEFAULT_GRID_HI = 3.0
DEFAULT_GRID_COUNT = 50


class ConfigError(ValueError):
    """Bad flag combination or malformed flag value."""


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class RunConfig:
    """One command's validated flags, read-only.  ``source`` is the equation
    text and ``doc`` the parsed solution JSON; one of them is None."""

    def __init__(self, alphas: tuple[float, ...], source: str | None, doc: dict | None,
                 json_out: bool, ic: tuple[float, tuple[float, ...]] | None,
                 trange: tuple[float, float, int] | None, tol: float, columns: str):
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "doc", doc)
        object.__setattr__(self, "json_out", json_out)
        object.__setattr__(self, "ic", ic)
        object.__setattr__(self, "trange", trange)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "columns", columns)

    __setattr__ = __delattr__ = _read_only


def build_parser() -> _Parser:
    p = _Parser(prog="confode", description=(
        "Closed-form general solutions to sequential linear conformable "
        "fractional differential equations with constant coefficients."))
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (("solve", "solve an equation and print the general solution"),
                      ("verify", "check a solution numerically on a grid"),
                      ("sample", "evaluate a solution to CSV")):
        sp = sub.add_parser(name, help=doc)
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--alpha", type=float, help="derivative order in (0, 1]")
        group.add_argument("--alpha-list",
                           help="comma-separated alpha values to sweep")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--ic", help="initial conditions t0:v0,v1,...")
        sp.add_argument("--range", dest="trange", help="t grid lo:hi:count")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="verification tolerance (relative)")
        sp.add_argument("--columns", choices=("basic", "full"), default="basic",
                        help="sample: emit per-basis columns with 'full'")
        sp.add_argument("--file", help="read the equation/solution from a file")
        sp.add_argument("source", nargs="?",
                        help="equation text, or solution JSON for verify")
    return p


def _parse_alphas(ns) -> tuple[float, ...]:
    if ns.alpha is not None:
        alphas = (ns.alpha,)
    else:
        try:
            alphas = tuple(float(v) for v in ns.alpha_list.split(","))
        except ValueError as err:
            raise ConfigError(f"bad --alpha-list: {err}") from err
        if not alphas:
            raise ConfigError("--alpha-list is empty")
    for a in alphas:
        if not (0.0 < a <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {a}")
    return alphas


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


def config_from_args(ns) -> RunConfig:
    alphas = _parse_alphas(ns)
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
        if ns.command == "verify":
            text = sys.stdin.read().strip()
        else:
            raise ConfigError("missing equation (positional argument or --file)")
    doc = None
    source = text
    if text.lstrip().startswith("{"):
        if ns.command != "verify":
            raise ConfigError("solution JSON input is only accepted by verify")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad solution JSON: {err}") from err
        source = None
    if not (math.isfinite(ns.tol) and ns.tol > 0.0):
        raise ConfigError(f"tolerance must be positive and finite, got {ns.tol}")
    return RunConfig(
        alphas=alphas,
        source=source,
        doc=doc,
        json_out=ns.json,
        ic=None if ns.ic is None else _parse_ic(ns.ic),
        trange=None if ns.trange is None else _parse_range(ns.trange),
        tol=ns.tol,
        columns=ns.columns,
    )


# ---------------------------------------------------------------------------
# solve


def _solve_one(cfg: RunConfig, alpha: float) -> GeneralSolution:
    spec = problem_from_source(cfg.source, alpha)
    if cfg.ic is None:
        return solve_problem(spec)
    t0, targets = cfg.ic
    if len(targets) != spec.order:
        raise ConfigError(
            f"--ic needs {spec.order} target values for this equation, "
            f"got {len(targets)}")
    return solve_problem(spec, t0=t0, targets=targets)


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


def cmd_solve(cfg: RunConfig) -> int:
    # everything is rendered before anything is printed: a failure prints nothing
    sols = [_solve_one(cfg, alpha) for alpha in cfg.alphas]
    if cfg.json_out:
        docs = [solution_to_doc(sol) for sol in sols]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        print("\n".join(line for sol in sols for line in _solution_lines(sol)))
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_grid(cfg: RunConfig) -> list[float]:
    if cfg.trange is not None:
        lo, hi, count = cfg.trange
        return log_grid(lo, hi, count)
    return log_grid(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_COUNT)


def _max_residual(sol: GeneralSolution, y, forcing, grid: OracleGrid):
    residuals = operator_residual([float(c) for c in sol.spec.coeffs], y, forcing, grid)
    worst, worst_t = -1.0, grid.ts[0]
    for t, r in zip(grid.ts, residuals):
        if not math.isfinite(r):  # a value overflowed; nan would never be the worst
            raise OverflowError(f"the residual at t = {t!r} is not finite")
        if r > worst:
            worst, worst_t = r, t
    return worst, worst_t


def _verify_one(sol: GeneralSolution, grid, tol: float) -> dict:
    oracle = OracleGrid(sol.spec.alpha, grid)
    elements = []
    overall, overall_t, overall_what = -1.0, grid[0], ""
    for i, e in enumerate(sol.basis.elements):
        r, t = _max_residual(sol, e, ZERO, oracle)
        elements.append({"index": i, "max_residual": r, "worst_t": t})
        if r > overall:
            overall, overall_t, overall_what = r, t, f"basis element {i + 1}"
    particular = None
    if sol.particular is not None:
        r, t = _max_residual(sol, sol.particular, sol.spec.forcing, oracle)
        particular = {"max_residual": r, "worst_t": t}
        if r > overall:
            overall, overall_t, overall_what = r, t, "particular solution"
    combined = None
    if sol.constants is not None:
        # v + sum c_i e_i, from the levels the checks above evaluated
        y = [] if sol.particular is None else [(1.0, sol.particular)]
        y += zip(sol.constants, sol.basis.elements)
        r, t = _max_residual(sol, y, sol.spec.forcing, oracle)
        combined = {"max_residual": r, "worst_t": t}
        if r > overall:
            overall, overall_t, overall_what = r, t, "fitted solution"
    return {
        "alpha": sol.spec.alpha,
        "order": sol.spec.order,
        "tol": tol,
        "grid": {"t_lo": grid[0], "t_hi": grid[-1], "count": len(grid)},
        "elements": elements,
        "particular": particular,
        "combined": combined,
        "max_residual": overall,
        "worst_t": overall_t,
        "worst_part": overall_what,
        "ok": overall < tol,
    }


def _doc_solution(cfg: RunConfig) -> GeneralSolution:
    """The document's solution, refusing flags that would not apply to it."""
    if cfg.ic is not None:
        raise ConfigError("--ic does not apply to a solution document; "
                          "fit the constants with solve --ic")
    sol = solution_from_doc(cfg.doc)
    for alpha in cfg.alphas:
        if alpha != sol.spec.alpha:
            raise ConfigError(f"alpha {alpha!r} differs from the solution document's "
                              f"alpha {sol.spec.alpha!r}")
    return sol


def cmd_verify(cfg: RunConfig) -> int:
    grid = _verify_grid(cfg)
    reports = []
    if cfg.doc is not None:
        reports.append(_verify_one(_doc_solution(cfg), grid, cfg.tol))
    else:
        for alpha in cfg.alphas:
            reports.append(_verify_one(_solve_one(cfg, alpha), grid, cfg.tol))
    if cfg.json_out:
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


def cmd_sample(cfg: RunConfig) -> int:
    if cfg.trange is None:
        raise ConfigError("sample needs --range lo:hi:count")
    if len(cfg.alphas) != 1:
        raise ConfigError("sample needs a single --alpha")
    lo, hi, count = cfg.trange
    sol = _solve_one(cfg, cfg.alphas[0])
    subst = SubstMap(sol.spec.alpha)
    constants = sol.constants
    if constants is None:
        constants = tuple(0.0 for _ in sol.basis.elements)

    header = ["t", "y"]
    if cfg.columns == "full":
        header += [f"y_basis_{i + 1}" for i in range(sol.basis.n)]
        if sol.particular is not None:
            header.append("y_particular")
    step = (hi - lo) / (count - 1)
    ts = [hi if i == count - 1 else lo + i * step for i in range(count)]
    table = PointTable(ts, subst)
    basis_vals = [table.eval(e) for e in sol.basis.elements]
    part_val = table.eval(sol.particular) if sol.particular is not None else [0.0] * count
    y = [0.0] * count  # summed left to right at each point
    for c, vals in zip(constants, basis_vals):
        y = [s + c * v for s, v in zip(y, vals)]
    columns = [[s + v for s, v in zip(y, part_val)]]
    if cfg.columns == "full":
        columns += basis_vals
        if sol.particular is not None:
            columns.append(part_val)
    if not all(math.isfinite(v) for col in columns for v in col):
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
    ns = build_parser().parse_args(argv)
    json_out = bool(getattr(ns, "json", False))
    try:
        cfg = config_from_args(ns)
    except ConfigError as err:
        _report_error(json_out, "config error", str(err))
        return 1
    command = {"solve": cmd_solve, "verify": cmd_verify, "sample": cmd_sample}[ns.command]
    try:
        return command(cfg)
    except EquationSyntaxError as err:
        _report_error(json_out, "parse error", str(err))
        return 1
    except (ConfigError, ValueError) as err:
        _report_error(json_out, "config error", str(err))
        return 1
    except (RootFindingError, ArithmeticError) as err:
        message = str(err)
        if isinstance(err, OverflowError):
            message = f"a value overflows binary64 ({message})"
        _report_error(json_out, "solver error", message)
        return 2


if __name__ == "__main__":
    sys.exit(main())
