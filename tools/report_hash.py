"""Fingerprint confode's solve, verify, CLI, parse and root-finding output
on the benchmark's cases.

Usage::

    python3 tools/report_hash.py --seed 7

One run prints nine lines, each a sha256 of ``json.dumps`` of a list of
records, with counts.  A refusal (an exception's type and message) is a
record like any other.

- ``order-sweep`` and ``forcing-sweep``: every case of order-sweep batches
  0-1 and forcing-sweep batches 0-5 (generated by ``bench/workloads.py``)
  is solved, fitting constants where the case carries initial values, and
  checked by the CLI's verify on the benchmark's grid.  A case contributes
  ``[solution_to_doc(sol), cli._verify_one(sol, GRID, DEFAULT_TOL)]``, and
  the list is dumped with its keys sorted.  After each hash come how many
  verifies were ok, not ok and raised, with the median and max log10 of
  their ``max_residual``; order-sweep, whose cases are fitted, also gets
  the count and log10 spread of its initial-value checks (the reports'
  ``combined`` records).  These lines show that a change which moves the
  hashes on purpose makes no verify worse.
- ``sample``: the stdout of one ``sample --columns full`` run.
- ``cli``: ``cli.main`` runs in-process, with stdout and stderr captured,
  over cli-roundtrip batches 0-2 (a piped case reads the previous run's
  stdout), the README's CLI examples, and one run of each usage, parse,
  config and solver error, each also under ``--json``.  A run contributes
  ``[argv, exit, stdout, stderr]``.
- ``parse``: the exact parse of every equation source above.  A source
  contributes ``repr((spec.coeffs, spec.forcing))``, whose rationals are
  exact, where the other hashes go through floats.
- ``roots``: ``find_roots`` on every polynomial of roots batches 0-15, with
  the counts of cases that landed and that raised.  A case contributes
  ``repr(find_roots(CharPoly(coeffs)))``.

A change that claims bit-identical output must print the same lines as its
parent: copy the tool into the older checkout to compare.  The lines are
the same on CPython 3.10 to 3.13, since confode adds its binary64 sums left
to right on each of them.  Characteristic roots still carry floating-point
dust that depends on the host, so compare between commits on one host
only.  Nothing is written; ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from confode import cli  # noqa: E402
from confode.chareq import CharPoly, find_roots  # noqa: E402
from confode.conformable import log_grid  # noqa: E402
from confode.eqparse import problem_from_source  # noqa: E402
from confode.solver import solution_to_doc, solve_problem  # noqa: E402
from workloads import cli_roundtrip, forcing_sweep, order_sweep, roots  # noqa: E402

GRID = log_grid(cli.DEFAULT_GRID_LO, cli.DEFAULT_GRID_HI, cli.DEFAULT_GRID_COUNT)

SAMPLE_ARGV = ["sample", "--alpha", "0.5", "--range", "0.5:4:10000", "--columns", "full",
               "T2 y + 2 T y + 5 y = cos(2 t^a)"]

#: The README's CLI section, as (piped, argv): a piped run reads the
#: previous run's stdout, any other run an empty stdin.
README_RUNS = [
    (False, ["solve", "--alpha", "0.5", "T2 y + 4 T y + 3 y = exp(2 t^a)"]),
    (False, ["solve", "--alpha-list", "0.25,0.5,0.75,1.0", "T2 y - 10 T y + 25 y = 0"]),
    (False, ["solve", "--alpha", "1", "--ic", "1:0.417,-0.538", "T2 y + 4 T y + 3 y = 0"]),
    (False, ["verify", "--alpha", "0.75", "T2 y + 4 T y + 3 y = t^(2 a)"]),
    (False, ["verify", "--alpha", "0.5", "--ic", "1:1,0", "T2 y + 3 T y + 2 y = 0"]),
    (False, ["solve", "--alpha", "0.75", "--json", "T2 y + 4 T y + 3 y = sin(2 t^a)"]),
    (True, ["verify", "--alpha", "0.75", "--json"]),
    (False, ["sample", "--alpha", "0.5", "--range", "0.5:4:200", "--columns", "full",
             "T2 y + T y + y = 0"]),
]

HOMOG = "T2 y + 4 T y + 3 y = 0"
#: One run of each kind of error, and a failed verify; each runs again
#: with --json appended.
ERROR_RUNS = [
    # usage
    [],
    ["solve", HOMOG],
    ["solve", "--alpha", "0.5", "--bogus", "1", HOMOG],
    ["solve", "--alpha", "0.5", "--tol", "1e-3", HOMOG],
    ["solve", "--al", "0.5", HOMOG],
    ["sample", "--al", "0.5", "--ra", "1:2:3", HOMOG],
    ["sample", "--alpha", "0.5", "--ra", "1:2:3", HOMOG],
    ["solve", "--alpha", "0.5", "--alpha-list", "0.5,1", HOMOG],
    ["sample", "--alpha", "0.5", "--range", "1:2:3", "--columns", "fancy", HOMOG],
    # parse
    ["solve", "--alpha", "0.5", "T2 y = tan(t^a)"],
    ["solve", "--alpha", "0.5", "T y = )"],
    ["verify", "--alpha", "0.5", "[1, 2]"],  # config: JSON, but no solution document
    # config
    ["solve", "--alpha", "1.5", HOMOG],
    ["verify", "--alpha", "0.5", "--tol", "nan", HOMOG],
    ["solve", "--alpha", "0.5", "--ic", "nan:1,0", HOMOG],
    ["solve", "--alpha", "0.5", "--ic", "1:1", HOMOG],
    ["sample", "--alpha", "0.5", "--range", "0:3:3", HOMOG],
    ["solve", "--alpha", "0.5", "--file", "no-such-equation.txt"],
    ["solve", "--alpha", "0.5", "--file", "no-such-equation.txt", HOMOG],
    ["solve", "--alpha", "0.5"],
    ["solve", "--alpha", "0.5", '{"alpha": 0.5}'],
    ["verify", "--alpha", "0.5", '{"alpha": 0.5,'],
    ["verify", "--alpha", "0.5", '{"foo": 1}'],
    ["verify", "--alpha", "0.5", "--range", "1:2000000:5", HOMOG],
    # solver, and a failed verify
    ["sample", "--alpha", "1", "--range", "1:1000:3", "T y - 2 y = 0"],
    ["verify", "--alpha", "1", "--range", "1:1000:3", "T y - 2 y = 0"],
    ["solve", "--alpha", "1", "--ic", "1000:1", "T y - 2 y = 0"],
    ["solve", "--alpha", "1e-310", "T y + y = 0"],
    ["solve", "--alpha", "1e-200", "T3 y = 0"],
    ["verify", "--alpha", "0.5", "--tol", "1e-30", HOMOG],
]


def outcome(compute, case):
    """``compute(case)``, or the type and message of the exception it
    raised: a refusal is part of the output being fingerprinted."""
    try:
        return compute(case)
    except Exception as err:
        return [type(err).__name__, str(err)]


def solved(case) -> list:
    """The solution document and verify report of one sweep case."""
    spec = problem_from_source(case.source, case.alpha)
    if case.ic is None:
        sol = solve_problem(spec)
    else:
        sol = solve_problem(spec, t0=case.ic[0], targets=case.ic[1])
    return [solution_to_doc(sol), cli._verify_one(sol, GRID, cli.DEFAULT_TOL)]


def parsed(case) -> tuple:
    """The exact parse of one equation source."""
    spec = problem_from_source(case.source, case.alpha)
    return spec.coeffs, spec.forcing


def log_spread(records: list[dict]) -> str:
    """The median and max log10 ``max_residual`` of verify records."""
    logs = [math.log10(r["max_residual"]) if r["max_residual"] > 0 else -math.inf
            for r in records]
    if not logs:
        return "no residuals"
    return f"log10 median {statistics.median(logs):.2f} max {max(logs):.2f}"


def residual_summary(records: list) -> str:
    """Verify outcome counts and log10 residual spread of case records."""
    reports = [r[1] for r in records if isinstance(r[1], dict)]
    ok = sum(1 for r in reports if r["ok"])
    return (f"ok {ok} not-ok {len(reports) - ok} raised {len(records) - len(reports)} "
            f"{log_spread(reports)}")


def initial_value_summary(records: list) -> str | None:
    """The count and log10 residual spread of the initial-value checks of
    case records, or None when no case was fitted."""
    checks = [r[1]["combined"] for r in records
              if isinstance(r[1], dict) and r[1]["combined"] is not None]
    return f"{len(checks)} checks {log_spread(checks)}" if checks else None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_run(argv: list[str], stdin: str) -> list:
    """``[argv, exit code, stdout, stderr]`` of one in-process ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as stop:
                code = stop.code
    finally:
        sys.stdin = saved
    return [list(argv), code, out.getvalue(), err.getvalue()]


def cli_records(roundtrip: list) -> list:
    """The command lines fingerprinted, in order: the cli-roundtrip cases,
    the README's runs and the error runs."""
    records = []
    for piped, argv in [(case.pipe, case.argv) for case in roundtrip] + README_RUNS:
        records.append(cli_run(argv, records[-1][2] if piped else ""))
    for argv in ERROR_RUNS:
        records += [cli_run(argv, ""), cli_run(argv + ["--json"], "")]
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    seed = ap.parse_args(argv).seed
    sources = []
    for name, make, batches in (("order-sweep", order_sweep, 2),
                                ("forcing-sweep", forcing_sweep, 6)):
        cases = [case for batch in range(batches) for case in make(seed, batch)]
        sources += cases
        records = [outcome(solved, case) for case in cases]
        print(f"{name} {len(records)} cases {digest(json.dumps(records, sort_keys=True))}")
        print(f"{name} residuals {residual_summary(records)}")
        if summary := initial_value_summary(records):
            print(f"{name} initial values {summary}")
    _, code, out, _ = cli_run(SAMPLE_ARGV, "")
    print(f"sample exit {code} {digest(out)}")
    roundtrip = [case for batch in range(3) for case in cli_roundtrip(seed, batch)]
    records = cli_records(roundtrip)
    print(f"cli {len(records)} runs {digest(json.dumps(records))}")
    sources += [case.equation for case in roundtrip]
    # a refusal's [type, message] is fingerprinted as a tuple, as a parse is
    records = [repr(tuple(outcome(parsed, case))) for case in sources]
    print(f"parse {len(records)} sources {digest(json.dumps(records))}")
    records = [outcome(lambda case: repr(find_roots(CharPoly(case.coeffs))), case)
               for batch in range(16) for case in roots(seed, batch)]
    raised = sum(1 for r in records if isinstance(r, list))
    print(f"roots {len(records)} cases landed {len(records) - raised} raised {raised} "
          f"{digest(json.dumps(records))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
