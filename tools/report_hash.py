"""Fingerprint confode's solve and verify output on the benchmark's cases.

Usage::

    python3 tools/report_hash.py --seed 7
    python3 tools/report_hash.py --seed 7 --residuals
    python3 tools/report_hash.py --seed 7 --cli
    python3 tools/report_hash.py --seed 7 --parse
    python3 tools/report_hash.py --seed 7 --roots

For every case of order-sweep batches 0-1 and forcing-sweep batches 0-5
(generated by ``bench/workloads.py``) it solves the equation, fitting
constants where the case carries initial values, and runs the CLI's
verify on the benchmark's grid.  Each case contributes
``[solution_to_doc(sol), cli._verify_one(sol, GRID, DEFAULT_TOL)]``, or the
type and message of the exception it raised.  The script prints the
sha256 of ``json.dumps`` of each workload's list (keys sorted), and of the
stdout of one ``sample --columns full`` run.

With ``--residuals`` it also prints, per workload, how many verifies were
ok, not ok and raised, and the median and max log10 of the verify
reports' ``max_residual``; and, for a workload with fitted cases, how many
initial-value checks (the reports' ``combined`` records) ran, with the
median and max log10 of their ``max_residual``.  That is the check for a
change that moves the hashes on purpose: no verify should get worse.

With ``--cli`` it prints instead one sha256 over the whole command line:
``cli.main`` runs in-process, with stdout and stderr captured, over
cli-roundtrip batches 0-2 of the seed (a piped case reads the previous
run's stdout), the README's CLI examples, and one run of each usage,
parse, config and solver error, each also under ``--json``.  The hash is
of ``json.dumps`` of the list of ``[argv, exit, stdout, stderr]`` of every
run.

With ``--parse`` it prints instead one sha256 over the exact parse of
every equation source above: order-sweep batches 0-1, forcing-sweep
batches 0-5 and cli-roundtrip batches 0-2.  Each source contributes
``repr((spec.coeffs, spec.forcing))``, whose rationals are exact, or the
type and message of the exception it raised; the other hashes go through
floats, where two exact forms that round alike look the same.  The hash is
for comparing two commits (copy the tool into the older checkout); within
one tree, ``tests/test_eqparse.py`` compares the parser with a frozen copy
of its predecessor on these sources.

With ``--roots`` it prints instead one sha256 over ``find_roots`` on every
polynomial of roots batches 0-15, with the counts of cases that landed and
that raised.  Each case contributes ``repr(find_roots(CharPoly(coeffs)))``,
or the type and message of the exception it raised.

A change that claims bit-identical output must print the same hashes as
its parent.  Characteristic roots carry floating-point dust that depends on
the CPU, so compare hashes between commits on one host only.  Nothing is
written; ``bench/`` is only read.
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


def case_record(case) -> list:
    try:
        spec = problem_from_source(case.source, case.alpha)
        if case.ic is None:
            sol = solve_problem(spec)
        else:
            sol = solve_problem(spec, t0=case.ic[0], targets=case.ic[1])
        return [solution_to_doc(sol), cli._verify_one(sol, GRID, cli.DEFAULT_TOL)]
    except Exception as err:  # a refusal is part of the output being fingerprinted
        return [type(err).__name__, str(err)]


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


def cli_records(seed: int) -> list:
    """The runs ``--cli`` fingerprints, in order."""
    records = []
    runs = [(case.pipe, case.argv) for batch in range(3)
            for case in cli_roundtrip(seed, batch)]
    for piped, argv in runs + README_RUNS:
        records.append(cli_run(argv, records[-1][2] if piped else ""))
    for argv in ERROR_RUNS:
        records += [cli_run(argv, ""), cli_run(argv + ["--json"], "")]
    return records


def parse_records(seed: int) -> list[str]:
    """The exact parse of every source ``--parse`` fingerprints, in order."""
    cases = [case for make, batches in ((order_sweep, 2), (forcing_sweep, 6))
             for batch in range(batches) for case in make(seed, batch)]
    cases += [case.equation for batch in range(3) for case in cli_roundtrip(seed, batch)]
    records = []
    for case in cases:
        try:
            spec = problem_from_source(case.source, case.alpha)
            records.append(repr((spec.coeffs, spec.forcing)))
        except Exception as err:  # a refusal is part of the output being fingerprinted
            records.append(repr((type(err).__name__, str(err))))
    return records


def roots_records(seed: int) -> list:
    """The outcome of ``find_roots`` on every polynomial ``--roots``
    fingerprints, in order: a repr, or a raised exception's
    ``[type, message]``."""
    records = []
    for case in [case for batch in range(16) for case in roots(seed, batch)]:
        try:
            records.append(repr(find_roots(CharPoly(case.coeffs))))
        except Exception as err:  # a refusal is part of the output being fingerprinted
            records.append([type(err).__name__, str(err)])
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--residuals", action="store_true",
                    help="also summarise each workload's verify outcomes and residuals")
    ap.add_argument("--cli", action="store_true",
                    help="fingerprint whole command lines instead (see above)")
    ap.add_argument("--parse", action="store_true",
                    help="fingerprint the exact parse of every source instead (see above)")
    ap.add_argument("--roots", action="store_true",
                    help="fingerprint find_roots on the roots workload instead (see above)")
    ns = ap.parse_args(argv)
    if ns.roots:
        records = roots_records(ns.seed)
        raised = sum(1 for r in records if isinstance(r, list))
        print(f"roots {len(records)} cases landed {len(records) - raised} raised {raised} "
              f"{digest(json.dumps(records))}")
        return 0
    if ns.parse:
        records = parse_records(ns.seed)
        print(f"parse {len(records)} sources {digest(json.dumps(records))}")
        return 0
    if ns.cli:
        records = cli_records(ns.seed)
        print(f"cli {len(records)} runs {digest(json.dumps(records))}")
        return 0
    for name, make, batches in (("order-sweep", order_sweep, 2),
                                ("forcing-sweep", forcing_sweep, 6)):
        records = [case_record(case) for batch in range(batches)
                   for case in make(ns.seed, batch)]
        print(f"{name} {len(records)} cases {digest(json.dumps(records, sort_keys=True))}")
        if ns.residuals:
            print(f"{name} residuals {residual_summary(records)}")
            if summary := initial_value_summary(records):
                print(f"{name} initial values {summary}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(SAMPLE_ARGV)
    print(f"sample exit {code} {digest(out.getvalue())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
