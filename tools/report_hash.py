"""Fingerprint confode's solve and verify output on the benchmark's cases.

Usage::

    python3 tools/report_hash.py --seed 7
    python3 tools/report_hash.py --seed 7 --residuals

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
reports' ``max_residual``.  That is the check for a change that moves the
hashes on purpose: no verify should get worse.

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
from confode.conformable import log_grid  # noqa: E402
from confode.eqparse import problem_from_source  # noqa: E402
from confode.solver import solution_to_doc, solve_problem  # noqa: E402
from workloads import forcing_sweep, order_sweep  # noqa: E402

GRID = log_grid(cli.DEFAULT_GRID_LO, cli.DEFAULT_GRID_HI, cli.DEFAULT_GRID_COUNT)

SAMPLE_ARGV = ["sample", "--alpha", "0.5", "--range", "0.5:4:10000", "--columns", "full",
               "T2 y + 2 T y + 5 y = cos(2 t^a)"]


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


def residual_summary(records: list) -> str:
    """Verify outcome counts and log10 residual spread of case records."""
    reports = [r[1] for r in records if isinstance(r[1], dict)]
    ok = sum(1 for r in reports if r["ok"])
    logs = [math.log10(r["max_residual"]) if r["max_residual"] > 0 else -math.inf
            for r in reports]
    spread = (f"log10 median {statistics.median(logs):.2f} max {max(logs):.2f}"
              if logs else "no residuals")
    return (f"ok {ok} not-ok {len(reports) - ok} raised {len(records) - len(reports)} "
            f"{spread}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--residuals", action="store_true",
                    help="also summarise each workload's verify outcomes and residuals")
    ns = ap.parse_args(argv)
    for name, make, batches in (("order-sweep", order_sweep, 2),
                                ("forcing-sweep", forcing_sweep, 6)):
        records = [case_record(case) for batch in range(batches)
                   for case in make(ns.seed, batch)]
        print(f"{name} {len(records)} cases {digest(json.dumps(records, sort_keys=True))}")
        if ns.residuals:
            print(f"{name} residuals {residual_summary(records)}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(SAMPLE_ARGV)
    print(f"sample exit {code} {digest(out.getvalue())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
