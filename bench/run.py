"""confode benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload order-sweep --seed 1 --seconds 20 --trace 0

The runner sets up five times (a fresh interpreter's import, generating
the first batch, a warm-up).  A run's inputs are the first
``RUN_BATCHES[workload]`` batches of the workload's seeded stream.  The
runner goes through them in turn, and round again, until ``--seconds`` have
passed and every batch has run at least once; it always finishes the batch
it is in.  Each case is one operation; the next starts when the previous
one has returned.  ``cli-roundtrip`` operations are ``confode`` child
processes, run one at a time.  ``attempted`` counts the distinct cases of
the run's inputs and ``failed`` those that failed on any of their runs, so
both depend on the seed and the program only, not on how fast the host is.
Each output is checked as soon as its operation returns, outside the timed
region.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` batches alternate between untraced
and traced, and the JSON holds the per-layer metrics read from the traced
batches plus the tracing overhead against the untraced ones.  Lines above
it are a readable summary.  The full result, with the environment and the
generated inputs, is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_ROUNDS = 5
#: The reference loop's time, in ms, on the 2-core x86_64 host of the
#: baseline at its usual speed.  ``setup_s`` is given in seconds at this
#: speed (see ``setup_round``).
REFERENCE_NOMINAL_MS = 20.0
#: Batches of the seeded stream that make up one run's inputs.  One round
#: through them takes 8-17 s on a 2-core x86_64 host, so a run at
#: --seconds 20 finishes the round and repeats batches for the time left.
RUN_BATCHES = {"order-sweep": 2, "forcing-sweep": 6, "cli-roundtrip": 6, "roots": 16}
REFERENCE_EVERY_S = 0.25
#: How often cli-roundtrip times its reference, a child process (below).
SPAWN_REFERENCE_EVERY_S = 1.0
CHILD_TIMEOUT_S = 120
CLI_ENTRY = "import sys; from confode.cli import main; sys.exit(main())"


def _import_confode():
    """Import confode from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "confode" / "__init__.py").is_file():
        sys.exit(f"bench: no confode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import confode
    if Path(confode.__file__).resolve().parent != SRC / "confode":
        sys.exit(f"bench: imported confode from {confode.__file__}, not {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _wall_ms(argv, env) -> float:
    """Wall time of one child process.

    The child's output is captured so that the wait ends when its pipes
    close.  Without pipes, a wait with a timeout polls with sleeps doubling
    up to 50 ms, which rounds the time up to the next poll.
    """
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return 1e3 * (time.perf_counter() - t0)


def reference_ms() -> float:
    """Milliseconds of a fixed pure-Python computation (about 20 ms).

    A shared host can change speed by 20-40% within seconds (measured on a
    2-core x86_64 host), and the swings reach every process alike: process
    CPU time tracks wall time.  The runner times this loop every
    REFERENCE_EVERY_S between operations and divides each operation's time
    by the loop's local time (on every workload but cli-roundtrip, which
    uses spawn_reference_ms).  The loop does the kind of work confode does
    (Fraction arithmetic, dict and float operations) and touches no confode
    code, so a change to confode cannot move it.
    """
    t0 = time.perf_counter()
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1000):
        x = (x * Fraction(i % 7 + 1, 5) + Fraction(1, i % 11 + 2)).limit_denominator(1 << 20)
        key = (i % 97, x.denominator % 13)
        acc[key] = acc.get(key, 0.0) + float(x)
    return 1e3 * (time.perf_counter() - t0)


def spawn_reference_ms() -> float:
    """Milliseconds of a child ``python -c "import numpy"`` (about 170 ms).

    cli-roundtrip's reference.  On the 2-core x86_64 host of the baseline,
    child processes ran about 40% slower for the first 20-50 s of heavy
    process spawning after a pause, while reference_ms() in the parent did
    not change.  A numpy import in a child slowed with them: over such a
    phase, a ``confode solve`` process moved 27% against reference_ms() and
    8% against this.  Neither numpy nor the interpreter is confode code, so a
    change to confode's start-up or commands moves only the numerator.
    """
    return _wall_ms([sys.executable, "-c", "import numpy"], _child_env())


def reference_for(workload: str):
    """(reference timer, seconds between its timings) of a workload."""
    if workload == "cli-roundtrip":
        return spawn_reference_ms, SPAWN_REFERENCE_EVERY_S
    return reference_ms, REFERENCE_EVERY_S


def _pct(values, p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics, where
    a plain percentile takes one or two of them.  When the operations of a
    workload fall into groups of different cost (orders, families), a plain
    p90 jumps between groups from run to run; the weighted mean does not.
    Below 20 samples it falls back to the plain percentile.
    """
    import numpy as np
    v = np.sort(np.asarray(values, dtype=float))
    n, q = len(v), p / 100
    if n < 20:
        return statistics.quantiles(v, n=100, method="inclusive")[p - 1] if n > 1 else float(v[0])
    steps = 16
    x = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    logpdf = (q * (n + 1) - 1) * np.log(x) + ((1 - q) * (n + 1) - 1) * np.log1p(-x)
    pdf = np.concatenate(([0.0], np.exp(logpdf - logpdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ v)


# ---------------------------------------------------------------------------
# operations: each returns (outcome, {phase: seconds})


class Runner:
    """Runs cases through confode's public functions.

    Functions are looked up on their modules at each call, so a traced
    batch reaches the wrappers ``spans.Tracer.install`` puts there.
    """

    def __init__(self):
        from checks import GRID
        import confode.chareq as chareq
        import confode.cli as cli
        import confode.eqparse as eqparse
        import confode.solver as solver
        import confode.ualgebra as ualgebra
        self.chareq, self.cli, self.eqparse = chareq, cli, eqparse
        self.solver, self.ualgebra = solver, ualgebra
        self.grid = GRID
        self.env = _child_env()
        self.last_stdout = ""
        self.tracer = None  # set during traced batches

    def run(self, case):
        kind = type(case).__name__
        if kind == "EquationCase":
            return self.equation(case)
        if kind == "RootsCase":
            return self.roots(case)
        return self.process(case)

    def equation(self, case):
        """problem_from_source + solve_problem, then the CLI's oracle verify."""
        t0 = time.perf_counter()
        try:
            spec = self.eqparse.problem_from_source(case.source, case.alpha)
            if case.ic is None:
                sol = self.solver.solve_problem(spec)
            else:
                sol = self.solver.solve_problem(spec, t0=case.ic[0], targets=case.ic[1])
        except Exception as err:  # a refusal: counted, not fatal to the run
            return err, {"solve": time.perf_counter() - t0}
        t1 = time.perf_counter()
        try:
            report = self.cli._verify_one(sol, self.grid, self.cli.DEFAULT_TOL)
        except Exception as err:
            return err, {"solve": t1 - t0, "verify": time.perf_counter() - t1}
        t2 = time.perf_counter()
        return (sol, report), {"solve": t1 - t0, "verify": t2 - t1}

    def roots(self, case):
        t0 = time.perf_counter()
        try:
            out = self.chareq.find_roots(self.chareq.CharPoly(case.coeffs))
        except Exception as err:
            out = err
        return out, {"roots": time.perf_counter() - t0}

    def process(self, case):
        stdin = self.last_stdout if case.pipe else None
        tracer = self.tracer
        span = tracer.begin("cli.process") if tracer else None
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *case.argv], input=stdin,
                              capture_output=True, text=True, env=self.env,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.finish(span, proc.returncode == 0)
            if case.argv[0] == "sample":
                self.replay_sample(case)
        self.last_stdout = proc.stdout
        return (proc.returncode, proc.stdout, proc.stderr), {"cli": elapsed}

    def replay_sample(self, case):
        """The sample command's solve and eval_expr loop, in-process."""
        eq = case.equation
        sol = self.solver.solve_problem(self.eqparse.problem_from_source(eq.source, eq.alpha))
        subst = self.ualgebra.SubstMap(eq.alpha)
        columns = list(sol.basis.elements) + [sol.particular]
        for t in case.sample_points():
            for e in columns:
                self.ualgebra.eval_expr(e, t, subst)


# ---------------------------------------------------------------------------
# set-up


#: Cases of the first batch each set-up runs once, so lazy state is built
#: before the timed loop.
WARM_CASES = {"order-sweep": 4, "forcing-sweep": 4, "roots": 10, "cli-roundtrip": 1}


def setup_round(workload, seed):
    """One set-up: a fresh interpreter's import, generation, warm-up.

    Returns (seconds at the nominal speed, seconds, interp_ms, import_ms,
    cases).  The first is the set-up's seconds over the reference loop's
    time around it (the median of three timings before and of three after),
    times REFERENCE_NOMINAL_MS: the set-up time on the baseline host at its
    usual speed.  Over 75 s of back-to-back set-ups on that host, medians
    of five raw times ranged from 0.29 to 0.41 s; the normalised ones
    varied half as much.
    """
    from workloads import WORKLOADS
    before = statistics.median(reference_ms() for _ in range(3))
    env = _child_env()
    interp = _wall_ms([sys.executable, "-c", "pass"], env)
    imported = _wall_ms([sys.executable, "-c", "import confode"], env)
    t0 = time.perf_counter()
    cases = WORKLOADS[workload](seed, 0)
    runner = Runner()
    for case in cases[:WARM_CASES[workload]]:
        runner.run(case)
    seconds = imported / 1e3 + time.perf_counter() - t0
    after = statistics.median(reference_ms() for _ in range(3))
    nominal = seconds * REFERENCE_NOMINAL_MS / (0.5 * (before + after))
    return nominal, seconds, interp, imported - interp, cases


# ---------------------------------------------------------------------------
# the run


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


class Tally:
    """What a run keeps per operation, in flat arrays.

    The benchmark's own memory counts in ``peak_rss_mb``, so it must not grow
    with the number of operations a faster program completes: about 30
    bytes per operation, plus one entry per distinct case and one record per
    failing case label.
    """

    def __init__(self):
        self.ms = array("d")
        self.segment = array("l")  # index of the reference timing before the op
        self.reference = array("d")  # reference timings, in order
        self.phase_ms: dict[str, array] = {}
        self.traced = array("b")
        self.residuals = array("d")
        self.traced_details: list[dict] = []  # one per traced operation
        self.failures: dict[str, dict] = {}
        self.unexplained: set[str] = set()
        self.case_failed: dict[tuple[int, int], bool] = {}  # (batch, index) -> failed

    @property
    def attempted(self) -> int:
        return len(self.case_failed)

    @property
    def failed_cases(self) -> int:
        return sum(self.case_failed.values())

    def add(self, case, batch: int, index: int, traced: bool, phases: dict,
            verdict) -> None:
        failed, silent, details = verdict
        ms = 1e3 * sum(phases.values())
        self.ms.append(ms)
        self.segment.append(len(self.reference) - 1)
        for name, seconds in phases.items():
            self.phase_ms.setdefault(name, array("d")).append(1e3 * seconds)
        self.traced.append(traced)
        if "residual" in details:
            self.residuals.append(details["residual"])
        if traced:
            self.traced_details.append(details)
        seen_failing = self.case_failed.get((batch, index), False)
        self.case_failed[batch, index] = seen_failing or failed
        if failed and not seen_failing:
            from workloads import record
            entry = self.failures.get(case.label)
            if entry is None:
                entry = self.failures[case.label] = {
                    "known_defect": case.known_defect, "count": 0,
                    "first": dict(record(case), batch=batch, details=details)}
            entry["count"] += 1
            if silent and case.known_defect is None:
                self.unexplained.add(case.label)

    def in_reference_units(self) -> list[float]:
        """Each op's time over the mean of the reference timings around it."""
        ref = self.reference
        return [ms / (0.5 * (ref[k] + ref[k + 1])) for ms, k in zip(self.ms, self.segment)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("order-sweep", "forcing-sweep", "cli-roundtrip", "roots"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_confode()
    env = environment()
    from checks import check
    from spans import Tracer
    from workloads import WORKLOADS, record
    generate = WORKLOADS[args.workload]

    rounds = [setup_round(args.workload, args.seed) for _ in range(SETUP_ROUNDS)]
    cases = rounds[-1][4]
    runner = Runner()
    tracer = Tracer() if args.trace else None

    # A traced run gives each batch of inputs an untraced then a traced pass.
    # Generating batches and checking outputs is kept out of the timed loop;
    # an outcome seen before is not checked again.
    tally = Tally()
    verdicts: dict = {}
    inputs_of = {0: cases}
    run_batches = RUN_BATCHES[args.workload]
    passes_per_batch = 2 if args.trace else 1
    aside = 0.0
    batch = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    reference, reference_every = reference_for(args.workload)
    tally.reference.append(reference())
    last_reference = time.perf_counter()
    aside += last_reference - start
    while True:
        traced = bool(args.trace) and batch % 2 == 1
        inputs = batch // passes_per_batch % run_batches
        if inputs not in inputs_of:
            g0 = time.perf_counter()
            inputs_of[inputs] = generate(args.seed, inputs)
            aside += time.perf_counter() - g0
        cases = inputs_of[inputs]
        restore = None
        if traced:
            restore = tracer.install()
            runner.tracer = tracer
        try:
            for index, case in enumerate(cases):
                if traced:
                    tracer.op_id = len(tally.ms)
                    span = tracer.begin("op")
                outcome, phases = runner.run(case)
                if traced:
                    tracer.finish(span)
                    tracer.on = False
                c0 = time.perf_counter()
                key = (case, outcome_key(outcome))
                if key not in verdicts:
                    verdicts[key] = check(case, outcome)
                tally.add(case, inputs, index, traced, phases, verdicts[key])
                if c0 - last_reference >= reference_every:
                    tally.reference.append(reference())
                    last_reference = time.perf_counter()
                aside += time.perf_counter() - c0
                if traced:
                    tracer.on = True
        finally:
            if restore:
                restore()
                runner.tracer = None
        batch += 1
        if (batch >= passes_per_batch * run_batches and batch % passes_per_batch == 0
                and time.perf_counter() >= deadline):
            break
    tally.reference.append(reference())
    elapsed = time.perf_counter() - start - aside
    env["loadavg_end"] = os.getloadavg()

    attempted = tally.attempted
    failed = tally.failed_cases
    correct = not tally.unexplained

    setup_s = statistics.median(r[0] for r in rounds)
    interp_ms = statistics.median(r[2] for r in rounds)
    import_ms = statistics.median(r[3] for r in rounds)
    op_ref = tally.in_reference_units()
    ops = len(tally.ms)
    e2e = {
        "op_ref.p50": (_pct(op_ref, 50), "ref"),
        "op_ref.p90": (_pct(op_ref, 90), "ref"),
        "ops_per_ref": (ops / sum(op_ref), "1/ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "op_ms.p50": (_pct(tally.ms, 50), "ms"),
        "op_ms.p90": (_pct(tally.ms, 90), "ms"),
        "ops_per_s": (ops / elapsed, "1/s"),
        "setup_raw_s": (statistics.median(r[1] for r in rounds), "s"),
        "reference_ms.p50": (statistics.median(tally.reference), "ms"),
        "reference_ms.n": (len(tally.reference), "count"),
    }
    layers = layer_metrics(tracer, tally, op_ref, interp_ms, import_ms) if args.trace else {}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "batches": batch,
        "input_batches": run_batches, "operations": ops,
        "elapsed_s": elapsed, "outside_loop_s": aside,
        "attempted": attempted, "failed": failed, "correct": correct,
        "unexplained_silent_failures": sorted(tally.unexplained),
        "end_to_end": named(e2e), "raw": named(raw), "by_kind": named(phase_metrics(tally)),
        "per_layer": named(layers),
        "spans": tracer.table() if tracer else {},
        "cli_probe": {"interp_ms": interp_ms, "import_ms": import_ms},
        "first_batch": [record(c) for c in inputs_of[0]],
        "failures": tally.failures,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, default=str))

    print_summary(report, out_path)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": named(layers if args.trace else e2e)}))
    return 0


def named(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def outcome_key(outcome) -> str:
    """A digest that is equal for equal outcomes, so each is checked once."""
    if isinstance(outcome, Exception):
        text = f"{type(outcome).__name__}: {outcome}"
    elif isinstance(outcome, tuple) and len(outcome) == 2:
        from confode.solver import solution_to_doc
        sol, report = outcome
        text = json.dumps([solution_to_doc(sol), report], sort_keys=True)
    else:
        text = repr(outcome)
    return hashlib.sha256(text.encode()).hexdigest()


def phase_metrics(tally) -> dict:
    """The per-kind latencies, the failure share and the accuracy of the run."""
    out = {}
    for phase, ms in tally.phase_ms.items():
        out[f"{phase}_ms.p50"] = (_pct(ms, 50), "ms")
        out[f"{phase}_ms.p90"] = (_pct(ms, 90), "ms")
        out[f"{phase}_ms.n"] = (len(ms), "count")
    failed, attempted = tally.failed_cases, tally.attempted
    out["failed_share"] = (failed / attempted, f"{failed}/{attempted}")
    if tally.residuals:
        from checks import log10_floor
        out["verify_residual.log10_p50"] = (
            statistics.median(log10_floor(x) for x in tally.residuals), "log10")
    return out


def layer_metrics(tracer, tally, op_ref, interp_ms, import_ms) -> dict:
    """Per-layer totals and counts from the traced batches.

    The tracing overhead compares the traced and untraced passes over the
    same inputs in reference units, so a host speed swing between the two
    passes does not pass for overhead.
    """
    from checks import RESIDUAL_FLOOR, log10_floor
    details = tally.traced_details

    def count(flag):
        return sum(1 for d in details if d.get(flag))

    part = tracer.durations_ms("solver.particular_solution")
    part_p90 = _pct(part, 90) if part else 0.0
    _, basis_total = tracer.summary("solver.homogeneous_basis")
    _, fit_total = tracer.summary("solver.fit_constants")
    roots_n, roots_total = tracer.summary("chareq.find_roots")
    res_n, res_total = tracer.summary("conformable.operator_residual")
    eval_n, eval_total = tracer.summary("ualgebra.eval_expr")
    parse_n, parse_total = tracer.summary("eqparse.problem_from_source")
    sym = [log10_floor(d["sym_residual"]) for d in details if "sym_residual" in d]
    untraced = sum(x for x, t in zip(op_ref, tally.traced) if not t)
    traced = sum(x for x, t in zip(op_ref, tally.traced) if t)
    overhead = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
    return {
        "solver.particular_ms.total": (sum(part), "ms"),
        "solver.particular_ms.p90": (part_p90, "ms"),
        "solver.particular_terms.max": (max((d.get("particular_terms", 0) for d in details),
                                            default=0), "count"),
        "solver.sym_residual.log10_max": (max(sym, default=math.log10(RESIDUAL_FLOOR)), "log10"),
        "solver.basis_ms.total": (basis_total, "ms"),
        "solver.fit_ms.total": (fit_total, "ms"),
        "solver.errors": (tracer.errors("solver.solve_problem"), "count"),
        "chareq.calls": (roots_n, "count"),
        "chareq.ms.total": (roots_total, "ms"),
        "chareq.mult_mismatch": (count("mult_mismatch"), "count"),
        "chareq.errors": (tracer.errors("chareq.find_roots"), "count"),
        "conformable.residual_calls": (res_n, "count"),
        "conformable.residual_ms.total": (res_total, "ms"),
        "conformable.over_tol": (count("over_tol"), "count"),
        "conformable.cancel_flags": (count("cancel"), "count"),
        "ualgebra.eval_calls": (eval_n, "count"),
        "ualgebra.eval_ms.total": (eval_total, "ms"),
        "eqparse.calls": (parse_n, "count"),
        "eqparse.ms.total": (parse_total, "ms"),
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.exit_nonzero": (sum(1 for d in details if d.get("exit", 0) != 0), "count"),
        "cli.stdout_bytes": (sum(d.get("stdout_bytes", 0) for d in details), "bytes"),
        "trace.ops": (len(details), "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.overhead_pct": (overhead, "%"),
    }


def print_summary(report, out_path):
    env = report["environment"]
    print(f"confode bench  workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} batches={report['batches']} "
          f"elapsed={report['elapsed_s']:.2f}s")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for section in ("end_to_end", "raw", "by_kind", "per_layer"):
        for name, m in report[section].items():
            value = m["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:34s} {text:>14s} {m['unit']}")
    print(f"  failed {report['failed']} of {report['attempted']} distinct cases attempted "
          f"({report['operations']} operations over {report['input_batches']} input batches); "
          f"correct={report['correct']}")
    by_defect = {}
    for label, entry in report["failures"].items():
        why = entry["known_defect"] or "not a known defect"
        by_defect.setdefault(why, []).append(f"{label} x{entry['count']}")
    for why, labels in by_defect.items():
        print(f"  failing ({why}): " + ", ".join(labels))
    print(f"  results: {out_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
