"""In-memory spans around calls into confode's public functions.

A traced batch swaps each traced function for a wrapper that records one
span per call: name, operation id, parent span, start, end and whether it
raised.  Spans live in flat arrays (about 30 bytes each) until the run ends,
so a run can hold hundreds of thousands of them.  Functions are wrapped
where their callers look them up: ``solve_problem`` finds
``homogeneous_basis`` and ``find_roots`` in ``confode.solver``'s globals,
and the CLI's verify finds ``operator_residual`` in ``confode.cli``'s.
"""

from __future__ import annotations

import time
from array import array

import confode.chareq
import confode.cli
import confode.eqparse
import confode.solver
import confode.ualgebra

#: (module, attribute, span name) for every traced call site.
TRACED = (
    (confode.eqparse, "problem_from_source", "eqparse.problem_from_source"),
    (confode.solver, "solve_problem", "solver.solve_problem"),
    (confode.solver, "homogeneous_basis", "solver.homogeneous_basis"),
    (confode.solver, "particular_solution", "solver.particular_solution"),
    (confode.solver, "fit_constants", "solver.fit_constants"),
    (confode.solver, "find_roots", "chareq.find_roots"),
    (confode.chareq, "find_roots", "chareq.find_roots"),
    (confode.cli, "operator_residual", "conformable.operator_residual"),
    (confode.ualgebra, "eval_expr", "ualgebra.eval_expr"),
)


class Tracer:
    """Spans of one run, in columns indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.on = True  # off while the benchmark checks outputs

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ok.append(1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int, ok: bool = True) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if not ok:
            self.ok[i] = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.finish(i, False)
                raise
            self.finish(i)
            return out
        return traced

    def install(self):
        """Wrap every traced call site; returns a function that undoes it."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        for (mod, attr, name), (_, _, fn) in zip(TRACED, saved):
            setattr(mod, attr, self.wrap(name, fn))

        def restore():
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
        return restore

    def durations_ms(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [1e3 * (self.end[i] - self.start[i])
                for i in range(len(self.start)) if self.name[i] == nid]

    def errors(self, name: str) -> int:
        nid = self._ids.get(name)
        return sum(1 for i in range(len(self.start)) if self.name[i] == nid and not self.ok[i])

    def summary(self, name: str) -> tuple[int, float]:
        """(calls, total ms) of one span name."""
        d = self.durations_ms(name)
        return len(d), sum(d)

    def table(self) -> dict:
        """Calls, total and self ms, and errors per span name.

        Self time is a span's duration minus the durations of its children.
        """
        dur = [self.end[i] - self.start[i] for i in range(len(self.start))]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "errors": 0}
               for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_ms"] += 1e3 * dur[i]
            row["self_ms"] += 1e3 * own[i]
            row["errors"] += not self.ok[i]
        return out
