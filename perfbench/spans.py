"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.installed` swaps
the public functions listed in WRAPPED for timing wrappers on their
defining modules and restores them on exit.  The solvers call their
phase functions (coverage_table, presolve, interval_table, ...) through
module globals, so the wrappers also see those inner calls.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (layer, function, metric stem, counter name or None, counter taken from
# (args, result)).  Counters are exact work counts, summed per span name.
WRAPPED = (
    ("generate", "gen_random", "gen_random", None, None),
    ("documents", "write_instance", "write_instance", "instance_bytes", lambda a, r: len(r)),
    ("documents", "parse_instance", "parse_instance", None, None),
    ("documents", "write_solution", "write_solution", "solution_bytes", lambda a, r: len(r)),
    ("solver_lr", "solve_lr", "solve", "feasibility_calls", lambda a, r: r.feasibility_calls),
    ("solver_lr", "coverage_table", "coverage_table", "coverage_tables", lambda a, r: 1),
    ("solver_lr", "reconstruct_lr", "reconstruct", "arcs", lambda a, r: len(r)),
    ("solver_lr", "partition_feasible", "decide", None, None),
    ("solver_mc", "solve_mc_multi", "solve", None, None),
    ("solver_mc", "presolve", "presolve", "presolve_entries", lambda a, r: r.max_len + 1),
    ("solver_mc", "interval_table", "interval_table", "interval_ranges",
     lambda a, r: len(r.cost) ** 2),
    ("solver_mc", "reconstruct_mc", "reconstruct", "arcs", lambda a, r: len(r)),
    ("validate", "validate_solution", "validate", "arcs_checked", lambda a, r: len(a[1].arcs)),
)

@dataclass
class Span:
    name: str            # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int = -1     # index of the enclosing span, -1 at top level
    request: int = -1    # request id, -1 outside requests (set-up)
    failed: bool = False
    count: int = 0


@dataclass
class Tracer:
    """Collects spans in memory; `request` is the id stamped on new spans."""

    spans: list[Span] = field(default_factory=list)
    request: int = -1
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1, request=self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.count = counter(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, program):
        """Wrap every WRAPPED function on its module, `program.<layer>`."""
        saved = []
        try:
            for layer, fname, _, _, counter in WRAPPED:
                module = getattr(program, layer)
                fn = getattr(module, fname)
                saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{layer}.{fname}", fn, counter))
            yield self
        finally:
            for module, fname, fn in reversed(saved):
                setattr(module, fname, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "request": s.request, "failed": s.failed, "count": s.count,
                }) + "\n")
