"""Benchmark harness: seeded timing grids written as one JSON document.

Three suites sweep (types x segments), (perimeters x segments x types),
and (types x boundary length x segments).  Desk grids keep runs short;
--full widens them to the complete sweeps.  A cell gives one row per
seed, with that solve's work counters, then a mean row.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Sequence

from .errors import ValidationError
from .generate import gen_random
from .rationals import check_ints
from .solver_lr import solve_lr
from .solver_mc import solve_mc_multi

DEFAULT_SEEDS = 10

INSTANCES = (
    "segment lengths U{50..500}, gap lengths U{10..100} (lr suites)",
    "mc suites split L uniformly into q segments, gaps U{10..100}",
    "lr types: capability U{1..100}, count U{5..15}; "
    "mc types: cost U{1..20}, length 5*cost + U{1..20}",
)


@dataclass
class BenchRow:
    """One timing: a parameter cell plus a seed, or its per-cell mean."""

    suite: str
    t: int
    q: int
    m: int
    L: int | None
    seed: int | str
    seconds: float
    # Read after the clock stops; None on the mean row.
    feasibility_calls: int | None = None   # reach tables the lr ratio search filled
    arcs: int | None = None


def _grid(suite: str, full: bool) -> list[tuple[str, int, int, int, int | None]]:
    if suite == "table1":
        ts = (2, 3, 4, 5) if full else (2, 3)
        qs = (5, 10, 20, 30, 40, 50) if full else (5, 10, 20, 30)
        return [("lr", t, q, 1, None) for t in ts for q in qs]
    if suite == "table2":
        ms = (2, 3, 4, 5) if full else (2, 3)
        qs = (10, 20, 30) if full else (10, 20)
        ts = (3, 4) if full else (3,)
        return [("lr", t, q, m, None) for m in ms for q in qs for t in ts]
    if suite == "table3":
        ts = (3, 10, 30, 100, 300) if full else (3, 10, 100)
        ls = (10**2, 10**4, 10**6) if full else (10**2, 10**4)
        return [("mc", t, q, 1, L) for t in ts for L in ls for q in (20, 50)]
    raise ValidationError(f"unknown suite {suite!r}; pick table1, table2, or table3")


def time_cell(
    suite: str, problem: str, t: int, q: int, m: int, L: int | None, seeds: Sequence[int]
) -> list[BenchRow]:
    """Time one parameter cell over the given seeds; appends the mean row."""
    if not seeds:
        raise ValidationError("need at least one seed")
    rows = []
    for seed in seeds:
        doc = gen_random(problem, t=t, q=q, m=m, seed=seed, target_length=L)
        tick = time.perf_counter()
        sol = (solve_lr(doc.perimeters, doc.fleet) if problem == "lr"
               else solve_mc_multi(doc.perimeters, doc.types))
        seconds = time.perf_counter() - tick
        calls = getattr(sol, "feasibility_calls", None)
        rows.append(BenchRow(suite, t, q, m, L, seed, seconds, calls, len(sol.arcs)))
    rows.append(BenchRow(suite, t, q, m, L, "mean", sum(r.seconds for r in rows) / len(rows)))
    return rows


def run_suite(suite: str, seeds: int = DEFAULT_SEEDS, full: bool = False) -> list[BenchRow]:
    """Run a whole suite, timing its cells one after another."""
    check_ints((seeds,), "seeds", 1, ValidationError)
    return [row for cell in _grid(suite, full) for row in time_cell(suite, *cell, range(seeds))]


def _revision(cwd: str) -> str | None:
    """git describe of the checkout holding cwd, None outside one.  -dirty
    marks a tracked file other than a root BENCH_*.json record that differs
    from HEAD, so a record written in place after another is not marked."""
    import subprocess   # not at the top: `import perimeterguard` loads this module

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], check=True, capture_output=True, text=True,
                              cwd=cwd).stdout
    try:
        revision = git("describe", "--always").strip()
        changed = git("diff", "--name-only", "HEAD").splitlines()
    except (OSError, subprocess.CalledProcessError):
        return None
    return revision + ("-dirty" if any(not fnmatchcase(p, "BENCH_*.json") for p in changed) else "")


def write_json(rows: Iterable[BenchRow], path: str, suite: str, full: bool) -> None:
    """Write a suite's rows as one JSON document, with what they were run on."""
    import platform   # not at the top: `import perimeterguard` loads this module
    doc = {
        "suite": suite, "scale": "full" if full else "desk", "timed": "the solve call only",
        "instances": list(INSTANCES), "python": platform.python_version(),
        "platform": platform.platform(), "cpus": os.cpu_count(),
        "revision": _revision(os.path.dirname(os.path.abspath(__file__))),
        "rows": [asdict(row) for row in rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
