"""Benchmark harness: seeded timing grids written as CSV.

Three suites sweep (types x segments), (perimeters x segments x types),
and (types x boundary length x segments).  Desk grids keep runs short;
--full widens them to the complete sweeps.  Rows carry one timing per
seed plus a mean row per cell, and the CSV header comments record the
instance distributions so the numbers can be interpreted later.
"""
from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError
from .generate import gen_random
from .solver_lr import solve_lr
from .solver_mc import solve_mc_multi

DEFAULT_SEEDS = 10

HEADER_COMMENTS = (
    "segment lengths U{50..500}, gap lengths U{10..100} (lr suites)",
    "mc suites split L uniformly into q segments, gaps U{10..100}",
    "lr types: capability U{1..100}, count U{5..15}; "
    "mc types: cost U{1..20}, length 5*cost + U{1..20}",
    "seconds cover the solve call only; one row per seed, then a mean row",
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
        qs = (20, 50)
        return [("mc", t, q, 1, L) for t in ts for L in ls for q in qs]
    raise ValidationError(f"unknown suite {suite!r}; pick table1, table2, or table3")


def time_cell(
    suite: str, problem: str, t: int, q: int, m: int, L: int | None, seeds: Sequence[int]
) -> list[BenchRow]:
    """Time one parameter cell over the given seeds; appends the mean row."""
    rows = []
    for seed in seeds:
        doc = gen_random(problem, t=t, q=q, m=m, seed=seed, target_length=L)
        tick = time.perf_counter()
        if problem == "lr":
            solve_lr(doc.perimeters, doc.fleet)
        else:
            solve_mc_multi(doc.perimeters, doc.types)
        rows.append(BenchRow(suite, t, q, m, L, seed, time.perf_counter() - tick))
    mean = sum(r.seconds for r in rows) / len(rows)
    rows.append(BenchRow(suite, t, q, m, L, "mean", mean))
    return rows


def _cell_task(args) -> list[BenchRow]:
    return time_cell(*args)


def run_suite(
    suite: str, seeds: int = DEFAULT_SEEDS, full: bool = False, jobs: int = 1
) -> list[BenchRow]:
    """Run a whole suite; cells can run in parallel worker processes."""
    if seeds < 1:
        raise ValidationError("need at least one seed")
    seed_list = list(range(seeds))
    tasks = [
        (suite, problem, t, q, m, L, seed_list) for problem, t, q, m, L in _grid(suite, full)
    ]
    if jobs <= 1:
        return [row for task in tasks for row in _cell_task(task)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [row for rows in pool.map(_cell_task, tasks) for row in rows]


def write_csv(rows: Iterable[BenchRow], path: str, comments: Sequence[str] = ()) -> None:
    """Write rows as CSV: '#' comment lines, a header row, then data."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in (*comments, *HEADER_COMMENTS):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "q", "m", "L", "seed", "seconds"])
        for row in rows:
            writer.writerow([
                row.t,
                row.q,
                row.m,
                "" if row.L is None else row.L,
                row.seed,
                f"{row.seconds:.6f}",
            ])
