"""Benchmark harness: row layout, the JSON record, suite grids, committed records."""
import json
import subprocess
from itertools import groupby
from pathlib import Path

import pytest

from perimeterguard.bench import INSTANCES, BenchRow, _grid, run_suite, time_cell, write_json
from perimeterguard.errors import ValidationError
from perimeterguard.generate import gen_random
from perimeterguard.solver_lr import solve_lr

ROOT = Path(__file__).resolve().parent.parent


def test_time_cell_rows_and_mean():
    rows = time_cell("table3", "mc", 2, 3, 1, 30, [0, 1, 2])
    assert [r.seed for r in rows] == [0, 1, 2, "mean"]
    assert all(r.t == 2 and r.q == 3 and r.m == 1 and r.L == 30 for r in rows)
    assert all(r.seconds >= 0 for r in rows)
    expected = sum(r.seconds for r in rows[:3]) / 3
    assert abs(rows[3].seconds - expected) < 1e-12
    assert all(r.feasibility_calls is None for r in rows)
    assert all(r.arcs > 0 for r in rows[:3]) and rows[3].arcs is None


def test_time_cell_counts_the_lr_solve_it_timed():
    rows = time_cell("table1", "lr", 2, 5, 1, None, [4])
    doc = gen_random("lr", 2, 5, 1, seed=4)
    sol = solve_lr(doc.perimeters, doc.fleet)
    assert (rows[0].feasibility_calls, rows[0].arcs) == (sol.feasibility_calls, len(sol.arcs))
    assert (rows[1].feasibility_calls, rows[1].arcs) == (None, None)


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="suite"):
        run_suite("table9", seeds=1)
    with pytest.raises(ValidationError, match="seed"):
        run_suite("table1", seeds=0)


def test_time_cell_needs_a_seed():
    with pytest.raises(ValidationError, match="at least one seed"):
        time_cell("table1", "lr", 2, 5, 1, None, [])


def test_json_record(tmp_path):
    rows = time_cell("table1", "lr", 2, 2, 1, None, [0])
    rows += time_cell("table3", "mc", 2, 2, 1, 20, [0, 1])
    out = tmp_path / "bench.json"
    write_json(rows, str(out), "smoke", full=False)
    record = json.loads(out.read_text())
    assert list(record) == ["suite", "scale", "timed", "instances", "python", "platform",
                            "cpus", "revision", "rows"]
    assert (record["suite"], record["scale"]) == ("smoke", "desk")
    assert record["timed"] == "the solve call only"
    assert record["instances"] == list(INSTANCES)
    assert record["cpus"] >= 1 and record["python"].count(".") == 2
    assert [BenchRow(**row) for row in record["rows"]] == rows
    assert record["rows"][0]["L"] is None and record["rows"][2]["L"] == 20


def test_csv_format(tmp_path):
    # The columns of the former CSV output lead each JSON row, in order.
    rows = time_cell("table3", "mc", 2, 2, 1, 20, [0, 1])
    out = tmp_path / "bench.json"
    write_json(rows, str(out), "smoke", full=False)
    record = json.loads(out.read_text())
    assert any("U{50..500}" in line for line in record["instances"])
    parsed = record["rows"]
    assert len(parsed) == 3
    assert list(parsed[0])[1:7] == ["t", "q", "m", "L", "seed", "seconds"]
    assert [parsed[0][k] for k in ("t", "q", "m", "L", "seed")] == [2, 2, 1, 20, 0]
    assert parsed[2]["seed"] == "mean"
    assert isinstance(parsed[2]["seconds"], float)


def test_blank_length_column_for_ratio_suites(tmp_path):
    # lr cells have no length bound; the former blank CSV column is JSON null.
    rows = time_cell("table1", "lr", 2, 2, 1, None, [0])
    out = tmp_path / "bench.json"
    write_json(rows, str(out), "table1", full=False)
    record = json.loads(out.read_text())
    assert [row["L"] for row in record["rows"]] == [None, None]


@pytest.mark.parametrize("failure", [
    FileNotFoundError("git"), subprocess.CalledProcessError(128, "git")])
def test_revision_is_null_without_git_or_a_checkout(tmp_path, monkeypatch, failure):
    def run(*args, **kwargs):
        raise failure

    monkeypatch.setattr(subprocess, "run", run)
    out = tmp_path / "bench.json"
    write_json(time_cell("table1", "lr", 2, 2, 1, None, [0]), str(out), "table1", full=True)
    record = json.loads(out.read_text())
    assert record["revision"] is None and record["scale"] == "full"


def test_desk_grids_include_reference_cells():
    def cells(suite):
        return set(_grid(suite, full=False))

    assert ("lr", 3, 30, 1, None) in cells("table1")
    assert ("lr", 3, 20, 3, None) in cells("table2")
    assert ("mc", 100, 50, 1, 10**4) in cells("table3")


def _cell(row):
    return row.t, row.q, row.m, row.L


def _work(rows):
    return [(row.seed, row.feasibility_calls, row.arcs) for row in rows]


@pytest.mark.parametrize("suite", ["table1", "table2", "table3"])
def test_committed_records_match_the_code(suite):
    # The committed BENCH_<suite>.json files hold the work counters of the
    # desk grid.  Re-solving their seeds must give the same counters, so a
    # change that does more or less work has to regenerate the files, and
    # their diff shows the change.  table2 re-solves its q=10 cells only.
    record = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
    rows = [BenchRow(**row) for row in record["rows"]]
    assert (record["suite"], record["scale"]) == (suite, "desk")
    problem = _grid(suite, full=False)[0][0]
    assert [(problem, *cell) for cell, _ in groupby(rows, _cell)] == _grid(suite, full=False)
    for (t, q, m, L), cell_rows in groupby(rows, _cell):
        if suite == "table2" and q != 10:
            continue
        cell_rows = list(cell_rows)
        seeds = [row.seed for row in cell_rows[:-1]]
        fresh = time_cell(suite, problem, t, q, m, L, seeds)
        assert _work(fresh) == _work(cell_rows), (suite, t, q, m, L)
