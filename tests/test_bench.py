"""Benchmark harness: row layout, CSV format, suite grids."""
import csv

import pytest

from perimeterguard.bench import run_suite, time_cell, write_csv
from perimeterguard.errors import ValidationError


def test_time_cell_rows_and_mean():
    rows = time_cell("table3", "mc", 2, 3, 1, 30, [0, 1, 2])
    assert [r.seed for r in rows] == [0, 1, 2, "mean"]
    assert all(r.t == 2 and r.q == 3 and r.m == 1 and r.L == 30 for r in rows)
    assert all(r.seconds >= 0 for r in rows)
    expected = sum(r.seconds for r in rows[:3]) / 3
    assert abs(rows[3].seconds - expected) < 1e-12


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="suite"):
        run_suite("table9", seeds=1)
    with pytest.raises(ValidationError, match="seed"):
        run_suite("table1", seeds=0)


def test_csv_format(tmp_path):
    rows = time_cell("table3", "mc", 2, 2, 1, 20, [0, 1])
    out = tmp_path / "bench.csv"
    write_csv(rows, str(out), comments=("suite: smoke",))
    lines = out.read_text().splitlines()
    comment_lines = [l for l in lines if l.startswith("#")]
    data_lines = [l for l in lines if not l.startswith("#")]
    assert comment_lines[0] == "# suite: smoke"
    assert any("U{50..500}" in l for l in comment_lines)
    assert data_lines[0] == "t,q,m,L,seed,seconds"
    parsed = list(csv.reader(data_lines[1:]))
    assert len(parsed) == 3
    assert parsed[0][:5] == ["2", "2", "1", "20", "0"]
    assert parsed[2][4] == "mean"
    float(parsed[2][5])


def test_blank_length_column_for_ratio_suites(tmp_path):
    rows = time_cell("table1", "lr", 2, 2, 1, None, [0])
    out = tmp_path / "bench.csv"
    write_csv(rows, str(out))
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[1].split(",")[3] == ""


def test_desk_grids_include_reference_cells():
    def cells(suite):
        return {(p, t, q, m, L) for p, t, q, m, L in _grid_for(suite)}

    def _grid_for(suite):
        from perimeterguard.bench import _grid

        return _grid(suite, full=False)

    assert ("lr", 3, 30, 1, None) in cells("table1")
    assert ("lr", 3, 20, 3, None) in cells("table2")
    assert ("mc", 100, 50, 1, 10**4) in cells("table3")

