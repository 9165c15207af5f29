"""The benchmark's own test: shrunken workloads, run twice, must agree exactly.

Run with `python3 -m pytest -q perfbench`.
"""
import json
from dataclasses import replace

import pytest

import run

# Same problems and request mixes, small enough to solve in well under a second.
SHRUNK = {
    "lr-single": dict(q=5),
    "lr-partition": dict(q=3),
    "mc-long": dict(L=600),
    "mc-wide": dict(q=12, L=200),
}


@pytest.fixture(scope="module")
def program():
    layers, _ = run.load_program()
    return layers


def small(name):
    return replace(run.WORKLOADS[name], pool=4, prefix=4, **SHRUNK[name])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_two_traced_runs_agree(program, name):
    wl = small(name)
    first, second = (
        run.run_workload(program, wl, seed=7, seconds=0, trace=True, import_s=0.0)
        for _ in range(2)
    )
    assert first.correct and second.correct, first.info["errors"] + second.info["errors"]
    assert first.counts == second.counts
    assert first.digest == second.digest
    assert set(first.metrics) == {name for name, _, _ in run.PER_LAYER}
    assert first.counts["validate.arcs_checked"] > 0
    assert first.counts["documents.solution_bytes"] > 0


def test_untraced_run_reports_every_end_to_end_metric(program):
    got = run.run_workload(program, small("lr-partition"), seed=7, seconds=0, trace=False,
                           import_s=0.0)
    assert got.correct and got.failed == 0
    assert got.attempted == 3 * 4  # one solve and two decides per instance
    assert set(got.metrics) == {name for name, _, _ in run.END_TO_END}
    assert all(value > 0 for value in got.metrics.values())


def test_objective_off_the_reference_fails_the_run(program):
    wl = small("mc-wide")
    good = run.run_workload(program, wl, seed=0, seconds=0, trace=False, import_s=0.0)
    assert good.correct
    wrong = ["1/3"] * wl.pool
    bad = run.run_workload(program, wl, seed=0, seconds=0, trace=False, import_s=0.0,
                           reference=wrong)
    assert not bad.correct and bad.failed == wl.prefix


def test_reference_matches_the_workload_cells():
    recorded = json.loads(run.REFERENCE.read_text())
    for name, wl in run.WORKLOADS.items():
        assert run.load_reference(name, wl, run.DEFAULT_SEED) is not None, name
        assert len(recorded[name]["objectives"]) == wl.pool


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
