"""Command-line interface: subcommands and exit codes."""
import json
import os
import re
import sys
import time

import pytest

from perimeterguard.cli import main
from perimeterguard.documents import parse_instance, parse_solution, write_instance

LR_TEXT = json.dumps({
    "problem": "lr",
    "perimeters": [{"segments": [2, 3], "gaps": [1, 2]}],
    "types": [{"capability": 1, "count": 2}],
})
MC_TEXT = json.dumps({
    "problem": "mc",
    "perimeters": [{"segments": [7], "gaps": [3]}],
    "types": [{"length": 3, "cost": 2}, {"length": 5, "cost": 3}],
})


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# A triangle with three irrational edges, the first two guarded.
TRIANGLE_TEXT = json.dumps({
    "problem": "mc",
    "perimeters": [{"polygon": {"vertices": [[0, 0], [3, 1], [1, 4]],
                                "guarded": [True, True, False]}}],
    "types": [{"length": 4, "cost": 1}],
})


def test_solve_lr_writes_solution(tmp_path, capsys):
    inp = put(tmp_path, "i.json", LR_TEXT)
    out = tmp_path / "s.json"
    assert main(["solve", "--input", inp, "--output", str(out)]) == 0
    assert "objective 3" in capsys.readouterr().out
    sol = parse_solution(out.read_text())
    assert sol.objective == 3
    assert sol.counts == (2,)
    assert sol.stats["feasibility_calls"] >= 1


def test_solve_mc(tmp_path, capsys):
    inp = put(tmp_path, "i.json", MC_TEXT)
    out = tmp_path / "s.json"
    assert main(["solve", "--input", inp, "--output", str(out)]) == 0
    assert "cost 5" in capsys.readouterr().out
    assert parse_solution(out.read_text()).objective == 5


def test_solve_output_dash_writes_only_the_solution_to_stdout(tmp_path, capsys):
    """The summary goes to stderr, so stdout parses, and it holds the same
    document as --output file apart from the wall time."""
    def without_wall_time(text):
        return re.sub(r'"wall_time_seconds": [^\n]*', "", text)

    mc = tmp_path / "mc.json"
    argv = ["gen", "--problem", "mc", "--t", "2", "--q", "2", "--seed", "1", "--L", "20"]
    assert main(argv + ["--out", str(mc)]) == 0
    for k, inp in enumerate((put(tmp_path, "lr.json", LR_TEXT), str(mc))):
        out = tmp_path / f"{k}.json"
        assert main(["solve", "--input", inp, "--output", str(out)]) == 0
        summary = capsys.readouterr().out
        assert main(["solve", "--input", inp, "--output", "-"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert without_wall_time(captured.out) == without_wall_time(out.read_text())
        assert captured.err.splitlines()[:2] == summary.splitlines()[:2]


def test_decision_exit_codes(tmp_path, capsys):
    # The solver and the oracle print the same verdict and exit the same way.
    lr, mc = json.loads(LR_TEXT), json.loads(MC_TEXT)
    cases = [
        ({**lr, "ell": 3}, 0, "ratio 3: feasible"),
        ({**lr, "ell": "7/2"}, 0, "ratio 7/2: feasible"),
        ({**lr, "ell": "5/2"}, 3, "ratio 5/2: infeasible"),
        ({**lr, "ell": 2}, 3, "ratio 2: infeasible"),
        ({**mc, "budget": 5}, 0, "minimum cost 5, budget 5: within budget"),
        ({**mc, "budget": "9/2"}, 3, "minimum cost 5, budget 9/2: over budget"),
        ({**mc, "budget": 4}, 3, "minimum cost 5, budget 4: over budget"),
    ]
    for k, (doc, code, verdict) in enumerate(cases):
        inp = put(tmp_path, f"{k}.json", json.dumps(doc))
        for command in ("solve", "oracle"):
            assert main([command, "--input", inp]) == code
            assert capsys.readouterr().out == verdict + "\n"


def test_decision_refuses_output(tmp_path, capsys):
    doc = json.loads(LR_TEXT)
    doc["ell"] = 3
    inp = put(tmp_path, "i.json", json.dumps(doc))
    assert main(["solve", "--input", inp, "--output", str(tmp_path / "s.json")]) == 2
    assert "drop --output" in capsys.readouterr().err


def test_invalid_document_exits_2(tmp_path, capsys):
    assert main(["solve", "--input", put(tmp_path, "i.json", "{broken")]) == 2
    assert main(["solve", "--input", str(tmp_path / "missing.json")]) == 2
    bad = json.loads(LR_TEXT)
    bad["perimeters"][0]["gaps"] = [1]
    assert main(["solve", "--input", put(tmp_path, "j.json", json.dumps(bad))]) == 2
    capsys.readouterr()


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    assert main(["solve", "--input", put(tmp_path, "i.json", "[" * 100_000)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_over_long_number_exits_2(tmp_path, capsys):
    big = "9" * 5000
    string_segment = json.loads(MC_TEXT)
    string_segment["perimeters"][0]["segments"][0] = big
    texts = (
        json.dumps(string_segment),
        MC_TEXT.replace('"segments": [7]', f'"segments": [{big}]'),
        MC_TEXT.replace('"problem": "mc"', f'"problem": "mc", "seed": {big}'),
    )
    for k, text in enumerate(texts):
        assert main(["solve", "--input", put(tmp_path, f"{k}.json", text)]) == 2
        err = capsys.readouterr().err
        assert "4300 digits" in err and "Traceback" not in err


def test_oracle_matches_solver(tmp_path, capsys):
    inp = put(tmp_path, "i.json", LR_TEXT)
    assert main(["oracle", "--input", inp]) == 0
    assert "objective 3" in capsys.readouterr().out
    inp = put(tmp_path, "m.json", MC_TEXT)
    assert main(["oracle", "--input", inp]) == 0
    assert "cost 5" in capsys.readouterr().out


def test_oracle_caps_exit_4(tmp_path, capsys):
    big = json.dumps({
        "problem": "lr",
        "perimeters": [{"segments": [2, 3], "gaps": [1, 2]}],
        "types": [{"capability": 1, "count": 9}],
    })
    assert main(["oracle", "--input", put(tmp_path, "i.json", big)]) == 4
    assert "error" in capsys.readouterr().err


def test_oversized_instances_exit_4_before_allocating(tmp_path, capsys):
    lr = {**json.loads(LR_TEXT), "types": [{"capability": a, "count": 400} for a in (1, 2, 3)]}
    mc = {**json.loads(MC_TEXT), "perimeters": [{"segments": [10**12], "gaps": []}]}
    for k, doc in enumerate((lr, mc)):
        inp = put(tmp_path, f"{k}.json", json.dumps(doc))
        tick = time.perf_counter()
        assert main(["solve", "--input", inp]) == 4
        assert time.perf_counter() - tick < 1
        err = capsys.readouterr().err
        assert "the cap" in err and "Traceback" not in err


def test_gen_round_trips_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["gen", "--problem", "mc", "--t", "2", "--q", "4", "--seed", "9", "--L", "50"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    doc = parse_instance(out1.read_text())
    assert doc.problem == "mc" and doc.seed == 9
    assert write_instance(doc) == out1.read_text()
    capsys.readouterr()


def test_gen_to_stdout(capsys):
    assert main(["gen", "--problem", "lr", "--t", "1", "--q", "2", "--seed", "0"]) == 0
    doc = parse_instance(capsys.readouterr().out)
    assert doc.problem == "lr"


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "BENCH_table3.json"
    assert main(["bench", "--suite", "table3", "--out", str(out), "--seeds", "1"]) == 0
    record = json.loads(out.read_text())
    assert (record["suite"], record["scale"]) == ("table3", "desk")
    assert len(record["rows"]) > 1 and record["rows"][1]["seed"] == "mean"
    assert "table3" in capsys.readouterr().out


def test_bench_unwritable_out_fails_before_timing(tmp_path, monkeypatch, capsys):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before the output was opened")

    monkeypatch.setattr("perimeterguard.cli.run_suite", run_suite)
    out = tmp_path / "missing" / "BENCH_table1.json"
    assert main(["bench", "--suite", "table1", "--out", str(out), "--full"]) == 2
    assert "error:" in capsys.readouterr().err


def test_render_subcommand(tmp_path, capsys):
    inp = put(tmp_path, "i.json", MC_TEXT)
    sol = tmp_path / "s.json"
    svg = tmp_path / "plan.svg"
    assert main(["solve", "--input", inp, "--output", str(sol)]) == 0
    assert main(["render", "--input", inp, "--solution", str(sol), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg ")
    capsys.readouterr()


def test_quantization_notes_go_to_stderr(tmp_path, capsys):
    inp = put(tmp_path, "i.json", TRIANGLE_TEXT)
    sol = str(tmp_path / "s.json")
    for argv in (["solve", "--input", inp, "--output", sol],
                 ["oracle", "--input", inp],
                 ["render", "--input", inp, "--solution", sol, "--out", str(tmp_path / "p.svg")]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "note: perimeters[0]: edge 0: irrational length sqrt(10) quantized to "
            "1581139/500000 (denominator 1000000)",
            "note: perimeters[0]: edge 1: irrational length sqrt(13) quantized to "
            "3605551/1000000 (denominator 1000000)",
            "note: perimeters[0]: edge 2: irrational length sqrt(17) quantized to "
            "2061553/500000 (denominator 1000000)",
        ]
        assert "note:" not in out
    assert main(["solve", "--input", put(tmp_path, "j.json", MC_TEXT)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("closed", ["write", "flush"])
def test_closed_stdout_exits_1_quietly(tmp_path, monkeypatch, capsys, closed):
    """A reader that left early is not bad input: exit 1, print nothing, and
    point the stdout fd at devnull so the flush at exit stays quiet."""
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh:
        class ClosedPipe:
            def write(self, text):
                if closed == "write":
                    raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fh.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["gen", "--problem", "lr", "--t", "2", "--q", "2", "--seed", "1"]) == 1
        os.write(fh.fileno(), b"after the pipe closed")
    assert sink.read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
