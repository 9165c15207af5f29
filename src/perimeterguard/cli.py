"""Command-line interface.

Subcommands: solve, oracle, gen, bench, render.  Exit codes: 0 success,
1 output pipe closed early, 2 bad input, 3 infeasible decision query,
4 instance above a solver's or the brute-force oracle's size cap.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from .bench import DEFAULT_SEEDS, run_suite, write_json
from .documents import (
    parse_instance,
    parse_solution,
    solution_from_lr,
    solution_from_mc,
    write_instance,
    write_solution,
)
from .errors import GuardingError, InstanceTooLarge, ValidationError
from .generate import gen_random
from .oracle import brute_feasible_lr_multi, brute_solve_lr, brute_solve_mc
from .render import render_svg
from .solver_lr import partition_feasible, solve_lr
from .solver_mc import solve_mc_multi
from .validate import validate_solution

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_TOO_LARGE = 4


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_instance(path: str):
    """Parse the instance document at path; print its notes to stderr."""
    doc = parse_instance(_read(path))
    for note in doc.notes:
        print(f"note: {note}", file=sys.stderr)
    return doc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verdict(doc, answer) -> int:
    """Print a decision query's verdict and map it to exit 0 or 3.

    answer is whether the fleet covers at ratio doc.ell (lr), or the
    minimum cost to hold against doc.budget (mc).
    """
    if doc.problem == "lr":
        ok = answer
        print(f"ratio {doc.ell}: {'feasible' if ok else 'infeasible'}")
    else:
        ok = answer <= doc.budget
        print(f"minimum cost {answer}, budget {doc.budget}: "
              f"{'within budget' if ok else 'over budget'}")
    return EXIT_OK if ok else EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    doc = _read_instance(args.input)
    decision = doc.ell is not None or doc.budget is not None
    if decision and args.output:
        raise ValidationError("decision queries answer yes or no; drop --output")

    summary = sys.stderr if args.output == "-" else sys.stdout   # so a stdout solution parses
    if doc.problem == "lr":
        if doc.ell is not None:
            return _verdict(doc, partition_feasible(doc.perimeters, doc.fleet, doc.ell))
        tick = time.perf_counter()
        sol = solve_lr(doc.perimeters, doc.fleet)
        wall = time.perf_counter() - tick
        out = solution_from_lr(sol, wall_time=wall)
        print(f"objective {sol.objective}", file=summary)
    else:
        tick = time.perf_counter()
        sol = solve_mc_multi(doc.perimeters, doc.types)
        wall = time.perf_counter() - tick
        if doc.budget is not None:
            return _verdict(doc, sol.total_cost)
        out = solution_from_mc(sol, wall_time=wall)
        print(f"cost {sol.total_cost}", file=summary)

    print(f"robots per type: {list(out.counts)}", file=summary)
    print(f"solved in {wall:.3f}s", file=summary)
    validate_solution(doc, out)
    if args.output:
        _write_text(args.output, write_solution(out))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    doc = _read_instance(args.input)
    if doc.problem == "lr":
        if doc.ell is not None:
            return _verdict(doc, brute_feasible_lr_multi(doc.perimeters, doc.fleet, doc.ell))
        print(f"objective {brute_solve_lr(doc.perimeters, doc.fleet)}")
        return EXIT_OK
    cost = sum(brute_solve_mc(per, doc.types) for per in doc.perimeters)
    if doc.budget is not None:
        return _verdict(doc, cost)
    print(f"cost {cost}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    doc = gen_random(
        args.problem, t=args.t, q=args.q, m=args.m, seed=args.seed, target_length=args.L
    )
    _write_text(args.out, write_instance(doc))
    return EXIT_OK


def _cmd_bench(args) -> int:
    open(args.out, "a").close()   # an unwritable --out fails before the timing, not after
    rows = run_suite(args.suite, seeds=args.seeds, full=args.full)
    write_json(rows, args.out, args.suite, args.full)
    means = [r for r in rows if r.seed == "mean"]
    print(f"{args.suite}: {len(means)} cells, {args.seeds} seeds each -> {args.out}")
    for r in means:
        cell = f"t={r.t} q={r.q} m={r.m}" + (f" L={r.L}" if r.L is not None else "")
        print(f"  {cell}: {r.seconds:.3f}s")
    return EXIT_OK


def _cmd_render(args) -> int:
    instance = _read_instance(args.input)
    solution = parse_solution(_read(args.solution))
    render_svg(instance, solution, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perimeterguard",
        description="Exact solvers for guarding circular perimeters with heterogeneous robots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("--input", required=True, help="instance JSON")
    p.add_argument("--output", help="write the solution JSON here ('-' for stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="solve by brute force (small instances only)")
    p.add_argument("--input", required=True, help="instance JSON")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--problem", required=True, choices=("lr", "mc"))
    p.add_argument("--t", required=True, type=int, help="number of robot types")
    p.add_argument("--q", required=True, type=int, help="segments per perimeter")
    p.add_argument("--m", type=int, default=1, help="number of perimeters")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--L", type=int, help="total guarded length (mc only)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a timing suite and write its JSON record")
    p.add_argument("--suite", required=True, choices=("table1", "table2", "table3"))
    p.add_argument("--out", required=True, help="JSON output path, e.g. BENCH_table1.json")
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS, help="seeds 0..N-1 per cell")
    p.add_argument("--full", action="store_true", help="run the full-size grid")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="draw an instance plus solution as SVG")
    p.add_argument("--input", required=True, help="instance JSON")
    p.add_argument("--solution", required=True, help="solution JSON")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:   # the reader left: silence the flush at exit (Python's SIGPIPE note)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (GuardingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
