#!/usr/bin/env python3
"""Closed-loop request benchmark for perimeterguard.

One client, one process per workload, no threads.  A solve request is an
instance document's bytes -> parse_instance -> solve_lr / solve_mc_multi
-> solution_from_* -> validate_solution -> write_solution bytes, the path
`perimeterguard solve` takes.  A decide request is an lr instance document
carrying "ell" -> parse_instance -> partition_feasible -> verdict.

    python3 perfbench/run.py --workload lr-single --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from this checkout's src/, so every commit
measures its own code.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it describes the run (package path, revision, objective digest,
exact work counts, the same metrics in wall seconds).  The exit code is
0 when every request was answered correctly, 1 when one was not, 2 when
the program cannot be imported.

Times are reported in reference seconds.  A small fixed calibration
kernel, which shares no code with the program, is timed between
instances.  Each wall time is scaled by REFERENCE_KERNEL_S over the mean
of the kernel times just before and just after it.  On a shared host the
CPU's speed drifts by ±15% over tens of seconds; the scaled times cancel
that drift.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

from spans import WRAPPED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"       # span dumps of traced runs
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
SEED_STRIDE = 100_000   # instance i of run seed s is generated with seed s*SEED_STRIDE + i
SETUP_REPEATS = 5       # set-up builds per run; setup_s takes their median
# The calibration kernel's median time on a 2-core Xeon VM at 2.0 GHz with
# Python 3.11.7; there, a reference second is about a wall second.
REFERENCE_KERNEL_S = 1.6e-3


@dataclass(frozen=True)
class Workload:
    """A generator cell plus the request mix sent for each instance."""

    problem: str
    t: int
    q: int
    m: int
    L: int | None   # mc only: total guarded length of each perimeter
    pool: int       # instance documents built in set-up; the loop cycles through them
    prefix: int     # instances every run completes; the digest and counts cover these
    decide: bool    # after each solve, decide at ell* (yes) and just below it (no)


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "lr-single": Workload("lr", t=2, q=20, m=1, L=None, pool=240, prefix=20, decide=False),
    "lr-partition": Workload("lr", t=2, q=6, m=3, L=None, pool=200, prefix=12, decide=True),
    "mc-long": Workload("mc", t=100, q=20, m=1, L=10_000, pool=240, prefix=20, decide=False),
    "mc-wide": Workload("mc", t=30, q=80, m=1, L=1_500, pool=240, prefix=20, decide=False),
}

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
    ("solve_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Shares are busy seconds over the traced requests' total latency
# (trace.request_s per request); counts cover the prefix instances.
PER_LAYER = (
    ("generate.gen_random_s", "s", "lower"),
    ("generate.errors", "count", "lower"),
    ("documents.write_instance_s", "s", "lower"),
    ("documents.instance_bytes", "B", "lower"),
    ("documents.busy_share", "ratio", "lower"),
    ("documents.parse_instance_share", "ratio", "lower"),
    ("documents.write_solution_share", "ratio", "lower"),
    ("documents.solution_bytes", "B", "lower"),
    ("documents.errors", "count", "lower"),
    ("solver_lr.busy_share", "ratio", "lower"),
    ("solver_lr.solve_share", "ratio", "lower"),
    ("solver_lr.solve_self_share", "ratio", "lower"),
    ("solver_lr.coverage_table_share", "ratio", "lower"),
    ("solver_lr.reconstruct_share", "ratio", "lower"),
    ("solver_lr.decide_yes_share", "ratio", "lower"),
    ("solver_lr.decide_no_share", "ratio", "lower"),
    ("solver_lr.feasibility_calls", "count", "lower"),
    ("solver_lr.coverage_tables", "count", "lower"),
    ("solver_lr.arcs", "count", "lower"),
    ("solver_lr.errors", "count", "lower"),
    ("solver_mc.busy_share", "ratio", "lower"),
    ("solver_mc.solve_share", "ratio", "lower"),
    ("solver_mc.solve_self_share", "ratio", "lower"),
    ("solver_mc.presolve_share", "ratio", "lower"),
    ("solver_mc.interval_table_share", "ratio", "lower"),
    ("solver_mc.reconstruct_share", "ratio", "lower"),
    ("solver_mc.presolve_entries", "count", "lower"),
    ("solver_mc.interval_ranges", "count", "lower"),
    ("solver_mc.arcs", "count", "lower"),
    ("solver_mc.errors", "count", "lower"),
    ("validate.busy_share", "ratio", "lower"),
    ("validate.arcs_checked", "count", "lower"),
    ("validate.errors", "count", "lower"),
    ("trace.request_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# Exact counters: identical for the same seed on every run of one commit.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


def load_program() -> tuple[SimpleNamespace, str]:
    """Import perimeterguard from this checkout's src/; return its layers and path."""
    package = SRC / "perimeterguard"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no perimeterguard package at {package}")
    sys.path.insert(0, str(SRC))
    import perimeterguard
    from perimeterguard import documents, generate, solver_lr, solver_mc, validate

    if Path(perimeterguard.__file__).resolve().parent != package:
        raise ImportError(f"imported {perimeterguard.__file__}, not the checkout's {package}")
    layers = SimpleNamespace(
        generate=generate, documents=documents, solver_lr=solver_lr,
        solver_mc=solver_mc, validate=validate,
    )
    return layers, perimeterguard.__file__


# -- calibration ------------------------------------------------------------------


def kernel() -> tuple:
    """Fixed work in the solvers' mix of operations: a reach DP over a
    product grid with bisect, Fraction sums, and tuple-keyed dicts."""
    starts = list(range(0, 6000, 12))
    reach = 0
    for _ in range(3):
        values = [0] * 512
        for idx, x in enumerate(product(range(8), range(8), range(8))):
            if idx:
                v = values[idx - 1] + (x[0] * 3 + x[2]) % 11 + 1
                j = bisect_right(starts, v) - 1
                values[idx] = v if v >= starts[j] + 5 else starts[j]
        reach += values[-1]
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 13 + 1, i % 7 + 2)
    cells = {(i, i % 9): i for i in range(600)}
    return reach, total, len(cells)


class Gauge:
    """The CPU's speed over a stretch of work, from kernel times on both sides."""

    def __init__(self):
        self.times: list[float] = []
        self.reading()

    def reading(self) -> float:
        """Time the kernel; return reference seconds per wall second for the
        work done since the previous reading."""
        tick = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - tick)
        return REFERENCE_KERNEL_S / statistics.mean(self.times[-2:])


# -- set-up ---------------------------------------------------------------------


def build_pool(program, wl: Workload, seed: int) -> list[bytes]:
    """The workload's instance documents, as the bytes a client would send."""
    gen, write = program.generate.gen_random, program.documents.write_instance
    base = seed * SEED_STRIDE
    return [
        write(gen(wl.problem, wl.t, wl.q, wl.m, seed=base + i, target_length=wl.L)).encode()
        for i in range(wl.pool)
    ]


def decide_documents(data: bytes, objective: Fraction) -> tuple[bytes, bytes]:
    """Client side: the instance asked at ell* and at ell* - 1/(2A^2)."""
    body = json.loads(data)
    a = sum(t["capability"] * t["count"] for t in body["types"])
    docs = []
    for ell in (objective, objective - Fraction(1, 2 * a * a)):
        body["ell"] = f"{ell.numerator}/{ell.denominator}"
        docs.append(json.dumps(body).encode())
    return docs[0], docs[1]


# -- requests -------------------------------------------------------------------


def solve_request(program, data: bytes) -> Fraction:
    documents = program.documents
    doc = documents.parse_instance(data)
    if doc.problem == "lr":
        out = documents.solution_from_lr(program.solver_lr.solve_lr(doc.perimeters, doc.fleet))
    else:
        out = documents.solution_from_mc(program.solver_mc.solve_mc_multi(doc.perimeters, doc.types))
    program.validate.validate_solution(doc, out)
    documents.write_solution(out).encode()
    return out.objective


def decide_request(program, data: bytes) -> bool:
    doc = program.documents.parse_instance(data)
    return program.solver_lr.partition_feasible(doc.perimeters, doc.fleet, doc.ell)


@dataclass
class Loop:
    """What one closed-loop phase did."""

    kinds: list[str] = field(default_factory=list)        # per request id
    latency: list[float] = field(default_factory=list)    # per completed request, scaled
    solve_latency: list[float] = field(default_factory=list)
    wall_latency: list[float] = field(default_factory=list)
    objectives: dict[int, Fraction] = field(default_factory=dict)  # instance -> ell* / cost
    failed: int = 0
    instances: int = 0
    prefix_requests: int = 0   # requests sent for the first `prefix` instances
    elapsed: float = 0.0       # wall seconds, calibration included
    busy: float = 0.0          # scaled seconds spent on instances
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def throughput(self) -> float:
        """Correct requests per scaled second."""
        return (self.attempted - self.failed) / self.busy

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def drive(program, wl: Workload, pool: list[bytes], seconds: float,
          reference: list[str] | None, gauge: Gauge, tracer: Tracer | None = None) -> Loop:
    """Send requests back to back until `seconds` pass and the prefix is done."""
    loop = Loop()
    clock = time.perf_counter
    pending: list[tuple[str, float]] = []   # this instance's requests, wall seconds

    def send(kind: str, request, data: bytes):
        if tracer is not None:
            tracer.request = loop.attempted
        loop.kinds.append(kind)
        tick = clock()
        try:
            answer = request(program, data)
        except Exception as exc:  # a failed request is counted, the run goes on
            loop.fail(f"{kind} request {loop.attempted - 1}: {type(exc).__name__}: {exc}")
            return None
        pending.append((kind, clock() - tick))
        return answer

    gauge.reading()
    start = clock()
    while loop.instances < wl.prefix or clock() - start < seconds:
        idx = loop.instances % len(pool)
        loop.instances += 1
        began = clock()
        objective = send("solve", solve_request, pool[idx])
        if objective is not None:
            first = loop.objectives.setdefault(idx, objective)
            if objective != first:
                loop.fail(f"instance {idx}: objective {objective}, earlier {first}")
            elif reference is not None and idx < len(reference) \
                    and str(objective) != reference[idx]:
                loop.fail(f"instance {idx}: objective {objective}, reference {reference[idx]}")
            elif wl.decide:
                at, below = decide_documents(pool[idx], objective)
                # send() returns None for a request that raised; it counted that one.
                if send("decide-yes", decide_request, at) is False:
                    loop.fail(f"instance {idx}: not feasible at its optimum {objective}")
                if send("decide-no", decide_request, below) is True:
                    loop.fail(f"instance {idx}: feasible below its optimum {objective}")
        took = clock() - began
        scale = gauge.reading()
        loop.busy += took * scale
        for kind, wall in pending:
            loop.wall_latency.append(wall)
            loop.latency.append(wall * scale)
            if kind == "solve":
                loop.solve_latency.append(wall * scale)
        pending.clear()
        if loop.instances == wl.prefix:
            loop.prefix_requests = loop.attempted
    loop.elapsed = clock() - start
    return loop


# -- metrics --------------------------------------------------------------------


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "throughput_rps": loop.throughput,
        "latency_p50_s": statistics.median(loop.latency),
        "latency_p90_s": statistics.quantiles(loop.latency, n=10)[8],
        "solve_p50_s": statistics.median(loop.solve_latency),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_clock(loop: Loop) -> dict[str, float]:
    """The request metrics in plain wall seconds, for the record."""
    return {
        "throughput_rps": (loop.attempted - loop.failed) / loop.elapsed,
        "latency_p50_s": statistics.median(loop.wall_latency),
        "latency_p90_s": statistics.quantiles(loop.wall_latency, n=10)[8],
    }


def per_layer(tracer: Tracer, loop: Loop, untraced_rps: float,
              setup_scale: float) -> dict[str, float]:
    """Aggregate spans: set-up seconds, request-time shares, prefix counts.

    Shares divide wall span time by wall request time; set-up times are
    scaled by `setup_scale`, the gauge's reading when the pool was built.
    """
    stem = {f"{layer}.{fname}": f"{layer}.{s}" for layer, fname, s, _, _ in WRAPPED}
    counter = {f"{layer}.{fname}": f"{layer}.{c}" for layer, fname, _, c, _ in WRAPPED if c}
    request_s = sum(loop.wall_latency)
    own = tracer.self_times()
    out: dict[str, float] = {name: 0 if name in COUNTS else 0.0 for name, _, _ in PER_LAYER}
    for i, span in enumerate(tracer.spans):
        layer = span.name.split(".")[0]
        took = span.end - span.start
        out[f"{layer}.errors"] += span.failed
        if span.request < 0:
            out[stem[span.name] + "_s"] = out.get(stem[span.name] + "_s", 0.0) + took * setup_scale
            if span.name in counter:
                out[counter[span.name]] += span.count
            continue
        key = stem[span.name]
        if key == "solver_lr.decide":
            key += "_yes" if loop.kinds[span.request] == "decide-yes" else "_no"
        out[key + "_share"] = out.get(key + "_share", 0.0) + took / request_s
        out[key + "_self_share"] = out.get(key + "_self_share", 0.0) + own[i] / request_s
        if span.parent < 0 or tracer.spans[span.parent].name.split(".")[0] != layer:
            out[f"{layer}.busy_share"] += took / request_s
        if span.name in counter and span.request < loop.prefix_requests:
            out[counter[span.name]] += span.count
    out["trace.request_s"] = statistics.mean(loop.latency)
    out["trace.overhead_ratio"] = loop.throughput / untraced_rps
    return {name: out[name] for name, _, _ in PER_LAYER}


def digest(loop: Loop, wl: Workload) -> str:
    """Hash of the prefix instances' objectives, to compare commits on any seed."""
    text = "\n".join(str(loop.objectives.get(i)) for i in range(wl.prefix))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(name: str, wl: Workload, seed: int) -> list[str] | None:
    """Objectives recorded for the default seed, if recorded for this very cell."""
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    if entry is None or entry["cell"] != asdict(wl):
        return None
    return entry["objectives"]


@dataclass
class Run:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    digest: str
    counts: dict[str, int]
    info: dict


def run_workload(program, wl: Workload, seed: int, seconds: float, trace: bool,
                 import_s: float, reference: list[str] | None = None,
                 spans_path: Path | None = None) -> Run:
    """Set up, drive the loop, check the answers; import_s is in wall seconds."""
    gauge = Gauge()
    import_s *= gauge.reading()
    builds = []
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        pool = build_pool(program, wl, seed)
        builds.append((time.perf_counter() - tick) * gauge.reading())
    setup_s = import_s + statistics.median(builds)

    if not trace:
        loop = drive(program, wl, pool, seconds, reference, gauge)
        loops = [loop]
        metrics = end_to_end(loop, setup_s)
        counts: dict[str, int] = {}
    else:
        base = drive(program, wl, pool, seconds / 2, reference, gauge)
        tracer = Tracer()
        with tracer.installed(program):
            build_pool(program, wl, seed)
            setup_scale = gauge.reading()
            loop = drive(program, wl, pool, seconds / 2, reference, gauge, tracer)
        loops = [base, loop]
        metrics = per_layer(tracer, loop, base.throughput, setup_scale)
        counts = {name: metrics[name] for name in COUNTS}
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_path)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    info = {
        "requests": loop.attempted,
        "instances": loop.instances,
        "pool": wl.pool,
        "tail": f"p90 of {len(loop.latency)} requests",
        "kernel_s": statistics.median(gauge.times),
        "wall": wall_clock(loop),
        "reference": "checked" if reference is not None else "not checked",
        "errors": [e for lp in loops for e in lp.errors],
    }
    return Run(failed == 0, attempted, failed, metrics, digest(loop, wl), counts, info)


# -- command line ---------------------------------------------------------------


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_all(args) -> int:
    """Every workload, each in its own process; prints every metric by name."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 2 or not lines:
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: {lines[-2] if len(lines) > 1 else ''}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)

    tick = time.perf_counter()
    try:
        program, package = load_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - tick
    wl = WORKLOADS[args.workload]
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    run = run_workload(program, wl, args.seed, args.seconds, bool(args.trace), import_s,
                       load_reference(args.workload, wl, args.seed), spans_path)
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({
        "workload": args.workload, "cell": asdict(wl), "seed": args.seed,
        "perimeterguard": package, "revision": git_revision(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "digest": run.digest, "counts": run.counts, **run.info,
    }))
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()},
    }))
    for message in run.info["errors"]:
        print(f"error: {message}", file=sys.stderr)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
