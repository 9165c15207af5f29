"""Acceptance gate: ten criteria, one PASS line each (run with -s to see them).

Every numeric comparison is exact rational equality; the only tolerances
anywhere are the wall-clock bounds in criterion 8.
"""
import functools
import hashlib
import json
import time
from fractions import Fraction
from itertools import product

from perimeterguard.bench import time_cell
from perimeterguard.documents import (
    InstanceDocument,
    parse_instance,
    solution_from_lr,
    solution_from_mc,
    write_instance,
    write_solution,
)
from perimeterguard.generate import SplitMix64, gen_random
from perimeterguard.oracle import (
    SubsetSumSpec,
    ThreePartitionSpec,
    brute_solve_lr,
    brute_solve_mc,
    gen_3partition_instance,
    gen_subsetsum_instance,
)
from perimeterguard.perimeter import build_perimeter
from perimeterguard.errors import ReconstructionMismatch
from perimeterguard.solver_lr import (
    build_fleet_lr,
    coverage_table,
    partition_feasible,
    ratio_certificate,
    reconstruct_lr,
    solve_lr,
)
from perimeterguard.solver_mc import build_types_mc, presolve, solve_mc, solve_mc_multi
from perimeterguard.validate import validate_solution

F = Fraction


def _rand_lr(rng: SplitMix64, max_q=4, max_t=2, max_robots=5, max_len=20):
    q = rng.randint(1, max_q)
    segments = [rng.randint(1, max_len) for _ in range(q)]
    if q == 1 and rng.randint(0, 3) == 0:
        per = build_perimeter(segments, [])
    else:
        per = build_perimeter(segments, [rng.randint(1, max_len) for _ in range(q)])
    t = rng.randint(1, max_t)
    total = rng.randint(t, max_robots)
    if t == 1:
        counts = [total]
    else:
        first = rng.randint(1, total - 1)
        counts = [first, total - first]
    fleet = build_fleet_lr((rng.randint(1, max_len), n) for n in counts)
    return per, fleet


def _rand_mc(rng: SplitMix64, max_q=4, max_t=3, max_len=25):
    q = rng.randint(1, max_q)
    segments = [rng.randint(1, max_len) for _ in range(q)]
    if q == 1 and rng.randint(0, 3) == 0:
        per = build_perimeter(segments, [])
    else:
        per = build_perimeter(segments, [rng.randint(1, max_len) for _ in range(q)])
    t = rng.randint(1, max_t)
    types = build_types_mc(
        (rng.randint(1, max_len), rng.randint(1, 20)) for _ in range(t)
    )
    return per, types


def _rand_frac(rng: SplitMix64, max_len: int) -> Fraction:
    den = rng.randint(1, 3)
    return F(rng.randint(1, max_len * den), den)


def _rand_frac_perimeter(rng: SplitMix64, max_q=4, max_len=15):
    q = rng.randint(1, max_q)
    segments = [_rand_frac(rng, max_len) for _ in range(q)]
    if q == 1 and rng.randint(0, 2) == 0:
        return build_perimeter(segments, [])
    return build_perimeter(segments, [_rand_frac(rng, max_len) for _ in range(q)])


@functools.cache
def lr_corpus():
    """500 solved ratio instances within the brute-force caps."""
    rng = SplitMix64(20240601)
    out = []
    for _ in range(500):
        per, fleet = _rand_lr(rng)
        out.append((per, fleet, solve_lr([per], fleet)))
    return out


@functools.cache
def lr_pair_corpus():
    """50 solved two-perimeter ratio instances with robots to spare."""
    rng = SplitMix64(999)
    out = []
    for _ in range(50):
        per_a, fleet_a = _rand_lr(rng, max_robots=3)
        per_b, _ = _rand_lr(rng, max_robots=3)
        fleet = build_fleet_lr(
            (a, n + 2) for a, n in zip(fleet_a.capabilities, fleet_a.counts)
        )
        out.append(((per_a, per_b), fleet, solve_lr([per_a, per_b], fleet)))
    return out


@functools.cache
def mc_corpus():
    """500 solved cost instances within the brute-force caps."""
    rng = SplitMix64(20240602)
    out = []
    for _ in range(500):
        per, types = _rand_mc(rng)
        out.append((per, types, solve_mc(per, types)))
    return out


@functools.cache
def mc_pair_corpus():
    """50 solved two-perimeter cost instances sharing one type catalog."""
    rng = SplitMix64(998)
    out = []
    for _ in range(50):
        per_a, types = _rand_mc(rng)
        per_b, _ = _rand_mc(rng)
        out.append(((per_a, per_b), types, solve_mc_multi([per_a, per_b], types)))
    return out


def test_criterion_01_lr_oracle_equivalence():
    tick = time.perf_counter()
    for per, fleet, sol in lr_corpus():
        assert sol.objective == brute_solve_lr([per], fleet)
    elapsed = time.perf_counter() - tick
    print(f"criterion 1: PASS ({len(lr_corpus())} ratio instances match the "
          f"brute-force oracle exactly, {elapsed:.1f}s)")


def test_criterion_02_mc_oracle_equivalence():
    tick = time.perf_counter()
    for per, types, sol in mc_corpus():
        assert sol.total_cost == brute_solve_mc(per, types)
    elapsed = time.perf_counter() - tick
    print(f"criterion 2: PASS ({len(mc_corpus())} cost instances match the "
          f"brute-force oracle exactly, {elapsed:.1f}s)")


def test_criterion_03_partition_reduction():
    rng = SplitMix64(333)

    def triple(b):
        k = b // 4
        while True:
            x = rng.randint(k + 1, 2 * k - 1)
            y = rng.randint(k + 1, 2 * k - 1)
            z = b - x - y
            if k + 1 <= z <= 2 * k - 1:
                return x, y, z

    checked = 0
    for _ in range(50):
        m = rng.randint(1, 3)
        b = 4 * rng.randint(3, 10)   # B in {12, 16, ..., 40}
        sizes = tuple(s for _ in range(m) for s in triple(b))
        pers, fleet = gen_3partition_instance(ThreePartitionSpec(m=m, B=b, sizes=sizes))
        assert partition_feasible(pers, fleet, F(1)) is True
        bumped = [build_perimeter([b + 1], [b + 1])] + list(pers[1:])
        assert partition_feasible(bumped, fleet, F(1)) is False
        checked += 1
    print(f"criterion 3: PASS ({checked} known-partition instances feasible at "
          f"ratio 1, every bumped variant infeasible)")


def test_criterion_04_subsetsum_reduction():
    specs = []
    for w1 in range(1, 4):
        for w in range(1, w1 + 1):
            specs.append(((w1,), w))
    for w1, w2 in product(range(1, 4), range(1, 4)):
        for w in range(1, w1 + w2 + 1):
            specs.append(((w1, w2), w))
    rng = SplitMix64(444)
    for _ in range(60):
        n = rng.randint(1, 6)
        weights = tuple(rng.randint(1, 10) for _ in range(n))
        w = rng.randint(1, sum(weights))
        specs.append((weights, w))

    yes = no = 0
    for weights, w in specs:
        wp = sum(weights) + rng.randint(0, 3)
        per, types, budget = gen_subsetsum_instance(
            SubsetSumSpec(weights=weights, W=w, Wp=wp)
        )
        cost = solve_mc(per, types).total_cost
        hit = any(
            sum(x for i, x in enumerate(weights) if mask >> i & 1) == w
            for mask in range(1 << len(weights))
        )
        assert cost >= budget
        assert (cost == budget) == hit
        yes += hit
        no += not hit
    print(f"criterion 4: PASS ({yes + no} reductions: {yes} subset hits priced at "
          f"exactly the budget, {no} misses strictly above)")


def test_criterion_05_ratio_factorization():
    for per, fleet, sol in lr_corpus():
        cert = ratio_certificate([per], fleet, sol.objective)
        assert cert is not None
        k, i, j, d = cert
        assert per.span_length(i, j) == d * sol.objective
        assert 1 <= d <= fleet.total_capability
    print(f"criterion 5: PASS (every optimal ratio in criterion 1 factors as "
          f"span(i, j) / capability-sum)")


def test_criterion_06_scaling_invariances():
    rng = SplitMix64(666)
    for _ in range(100):
        per, fleet = _rand_lr(rng, max_q=3, max_t=2, max_robots=4, max_len=12)
        base = solve_lr([per], fleet).objective
        for k in (2, 3, 5):
            scaled_fleet = build_fleet_lr(
                (a * k, n) for a, n in zip(fleet.capabilities, fleet.counts)
            )
            assert solve_lr([per], scaled_fleet).objective == base / k
            scaled_per = build_perimeter(
                [s * k for s in per.segments], [g * k for g in per.gaps]
            )
            assert solve_lr([scaled_per], fleet).objective == base * k
    print("criterion 6: PASS (100 instances: capability scaling divides the ratio, "
          "length scaling multiplies it, for k in {2, 3, 5})")


def test_criterion_07_sol_properties():
    rng = SplitMix64(777)
    i_max = 10**4
    pairs = 0
    for _ in range(100):
        t = rng.randint(1, 8)
        types = build_types_mc(
            (rng.randint(1, 200), rng.randint(1, 50)) for _ in range(t)
        )
        costs = list(map(presolve(types, i_max).cost, range(i_max + 1)))
        assert all(costs[i] <= costs[i + 1] for i in range(i_max))
        for _ in range(10):
            l1 = rng.randint(0, i_max)
            l2 = rng.randint(0, i_max - l1)
            assert costs[l1 + l2] <= costs[l1] + costs[l2]
            pairs += 1
        for l, c in zip(types.lengths, types.costs):
            lo, k = 1, 1
            while lo <= i_max:
                hi = min(l * k, i_max)
                assert max(costs[lo:hi + 1]) <= c * k
                lo, k = hi + 1, k + 1
    print(f"criterion 7: PASS (100 type sets: costs monotone, subadditive on "
          f"{pairs} pairs, never above any single-type ceiling)")


def test_criterion_08_desk_scale_runtimes():
    cells = (
        ("table1", "lr", 3, 30, 1, None, 26.0),
        ("table2", "lr", 3, 20, 3, None, 102.0),
        ("table3", "mc", 100, 50, 1, 10**4, 10.0),
    )
    report = []
    for suite, problem, t, q, m, length, bound in cells:
        rows = time_cell(suite, problem, t, q, m, length, [0, 1, 2])
        mean = rows[-1].seconds
        assert mean < bound, f"{suite} cell took {mean:.2f}s, bound {bound}s"
        report.append(f"{suite} {mean:.2f}s < {bound:.0f}s")
    print(f"criterion 8: PASS (3-seed means: {'; '.join(report)})")


def test_criterion_09_independent_validation():
    validated = 0
    for per, fleet, sol in lr_corpus():
        doc = InstanceDocument(problem="lr", perimeters=(per,), fleet=fleet)
        validate_solution(doc, solution_from_lr(sol))
        validated += 1
    for per, types, sol in mc_corpus():
        doc = InstanceDocument(problem="mc", perimeters=(per,), types=types)
        validate_solution(doc, solution_from_mc(sol))
        validated += 1
    for perimeters, fleet, sol in lr_pair_corpus():
        doc = InstanceDocument(problem="lr", perimeters=perimeters, fleet=fleet)
        validate_solution(doc, solution_from_lr(sol))
        validated += 1
    print(f"criterion 9: PASS ({validated} solver outputs re-validated for coverage, "
          f"capacity, disjointness, and objective)")


# sha256 over the objective, arcs and counts of every criterion 1 and 9 solution.
LR_WITNESS_DIGEST = "81762d7327b7b49cce19c4a8758fa6a5d139f96011d2c22118276eccc92bd3e7"


def test_lr_witnesses_unchanged():
    digest = hashlib.sha256()
    for _, _, sol in lr_corpus() + lr_pair_corpus():
        body = json.loads(write_solution(solution_from_lr(sol)))
        pinned = {key: body[key] for key in ("objective", "arcs", "counts")}
        digest.update(json.dumps(pinned, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == LR_WITNESS_DIGEST, (
        "an lr witness deployment changed; if on purpose, say why and re-pin"
    )
    print("lr witnesses: PASS (criterion 1 and 9 solutions match the pinned digest)")


# sha256 over the objective, arcs and counts of every criterion 2 and 9
# solution, then of every two-perimeter solution in mc_pair_corpus.
MC_WITNESS_DIGEST = "b97b391ccfc4d566b855ce6e09125444df0e23d5e81a40beb28dcfb62e164faf"


def test_mc_witnesses_unchanged():
    digest = hashlib.sha256()
    for _, _, sol in mc_corpus() + mc_pair_corpus():
        body = json.loads(write_solution(solution_from_mc(sol)))
        pinned = {key: body[key] for key in ("objective", "arcs", "counts")}
        digest.update(json.dumps(pinned, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == MC_WITNESS_DIGEST, (
        "an mc witness deployment changed; if on purpose, say why and re-pin"
    )
    print("mc witnesses: PASS (criterion 2 and 9 solutions and the two-perimeter "
          "corpus match the pinned digest)")


# sha256 over the objective, arcs and counts of 200 one- and two-perimeter
# mc solutions whose lengths have denominators 1 to 3.
MC_FRACTIONAL_WITNESS_DIGEST = "1fb11b608d3a28b48502e5c450aa1de3bf23e8a16dc8537a85e03189a37a182f"


def test_mc_fractional_witnesses_unchanged():
    rng = SplitMix64(997)
    digest = hashlib.sha256()
    for k in range(200):
        perimeters = [_rand_frac_perimeter(rng) for _ in range(1 + k % 2)]
        types = build_types_mc(
            (rng.randint(1, 15), rng.randint(1, 20)) for _ in range(rng.randint(1, 3))
        )
        body = json.loads(write_solution(solution_from_mc(solve_mc_multi(perimeters, types))))
        pinned = {key: body[key] for key in ("objective", "arcs", "counts")}
        digest.update(json.dumps(pinned, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == MC_FRACTIONAL_WITNESS_DIGEST, (
        "an mc witness deployment on fractional geometry changed; if on purpose, "
        "say why and re-pin"
    )
    print("mc fractional witnesses: PASS (200 solutions match the pinned digest)")


# sha256 over every lr CoverageTable cell of 300 one-perimeter instances whose
# lengths have denominators 1 to 3, from every anchor at ell* and 0.99 * ell*:
# the cell's value, its backpointer and its reconstruction (arcs, or the
# exception's class name).
LR_CELL_DIGEST = "8ccc90164b74fb6de9bd45ef4fb8d6ec90b2d8960d43dc51641f65bd01abde32"


def test_coverage_table_cells_unchanged():
    rng = SplitMix64(996)
    digest = hashlib.sha256()
    cells = 0
    for _ in range(300):
        per = _rand_frac_perimeter(rng, max_len=12)
        fleet = build_fleet_lr(
            (rng.randint(1, 12), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
        )
        ell_star = solve_lr([per], fleet).objective
        for ell in (ell_star, ell_star * F(99, 100)):
            for anchor in range(per.q):
                table = coverage_table(per, anchor, fleet, ell)
                for x in product(*(range(n + 1) for n in fleet.counts)):
                    try:
                        rebuilt = [[a.robot_type, str(a.start), str(a.length)]
                                   for a in reconstruct_lr(table, x)]
                    except ReconstructionMismatch as exc:
                        rebuilt = type(exc).__name__
                    record = [str(table.value(x)), table.backpointer(x), rebuilt]
                    digest.update(json.dumps(record).encode() + b"\n")
                    cells += 1
    assert digest.hexdigest() == LR_CELL_DIGEST, (
        "an lr table cell or its reconstruction changed; if on purpose, say why and re-pin"
    )
    print(f"lr table cells: PASS ({cells} cells match the pinned digest)")


def test_criterion_10_reported_cost_identities():
    assert 7 * 145 + 4 * 100 == 1415
    assert 13 * 100 + 1 * 155 == 1455
    print("criterion 10: PASS (reported deployment costs 1415 and 1455 reproduce "
          "from their type counts)")


# sha256 over the solution document bytes, stats included and wall time left
# out, of 20 instances per perfbench cell, generated with seeds 100000 + i.
BENCHMARK_CELLS = (
    ("lr", 2, 20, 1, None),
    ("lr", 2, 6, 3, None),
    ("mc", 100, 20, 1, 10_000),
    ("mc", 30, 80, 1, 1_500),
)
BENCHMARK_CELL_DIGEST = "c2bf49de9c07c645d02e86850944605a257835273e4b1635e8a19abebd398998"


def test_benchmark_cells_unchanged():
    digest = hashlib.sha256()
    for problem, t, q, m, length in BENCHMARK_CELLS:
        for i in range(20):
            doc = gen_random(problem, t, q, m, seed=100_000 + i, target_length=length)
            if problem == "lr":
                out = solution_from_lr(solve_lr(list(doc.perimeters), doc.fleet))
            else:
                out = solution_from_mc(solve_mc_multi(list(doc.perimeters), doc.types))
            digest.update(write_solution(out).encode())
    assert digest.hexdigest() == BENCHMARK_CELL_DIGEST, (
        "a solution on a benchmark cell changed; if on purpose, say why and re-pin"
    )
    print("benchmark cells: PASS (80 solution documents match the pinned digest)")


# sha256 over the same 80 solution documents with `stats` dropped, one sorted
# JSON line each: a change to the solvers' work counters leaves it alone, a
# change to an objective, arc or count does not.
BENCHMARK_WITNESS_DIGEST = "0238a8cfd8fbdf3f66d861040e9af38a633d8c96581a54437997d47cae0fec9d"


def test_benchmark_cell_witnesses_unchanged():
    digest = hashlib.sha256()
    for problem, t, q, m, length in BENCHMARK_CELLS:
        for i in range(20):
            doc = gen_random(problem, t, q, m, seed=100_000 + i, target_length=length)
            if problem == "lr":
                out = solution_from_lr(solve_lr(list(doc.perimeters), doc.fleet))
            else:
                out = solution_from_mc(solve_mc_multi(list(doc.perimeters), doc.types))
            body = json.loads(write_solution(out))
            body.pop("stats", None)
            digest.update(json.dumps(body, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == BENCHMARK_WITNESS_DIGEST, (
        "a solution on a benchmark cell changed beyond its stats; if on purpose, "
        "say why and re-pin"
    )
    print("benchmark cell witnesses: PASS (80 stats-free documents match the pinned digest)")


# sha256 over the objectives, one per line, of perfbench's `lr-single` pool at
# `--seed 9`: lr t=2 q=20 m=1 instances generated with seeds 900000 + i, i < 240.
DEEP_POOL_OBJECTIVE_DIGEST = "8a83d1ea45b6c1613943c761ec51ac689d50fd77da729260f4a1be85731cab2c"


def test_lr_single_deep_pool_solves_alike_twice():
    """A long perfbench run cycles through the whole pool in one process, so
    every instance goes twice through the request path perfbench times:
    instance bytes -> parse -> solve -> solution document -> validate -> bytes."""
    pool = [write_instance(gen_random("lr", 2, 20, 1, seed=900_000 + i)).encode()
            for i in range(240)]
    passes = []
    for _ in range(2):
        documents, objectives = [], []
        for data in pool:
            doc = parse_instance(data)
            sol = solve_lr(doc.perimeters, doc.fleet)
            out = solution_from_lr(sol)
            validate_solution(doc, out)
            documents.append(write_solution(out))
            objectives.append(str(sol.objective))
        passes.append(documents)
    differ = [i for i, (a, b) in enumerate(zip(*passes)) if a != b]
    assert not differ, f"instances {differ} solved differently on the second pass"
    digest = hashlib.sha256("\n".join(objectives).encode()).hexdigest()
    assert digest == DEEP_POOL_OBJECTIVE_DIGEST, "an lr-single pool objective changed"
    print("deep lr-single pool: PASS (240 instances, two passes, identical bytes)")
