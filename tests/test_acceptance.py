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
    solution_from_lr,
    solution_from_mc,
    write_solution,
)
from perimeterguard.generate import SplitMix64
from perimeterguard.oracle import (
    SubsetSumSpec,
    ThreePartitionSpec,
    brute_solve_lr,
    brute_solve_mc,
    gen_3partition_instance,
    gen_subsetsum_instance,
)
from perimeterguard.perimeter import build_perimeter
from perimeterguard.solver_lr import (
    build_fleet_lr,
    partition_feasible,
    ratio_certificate,
    solve_lr,
)
from perimeterguard.solver_mc import build_types_mc, presolve, solve_mc
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
        costs = presolve(types, i_max).costs
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
LR_WITNESS_DIGEST = "cfb03462c74e3cd39c94092656b38d9df8b9152b58b3607b5356bf0a5b20e80f"


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


def test_criterion_10_reported_cost_identities():
    assert 7 * 145 + 4 * 100 == 1415
    assert 13 * 100 + 1 * 155 == 1455
    print("criterion 10: PASS (reported deployment costs 1415 and 1455 reproduce "
          "from their type counts)")
