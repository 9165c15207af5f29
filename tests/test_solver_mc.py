"""Minimum-cost solver: knapsack presolve, interval DP, reconstruction.

reference_interval_dp below is the split-pointer interval DP the solver
used before it kept costs only; it stays here as the reference for
interval_table and _direct_blocks.
"""
import inspect
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import ceil
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perimeterguard import solver_mc
from perimeterguard.errors import (
    IndexOutOfRange,
    InstanceTooLarge,
    OutOfTableRange,
    ReconstructionMismatch,
)
from perimeterguard.generate import gen_random
from perimeterguard.oracle import brute_solve_mc
from perimeterguard.perimeter import build_perimeter, integer_anchors
from perimeterguard.solver_mc import (
    _direct_blocks,
    build_types_mc,
    interval_table,
    presolve,
    reconstruct_mc,
    sol,
    solve_mc,
    solve_mc_multi,
)

F = Fraction


def types_example():
    return build_types_mc([(3, 2), (5, 3)])


def test_presolve_examples():
    lookup = presolve(types_example(), 12)
    assert lookup.costs[0] == 0
    assert lookup.costs[4] == 3   # one length-5 robot beats two length-3s
    assert lookup.costs[8] == 5   # (1,1): lengths 3+5 cover 8 at cost 5
    assert lookup.costs[12] == 8


def test_presolve_refuses_lengths_above_the_cap():
    # The longest table3 --full instance (q = 50, L = 10^6) still fits.
    (per,) = gen_random("mc", 3, 50, 1, seed=0, target_length=10**6).perimeters
    assert presolve(types_example(), ceil(per.circumference)).max_len > 10**6
    with pytest.raises(InstanceTooLarge):
        presolve(types_example(), 10**12)
    with pytest.raises(InstanceTooLarge):
        solve_mc(build_perimeter([10**12], []), types_example())


def test_sol_examples():
    lookup = presolve(types_example(), 12)
    assert sol(lookup, 0) == (0, (0, 0))
    assert sol(lookup, 6) == (4, (2, 0))
    assert sol(lookup, 10) == (6, (0, 2))
    with pytest.raises(OutOfTableRange):
        sol(lookup, 13)
    with pytest.raises(OutOfTableRange):
        sol(lookup, -1)


def test_sol_counts_match_cost_and_length():
    lookup = presolve(types_example(), 12)
    for length in range(13):
        cost, counts = sol(lookup, length)
        assert sum(c * t for c, t in zip(counts, lookup.types.costs)) == cost
        assert sum(c * l for c, l in zip(counts, lookup.types.lengths)) >= length


# -- presolve against a naive reference ------------------------------------------


def naive_lookup(pairs, max_len):
    """O(L*t) covering knapsack over every type; choice[L] is the smallest
    type index among the optimal last robots at L."""
    costs, choice = [0], [-1]
    for n in range(1, max_len + 1):
        best = pick = None
        for k, (l, c) in enumerate(pairs):
            v = c + costs[max(0, n - l)]
            if best is None or v < best:
                best, pick = v, k
        costs.append(best)
        choice.append(pick)
    return costs, choice


def naive_counts(pairs, choice, n):
    counts = [0] * len(pairs)
    while n > 0:
        counts[choice[n]] += 1
        n -= pairs[choice[n]][0]
    return tuple(counts)


@st.composite
def knapsack_types(draw):
    """Short types, so 400 lengths run far past the periodic bound, with
    duplicates, equal cost-per-length pairs and dominated types placed
    ahead of a type that beats them."""
    pairs = draw(st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 30)), min_size=1, max_size=5
    ))
    if draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    if draw(st.booleans()):
        l, c = draw(st.sampled_from(pairs))
        k = draw(st.integers(2, 3))
        if l * k <= 12:
            pairs.insert(draw(st.integers(0, len(pairs))), (l * k, c * k))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(pairs) - 1))
        l, c = pairs[at]
        pairs.insert(at, (draw(st.integers(1, l)), c + draw(st.integers(0, 5))))
    return pairs


@settings(max_examples=120, deadline=None)
@given(knapsack_types())
@example([(3, 5), (5, 5)])             # the dominated type wins the tie at L <= 3
@example([(4, 6), (2, 3), (4, 6)])     # equal ratios and a duplicate
@example([(12, 24), (1, 3), (7, 17)])  # best ratio is the longest type
def test_presolve_and_sol_match_naive_reference(pairs):
    max_len = 400
    want_costs, choice = naive_lookup(pairs, max_len)
    lookup = presolve(build_types_mc(pairs), max_len)
    assert lookup.costs == want_costs
    for n in range(max_len + 1):
        assert sol(lookup, n) == (want_costs[n], naive_counts(pairs, choice, n))


@st.composite
def catalog_types(draw):
    """Types drawn as gen_random draws them (length 5*cost + U{1..20}): the
    knapsack turns periodic far below the (lb - 1)*lmax proof bound."""
    costs = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    return [(5 * c + draw(st.integers(1, 20)), c) for c in costs]


@settings(max_examples=60, deadline=None)
@given(catalog_types(), st.randoms(use_true_random=False))
@example([(6, 1)], Random(0))                  # one type: periodic from 2*l
@example([(6, 1), (11, 2)], Random(0))         # the window closes at a third of the bound
@example([(30, 5), (26, 5), (12, 2)], Random(0))  # a dominated type ahead of two kept ones
def test_sol_in_any_order_matches_naive_past_the_window(pairs, rng):
    types = build_types_mc(pairs)
    lmax = max(l for l, _ in pairs)
    bound = presolve(types, 0).lb * lmax   # (lb - 1)*lmax + lmax: the window has closed
    periodic_from = presolve(types, bound).periodic_from
    max_len = 3 * periodic_from
    assume(max_len <= bound)
    want_costs, choice = naive_lookup(pairs, max_len)
    order = list(range(max_len, -1, -1))
    shuffled = order[:]
    rng.shuffle(shuffled)
    for lengths in (order, shuffled):
        lookup = presolve(types, max_len)   # a fresh choice memo, shared by every call below
        assert lookup.periodic_from == periodic_from
        assert lookup.costs == want_costs
        for n in lengths:
            assert sol(lookup, n) == (want_costs[n], naive_counts(pairs, choice, n))


@pytest.mark.parametrize("t, q, target_length, periodic_from", [
    (100, 20, 10**4, 131),   # the mc-long cell, seed 0
    (30, 80, 1500, 128),     # the mc-wide cell, seed 0
])
def test_periodic_from_pinned(t, q, target_length, periodic_from):
    doc = gen_random("mc", t, q, 1, seed=0, target_length=target_length)
    (per,) = doc.perimeters
    lookup = presolve(doc.types, ceil(per.circumference))
    assert lookup.periodic_from == periodic_from
    pairs = list(zip(doc.types.lengths, doc.types.costs))
    assert lookup.costs == naive_lookup(pairs, lookup.max_len)[0]


def test_multi_presolves_once(monkeypatch):
    types = types_example()
    pers = [build_perimeter([7], [3]), build_perimeter([2, 3], [1, 2]), build_perimeter([20], [])]
    separate = [solve_mc(per, types) for per in pers]
    calls = []
    real = solver_mc.presolve

    def counting(types, max_len):
        calls.append(max_len)
        return real(types, max_len)

    monkeypatch.setattr(solver_mc, "presolve", counting)
    joint = solve_mc_multi(pers, types)
    assert calls == [20]
    assert joint.arcs == [replace(a, perimeter=k)
                          for k, part in enumerate(separate) for a in part.arcs]
    assert joint.total_cost == sum(part.total_cost for part in separate)


def test_solve_examples():
    types = types_example()
    assert solve_mc(build_perimeter([2, 3], [1, 2]), types).total_cost == 4
    assert solve_mc(build_perimeter([7], [3]), types).total_cost == 5
    assert solve_mc(build_perimeter([10], []), types).total_cost == 6


def test_solve_multi_examples():
    types = types_example()
    two = solve_mc_multi([build_perimeter([2, 3], [1, 2])] * 2, types)
    assert two.total_cost == 8
    mixed = solve_mc_multi([build_perimeter([7], [3]), build_perimeter([10], [])], types)
    assert mixed.total_cost == 11
    assert {a.perimeter for a in mixed.arcs} == {0, 1}
    single = solve_mc_multi([build_perimeter([7], [3])], types)
    assert single.total_cost == solve_mc(build_perimeter([7], [3]), types).total_cost


def test_reconstruction_examples():
    types = types_example()
    got = solve_mc(build_perimeter([2, 3], [1, 2]), types)
    assert [(a.robot_type, a.start, a.length) for a in got.arcs] == [
        (0, F(0), F(2)),
        (0, F(3), F(3)),
    ]
    got = solve_mc(build_perimeter([7], [3]), types)
    assert [(a.robot_type, a.start, a.length) for a in got.arcs] == [
        (1, F(0), F(5)),
        (0, F(5), F(2)),
    ]
    got = solve_mc(build_perimeter([4], []), build_types_mc([(4, 1)]))
    assert [(a.robot_type, a.start, a.length) for a in got.arcs] == [(0, F(0), F(4))]


def test_reconstruct_refuses_an_anchor_outside_the_perimeter():
    per, types = build_perimeter([2, 3], [1, 2]), types_example()
    lookup = presolve(types, ceil(per.circumference))
    table = interval_table(per, lookup)
    for anchor in (-1, per.q):
        with pytest.raises(IndexOutOfRange, match=rf"segment index {anchor} outside 0\.\.1"):
            reconstruct_mc(table, lookup, per, anchor)


def test_a_lookup_shorter_than_a_lap_is_refused_up_front():
    # Checked before any work, not found by an index past the cost table.
    per, types = build_perimeter([10, 20], [5, 5]), types_example()
    table = interval_table(per, presolve(types, 40))
    for max_len in (12, 34):   # every anchor's lap spans 35
        short = presolve(types, max_len)
        with pytest.raises(OutOfTableRange, match=rf"^length 35 outside 0\.\.{max_len}$"):
            interval_table(per, short)
        for anchor in range(per.q):
            with pytest.raises(OutOfTableRange, match=rf"^length 35 outside 0\.\.{max_len}$"):
                reconstruct_mc(table, short, per, anchor)
    exact = presolve(types, 35)
    assert interval_table(per, exact).cost == table.cost
    assert reconstruct_mc(table, exact, per, 0) == reconstruct_mc(table, presolve(types, 40), per, 0)


def test_surplus_robot_is_a_reconstruction_mismatch(monkeypatch):
    # One more robot of the shortest type at the same cost: it lands past the
    # block, so only the robot-count guard in the block layout can catch it.
    real_sol = solver_mc.sol

    def surplus(lookup, length):
        cost, counts = real_sol(lookup, length)
        return cost, (counts[0] + 1, *counts[1:])

    monkeypatch.setattr(solver_mc, "sol", surplus)
    with pytest.raises(ReconstructionMismatch, match="contributes nothing"):
        solve_mc(build_perimeter([2, 3], [1, 2]), types_example())


def test_counts_match_total_cost():
    types = types_example()
    got = solve_mc(build_perimeter([2, 3], [1, 2]), types)
    assert got.counts == (2, 0)
    assert sum(c * t for c, t in zip(got.counts, types.costs)) == got.total_cost


# -- invariants ---------------------------------------------------------------


@st.composite
def mc_instances(draw, max_q=4, max_t=3, max_len=18):
    """Segment and gap lengths over denominators 1 to 3; robot lengths are integers."""
    def length():
        den = draw(st.integers(min_value=1, max_value=3))
        return F(draw(st.integers(min_value=1, max_value=max_len * den)), den)

    q = draw(st.integers(min_value=1, max_value=max_q))
    segs = [length() for _ in range(q)]
    if q == 1 and draw(st.booleans()):
        per = build_perimeter(segs, [])
    else:
        per = build_perimeter(segs, [length() for _ in range(q)])
    t = draw(st.integers(min_value=1, max_value=max_t))
    types = build_types_mc(
        (
            draw(st.integers(min_value=1, max_value=max_len)),
            draw(st.integers(min_value=1, max_value=10)),
        )
        for _ in range(t)
    )
    return per, types


@settings(max_examples=60, deadline=None)
@given(mc_instances(), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_sol_monotone_and_subadditive(inst, l1, l2):
    _, types = inst
    lookup = presolve(types, 80)
    if l1 <= l2:
        assert lookup.costs[l1] <= lookup.costs[l2]
    assert lookup.costs[l1 + l2] <= lookup.costs[l1] + lookup.costs[l2]
    for tau in range(types.t):
        l, c = types.lengths[tau], types.costs[tau]
        assert lookup.costs[l1] <= c * (-(-l1 // l))


@settings(max_examples=40, deadline=None)
@given(mc_instances())
def test_interval_table_bounded_by_direct_cover(inst):
    per, types = inst
    lookup = presolve(types, ceil(per.circumference))
    table = interval_table(per, lookup)
    q = per.q
    for i in range(q):
        for k in range(q):
            direct = lookup.costs[ceil(per.span_length(i, (i + k) % q))]
            assert table.cost[i][k] <= direct
    best = min(table.cost[i][q - 1] for i in range(q))
    assert best <= min(
        lookup.costs[ceil(per.required_span(i))] for i in range(q)
    )
    # Covering the whole circle (leaving no gap uncovered) never wins.
    assert best <= lookup.costs[ceil(per.circumference)]


@settings(max_examples=40, deadline=None)
@given(mc_instances())
def test_rotation_leaves_cost_unchanged(inst):
    per, types = inst
    base = solve_mc(per, types).total_cost
    q = per.q
    for r in range(1, q):
        rotated = build_perimeter(
            [per.segments[(i + r) % q] for i in range(q)],
            [per.gaps[(i + r) % q] for i in range(q)] if per.gaps else [],
        )
        assert solve_mc(rotated, types).total_cost == base


@settings(max_examples=60, deadline=None)
@given(mc_instances())
def test_agrees_with_brute_oracle(inst):
    per, types = inst
    assert solve_mc(per, types).total_cost == brute_solve_mc(per, types)


@settings(max_examples=50, deadline=None)
@given(mc_instances())
def test_solution_arcs_are_sound(inst):
    per, types = inst
    got = solve_mc(per, types)
    assert sum(c * t for c, t in zip(got.counts, types.costs)) == got.total_cost
    assert len(got.arcs) == sum(got.counts)
    c = per.circumference
    pieces = []
    for a in got.arcs:
        assert 0 < a.length <= types.lengths[a.robot_type]
        assert 0 <= a.start < c
        if a.start + a.length <= c:
            pieces.append((a.start, a.start + a.length))
        else:
            pieces.append((a.start, c))
            pieces.append((F(0), a.start + a.length - c))
    pieces.sort()
    for (s1, e1), (s2, e2) in zip(pieces, pieces[1:]):
        assert e1 <= s2
    # Every segment is covered by the merged pieces.
    merged = []
    for s, e in pieces:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    for i in range(per.q):
        s, e = per.seg_start(i), per.seg_end(i)
        assert any(ms <= s and e <= me for ms, me in merged)


def test_brute_matches_naive_block_enumeration():
    # The pruned count enumeration must equal a raw nested loop.
    from perimeterguard.oracle import _min_cost_to_cover

    cases = [
        ((3, 5), (2, 3), 11),
        ((1, 4), (1, 5), 9),
        ((2, 7, 3), (5, 4, 2), 17),
    ]
    for lengths, costs, need in cases:
        bound = min(F(c, l) for c, l in zip(costs, lengths))
        got = _min_cost_to_cover(need, list(lengths), list(costs), bound)
        best = None
        ranges = [range(0, -(-need // l) + 1) for l in lengths]
        for counts in product(*ranges):
            if sum(n * l for n, l in zip(counts, lengths)) >= need:
                cost = sum(n * c for n, c in zip(counts, costs))
                if best is None or cost < best:
                    best = cost
        assert got == best


# -- the interval DP against its split-pointer reference ---------------------------


def reference_interval_dp(per, lookup):
    """(cost, split): split[i][k] is -1 when the direct cover of i..i+k is
    cheapest, else the first offset d whose split i..i+d, i+d+1..i+k is
    strictly cheaper than the direct cover and every earlier split."""
    q = per.q
    unit, ((starts, ends),) = integer_anchors([per])
    cost = [[0] * q for _ in range(q)]
    split = [[-1] * q for _ in range(q)]
    for k in range(q):
        for i in range(q):
            best = lookup.costs[-(-(ends[i + k] - starts[i]) // unit)]
            for d in range(k):
                v = cost[i][d] + cost[(i + d + 1) % q][k - d - 1]
                if v < best:
                    best, split[i][k] = v, d
            cost[i][k] = best
    return cost, split


def reference_blocks(split, i, k, q):
    d = split[i][k]
    if d < 0:
        return [(i, k)]
    right = reference_blocks(split, (i + d + 1) % q, k - d - 1, q)
    return reference_blocks(split, i, d, q) + right


@st.composite
def tie_instances(draw):
    """Short robots and cheap costs, so many splits cost the same as each
    other and as the direct cover; segments and gaps are whole or halves."""
    q = draw(st.integers(min_value=1, max_value=7))
    den = draw(st.sampled_from((1, 2)))

    def length():
        return F(draw(st.integers(min_value=1, max_value=4 * den)), den)

    per = build_perimeter([length() for _ in range(q)], [length() for _ in range(q)])
    types = build_types_mc(
        (draw(st.integers(min_value=1, max_value=4)), draw(st.integers(min_value=1, max_value=3)))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return per, types


@settings(max_examples=150, deadline=None)
@given(tie_instances())
def test_interval_table_and_direct_blocks_match_the_split_pointer_reference(inst):
    per, types = inst
    lookup = presolve(types, ceil(per.circumference))
    table = interval_table(per, lookup)
    cost, split = reference_interval_dp(per, lookup)
    assert table.cost == cost
    q = per.q
    for i, k in product(range(q), range(q)):
        assert _direct_blocks(table, lookup, i, k) == reference_blocks(split, i, k, q)


def test_direct_blocks_needs_no_stack_per_block():
    # One-length segments 50 apart and robots of length 2: every segment is
    # its own block, so a walk that recursed per block would need q frames.
    per = build_perimeter([1] * 150, [50] * 150)
    lookup = presolve(build_types_mc([(2, 1)]), ceil(per.circumference))
    table = interval_table(per, lookup)
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    sys.setrecursionlimit(depth + 60)
    try:
        blocks = _direct_blocks(table, lookup, 0, per.q - 1)
    finally:
        sys.setrecursionlimit(limit)
    assert blocks == [(i, 0) for i in range(150)]


# -- the wide-gap cut: a range over a gap of at least 2 * lb costs its two sides --


@st.composite
def wide_gap_instances(draw):
    """Gaps drawn on both sides of 2 * lb, the best type's length, and on it;
    segments and gaps over denominators 1 to 3; sometimes one gapless segment."""
    types = build_types_mc(
        (draw(st.integers(min_value=1, max_value=6)), draw(st.integers(min_value=1, max_value=9)))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    lb = presolve(types, 0).lb
    den = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=7))
    segs = [F(draw(st.integers(min_value=1, max_value=8 * den)), den) for _ in range(q)]
    if q == 1 and draw(st.booleans()):
        return build_perimeter(segs, []), types
    gaps = [max(F(1, den), 2 * lb + F(draw(st.integers(min_value=-2 * den, max_value=2 * den)), den))
            for _ in range(q)]
    return build_perimeter(segs, gaps), types


@settings(max_examples=150, deadline=None)
@given(wide_gap_instances())
@example((build_perimeter([1] * 5, [4] * 5), build_types_mc([(2, 1)])))        # every gap wide
@example((build_perimeter([1] * 5, [F(7, 2)] * 5), build_types_mc([(2, 1)])))  # none wide
@example((build_perimeter([F(3, 2), 1, 2, F(1, 3)], [4, 3, F(13, 3), 1]),
          build_types_mc([(2, 1), (3, 2)])))                                     # a mix
@example((build_perimeter([5], []), build_types_mc([(2, 1), (3, 2)])))          # gapless
def test_wide_gap_cut_matches_the_split_pointer_reference(inst):
    per, types = inst
    lookup = presolve(types, ceil(per.circumference))
    table = interval_table(per, lookup)
    cost, split = reference_interval_dp(per, lookup)
    assert table.cost == cost
    q = per.q
    for i, k in product(range(q), range(q)):
        assert _direct_blocks(table, lookup, i, k) == reference_blocks(split, i, k, q)
    wide = [g >= 2 * lookup.lb for g in per.gaps]
    assert table.scanned == sum(
        not any(wide[(i + j) % q] for j in range(k)) for i in range(q) for k in range(1, q))


def _mc_wide(seed):
    doc = gen_random("mc", 30, 80, 1, seed=seed, target_length=1500)
    return doc.perimeters[0], doc.types


@pytest.mark.parametrize("per, types, scanned", [
    (build_perimeter([1] * 150, [50] * 150), build_types_mc([(2, 1)]), 0),   # every gap wide
    (build_perimeter([1] * 40, [1] * 40), build_types_mc([(2, 1)]), 40 * 39),  # none wide
    (*_mc_wide(0), 44),
    (*_mc_wide(1), 19),
    (*_mc_wide(2), 22),
], ids=["all-wide", "all-narrow", "mc-wide-0", "mc-wide-1", "mc-wide-2"])
def test_scanned_pinned(per, types, scanned):
    lookup = presolve(types, ceil(per.circumference))
    assert interval_table(per, lookup).scanned == scanned
