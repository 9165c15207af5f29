"""Minimum-cost solver: knapsack presolve, interval DP, reconstruction."""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perimeterguard import solver_mc
from perimeterguard.errors import OutOfTableRange
from perimeterguard.oracle import brute_solve_mc
from perimeterguard.perimeter import build_perimeter
from perimeterguard.rationals import ceil_fraction
from perimeterguard.solver_mc import (
    build_types_mc,
    interval_table,
    presolve,
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


def test_multi_presolves_once(monkeypatch):
    types = types_example()
    pers = [build_perimeter([7], [3]), build_perimeter([2, 3], [1, 2]), build_perimeter([20], [])]
    separate = [solve_mc(per, types, perimeter_index=k) for k, per in enumerate(pers)]
    calls = []
    real = solver_mc.presolve

    def counting(types, max_len):
        calls.append(max_len)
        return real(types, max_len)

    monkeypatch.setattr(solver_mc, "presolve", counting)
    joint = solve_mc_multi(pers, types)
    assert calls == [20]
    assert joint.arcs == [a for part in separate for a in part.arcs]
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
    lookup = presolve(types, ceil_fraction(per.circumference))
    table = interval_table(per, lookup)
    q = per.q
    for i in range(q):
        for k in range(q):
            direct = lookup.costs[ceil_fraction(per.span_length(i, (i + k) % q))]
            assert table.cost[i][k] <= direct
    best = min(table.cost[i][q - 1] for i in range(q))
    assert best <= min(
        lookup.costs[ceil_fraction(per.required_span(i))] for i in range(q)
    )
    # Covering the whole circle (leaving no gap uncovered) never wins.
    assert best <= lookup.costs[ceil_fraction(per.circumference)]


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