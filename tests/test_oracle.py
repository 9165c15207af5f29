"""Brute-force references and hardness-reduction instance generators."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimeterguard.errors import InstanceTooLarge, InvalidSpec
from perimeterguard.oracle import (
    SubsetSumSpec,
    ThreePartitionSpec,
    brute_feasible_lr,
    brute_feasible_lr_multi,
    brute_solve_lr,
    brute_solve_mc,
    gen_3partition_instance,
    gen_subsetsum_instance,
)
from perimeterguard.perimeter import build_perimeter
from perimeterguard.solver_lr import build_fleet_lr, feasible, solve_lr
from perimeterguard.solver_mc import build_types_mc, solve_mc

F = Fraction


def test_brute_feasible_examples():
    per = build_perimeter([2, 3], [1, 2])
    fleet = build_fleet_lr([(1, 2)])
    assert brute_feasible_lr(per, fleet, F(3)) is True
    assert brute_feasible_lr(per, fleet, F(2)) is False
    assert brute_feasible_lr(per, fleet, F(5, 2)) is False
    # One robot long enough to wrap the full requirement.
    assert brute_feasible_lr(per, build_fleet_lr([(1, 1)]), F(6)) is True


def test_brute_solve_examples():
    assert brute_solve_lr([build_perimeter([2, 3], [1, 2])], build_fleet_lr([(1, 2)])) == 3
    assert brute_solve_lr([build_perimeter([2, 3], [1, 2])], build_fleet_lr([(2, 1), (1, 1)])) == 2
    assert brute_solve_lr([build_perimeter([4], [2]), build_perimeter([5], [3])],
                          build_fleet_lr([(1, 2)])) == 5


def test_brute_solve_mc_examples():
    types = build_types_mc([(3, 2), (5, 3)])
    assert brute_solve_mc(build_perimeter([2, 3], [1, 2]), types) == 4
    assert brute_solve_mc(build_perimeter([7], [3]), types) == 5
    assert brute_solve_mc(build_perimeter([10], []), types) == 6


def test_size_caps():
    with pytest.raises(InstanceTooLarge):
        brute_feasible_lr(build_perimeter([2, 3], [1, 2]), build_fleet_lr([(1, 8)]), F(1))
    with pytest.raises(InstanceTooLarge):
        brute_solve_lr([build_perimeter([1] * 6, [1] * 6)], build_fleet_lr([(1, 2)]))
    with pytest.raises(InstanceTooLarge):
        brute_solve_mc(build_perimeter([1] * 6, [1] * 6), build_types_mc([(1, 1)]))
    with pytest.raises(InstanceTooLarge):
        brute_solve_mc(build_perimeter([3000], []), build_types_mc([(1, 1)]))


def test_brute_feasible_lr_caps_segments_as_the_other_lr_references_do():
    # It used to enumerate any q, in time that grows with q.
    per = build_perimeter([1] * 6, [1] * 6)
    with pytest.raises(InstanceTooLarge, match="capped at 5 segments"):
        brute_feasible_lr(per, build_fleet_lr([(1, 2)]), F(3))


def test_multi_respects_partitioning():
    fleet = build_fleet_lr([(1, 3)])
    pers = [build_perimeter([4], []), build_perimeter([4], [])]
    # Splitting three robots over two circles leaves one side with a single
    # robot, which must stretch over the whole circumference on its own.
    assert brute_feasible_lr_multi(pers, fleet, F(2)) is False
    assert brute_feasible_lr_multi(pers, fleet, F(4)) is True


# -- 3-partition reduction ----------------------------------------------------


def test_3partition_spec_validation():
    ThreePartitionSpec(m=1, B=6, sizes=(2, 2, 2))
    with pytest.raises(InvalidSpec):
        ThreePartitionSpec(m=1, B=6, sizes=(2, 2, 3))   # sum mismatch
    with pytest.raises(InvalidSpec):
        ThreePartitionSpec(m=1, B=8, sizes=(2, 2, 4))   # 4*2 == 8 not > 8
    with pytest.raises(InvalidSpec):
        ThreePartitionSpec(m=1, B=6, sizes=(3, 2, 1))   # 2*3 == 6 not < 6
    with pytest.raises(InvalidSpec):
        ThreePartitionSpec(m=2, B=6, sizes=(2, 2, 2))   # needs 3m sizes


@pytest.mark.parametrize("build", [
    lambda: ThreePartitionSpec(1, 3, (True, True, True)),
    lambda: ThreePartitionSpec(True, 3, (1, 1, 1)),
    lambda: SubsetSumSpec((True, 2), 1, 3),
    lambda: SubsetSumSpec((1, 2), True, 3),
    lambda: SubsetSumSpec((1,), 1, True),
], ids=["3partition-sizes", "3partition-m", "subsetsum-weights", "subsetsum-W", "subsetsum-Wp"])
def test_reduction_specs_refuse_bools(build):
    # As FleetLR and TypesMC do; the first used to pass here and fail later,
    # in gen_3partition_instance, with FleetLR's ValidationError.
    with pytest.raises(InvalidSpec, match="integer"):
        build()


def test_3partition_yes_instance():
    spec = ThreePartitionSpec(m=1, B=6, sizes=(2, 2, 2))
    pers, fleet = gen_3partition_instance(spec)
    assert len(pers) == 1
    assert pers[0].segments == (F(6),)
    assert pers[0].gaps == (F(7),)
    assert fleet.capabilities == (F(2), F(2), F(2))
    assert brute_feasible_lr_multi(pers, fleet, F(1)) is True
    assert solve_lr(pers, fleet).objective <= 1


def test_3partition_two_bins():
    spec = ThreePartitionSpec(m=2, B=20, sizes=(6, 7, 7, 6, 7, 7))
    pers, fleet = gen_3partition_instance(spec)
    assert len(pers) == 2
    assert brute_feasible_lr_multi(pers, fleet, F(1)) is True


def test_3partition_tightness():
    # Growing one bin by a unit makes ratio 1 unreachable: total capability
    # equals total demand exactly, so there is no slack anywhere.
    spec = ThreePartitionSpec(m=2, B=20, sizes=(6, 7, 7, 6, 7, 7))
    pers, fleet = gen_3partition_instance(spec)
    bigger = [build_perimeter([21], [22]), pers[1]]
    assert brute_feasible_lr_multi(bigger, fleet, F(1)) is False


# -- subset-sum reduction ------------------------------------------------------


def test_subsetsum_spec_validation():
    SubsetSumSpec(weights=(1, 2), W=3, Wp=3)
    with pytest.raises(InvalidSpec):
        SubsetSumSpec(weights=(1, 2), W=3, Wp=2)        # pad below the total
    with pytest.raises(InvalidSpec):
        SubsetSumSpec(weights=(1, 2), W=4, Wp=4)        # target above the total
    with pytest.raises(InvalidSpec):
        SubsetSumSpec(weights=(0, 2), W=2, Wp=2)        # weights start at 1
    with pytest.raises(InvalidSpec):
        SubsetSumSpec(weights=(1,) * 9, W=3, Wp=9)      # enumeration cap


def test_subsetsum_worked_instance():
    spec = SubsetSumSpec(weights=(1, 2), W=3, Wp=3)
    per, types, budget = gen_subsetsum_instance(spec)
    assert [int(l) for l in types.lengths] == [31, 30, 38, 36]
    assert types.costs == types.lengths
    assert budget == 69
    assert per.gaps == ()
    assert per.circumference == budget
    assert solve_mc(per, types).total_cost == budget


def test_subsetsum_no_instance():
    # Subsets of (2, 2) sum to 0, 2, or 4, never 3.
    spec = SubsetSumSpec(weights=(2, 2), W=3, Wp=4)
    per, types, budget = gen_subsetsum_instance(spec)
    assert budget == 91
    assert solve_mc(per, types).total_cost > budget


def test_subsetsum_single_item():
    spec = SubsetSumSpec(weights=(5,), W=5, Wp=5)
    per, types, budget = gen_subsetsum_instance(spec)
    assert [int(l) for l in types.lengths] == [35, 30]
    assert budget == 35
    assert solve_mc(per, types).total_cost == budget


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=30),
)
def test_subsetsum_agrees_with_exhaustive_check(weights, target):
    weights = tuple(weights)
    target = 1 + target % sum(weights)
    spec = SubsetSumSpec(weights=weights, W=target, Wp=sum(weights) + target)
    per, types, budget = gen_subsetsum_instance(spec)
    cost = solve_mc(per, types).total_cost
    n = len(weights)
    hit = any(
        sum(w for i, w in enumerate(weights) if mask >> i & 1) == target
        for mask in range(1 << n)
    )
    assert (cost == budget) == hit
    assert cost >= budget


# -- the binary-search shortcut inside brute_solve_lr -------------------------


@st.composite
def tiny_lr(draw):
    q = draw(st.integers(min_value=1, max_value=2))
    segs = [draw(st.integers(min_value=1, max_value=8)) for _ in range(q)]
    gaps = [draw(st.integers(min_value=1, max_value=8)) for _ in range(q)]
    per = build_perimeter(segs, gaps if q > 1 or draw(st.booleans()) else [])
    pairs = [
        (draw(st.integers(min_value=1, max_value=5)), draw(st.integers(min_value=1, max_value=2)))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    return per, build_fleet_lr(pairs)


@settings(max_examples=25, deadline=None)
@given(tiny_lr())
def test_brute_search_matches_linear_scan(inst):
    per, fleet = inst
    got = brute_solve_lr([per], fleet)
    total = fleet.total_capability
    cands = sorted(
        {
            F(per.span_length(i, j), d)
            for i in range(per.q)
            for j in range(per.q)
            for d in range(1, total + 1)
        }
    )
    linear = next(ell for ell in cands if brute_feasible_lr(per, fleet, ell))
    assert got == linear
    assert feasible(per, fleet, got)[0]