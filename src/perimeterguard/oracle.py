"""Brute-force reference solvers and hardness-reduction instance builders.

The brute solvers are deliberately dumb: they enumerate robot orderings,
fleet partitions, and count vectors outright, sharing no machinery with
the real solvers beyond the perimeter model.  They exist to check the
solvers on small instances, so they enforce hard size caps.

The generators build instances whose answers encode 3-Partition and
Subset-Sum questions, giving a second, structural source of ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import InstanceTooLarge, InvalidSpec, ValidationError
from .perimeter import Perimeter, build_perimeter, perimeter_list
from .rationals import RationalLike, check_ints, to_threshold
from .solver_lr import FleetLR, build_fleet_lr
from .solver_mc import TypesMC, build_types_mc

MAX_LR_ROBOTS = 7
MAX_LR_SEGMENTS = 5
MAX_MC_SEGMENTS = 5
MAX_MC_TYPES = 4
MAX_MC_LENGTH = 2500
MAX_SUBSETSUM_ITEMS = 8


# -- brute-force fixed-fleet solver ---------------------------------------------


def _brute_reachable(per: Perimeter, arc_lengths: Sequence[Fraction], counts) -> bool:
    """Try every anchor and every robot ordering, chaining arcs end to end."""
    rem = list(counts)
    t = len(rem)
    for anchor in range(per.q):
        required = per.required_span(anchor)

        def rec(reach: Fraction) -> bool:
            if reach >= required:
                return True
            for tau in range(t):
                if rem[tau]:
                    nxt = per.normalize_position(anchor, reach + arc_lengths[tau])
                    if nxt > reach:
                        rem[tau] -= 1
                        ok = rec(nxt)
                        rem[tau] += 1
                        if ok:
                            return True
            return False

        if rec(Fraction(0)):
            return True
    return False


def _capped_lr(perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR) -> list[Perimeter]:
    """perimeter_list(perimeters), refused above the lr robot and segment caps."""
    perimeters = perimeter_list(perimeters)
    if fleet.total_count > MAX_LR_ROBOTS:
        raise InstanceTooLarge(f"brute force capped at {MAX_LR_ROBOTS} robots")
    if any(per.q > MAX_LR_SEGMENTS for per in perimeters):
        raise InstanceTooLarge(f"brute force capped at {MAX_LR_SEGMENTS} segments")
    return perimeters


def brute_feasible_lr(per: Perimeter, fleet: FleetLR, ell: RationalLike) -> bool:
    """Reference for solver_lr.feasible: explicit orderings, no DP."""
    _capped_lr(per, fleet)
    ell = to_threshold(ell, "ell")
    arc_lengths = [a * ell for a in fleet.capabilities]
    return _brute_reachable(per, arc_lengths, fleet.counts)


def brute_feasible_lr_multi(
    perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR, ell: RationalLike
) -> bool:
    """Reference for solver_lr.partition_feasible: every split of the fleet."""
    perimeters = _capped_lr(perimeters, fleet)
    ell = to_threshold(ell, "ell")
    arc_lengths = [a * ell for a in fleet.capabilities]
    m = len(perimeters)
    feas_memo: list[dict[tuple[int, ...], bool]] = [{} for _ in range(m)]

    def covered(k: int, sub: tuple[int, ...]) -> bool:
        got = feas_memo[k].get(sub)
        if got is None:
            got = _brute_reachable(perimeters[k], arc_lengths, sub)
            feas_memo[k][sub] = got
        return got

    seen: set[tuple[int, tuple[int, ...]]] = set()

    def assign(k: int, remaining: tuple[int, ...]) -> bool:
        if k == m:
            return True
        key = (k, remaining)
        if key in seen:
            return False
        for sub in product(*(range(c + 1) for c in remaining)):
            if covered(k, sub) and assign(
                k + 1, tuple(r - s for r, s in zip(remaining, sub))
            ):
                return True
        seen.add(key)
        return False

    return assign(0, fleet.counts)


def brute_solve_lr(
    perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR
) -> Fraction:
    """Smallest ratio in the span/D candidate grid that a full enumeration
    of anchors, orderings, and fleet splits accepts.

    Feasibility is monotone in the ratio (arcs only grow), so a binary
    search over the sorted candidate list returns the same answer as a
    linear scan; test_oracle pins that equivalence on tiny instances.
    """
    perimeters = _capped_lr(perimeters, fleet)
    if fleet.total_count < len(perimeters):
        raise ValidationError(
            f"{fleet.total_count} robots cannot guard {len(perimeters)} perimeters"
        )
    a_total = fleet.total_capability
    cands = sorted(
        {
            per.span_length(i, j) / d
            for per in perimeters
            for i in range(per.q)
            for j in range(per.q)
            for d in range(1, a_total + 1)
        }
    )
    lo, hi = 0, len(cands) - 1
    if not brute_feasible_lr_multi(perimeters, fleet, cands[hi]):
        raise AssertionError("largest candidate ratio must always be feasible")
    while lo < hi:
        mid = (lo + hi) // 2
        if brute_feasible_lr_multi(perimeters, fleet, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


# -- brute-force minimum-cost solver ----------------------------------------------


def _min_cost_to_cover(length: int, lengths, costs, density_bound: Fraction) -> int:
    """Cheapest count vector with sum of lengths >= length, by enumeration.

    Branches over per-type counts (bounded by ceil(remaining/l)); branches
    whose exact cost lower bound cannot beat the best so far are skipped,
    which prunes the space without excluding any candidate optimum.
    """
    t = len(lengths)
    best: int | None = None

    def rec(tau: int, remaining: int, acc: int) -> None:
        nonlocal best
        if remaining <= 0:
            if best is None or acc < best:
                best = acc
            return
        if best is not None and acc + math.ceil(remaining * density_bound) >= best:
            return
        if tau == t - 1:
            total = acc + -(-remaining // lengths[tau]) * costs[tau]
            if best is None or total < best:
                best = total
            return
        top = -(-remaining // lengths[tau])
        for n in range(top, -1, -1):
            rec(tau + 1, remaining - n * lengths[tau], acc + n * costs[tau])

    rec(0, length, 0)
    assert best is not None
    return best


def brute_solve_mc(per: Perimeter, types: TypesMC) -> int:
    """Reference for solve_mc: every subset of gaps left uncovered.

    Each subset splits the circle into blocks of consecutive segments
    (one wrapped block when a single gap is uncovered; the whole circle
    for the empty subset); block costs come from raw count enumeration.
    """
    if per.q > MAX_MC_SEGMENTS:
        raise InstanceTooLarge(f"brute force capped at {MAX_MC_SEGMENTS} segments")
    if types.t > MAX_MC_TYPES:
        raise InstanceTooLarge(f"brute force capped at {MAX_MC_TYPES} types")
    circ = math.ceil(per.circumference)
    if circ > MAX_MC_LENGTH:
        raise InstanceTooLarge(f"brute force capped at circumference {MAX_MC_LENGTH}")
    lengths, costs = types.lengths, types.costs
    # Sort by cost density so the enumeration finds good solutions early.
    order = sorted(range(types.t), key=lambda tau: (Fraction(costs[tau], lengths[tau]), tau))
    lengths = [lengths[tau] for tau in order]
    costs = [costs[tau] for tau in order]
    density_bound = min(Fraction(c, l) for c, l in zip(costs, lengths))
    cache: dict[int, int] = {}

    def block_cost(span: Fraction) -> int:
        need = math.ceil(span)
        got = cache.get(need)
        if got is None:
            got = _min_cost_to_cover(need, lengths, costs, density_bound)
            cache[need] = got
        return got

    q = per.q
    best: int | None = None
    n_gaps = len(per.gaps)
    for mask in range(1 << n_gaps):
        uncovered = [g for g in range(n_gaps) if mask >> g & 1]
        if not uncovered:
            total = block_cost(per.circumference)
        else:
            total = 0
            for b, g in enumerate(uncovered):
                nxt = uncovered[(b + 1) % len(uncovered)]
                total += block_cost(per.span_length((g + 1) % q, nxt))
        if best is None or total < best:
            best = total
    assert best is not None
    return best


# -- hardness-reduction instance generators ----------------------------------------


@dataclass(frozen=True)
class ThreePartitionSpec:
    """3-Partition input: 3m sizes, each strictly between B/4 and B/2,
    summing to m*B; a yes-instance splits them into m triples of sum B."""

    m: int
    B: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        check_ints((self.m,), "m", 1, InvalidSpec)
        check_ints((self.B,), "B", 1, InvalidSpec)
        if len(self.sizes) != 3 * self.m:
            raise InvalidSpec(f"need {3 * self.m} sizes, got {len(self.sizes)}")
        check_ints(self.sizes, "sizes[{k}]", 1, InvalidSpec)
        for s in self.sizes:
            if not 4 * s > self.B or not 2 * s < self.B:
                raise InvalidSpec(f"size {s} outside the open interval (B/4, B/2)")
        if sum(self.sizes) != self.m * self.B:
            raise InvalidSpec(
                f"sizes sum to {sum(self.sizes)}, expected m*B = {self.m * self.B}"
            )


def gen_3partition_instance(
    spec: ThreePartitionSpec,
) -> tuple[list[Perimeter], FleetLR]:
    """Fixed-fleet instance that is coverable at ratio 1 iff the 3-Partition
    instance is a yes-instance.

    One robot type per size (count 1, capability = size) and m identical
    perimeters, each one segment of length B with a gap of length B+1: the
    gap exceeds every capability, so no robot covers useful length twice,
    and a perimeter is covered exactly when its robots' sizes sum to >= B.
    With total capability m*B that forces sum exactly B per perimeter,
    and the interval bounds force triples.
    """
    perimeters = [
        build_perimeter([spec.B], [spec.B + 1]) for _ in range(spec.m)
    ]
    fleet = build_fleet_lr((s, 1) for s in spec.sizes)
    return perimeters, fleet


@dataclass(frozen=True)
class SubsetSumSpec:
    """Subset-Sum input: positive weights, target W, and a padding value
    Wp >= sum(weights) that keeps weight arithmetic from interfering with
    the block structure of the generated robot lengths.

    W must not exceed sum(weights).  Dropping that bound breaks the
    reduction: with weights (1, 1), W = 6, Wp = 3 the budget is 72 and two
    copies of the length-36 padding robot cover it exactly with no subset
    summing to 6.  Keeping W <= sum(weights) <= Wp pins the target below
    the padding unit, which the exactness argument needs."""

    weights: tuple[int, ...]
    W: int
    Wp: int

    def __post_init__(self):
        n = len(self.weights)
        if n == 0:
            raise InvalidSpec("need at least one weight")
        if n > MAX_SUBSETSUM_ITEMS:
            raise InvalidSpec(
                f"capped at {MAX_SUBSETSUM_ITEMS} weights: lengths grow as 2^(n+1)*Wp"
            )
        check_ints(self.weights, "weights[{k}]", 1, InvalidSpec)
        check_ints((self.W,), "W", 1, InvalidSpec)
        if self.W > sum(self.weights):
            raise InvalidSpec("W cannot exceed sum(weights)")
        check_ints((self.Wp,), "Wp", sum(self.weights), InvalidSpec)


def gen_subsetsum_instance(
    spec: SubsetSumSpec,
) -> tuple[Perimeter, TypesMC, int]:
    """Minimum-cost instance whose optimum equals the budget L iff some
    subset of the weights sums to W.

    Types come in pairs, one pair per weight: both variants carry a padding
    of (2^(n+1) + 2^i)*Wp and cost equal to their length, the first variant
    additionally carries the weight.  Padding coefficients force any multiset
    of total length near L to take exactly one variant per pair, so reaching
    L exactly means the chosen weighted variants sum to W.
    """
    n = len(spec.weights)
    big = 1 << (n + 1)
    pairs = []
    for i, w in enumerate(spec.weights, start=1):
        pad = (big + (1 << i)) * spec.Wp
        pairs.append((w + pad, w + pad))
        pairs.append((pad, pad))
    budget = spec.W + (n * big + big - 2) * spec.Wp
    per = build_perimeter([budget], [])
    return per, build_types_mc(pairs), budget
