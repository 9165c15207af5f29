"""Minimum-cost deployment with unlimited robots per type.

Each robot type has an integer arc length and an integer cost; any number
of each may be hired.  The solver covers every guarded segment at minimum
total cost in two stages:

* presolve: an unbounded covering knapsack giving the cheapest way to
  cover each integer length up to the circumference, over undominated types
  and periodic past a short base; sol() walks witnesses back out lazily;
* an interval DP over cyclic segment ranges choosing where coverage
  blocks start and end, so gaps that are expensive to bridge get skipped.

Both stages run on integers.  The interval DP and the block layout read
lengths through perimeter.integer_anchors, in units of 1/unit; a span x
enters the knapsack as ceil(x), which costs exactly as much to cover since
robot lengths are integers.  Fractions appear only in the emitted arcs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import OutOfTableRange, ReconstructionMismatch, ValidationError
from .perimeter import (
    Arc, Perimeter, anchored_arc, covers_all_segments, integer_anchors, trim_tail,
)
from .rationals import ceil_fraction

# -- types --------------------------------------------------------------------


@dataclass(frozen=True)
class TypesMC:
    """Robot catalog by column: type k covers an arc of `lengths[k]` for `costs[k]`."""

    lengths: tuple[int, ...]
    costs: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise ValidationError("need at least one robot type")
        if len(self.costs) != len(self.lengths):
            raise ValidationError(f"{len(self.lengths)} lengths but {len(self.costs)} costs")
        for k, (l, c) in enumerate(zip(self.lengths, self.costs)):
            if not isinstance(l, int) or isinstance(l, bool) or l <= 0:
                raise ValidationError(f"type {k}: length must be a positive integer")
            if not isinstance(c, int) or isinstance(c, bool) or c <= 0:
                raise ValidationError(f"type {k}: cost must be a positive integer")

    @property
    def t(self) -> int:
        return len(self.lengths)


def build_types_mc(pairs: Iterable[tuple[int, int]]) -> TypesMC:
    pairs = list(pairs)
    return TypesMC(tuple(l for l, _ in pairs), tuple(c for _, c in pairs))


# -- presolve: cheapest cover of every integer length --------------------------


@dataclass(slots=True)
class CostLookup:
    """costs[L] = cheapest robot multiset whose lengths sum to at least L, for
    every L in 0..max_len (interval_table reads any ceiled span).  presolve
    drops dominated types and fills past a short base by the knapsack period."""

    types: TypesMC
    max_len: int
    costs: list[int]


def presolve(types: TypesMC, max_len: int) -> CostLookup:
    """Unbounded covering knapsack over all lengths 0..max_len.

    Only undominated types (no other at least as long and no dearer; one copy
    of duplicates) enter costs[L] = min c + costs[max(0, L - l)].  Let (lb, cb)
    be a kept type of least cost per length, lmax the longest kept length.  If
    an optimum has lb or more other robots, pigeonhole on their prefix sums mod
    lb finds some summing to k*lb; k best robots cover as much for no more.  So
    some optimum has under lb others, reaching at most (lb - 1)*lmax; past that
    it holds a best robot: costs[L] = costs[L - lb] + cb (Gilmore & Gomory 1966; Hu 1969).
    """
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    kept: list[tuple[int, int]] = []   # longest first, each strictly cheaper
    for l, c in sorted(zip(types.lengths, types.costs), key=lambda lc: (-lc[0], lc[1])):
        if not kept or c < kept[-1][1]:
            kept.append((l, c))
    lb, cb = min(reversed(kept), key=lambda lc: Fraction(lc[1], lc[0]))  # shortest on ties
    base = (lb - 1) * kept[0][0]
    costs = [0]
    for n in range(1, max_len + 1):
        costs.append(min([c + costs[n - l] if l < n else c for l, c in kept])
                     if n <= base else costs[n - lb] + cb)
    return CostLookup(types, max_len, costs)


def sol(lookup: CostLookup, length: int) -> tuple[int, tuple[int, ...]]:
    """Cheapest cover of an integer length: (cost, robot counts per type); each robot
    is the smallest type tau with c_tau + costs[max(0, rem - l_tau)] == costs[rem]."""
    if not 0 <= length <= lookup.max_len:
        raise OutOfTableRange(f"length {length} outside 0..{lookup.max_len}")
    lengths, tcosts, costs = lookup.types.lengths, lookup.types.costs, lookup.costs
    counts = [0] * len(lengths)
    rem = length
    while rem > 0:
        tau = next(k for k, l in enumerate(lengths)
                   if tcosts[k] + (costs[rem - l] if l < rem else 0) == costs[rem])
        counts[tau] += 1
        rem -= lengths[tau]
    return costs[length], tuple(counts)


# -- interval DP over cyclic segment ranges ------------------------------------


@dataclass
class IntervalCostTable:
    """cost[i][k]: cheapest cover of segments i..i+k (cyclic), all gaps inside
    bridged or the range split into cheaper sub-blocks; split[i][k] is -1 for
    a direct single-block cover, else the offset d where the range splits
    into i..i+d and i+d+1..i+k.  unit and bounds are the perimeter's
    integer_anchors view the table was built on."""

    cost: list[list[int]]
    split: list[list[int]]
    unit: int
    bounds: list[tuple[list[int], list[int]]]


def interval_table(per: Perimeter, lookup: CostLookup) -> IntervalCostTable:
    """Cheapest-cover table over all cyclic segment ranges.

    A range is covered either directly (one block over its whole ceiled
    span) or by splitting at some segment boundary into two cheaper
    sub-ranges; direct covers win ties, then smaller split offsets.
    """
    q = per.q
    unit, (bounds,) = integer_anchors([per])
    cost = [[0] * q for _ in range(q)]
    split = [[-1] * q for _ in range(q)]
    for k in range(q):
        for i in range(q):
            best = lookup.costs[-(-bounds[i][1][k] // unit)]
            bs = -1
            for d in range(k):
                v = cost[i][d] + cost[(i + d + 1) % q][k - d - 1]
                if v < best:
                    best = v
                    bs = d
            cost[i][k] = best
            split[i][k] = bs
    return IntervalCostTable(cost, split, unit, bounds)


@dataclass
class McSolution:
    """Minimum total cost plus one deployment achieving it."""

    total_cost: int
    counts: tuple[int, ...]   # robots hired per type
    arcs: list[Arc]
    anchor: int               # segment where the block decomposition starts


def _direct_blocks(split, i: int, k: int, q: int) -> list[tuple[int, int]]:
    """Expand split pointers into the direct single-block ranges, in cyclic order."""
    d = split[i][k]
    if d < 0:
        return [(i, k)]
    left = _direct_blocks(split, i, d, q)
    right = _direct_blocks(split, (i + d + 1) % q, k - d - 1, q)
    return left + right


def _lay_block(table: IntervalCostTable, lookup: CostLookup, per: Perimeter,
               i: int, k: int, perimeter_index: int) -> tuple[list[Arc], int]:
    """Place an optimal robot multiset over segments i..i+k as concrete arcs.

    Runs on anchor i's integer bounds in the table, where a robot of length
    l steps l * unit.  Robots go down longest-first from the block's start;
    only the final arc can overrun the block, and it shrinks to the block
    length; arc tails ending inside a gap pull back to the gap's start.
    Returns (arcs, cost).
    """
    unit = table.unit
    starts, ends = table.bounds[i]
    starts, ends = starts[: k + 1], ends[: k + 1]
    span = ends[k]
    cost, counts = sol(lookup, -(-span // unit))
    lengths = lookup.types.lengths
    robots: list[int] = []
    for tau, cnt in enumerate(counts):
        robots.extend([tau] * cnt)
    robots.sort(key=lambda tau: (-lengths[tau], tau))
    arcs: list[Arc] = []
    rel: list[tuple[int, int]] = []
    pos = 0
    for tau in robots:
        step = lengths[tau] * unit
        e = trim_tail(starts, ends, min(pos + step, span))
        if e <= pos:
            raise ReconstructionMismatch(
                f"robot of type {tau} contributes nothing at offset {Fraction(pos, unit)} "
                f"in block {(i, k)}"
            )
        rel.append((pos, e))
        arcs.append(anchored_arc(per, i, unit, pos, e, perimeter_index, tau))
        pos += step
    if not covers_all_segments(starts, ends, rel):
        raise ReconstructionMismatch(f"block {(i, k)} leaves segment content uncovered")
    return arcs, cost


def reconstruct_mc(
    table: IntervalCostTable,
    lookup: CostLookup,
    per: Perimeter,
    anchor: int,
    perimeter_index: int = 0,
) -> list[Arc]:
    """Expand the table's split pointers from `anchor` into concrete arcs.

    Each direct block is laid out by _lay_block; the rebuilt total cost is
    re-checked against the table entry.
    """
    blocks = _direct_blocks(table.split, anchor, per.q - 1, per.q)
    arcs: list[Arc] = []
    spent = 0
    for i, k in blocks:
        b_arcs, b_cost = _lay_block(table, lookup, per, i, k, perimeter_index)
        arcs.extend(b_arcs)
        spent += b_cost
    want = table.cost[anchor][per.q - 1]
    if spent != want:
        raise ReconstructionMismatch(f"blocks rebuilt to cost {spent}, table says {want}")
    return arcs


def solve_mc(
    per: Perimeter, types: TypesMC, perimeter_index: int = 0, lookup: CostLookup | None = None
) -> McSolution:
    """Cover one perimeter at minimum cost with unlimited robots per type.
    `lookup`, if given, is a presolve of `types` to ceil(circumference) or
    beyond; a gapless perimeter needs no special case."""
    if lookup is None:
        lookup = presolve(types, ceil_fraction(per.circumference))
    q = per.q
    table = interval_table(per, lookup)
    anchor = 0
    total = table.cost[0][q - 1]
    for i in range(1, q):
        if table.cost[i][q - 1] < total:
            total = table.cost[i][q - 1]
            anchor = i
    arcs = reconstruct_mc(table, lookup, per, anchor, perimeter_index)
    counts = [0] * types.t
    for arc in arcs:
        counts[arc.robot_type] += 1
    if sum(c * tc for c, tc in zip(counts, types.costs)) != total:
        raise ReconstructionMismatch("arc counts do not add up to the optimal cost")
    return McSolution(total_cost=total, counts=tuple(counts), arcs=arcs, anchor=anchor)


def solve_mc_multi(perimeters: Sequence[Perimeter], types: TypesMC) -> McSolution:
    """Independent minimum-cost covers, one per perimeter, summed."""
    if not perimeters:
        raise ValidationError("need at least one perimeter")
    lookup = presolve(types, max(ceil_fraction(per.circumference) for per in perimeters))
    total = 0
    counts = [0] * types.t
    arcs: list[Arc] = []
    anchor = 0
    for k, per in enumerate(perimeters):
        part = solve_mc(per, types, perimeter_index=k, lookup=lookup)
        total += part.total_cost
        arcs.extend(part.arcs)
        for tau, cnt in enumerate(part.counts):
            counts[tau] += cnt
        if k == 0:
            anchor = part.anchor
    return McSolution(total_cost=total, counts=tuple(counts), arcs=arcs, anchor=anchor)
