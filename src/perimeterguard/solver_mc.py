"""Minimum-cost deployment with unlimited robots per type.

Each robot type has an integer arc length and an integer cost; any number
of each may be hired.  The solver covers every guarded segment at minimum
total cost in two stages:

* presolve: an unbounded covering knapsack giving the cheapest way to
  cover each integer length up to the circumference, over undominated types;
  it stops the recurrence once a window of l_max lengths repeats the best
  type's step and copies the rest in blocks.  sol() walks witnesses back out
  lazily, memoizing the robot choice per length; a length past the window
  first drops by whole periods;
* an interval DP over cyclic segment ranges choosing where coverage
  blocks start and end, so gaps that are expensive to bridge get skipped;
  it keeps costs only, and reconstruction re-derives the splits from them.
  No optimal block crosses a gap of at least 2*lb (lb the best type's
  length), so a range holding one costs its two sides, in O(1).

Both stages run on integers.  The interval DP reads spans off
perimeter.integer_anchors' line, in units of 1/unit (range i..i+k spans
ends[i + k] - starts[i]); a span x enters the knapsack as ceil(x), which
costs exactly as much to cover since robot lengths are integers.  Each
block's robots are stepped out on the same line and handed to
perimeter.place_arcs, which trims, re-checks and emits them as Arcs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .errors import InstanceTooLarge, OutOfTableRange, ReconstructionMismatch, ValidationError
from .perimeter import Arc, Perimeter, integer_anchors, place_arcs

# The longest length presolve tabulates: it allocates one entry per length.
MAX_COVER_LENGTH = 10**7

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
    stopped its recurrence at periodic_from (max_len + 1 if the table ended
    first) and set the rest to costs[L - lb] + cb, (lb, cb) the best kept
    type; `choice` is sol()'s memo of robot choices, keyed by length below
    periodic_from."""

    types: TypesMC
    max_len: int
    costs: list[int]
    lb: int
    periodic_from: int
    choice: dict[int, int] = field(default_factory=dict)


def presolve(types: TypesMC, max_len: int) -> CostLookup:
    """Unbounded covering knapsack over all lengths 0..max_len.

    Only undominated types (no other at least as long and no dearer; one copy
    of duplicates) enter costs[n] = min c + costs[max(0, n - l)].  Let (lb, cb)
    be a kept type of least cost per length, lmax the longest kept length.

    The recurrence stops after the first window of lmax consecutive n >= lb
    with costs[n] == costs[n - lb] + cb.  Every later n reads only the lmax
    entries before it, all in the window or past it, so by induction
    costs[n] = min c + costs[n - l - lb] + cb = costs[n - lb] + cb too, and
    the tail is copied lb entries at a time.

    Such a window exists by (lb - 1)*lmax + lmax: if an optimum has lb or
    more robots other than best ones, pigeonhole on their prefix sums mod lb
    finds some summing to k*lb, and k best robots cover as much for no more.
    So some optimum has under lb others, reaching at most (lb - 1)*lmax; past
    that it holds a best robot (Gilmore & Gomory 1966; Hu 1969).  In practice
    the window closes far sooner.
    """
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    if max_len > MAX_COVER_LENGTH:
        raise InstanceTooLarge(f"cover length {max_len} exceeds the cap {MAX_COVER_LENGTH}")
    kept: list[tuple[int, int]] = []   # longest first, each strictly cheaper
    for l, c in sorted(zip(types.lengths, types.costs), key=lambda lc: (-lc[0], lc[1])):
        if not kept or c < kept[-1][1]:
            kept.append((l, c))
    lb, cb = min(reversed(kept), key=lambda lc: Fraction(lc[1], lc[0]))  # shortest on ties
    lmax = kept[0][0]
    costs, run = [0], 0
    while run < lmax and len(costs) <= max_len:
        n = len(costs)
        costs.append(min([c + costs[n - l] if l < n else c for l, c in kept]))
        run = run + 1 if n >= lb and costs[n] == costs[n - lb] + cb else 0
    periodic_from = len(costs)
    while len(costs) <= max_len:
        costs.extend([x + cb for x in costs[-lb:]])
    del costs[max_len + 1:]
    return CostLookup(types, max_len, costs, lb, periodic_from)


def _check_covers(lookup: CostLookup, length: int) -> None:
    """Refuse a length the lookup's table does not reach."""
    if not 0 <= length <= lookup.max_len:
        raise OutOfTableRange(f"length {length} outside 0..{lookup.max_len}")


def sol(lookup: CostLookup, length: int) -> tuple[int, tuple[int, ...]]:
    """Cheapest cover of an integer length: (cost, robot counts per type); each robot
    is the smallest type tau with c_tau + costs[max(0, rem - l_tau)] == costs[rem].

    At rem >= periodic_from, costs[rem] and every costs[rem - l] the test
    reads (no type is longer than lmax) exceed the entries lb lower by cb, so
    the choice at rem is the choice at rem - lb, over all t types, dominated
    ones included.  So a choice is found once per length below periodic_from.
    """
    _check_covers(lookup, length)
    lengths, tcosts, costs = lookup.types.lengths, lookup.types.costs, lookup.costs
    lb, top, choice = lookup.lb, lookup.periodic_from, lookup.choice
    counts = [0] * len(lengths)
    rem = length
    while rem > 0:
        key = rem if rem < top else top - lb + (rem - top) % lb
        tau = choice.get(key)
        if tau is None:
            tau = choice[key] = next(
                k for k, l in enumerate(lengths)
                if tcosts[k] + (costs[key - l] if l < key else 0) == costs[key])
        counts[tau] += 1
        rem -= lengths[tau]
    return costs[length], tuple(counts)


# -- interval DP over cyclic segment ranges ------------------------------------


@dataclass
class IntervalCostTable:
    """cost[i][k]: cheapest cover of segments i..i+k (cyclic), by one direct
    block or split into two sub-ranges; _direct_blocks re-derives which.
    unit, starts and ends are the integer_anchors line it was built on;
    scanned counts the ranges (k >= 1) that took the min over their splits."""

    cost: list[list[int]]
    unit: int
    starts: list[int]
    ends: list[int]
    scanned: int = 0

    def span(self, i: int, k: int) -> int:
        """Range i..i+k's span, ceiled to a whole length (robot lengths are integers)."""
        return -(-(self.ends[i + k] - self.starts[i]) // self.unit)


def interval_table(per: Perimeter, lookup: CostLookup) -> IntervalCostTable:
    """Cheapest-cover table over all cyclic segment ranges, by growing k.

    A range is covered directly (one block over its span) or split at a
    segment boundary.  The splits of i..i+k pair cost[i][:k] with the
    ranges ending at e = i + k, by_end[e][j] = cost[e - j][j], reversed.

    A range holding a wide gap, one of at least 2*lb, skips that scan.  With
    (lb, cb) the best type by cost per length, n*cb/lb <= costs[n] <=
    ceil(n/lb)*cb for every n.  A block over sides of spans s1 and s2 with a
    gap g between them costs at least (s1 + g + s2)*cb/lb, and covering the
    sides apart costs less than (s1 + s2 + 2*lb)*cb/lb.  So when g >= 2*lb
    no optimal partition has a block across the gap, and cost[i][k] =
    cost[i][d] + cost[i + d + 1][k - d - 1] at its offset d; the direct
    cover is strictly dearer, so _direct_blocks still splits there.
    nxt[j] is the first segment j' >= j on the line that a wide gap follows.
    Raises OutOfTableRange if lookup is too short for a whole lap's span.
    """
    q = per.q
    unit, ((starts, ends),) = integer_anchors([per])
    table = IntervalCostTable([], unit, starts, ends)
    cost, costs, span = table.cost, lookup.costs, table.span
    _check_covers(lookup, max(span(i, q - 1) for i in range(q)))
    cost.extend([costs[span(i, 0)]] for i in range(q))
    by_end = [row[:] for row in cost]
    wide, nxt = 2 * lookup.lb * unit, [2 * q] * (2 * q)
    for j in range(2 * q - 2, -1, -1):
        nxt[j] = j if starts[j + 1] - ends[j] >= wide else nxt[j + 1]
    for k in range(1, q):
        for i in range(q):
            right, d = by_end[(i + k) % q], nxt[i] - i
            if d < k:
                best = cost[i][d] + cost[(i + d + 1) % q][k - d - 1]
            else:
                table.scanned += 1
                best = min(costs[span(i, k)], min(map(add, cost[i], reversed(right))))
            cost[i].append(best)
            right.append(best)
    return table


@dataclass
class McSolution:
    """Minimum total cost plus one deployment achieving it."""

    total_cost: int
    counts: tuple[int, ...]   # robots hired per type
    arcs: list[Arc]


def _direct_blocks(table: IntervalCostTable, lookup: CostLookup,
                   i: int, k: int) -> list[tuple[int, int]]:
    """The direct blocks of range i..i+k's cheapest cover, in cyclic order.

    Re-derived from the costs as sol() re-derives robots: the range itself
    if its direct cover costs cost[i][k] (direct wins ties), else the blocks
    of its halves at the smallest split offset d whose costs sum to it.
    """
    cost, q = table.cost, len(table.cost)
    blocks, todo = [], [(i, k)]
    while todo:   # an explicit stack: a range may hold q blocks, past the recursion limit
        i, k = todo.pop()
        if lookup.costs[table.span(i, k)] == cost[i][k]:
            blocks.append((i, k))
            continue
        d = next(d for d in range(k) if cost[i][d] + cost[(i + d + 1) % q][k - d - 1] == cost[i][k])
        todo += [((i + d + 1) % q, k - d - 1), (i, d)]   # left half on top: cyclic order
    return blocks


def _lay_block(table: IntervalCostTable, lookup: CostLookup, per: Perimeter,
               i: int, k: int, perimeter_index: int) -> tuple[list[Arc], int]:
    """Place an optimal robot multiset over segments i..i+k as concrete arcs.

    The multiset is sol()'s cover of the block's ceiled span.  On the
    table's integer line, robots go down longest first (ties by type) from
    the block's start, a robot of length l stepping l * unit;
    perimeter.place_arcs shrinks the last arc to the block, pulls tails out
    of gaps and re-checks the block.  Every robot must keep an arc.
    Returns (arcs, cost).
    """
    unit = table.unit
    starts, ends = table.starts[i:i + k + 1], table.ends[i:i + k + 1]
    cost, counts = sol(lookup, table.span(i, k))
    lengths = lookup.types.lengths
    robots: list[tuple[int, int, int]] = []
    pos = starts[0]
    hired = (tau for tau, n in enumerate(counts) if n)
    for tau in sorted(hired, key=lambda tau: (-lengths[tau], tau)):
        step = lengths[tau] * unit
        for _ in range(counts[tau]):
            robots.append((tau, pos, step))
            pos += step
    arcs = place_arcs(unit, table.starts[per.q], starts, ends, robots, perimeter_index)
    if len(arcs) < len(robots):
        raise ReconstructionMismatch(f"a robot in block {(i, k)} contributes nothing")
    return arcs, cost


def reconstruct_mc(
    table: IntervalCostTable,
    lookup: CostLookup,
    per: Perimeter,
    anchor: int,
    perimeter_index: int = 0,
) -> list[Arc]:
    """Expand the cheapest cover of the whole perimeter from `anchor` into arcs.

    Each direct block is laid out by _lay_block; the rebuilt total cost is
    re-checked against the table entry.
    """
    per._check_index(anchor)
    _check_covers(lookup, table.span(anchor, per.q - 1))
    blocks = _direct_blocks(table, lookup, anchor, per.q - 1)
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


def solve_mc(per: Perimeter, types: TypesMC) -> McSolution:
    """Cover one perimeter at minimum cost with unlimited robots per type."""
    return solve_mc_multi([per], types)


def solve_mc_multi(perimeters: Sequence[Perimeter], types: TypesMC) -> McSolution:
    """Independent minimum-cost covers, one per perimeter, summed.

    One presolve to the longest ceil(circumference) serves every perimeter
    (a gapless one needs no special case).  Each cover starts at the
    cheapest anchor, the smallest on ties, and its arcs must add up to the
    table's cost.
    """
    if not perimeters:
        raise ValidationError("need at least one perimeter")
    lookup = presolve(types, max(math.ceil(per.circumference) for per in perimeters))
    total = 0
    counts = [0] * types.t
    arcs: list[Arc] = []
    for k, per in enumerate(perimeters):
        table = interval_table(per, lookup)
        costs = [row[per.q - 1] for row in table.cost]
        anchor = costs.index(min(costs))
        part = reconstruct_mc(table, lookup, per, anchor, k)
        for arc in part:
            counts[arc.robot_type] += 1
        total += costs[anchor]
        if sum(c * tc for c, tc in zip(counts, types.costs)) != total:
            raise ReconstructionMismatch("arc counts do not add up to the optimal cost")
        arcs.extend(part)
    return McSolution(total_cost=total, counts=tuple(counts), arcs=arcs)
