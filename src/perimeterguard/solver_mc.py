"""Minimum-cost deployment with unlimited robots per type.

Each robot type has an integer arc length and an integer cost; any number
of each may be hired.  The solver covers every guarded segment at minimum
total cost in two stages:

* presolve: an unbounded covering knapsack giving the cheapest way to
  cover each integer length up to the circumference, over undominated types;
  it stops the recurrence once a window of l_max lengths repeats the best
  type's step, keeps that head, and CostLookup.cost(n) answers the rest in
  closed form.  sol() walks witnesses back out lazily, memoizing the robot
  choice per length; a length past the head first drops by whole periods;
* an interval DP over cyclic segment ranges choosing where coverage
  blocks start and end, so gaps that are expensive to bridge get skipped;
  it keeps costs only, and reconstruction re-derives the splits from them.
  No optimal block crosses a wide gap, one of at least 2*lb (lb the best
  type's length): the DP stores only the ranges free of wide gaps, and
  reads a range across one as the sum of its pieces.

Both stages run on integers.  The interval DP reads spans off
perimeter.integer_anchors' line, in units of 1/unit (range i..i+k spans
ends[i + k] - starts[i]); a span x enters the knapsack as ceil(x), which
costs exactly as much to cover since robot lengths are integers.  Every
block's robots are stepped out on the same line, one sol() per distinct
span, and the whole lap goes to perimeter.place_arcs at once, which trims,
re-checks and emits them as Arcs.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import add

from .errors import (IndexOutOfRange, InstanceTooLarge, OutOfTableRange, ReconstructionMismatch,
                     ValidationError)
from .perimeter import (Arc, Perimeter, TypesMC, build_types_mc, integer_anchors, perimeter_list,
                        place_arcs)
from .rationals import check_class, check_ints

# The longest length presolve accepts.  Its table stops at the periodic
# window whatever the length, but a solution lays its O(L/l_min) arcs one
# by one, so this bounds them.
MAX_COVER_LENGTH = 10**7

# -- presolve: cheapest cover of every integer length --------------------------


@dataclass(slots=True)
class CostLookup:
    """The cheapest robot multiset whose lengths sum to at least n, as
    cost(n), for every n in 0..max_len (interval_table reads any ceiled span).

    presolve stopped its recurrence at periodic_from = len(head) (max_len + 1
    if the table ended first), so `head` holds only those entries, and later
    ones follow cost(n) = cost(n - lb) + cb, (lb, cb) the best kept type;
    `choice` is sol()'s memo of robot choices, keyed by length below
    periodic_from."""

    types: TypesMC
    max_len: int
    head: list[int]
    lb: int
    cb: int
    choice: dict[int, int] = field(default_factory=dict)

    @property
    def periodic_from(self) -> int:
        return len(self.head)

    def cost(self, n: int) -> int:
        """_cost(n), raising OutOfTableRange unless n is an int in 0..max_len."""
        _check_covers(self, n)
        return self._cost(n)

    def _cost(self, n: int) -> int:
        """head[n] below len(head), else head[base + r] + k*cb with base =
        len(head) - lb and n - base = k*lb + r; n is not checked."""
        head = self.head
        if n < len(head):
            return head[n]
        base = len(head) - self.lb
        k, r = divmod(n - base, self.lb)
        return head[base + r] + k * self.cb


def presolve(types: TypesMC, max_len: int) -> CostLookup:
    """Unbounded covering knapsack over all lengths 0..max_len.

    Only undominated types (no other at least as long and no dearer; one copy
    of duplicates) enter cost(n) = min c + cost(max(0, n - l)).  Let (lb, cb)
    be a kept type of least cost per length, the shortest on ties, and lmax
    the longest kept length.

    The recurrence stops after the first window of lmax consecutive n >= lb
    with cost(n) == cost(n - lb) + cb.  Every later n reads only the lmax
    entries before it, all in the window or past it, so by induction
    cost(n) = min c + cost(n - l - lb) + cb = cost(n - lb) + cb too, and
    the tail is that closed form: the lookup's head ends with the window.

    Such a window exists by (lb - 1)*lmax + lmax: if an optimum has lb or
    more robots other than best ones, pigeonhole on their prefix sums mod lb
    finds some summing to k*lb, and k best robots cover as much for no more.
    So some optimum has under lb others, reaching at most (lb - 1)*lmax; past
    that it holds a best robot (Gilmore & Gomory 1966; Hu 1969).  In practice
    the window closes far sooner.
    """
    check_ints((max_len,), "max_len", 0, ValidationError)
    if max_len > MAX_COVER_LENGTH:
        raise InstanceTooLarge(f"cover length {max_len} exceeds the cap {MAX_COVER_LENGTH}")
    check_class(types, TypesMC, "types")
    kept: list[tuple[int, int]] = []   # longest first, each strictly cheaper
    for l, c in sorted(zip(types.lengths, types.costs), key=lambda lc: (-lc[0], lc[1])):
        if not kept or c < kept[-1][1]:
            kept.append((l, c))
    lb, cb = kept[-1]
    for l, c in reversed(kept):   # shortest first, so a tie keeps the shorter
        if c * lb < cb * l:
            lb, cb = l, c
    lmax = kept[0][0]
    head, run = [0], 0
    while run < lmax and len(head) <= max_len:
        n = len(head)
        head.append(min([c + head[n - l] if l < n else c for l, c in kept]))
        run = run + 1 if n >= lb and head[n] == head[n - lb] + cb else 0
    return CostLookup(types, max_len, head, lb, cb)


def _check_covers(lookup: CostLookup, length: int) -> None:
    """Refuse a length the lookup's table does not reach."""
    check_ints((length,), "length", 0, OutOfTableRange, lookup.max_len)


def sol(lookup: CostLookup, length: int) -> tuple[int, tuple[int, ...]]:
    """Cheapest cover of an integer length: (cost, robot counts per type); each robot
    is the smallest type tau with c_tau + cost(max(0, rem - l_tau)) == cost(rem).

    At rem >= periodic_from, cost(rem) and every cost(rem - l) the test
    reads (no type is longer than lmax) exceed the entries lb lower by cb, so
    the choice at rem is the choice at rem - lb, over all t types, dominated
    ones included.  So a choice is found once per length below periodic_from,
    reading only the lookup's head.
    """
    _check_covers(check_class(lookup, CostLookup, "lookup"), length)
    lengths, tcosts, head = lookup.types.lengths, lookup.types.costs, lookup.head
    lb, top, choice = lookup.lb, len(head), lookup.choice
    counts = [0] * len(lengths)
    rem = length
    while rem > 0:
        key = rem if rem < top else top - lb + (rem - top) % lb
        tau = choice.get(key)
        if tau is None:
            tau = choice[key] = next(
                k for k, l in enumerate(lengths)
                if tcosts[k] + (head[key - l] if l < key else 0) == head[key])
        counts[tau] += 1
        rem -= lengths[tau]
    return lookup._cost(length), tuple(counts)


# -- interval DP over cyclic segment ranges ------------------------------------


@dataclass
class IntervalCostTable:
    """cost[i][k]: cheapest cover of segments i..i+k (cyclic), by one direct
    block or split into two sub-ranges; _direct_blocks re-derives which.
    Row i stops before a wide gap (interval_table); range_cost reads any
    range.  lookup, unit, starts and ends are the presolve and the
    integer_anchors line it was built on."""

    cost: list[list[int]]
    lookup: CostLookup
    unit: int
    starts: list[int]
    ends: list[int]

    def span(self, i: int, k: int) -> int:
        """Range i..i+k's span, ceiled to a whole length (robot lengths are integers)."""
        return -(-(self.ends[i + k] - self.starts[i]) // self.unit)

    def range_cost(self, i: int, k: int) -> int:
        """Cost of any range i..i+k, k < q: the sum over the pieces it crosses."""
        cost, total = self.cost, 0
        check_ints((i, k), "range_cost (i, k)[{k}]", 0, IndexOutOfRange, len(cost) - 1)
        while k >= len(row := cost[i]):
            total, i, k = total + row[-1], (i + len(row)) % len(cost), k - len(row)
        return total + cost[i][k]

    def lap_costs(self) -> list[int]:
        """range_cost(i, q - 1) for every i, in O(q).  With a wide gap, pieces
        start after rows of length 1; a lap from a head costs the pieces' total,
        and from offset o > 0 its head row h's h[-1] gives way to cost[i][-1] + h[o - 1]."""
        cost, q = self.cost, len(self.cost)
        heads = [i for i in range(q) if len(cost[i - 1]) == 1]
        if not heads:
            return [row[-1] for row in cost]
        total, h, laps = sum(cost[h][-1] for h in heads), heads[-1], []
        for i in range(q):
            h = i if len(cost[i - 1]) == 1 else h
            laps.append(total - cost[h][-1] + cost[i][-1] + (cost[h][(i - h) % q - 1] if i != h else 0))
        return laps


def interval_table(per: Perimeter, lookup: CostLookup) -> IntervalCostTable:
    """Cheapest-cover table over the cyclic segment ranges free of wide gaps.

    A range is covered directly (one block over its span) or split at a
    segment boundary.  The splits of i..i+k pair cost[i][:k] with the
    ranges ending at e = i + k, by_end[e][j] = cost[e - j][j], reversed.

    A wide gap is one of at least 2*lb.  With (lb, cb) the best type by cost
    per length, n*cb/lb <= cost(n) <= ceil(n/lb)*cb for every n.  A block
    over sides of spans s1 and s2 with a gap g between them costs at least
    (s1 + g + s2)*cb/lb, and covering the sides apart costs less than
    (s1 + s2 + 2*lb)*cb/lb.  So no optimal partition has a block across a
    wide gap: a range holding one costs its two sides, and its direct cover
    is strictly dearer.  So row i stops at reach[i] = min(nxt[i] - i, q - 1),
    nxt[j] the first segment j' >= j on the line that a wide gap follows: a
    piece of c segments between wide gaps stores c(c + 1)/2 ranges, and a
    lap with none q*q, at most the sum of c*c over pieces.
    Raises OutOfTableRange if lookup is too short for a whole lap's span.
    """
    q = check_class(per, Perimeter, "per").q
    unit, ((starts, ends),) = integer_anchors([per])
    table = IntervalCostTable([], check_class(lookup, CostLookup, "lookup"), unit, starts, ends)
    cost, cover, span = table.cost, lookup._cost, table.span
    _check_covers(lookup, max(span(i, q - 1) for i in range(q)))
    cost.extend([cover(span(i, 0))] for i in range(q))
    by_end = [row[:] for row in cost]
    wide, nxt = 2 * lookup.lb * unit, [2 * q] * (2 * q)
    for j in range(2 * q - 2, -1, -1):
        nxt[j] = j if starts[j + 1] - ends[j] >= wide else nxt[j + 1]
    reach = [min(nxt[i] - i, q - 1) for i in range(q)]
    rows = range(q)
    for k in range(1, max(reach) + 1):
        rows = [i for i in rows if reach[i] >= k]
        for i in rows:
            right = by_end[(i + k) % q]
            best = min(cover(span(i, k)), min(map(add, cost[i], reversed(right))))
            cost[i].append(best)
            right.append(best)
    return table


@dataclass
class McSolution:
    """Minimum total cost plus one deployment achieving it."""

    total_cost: int
    counts: tuple[int, ...]   # robots hired per type
    arcs: list[Arc]


def _direct_blocks(table: IntervalCostTable, i: int, k: int) -> list[tuple[int, int]]:
    """The direct blocks of range i..i+k's cheapest cover, in cyclic order.

    Re-derived from the costs as sol() re-derives robots: the range itself
    if its direct cover costs cost[i][k] (direct wins ties), else the blocks
    of its halves at the smallest split offset d whose costs sum to it.
    Past row i's last entry f the range crosses a wide gap, so its direct
    cover is dearer, a split at d < f ties iff it ties for i..i+f, and d = f ties.
    """
    cost, q = table.cost, len(table.cost)
    blocks, todo = [], [(i, k)]
    while todo:   # an explicit stack: a range may hold q blocks, past the recursion limit
        i, k = todo.pop()
        f = min(k, len(cost[i]) - 1)
        if f == k and table.lookup._cost(table.span(i, k)) == cost[i][k]:
            blocks.append((i, k))
            continue
        d = next(d for d in range(k) if d == f or cost[i][d] + cost[(i + d + 1) % q][f - d - 1] == cost[i][f])
        todo += [((i + d + 1) % q, k - d - 1), (i, d)]   # left half on top: cyclic order
    return blocks


def reconstruct_mc(table: IntervalCostTable, anchor: int, perimeter_index: int = 0) -> list[Arc]:
    """Expand the cheapest cover of the whole perimeter from `anchor` into arcs.

    Each direct block takes sol()'s cover of its ceiled span, robots stepped
    out longest first (ties by type) from its start on the table's line, a
    robot of length l stepping l * unit; only its last robot is capped at its
    end.  That is exact: the cover is optimal and costs are positive, so the
    robots before the last sum to less than the span.  Were one to pass the
    end, the next would start at or past it: place_arcs drops that robot (the
    count check raises) or finds it over the next block (and raises), so a
    bad layout raises and never silently changes the arcs.  Work: one sol()
    and sort per distinct span, one place_arcs over the lap, which trims tails
    out of gaps and re-checks overlap and coverage across blocks; the blocks'
    cost must equal the table's.
    """
    q = len(check_class(table, IntervalCostTable, "table").cost)
    check_ints((anchor,), "segment index", 0, IndexOutOfRange, q - 1)
    check_ints((perimeter_index,), "perimeter_index", 0, ValidationError)
    unit, starts, ends, lookup = table.unit, table.starts, table.ends, table.lookup
    lengths, by_span, robots, spent = lookup.types.lengths, {}, [], 0   # by_span: span -> (cost, runs)
    for i, k in _direct_blocks(table, anchor, q - 1):
        span = table.span(i, k)
        if (laid := by_span.get(span)) is None:
            cost, counts = sol(lookup, span)
            hired = sorted(compress(range(len(counts)), counts), key=lambda tau: (-lengths[tau], tau))
            laid = by_span[span] = cost, [(tau, lengths[tau] * unit, counts[tau]) for tau in hired]
        spent += laid[0]
        i += q if i < anchor else 0   # blocks come mod q; the lap runs anchor..anchor + q - 1
        pos = starts[i]
        for tau, step, n in laid[1]:
            robots += zip(repeat(tau, n), range(pos, pos + n * step, step), repeat(step, n))
            pos += n * step
        robots[-1] = (tau, pos - step, min(step, ends[i + k] - pos + step))
    if spent != (want := table.range_cost(anchor, q - 1)):
        raise ReconstructionMismatch(f"blocks rebuilt to cost {spent}, table says {want}")
    lap = slice(anchor, anchor + q)
    arcs = place_arcs(unit, starts[q], starts[lap], ends[lap], robots, perimeter_index)
    if len(arcs) < len(robots):
        raise ReconstructionMismatch(f"a robot on perimeter {perimeter_index} contributes nothing")
    return arcs


def solve_mc_multi(perimeters: Sequence[Perimeter] | Perimeter, types: TypesMC) -> McSolution:
    """Independent minimum-cost covers, one per perimeter, summed.

    One presolve to the longest ceil(circumference) serves every perimeter
    (a gapless one needs no special case).  Each cover starts at the
    cheapest anchor, the smallest on ties, and its arcs must add up to the
    table's cost.
    """
    perimeters = perimeter_list(perimeters)
    lookup = presolve(types, max(math.ceil(per.circumference) for per in perimeters))
    total = 0
    counts = [0] * types.t
    arcs: list[Arc] = []
    for k, per in enumerate(perimeters):
        table = interval_table(per, lookup)
        costs = table.lap_costs()
        anchor = costs.index(min(costs))
        part = reconstruct_mc(table, anchor, k)
        for arc in part:
            counts[arc.robot_type] += 1
        total += costs[anchor]
        if sum(c * tc for c, tc in zip(counts, types.costs)) != total:
            raise ReconstructionMismatch("arc counts do not add up to the optimal cost")
        arcs.extend(part)
    return McSolution(total_cost=total, counts=tuple(counts), arcs=arcs)


solve_mc = solve_mc_multi
