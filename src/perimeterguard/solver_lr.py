"""Exact min-max coverage-ratio deployment for a fixed heterogeneous fleet.

Given perimeters and a fleet of robot types (capability a, count n), find
the smallest ratio ell such that every guarded segment is covered when a
robot of type tau may cover an arc of length at most a_tau * ell.  Arcs
may not overlap except at endpoints, and every robot is pinned to one
perimeter.

The feasibility core is a dynamic program over allocation vectors: for a
fixed anchor (a segment start), the table holds the furthest normalized
reach achievable with x_tau robots of each type, where reach positions
skip over gaps for free.  The optimum is located by bisection on ell and
snapped to the exact rational answer, which always has denominator at
most the fleet's total capability.

The DP runs on integers only.  perimeter.integer_anchors scales lengths
once by the lcm of their denominators; at a candidate ratio p/d in those
units the bounds are multiplied by d and a robot of capability a steps
exactly a * p.  The search, the public decision functions, the tables
and the reconstruction all share that one engine; Fractions appear only
at the edges, where a ratio comes in and reaches, arcs and the objective
go out.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .errors import IndexOutOfRange, ReconstructionMismatch, ValidationError
from .perimeter import (
    Arc, Perimeter, anchored_arc, covers_all_segments, integer_anchors, trim_tail,
)
from .rationals import simplest_between

# -- fleet ------------------------------------------------------------------


@dataclass(frozen=True)
class FleetLR:
    """Robot models by column: type k covers at most `capabilities[k] * ell`
    at ratio ell, and `counts[k]` robots of it are available."""

    capabilities: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.capabilities:
            raise ValidationError("fleet needs at least one robot type")
        if len(self.counts) != len(self.capabilities):
            raise ValidationError(
                f"{len(self.capabilities)} capabilities but {len(self.counts)} counts"
            )
        for k, (a, n) in enumerate(zip(self.capabilities, self.counts)):
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise ValidationError(f"type {k}: capability must be a positive integer")
            if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
                raise ValidationError(f"type {k}: count must be a positive integer")

    @property
    def t(self) -> int:
        return len(self.capabilities)

    @property
    def total_capability(self) -> int:
        """Sum of capability * count: bounds the objective's denominator."""
        return sum(a * n for a, n in zip(self.capabilities, self.counts))

    @property
    def total_count(self) -> int:
        return sum(self.counts)


def build_fleet_lr(pairs: Iterable[tuple[int, int]]) -> FleetLR:
    pairs = list(pairs)
    return FleetLR(tuple(a for a, _ in pairs), tuple(n for _, n in pairs))


AllocationVector = tuple[int, ...]


# -- integer geometry -------------------------------------------------------------


def _at(scaled, capabilities: Sequence[int], ratio: Fraction):
    """Integer bounds and steps at a scaled ratio p/d (ratio = ell * unit).

    scaled holds integer_anchors' bounds (per perimeter, a list of anchors).
    In units of 1/(unit * d), bounds are multiplied by d and a robot of
    capability a steps exactly a * p.  Scaling by a positive constant keeps
    every comparison and tie-break, so the DP decides exactly as it would
    over the rationals.
    """
    p, d = ratio.numerator, ratio.denominator
    grids = [
        [([s * d for s in starts], [e * d for e in ends]) for starts, ends in anchors]
        for anchors in scaled
    ]
    return grids, [a * p for a in capabilities]


def _at_ell(perimeters: Sequence[Perimeter], fleet: FleetLR, ell: Fraction):
    """_at for an unscaled ratio ell, as the public decision functions take it."""
    unit, scaled = integer_anchors(perimeters)
    return _at(scaled, fleet.capabilities, Fraction(ell) * unit)


# -- the reach DP -----------------------------------------------------------------


def _strides(sizes: Sequence[int]) -> tuple[list[int], int]:
    """Mixed-radix strides, last axis fastest; returns (strides, total cells)."""
    t = len(sizes)
    strides = [1] * t
    for k in range(t - 2, -1, -1):
        strides[k] = strides[k + 1] * sizes[k + 1]
    return strides, strides[0] * sizes[0]


def _fill_table(starts, ends, steps, bounds, early_exit: bool):
    """Reach DP over all allocation vectors, in lexicographic cell order.

    starts, ends and steps are integers on one grid (see _at).  Cell x
    holds the furthest normalized reach from offset 0 using x_tau robots
    per type, capped at the working range ends[-1]; ties between types
    resolve to the smallest type index.  Returns (values, backptr, hit)
    with hit the first feasible cell index, -1 if none (values/backptr are
    partial when early_exit stops the sweep).
    """
    required = ends[-1]
    sizes = [n + 1 for n in bounds]
    strides, total = _strides(sizes)
    values = [0] * total
    backptr = [-1] * total
    hit = -1
    br = bisect_right
    for idx, x in enumerate(product(*map(range, sizes))):
        if not idx:
            continue
        best = -1
        bt = -1
        for tau, cnt in enumerate(x):
            if cnt:
                v = values[idx - strides[tau]] + steps[tau]
                if v >= required:
                    # Nothing can beat a full reach; smallest tau wins ties.
                    best = required
                    bt = tau
                    break
                j = br(starts, v) - 1
                if v >= ends[j]:
                    v = starts[j + 1]
                if v > best:
                    best = v
                    bt = tau
        values[idx] = best
        backptr[idx] = bt
        if best >= required:
            if hit < 0:
                hit = idx
            if early_exit:
                return values, backptr, hit
    return values, backptr, hit


def _first_anchor(anchors, steps, counts, order) -> int | None:
    """First anchor in `order` from which the whole fleet reaches the working range."""
    for anchor in order:
        starts, ends = anchors[anchor]
        if _fill_table(starts, ends, steps, counts, True)[2] >= 0:
            return anchor
    return None


def _pareto_layer(anchors, counts, steps) -> list[tuple[AllocationVector, int]]:
    """Antichain of minimal feasible allocation vectors for one perimeter.

    anchors holds every anchor's integer (starts, ends).  Returns
    lex-sorted (vector, witness_anchor) pairs; witness_anchor is the
    smallest anchor at which that vector reaches the working range.
    """
    sizes = [n + 1 for n in counts]
    strides, total = _strides(sizes)
    feas = bytearray(total)
    wit = [-1] * total
    for anchor, (starts, ends) in enumerate(anchors):
        values, _, hit = _fill_table(starts, ends, steps, counts, False)
        if hit < 0:
            continue
        required = ends[-1]
        for idx in range(total):
            if not feas[idx] and values[idx] >= required:
                feas[idx] = 1
                wit[idx] = anchor
    # The feasible set is upward closed: keep the cells with no feasible predecessor.
    return [
        (x, wit[idx])
        for idx, x in enumerate(product(*map(range, sizes)))
        if feas[idx] and not any(cnt and feas[idx - strides[tau]] for tau, cnt in enumerate(x))
    ]


class CoverageTable:
    """Full reach table for one (perimeter, anchor, fleet, ell) combination.

    The DP runs on _at's integers, in units of 1/_unit; value() scales back out.
    """

    def __init__(self, per: Perimeter, anchor: int, fleet: FleetLR, ell: Fraction):
        self.per = per
        self.anchor = anchor
        self.fleet = fleet
        self.ell = Fraction(ell)
        self.bounds = fleet.counts
        unit, (anchors,) = integer_anchors([per])
        ratio = self.ell * unit
        self._unit = unit * ratio.denominator
        grids, self._steps = _at([anchors[anchor:anchor + 1]], fleet.capabilities, ratio)
        self._starts, self._ends = grids[0][0]
        self.required = Fraction(self._ends[-1], self._unit)
        self._stride_list, _ = _strides([n + 1 for n in self.bounds])
        self._values, self._backptr, _ = _fill_table(
            self._starts, self._ends, self._steps, self.bounds, False
        )

    def _index(self, allocation: AllocationVector) -> int:
        if len(allocation) != len(self.bounds):
            raise IndexOutOfRange(
                f"allocation has {len(allocation)} entries, fleet has {len(self.bounds)} types"
            )
        idx = 0
        for x, n, s in zip(allocation, self.bounds, self._stride_list):
            if not 0 <= x <= n:
                raise IndexOutOfRange(f"allocation {allocation} outside type counts")
            idx += x * s
        return idx

    def value(self, allocation: AllocationVector) -> Fraction:
        """Furthest normalized reach using the given robots."""
        return Fraction(self._values[self._index(allocation)], self._unit)

    def backpointer(self, allocation: AllocationVector) -> int | None:
        """Type index placed last on the path to this cell (None at origin)."""
        bt = self._backptr[self._index(allocation)]
        return None if bt < 0 else bt

    def feasible_at(self, allocation: AllocationVector) -> bool:
        return self._values[self._index(allocation)] >= self._ends[-1]


def inc(per: Perimeter, anchor: int, reach: Fraction, ell: Fraction) -> Fraction:
    """Extend a normalized reach by one robot's arc of length ell.

    Equivalent to normalize_position(anchor, reach + ell): the new reach
    slides past any gap it lands in and clamps at the working range.
    """
    if ell < 0:
        raise ValidationError(f"arc length {ell} is negative")
    return per.normalize_position(anchor, Fraction(reach) + Fraction(ell))


def coverage_table(per: Perimeter, anchor: int, fleet: FleetLR, ell: Fraction) -> CoverageTable:
    """Build the full reach table for one anchor at ratio ell."""
    return CoverageTable(per, anchor, fleet, ell)


def feasible(per: Perimeter, fleet: FleetLR, ell: Fraction) -> tuple[bool, int | None]:
    """Can the whole fleet cover the perimeter at ratio ell from some anchor?

    Returns (ok, witness_anchor) with the smallest witness anchor index.
    """
    (anchors,), steps = _at_ell([per], fleet, ell)
    anchor = _first_anchor(anchors, steps, fleet.counts, range(per.q))
    return anchor is not None, anchor


def pareto_feasible_vectors(per: Perimeter, fleet: FleetLR, ell: Fraction) -> list[AllocationVector]:
    """All minimal allocation vectors that cover the perimeter at ratio ell."""
    (anchors,), steps = _at_ell([per], fleet, ell)
    return [v for v, _ in _pareto_layer(anchors, fleet.counts, steps)]


def _fold_step(prev, layer, sizes, strides):
    """One left fold of per-perimeter antichains under shared robot counts.

    prev: lex-sorted totals so far; layer: lex-sorted (vector, anchor).
    Returns (minimal combined totals, parents) where parents maps a total
    to its lexicographically smallest (previous_total, vector, anchor).
    """
    cand: dict[AllocationVector, tuple] = {}
    for u in prev:
        for v, anchor in layer:
            w = tuple(a + b for a, b in zip(u, v))
            if any(c >= s for c, s in zip(w, sizes)):
                continue
            if w not in cand:
                cand[w] = (u, v, anchor)
    if not cand:
        return [], {}
    total = math.prod(sizes)
    member = bytearray(total)
    for w in cand:
        member[sum(c * s for c, s in zip(w, strides))] = 1
    closure = bytearray(total)
    for idx, x in enumerate(product(*map(range, sizes))):
        if member[idx] or any(
            cnt and closure[idx - strides[tau]] for tau, cnt in enumerate(x)
        ):
            closure[idx] = 1
    minimal = []
    for w in sorted(cand):
        idx = sum(c * s for c, s in zip(w, strides))
        if not any(cnt and closure[idx - strides[tau]] for tau, cnt in enumerate(w)):
            minimal.append(w)
    return minimal, cand


def _fold_layers(grids, steps, counts):
    """Fold the perimeters' Pareto layers into global minimal totals.

    A layer is built only when the fold reaches it, so an infeasible
    perimeter ends the work.  Returns (final_minimal_totals,
    parents_per_level); empty totals means no simultaneous assignment fits
    the fleet.
    """
    sizes = [n + 1 for n in counts]
    strides, _ = _strides(sizes)
    prev: list[AllocationVector] = [tuple([0] * len(counts))]
    parents: list[dict] = []
    for anchors in grids:
        layer = _pareto_layer(anchors, counts, steps)
        if not layer:
            return [], parents
        prev, cand = _fold_step(prev, layer, sizes, strides)
        parents.append(cand)
        if not prev:
            return [], parents
    return prev, parents


def partition_feasible(
    perimeters: Sequence[Perimeter], fleet: FleetLR, ell: Fraction
) -> bool:
    """Can the fleet be split so every perimeter is covered at ratio ell?"""
    if not perimeters:
        raise ValidationError("need at least one perimeter")
    if len(perimeters) == 1:
        return feasible(perimeters[0], fleet, ell)[0]
    grids, steps = _at_ell(perimeters, fleet, ell)
    return bool(_fold_layers(grids, steps, fleet.counts)[0])


# -- reconstruction -------------------------------------------------------------


def reconstruct_lr(
    table: CoverageTable, allocation: AllocationVector, perimeter_index: int = 0
) -> list[Arc]:
    """Turn a feasible table cell into concrete arcs.

    Walks the table's backpointers from `allocation`, places each robot at
    the reach recorded for its predecessor cell, trims arc tails off gaps,
    and drops robots that add nothing (their arc would have zero length).
    Raises ReconstructionMismatch if a backpointer names no placed robot or
    the rebuilt arcs fail the coverage or capacity re-check.
    """
    if not table.feasible_at(allocation):
        raise ReconstructionMismatch(
            f"allocation {allocation} does not reach the working range at ell={table.ell}"
        )
    x = list(allocation)
    chain: list[tuple[int, int]] = []
    while any(x):
        tau = table.backpointer(tuple(x))
        if tau is None or x[tau] <= 0:
            raise ReconstructionMismatch(f"backpointer at {tuple(x)} names no placed robot")
        x[tau] -= 1
        chain.append((tau, table._values[table._index(tuple(x))]))
    chain.reverse()
    starts, ends, steps = table._starts, table._ends, table._steps
    required = ends[-1]
    rel_arcs: list[tuple[int, int, int]] = []
    for tau, start in chain:
        e = trim_tail(starts, ends, min(start + steps[tau], required))
        if e > start:
            rel_arcs.append((start, e, tau))
    if not covers_all_segments(starts, ends, [(s, e) for s, e, _ in rel_arcs]):
        raise ReconstructionMismatch("rebuilt arcs do not cover every segment")
    for s, e, tau in rel_arcs:
        if e - s > steps[tau]:
            raise ReconstructionMismatch("rebuilt arc exceeds its robot's reach")
    for (_, e1, _), (s2, _, _) in zip(rel_arcs, rel_arcs[1:]):
        if s2 < e1:
            raise ReconstructionMismatch("rebuilt arcs overlap")
    return [
        anchored_arc(table.per, table.anchor, table._unit, s, e, perimeter_index, tau)
        for s, e, tau in rel_arcs
    ]


# -- the solver ----------------------------------------------------------------


@dataclass
class LrSolution:
    """Optimal ratio plus one witness deployment achieving it."""

    objective: Fraction
    arcs: list[Arc]
    allocations: list[AllocationVector]  # robots sent to each perimeter, by type
    anchors: list[int]                   # witness anchor per perimeter
    unused: AllocationVector             # robots left idle
    feasibility_calls: int = 0


def solve_lr(perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR) -> LrSolution:
    """Minimize the coverage ratio over all ways to deploy the fleet.

    Accepts one perimeter or a sequence of them; with several, robots are
    also optimally partitioned between perimeters.  The optimum is exact:
    bisection narrows the ratio to a window shorter than 1/A^2 (A = total
    capability), and the unique rational with denominator <= A inside the
    window is the answer.
    """
    if isinstance(perimeters, Perimeter):
        perimeters = [perimeters]
    perimeters = list(perimeters)
    if not perimeters:
        raise ValidationError("need at least one perimeter")
    if fleet.total_count < len(perimeters):
        raise ValidationError(
            f"{fleet.total_count} robots cannot guard {len(perimeters)} perimeters"
        )
    unit, scaled = integer_anchors(perimeters)
    counts = fleet.counts
    a_min = min(fleet.capabilities)
    a_total = fleet.total_capability

    # Ratios here are scaled (ell * unit).  Every segment must be physically
    # covered, so ell is at least (total guarded length)/A; one robot from
    # the best anchor always suffices at the upper bound.
    lo = max(Fraction(sum(e - s for s, e in zip(*anchors[0])), a_total) for anchors in scaled)
    hi = max(Fraction(min(ends[-1] for _, ends in anchors), a_min) for anchors in scaled)
    calls = 0
    hint = 0  # a single perimeter's last witness anchor is tried first

    def check(ratio: Fraction) -> bool:
        nonlocal calls, hint
        calls += 1
        grids, steps = _at(scaled, fleet.capabilities, ratio)
        if len(grids) > 1:
            return bool(_fold_layers(grids, steps, counts)[0])
        order = [hint] + [a for a in range(len(grids[0])) if a != hint]
        anchor = _first_anchor(grids[0], steps, counts, order)
        if anchor is None:
            return False
        hint = anchor
        return True

    if check(lo):
        best = lo
    else:
        eps = Fraction(1, a_total * a_total)
        if hi - lo < eps:
            raise AssertionError("bisection window collapsed below the answer spacing")
        while hi - lo >= eps:
            mid = (lo + hi) / 2
            if check(mid):
                hi = mid
            else:
                lo = mid
        best = simplest_between(lo, hi)
        if best.denominator > a_total or best <= 0:
            raise AssertionError("snapped ratio fell outside the certified window")
        if not check(best):
            raise AssertionError("snapped ratio is not feasible")

    ell_star = best / unit
    grids, steps = _at(scaled, fleet.capabilities, best)
    final, parents = _fold_layers(grids, steps, counts)
    if not final:
        raise AssertionError("optimal ratio lost feasibility during reconstruction")
    totals = final[0]
    allocations: list[AllocationVector] = []
    anchors: list[int] = []
    cur = totals
    for level in reversed(parents):
        prev_total, v, anchor = level[cur]
        allocations.append(v)
        anchors.append(anchor)
        cur = prev_total
    allocations.reverse()
    anchors.reverse()

    arcs: list[Arc] = []
    for k, (per, v, anchor) in enumerate(zip(perimeters, allocations, anchors)):
        table = coverage_table(per, anchor, fleet, ell_star)
        arcs.extend(reconstruct_lr(table, v, perimeter_index=k))
    used = [0] * fleet.t
    for v in allocations:
        for tau, cnt in enumerate(v):
            used[tau] += cnt
    unused = tuple(n - u for n, u in zip(fleet.counts, used))
    return LrSolution(
        objective=ell_star,
        arcs=arcs,
        allocations=allocations,
        anchors=anchors,
        unused=unused,
        feasibility_calls=calls,
    )


def capability_sums(fleet: FleetLR) -> int:
    """Bitmask of sums a_1*x_1+...+a_t*x_t over sub-multisets (bit k = sum k)."""
    bits = 1
    for a, n in zip(fleet.capabilities, fleet.counts):
        for _ in range(n):
            bits |= bits << a
    return bits


def ratio_certificate(
    perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR, objective: Fraction
) -> tuple[int, int, int, int] | None:
    """Exhibit the span/capability-sum factorization of an optimal ratio.

    Searches for (perimeter k, segments i..j, D) with span(i, j) == D *
    objective and D a capability sum of some sub-multiset of the fleet.
    Returns None when no factorization exists (which disproves optimality).
    """
    if isinstance(perimeters, Perimeter):
        perimeters = [perimeters]
    sums = capability_sums(fleet)
    a_total = fleet.total_capability
    for k, per in enumerate(perimeters):
        for i in range(per.q):
            for j in range(per.q):
                d = per.span_length(i, j) / objective
                if d.denominator == 1 and 1 <= d <= a_total and (sums >> int(d)) & 1:
                    return k, i, j, int(d)
    return None
