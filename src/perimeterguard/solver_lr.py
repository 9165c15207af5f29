"""Exact min-max coverage-ratio deployment for a fixed heterogeneous fleet.

Given perimeters and a fleet of robot types (capability a, count n), find
the smallest ratio ell such that every guarded segment is covered when a
robot of type tau may cover an arc of length at most a_tau * ell.  Arcs
may not overlap except at endpoints, and every robot is pinned to one
perimeter.

The feasibility core is a dynamic program over allocation vectors: for a
fixed anchor (a segment start), the table holds the furthest normalized
reach achievable with x_tau robots of each type, where reach positions
skip over gaps for free.  The optimum is span/D, a run of segments (an
end minus a start on the line) over a capability sum D <= A, the fleet's
total; _search probes only these, no two of them closer than 1/A^2.

On one perimeter the optimum is the least of the anchors' own optima:
solve_lr searches the anchor after the widest gap, then each further
anchor fills one early-exit table at best - 1/A^2, which answers exactly
"does it beat the best so far?", and only an anchor that does searches
its own lap's candidates.  The last search ends on a "yes" table at the
optimum, and its early-exit hit, that anchor's lex-first covering cell,
is the witness vector.

Each "yes" at p also gives the search p' <= p, the ratio its hit h needs
(Dinkelbach's step, Management Science 13(7), 1967).  Cut h's backpointer
chain into blocks where a robot skips a gap: block b lays arc from a
segment start S_b past the segment end E_b its last robot lands after, or
the lap's end, so p' = max over blocks of (E_b - S_b)/cap_b is a candidate
of the lap.  Reach steps v -> skip(v + a * r) grow with v and r, so the
chain, and hence the DP, still covers at h at p'; no cell before h covers
at p, so none does at p'.  So h stays the lex-first covering cell, the
search cuts at p', and its last "yes" is at the optimum with the same hit.

Anchors go by the gap before them, widest first, each with its need:
the guarded length G plus the gaps before the anchors ahead (_by_gap).
A cover by robots of capability sum C at ratio r lays at most C * r of
arc, over G and every gap it spans whole.  So once a need exceeds C * r,
it leaves part of a visited gap open, and cut there it covers from the
anchor after that gap, already visited: a walk stops at the first need
above its arc.  That arc is A * (best - 1/A^2) above, as no candidate
lies in between, A * ell for a decision at ell, and for a Pareto layer
(below) C * r of the open cell of most C, the open cells being
downward-closed.

On several perimeters each search step folds the perimeters' Pareto
layers (the vectors covering a perimeter from some anchor) into totals.
Reach grows with robots, so these sets are upward-closed: each anchor
fills only the cells earlier anchors leave open, and a set is one int
over the allocation grid, where adding a vector to every cell is a shift
and a mask (_Grid).  Feasible sets grow with the ratio, so a layer equal
at the last "no" and "yes" ratios is pinned in between and reused.  The
search ends on a "yes" at the optimum, whose fold gives the witness.
Either way, the witness vector v is read from the first anchor in gap
order covering at v, and each robot of v gets an arc: one gets none only
when the cell before it on the backpointer walk already covers.  On one
perimeter, an anchor ahead of the last improver either improved to a
ratio above the optimum or failed at b - 1/A^2 while the best was b, the
last improver then reaching at most b - 1/A^2: it does not cover at the
optimum even with the whole fleet.  So the walk stops on the last
improver, whose lex-first covering cell v has no covering cell below it.
On several, _Grid.split returns a minimal cell of each layer, so no cell
below v covers from any anchor.

The DP runs on integers only.  perimeter.integer_anchors scales lengths
in once per solve, by the lcm of their denominators, as one line of
global positions per perimeter over two laps; at a candidate ratio p/d
in those units the line is multiplied by d and a robot of capability a
steps exactly a * p.  An anchor's table runs on its lap, the slice of
the line from the anchor: a shift keeps every comparison and tie-break.
The search, the public decision functions, the tables, the Pareto fold
and the reconstruction share the same DP, and perimeter.place_arcs
scales the witness deployment back out as Arcs.  Otherwise Fraction
appears only where a ratio comes in and where table reaches and the
objective go out.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product
from operator import mul
from typing import Iterable, Sequence

from .errors import IndexOutOfRange, InstanceTooLarge, ReconstructionMismatch, ValidationError
from .perimeter import Arc, Perimeter, integer_anchors, perimeter_list, place_arcs
from .rationals import RationalLike, check_class, check_ints, check_seq, to_fraction, to_threshold

# The most cells an allocation grid may hold: every table and fold is one
# grid, so this refuses an instance before any of them is allocated.
MAX_GRID_CELLS = 1 << 24

# -- fleet ------------------------------------------------------------------


@dataclass(frozen=True)
class FleetLR:
    """Robot models by column: type k covers at most `capabilities[k] * ell`
    at ratio ell, and `counts[k]` robots of it are available."""

    capabilities: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "capabilities", check_seq(self.capabilities, "capabilities"))
        object.__setattr__(self, "counts", check_seq(self.counts, "counts", size=self.t))
        if not self.capabilities:
            raise ValidationError("fleet needs at least one robot type")
        check_ints(self.capabilities, "type {k}: capability", 1, ValidationError)
        check_ints(self.counts, "type {k}: count", 1, ValidationError)

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
    pairs = [check_seq(p, "pairs[{k}]", ValidationError, 2, k)
             for k, p in enumerate(check_seq(pairs, "pairs"))]
    return FleetLR(tuple(a for a, _ in pairs), tuple(n for _, n in pairs))


AllocationVector = tuple[int, ...]


# -- integer geometry -------------------------------------------------------------


def _at(scaled, capabilities: Sequence[int], ratio: Fraction):
    """Integer bounds and steps at a scaled ratio p/d (ratio = ell * unit).

    scaled holds integer_anchors' lines, one (starts, ends) per perimeter.
    In units of 1/(unit * d), bounds are multiplied by d and a robot of
    capability a steps exactly a * p.  Scaling by a positive constant keeps
    every comparison and tie-break, so the DP decides exactly as it would
    over the rationals.
    """
    p, d = ratio.numerator, ratio.denominator
    grids = [([s * d for s in starts], [e * d for e in ends]) for starts, ends in scaled]
    return grids, [a * p for a in capabilities]


def _at_ell(perimeters: Sequence[Perimeter], fleet: FleetLR, ell: RationalLike):
    """_at for an unscaled ratio ell, a rational literal as documents take it."""
    unit, scaled = integer_anchors(perimeters)
    return _at(scaled, check_class(fleet, FleetLR, "fleet").capabilities, to_threshold(ell, "ell") * unit)


# -- the reach DP -----------------------------------------------------------------


def _bits(cells: int):
    """Indices of the set bits of cells, lowest first (lex order on a _Grid)."""
    while cells:
        low = cells & -cells
        yield low.bit_length() - 1
        cells ^= low


class _Grid:
    """The allocation vectors 0 <= x <= counts, and sets of them as ints.

    Cell x has index idx(x) = sum of x_tau * strides[tau], last axis
    fastest, so index order is lex order; a set has bit idx(x) for x.  For
    w >= v, idx(w) - idx(v) = idx(w - v): a left shift by idx(v) adds v to
    every cell, and masking with the cells >= v drops those that wrapped.
    """

    def __init__(self, counts: Sequence[int]):
        self.sizes = [n + 1 for n in counts]
        self.strides = [1] * len(counts)
        for k in range(len(counts) - 1, 0, -1):
            self.strides[k - 1] = self.strides[k] * self.sizes[k]
        self.total = self.strides[0] * self.sizes[0]
        if self.total > MAX_GRID_CELLS:
            raise InstanceTooLarge(f"{self.total} allocation cells exceed the cap {MAX_GRID_CELLS}")
        self._axes: dict[tuple[int, int], int] = {}   # (tau, c): the cells with x_tau >= c

    def vector(self, idx: int) -> AllocationVector:
        return tuple(idx // s % n for s, n in zip(self.strides, self.sizes))

    def above(self, idx: int) -> int:
        """The cells x >= vector(idx), from per-axis masks built on first use."""
        mask = -1
        for tau, c in enumerate(self.vector(idx)):
            if (tau, c) not in self._axes:
                # One period of axis tau from row c on, doubled to span the grid.
                period = self.strides[tau] * self.sizes[tau]
                axis = (1 << period) - (1 << c * self.strides[tau])
                while period < self.total:
                    axis, period = axis | axis << period, 2 * period
                self._axes[tau, c] = axis & ((1 << self.total) - 1)
            mask &= self._axes[tau, c]
        return mask

    def minimal(self, cells: int) -> int:
        """The cells of an upward-closed set with no cell one robot below them."""
        below = 0
        for stride in self.strides:
            below |= (cells << stride) & self.above(stride)
        return cells & ~below

    def by_capacity(self, capabilities: Sequence[int]) -> list[int]:
        """The cell indices by capability sum x . capabilities, largest first."""
        caps = [sum(map(mul, x, capabilities)) for x in product(*map(range, self.sizes))]
        return sorted(range(self.total), key=caps.__getitem__, reverse=True)

    def split(self, total: int, levels) -> list[AllocationVector]:
        """One vector per level of _fold_layers, summing to total's lex-first cell w.

        Walking back, each vector is w - u for the lex-first minimal cell
        u <= w of the prefix with w - u in the layer.  A minimal cell of a
        fold splits only into minimal cells, so this is the lex-first pair.
        """
        w, out = next(_bits(total)), []
        for prefix, layer in reversed(levels):
            u = next(u for u in _bits(self.minimal(prefix))
                     if self.above(u) >> w & 1 and layer >> (w - u) & 1)
            out.insert(0, self.vector(w - u))
            w = u
        return out


def _fill_table(starts, ends, steps, grid: _Grid, done: bytearray | None = None):
    """Reach DP over the vectors of `grid`, in lexicographic cell order.

    starts, ends and steps are integers on one scale (see _at), the bounds
    one anchor's lap.  Cell x holds the furthest normalized reach from
    starts[0] using x_tau robots per type, capped at the working range's
    end ends[-1]; ties between types resolve to the smallest type index.
    Returns (values, backptr, hit), hit the first covering cell index or -1.

    Without `done` the sweep stops at hit.  With `done`, a bytearray over
    the grid, it skips the cells marked there, fills the rest and marks
    each one that covers.  The caller keeps `done` upward-closed, so no
    filled cell reads a skipped one (a cell is marked only after it is
    filled), and every filled cell equals the full table's.
    """
    required = ends[-1]
    values = [starts[0]] * grid.total
    backptr = [-1] * grid.total
    hit = -1
    br = bisect_right
    axes = list(zip(range(len(steps)), grid.strides, steps))
    for idx, x in enumerate(islice(product(*map(range, grid.sizes)), 1, None), 1):
        if done and done[idx]:
            continue
        best = -1
        bt = -1
        for tau, stride, step in axes:
            if x[tau]:
                v = values[idx - stride] + step
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
            if done is None:
                return values, backptr, idx
            done[idx] = 1
            if hit < 0:
                hit = idx
    return values, backptr, hit


def _chain(values, backptr, grid: _Grid, steps, idx: int) -> list[tuple[int, int, int]]:
    """The robots that build cell idx of a filled table, as (type, start, step)
    in placement order: walks the backpointers from idx down to the origin,
    each robot starting at the reach of its predecessor cell.  Raises
    ReconstructionMismatch if a backpointer names no placed robot."""
    x = list(grid.vector(idx))
    chain: list[tuple[int, int, int]] = []
    while idx:
        tau = backptr[idx]
        if tau < 0 or x[tau] <= 0:
            raise ReconstructionMismatch(f"backpointer at {tuple(x)} names no placed robot")
        x[tau] -= 1
        idx -= grid.strides[tau]
        chain.append((tau, values[idx], steps[tau]))
    chain.reverse()
    return chain


def _by_gap(line) -> list[tuple[int, int]]:
    """A line's (need, anchor a) pairs, widest gap starts[a + q] - ends[a + q - 1]
    first, ties to the smaller a - 1 (mod q); need is G plus the gaps before
    the anchors ahead of a, and a walk stops at the first above its arc."""
    starts, ends = line
    q = len(starts) // 2
    gaps = [starts[a + q] - ends[a + q - 1] for a in range(q)]
    # Listed in (a - 1) % q order; reverse=True keeps ties in it.
    order = sorted([*range(1, q), 0], key=gaps.__getitem__, reverse=True)
    guarded = starts[q] - starts[0] - sum(gaps)   # G
    return list(zip(accumulate((gaps[a] for a in order), initial=guarded), order))


_BITS = bytes.maketrans(b"\0\1", b"01")


def _pareto_layer(line, grid: _Grid, steps, order) -> tuple[int, int]:
    """The cells of `grid` that cover one perimeter from some anchor, as an
    upward-closed bitset, and the tables filled.  line is its integer (starts,
    ends) over two laps.  Each anchor, in gap order (_by_gap), fills the cells
    no earlier anchor covers and marks its own, until its need exceeds the arc
    of the open cell first in `order` (_Grid.by_capacity; never past the
    origin, which no table marks)."""
    feas = bytearray(grid.total)
    starts, ends = line
    q = len(starts) // 2
    top = tables = 0
    for need, a in _by_gap(line):
        while feas[order[top]]:
            top += 1
        if need > sum(map(mul, grid.vector(order[top]), steps)):
            break
        _fill_table(starts[a:a + q], ends[a:a + q], steps, grid, feas)
        tables += 1
    return int(feas.translate(_BITS)[::-1], 2), tables


class CoverageTable:
    """Reach table of the vectors up to `bounds` from one anchor at ratio ell.

    line and steps are one perimeter's from _at, on a grid of 1/unit.  The
    DP runs on the anchor's lap; value() subtracts its origin and scales
    back out.  Bounds below the fleet's counts change no cell's value.
    """

    def __init__(self, line, anchor: int, steps, bounds: AllocationVector, unit: int,
                 ell: Fraction):
        starts, ends = line
        q = len(starts) // 2
        self.ell = ell
        self.bounds = tuple(bounds)
        self._unit = unit
        self._steps = steps
        self._circ = starts[q]
        self._starts, self._ends = starts[anchor:anchor + q], ends[anchor:anchor + q]
        self._grid = _Grid(self.bounds)
        self._values, self._backptr, _ = _fill_table(self._starts, self._ends, steps,
                                                     self._grid, bytearray(self._grid.total))

    def _index(self, allocation: AllocationVector) -> int:
        idx = 0
        for x, n, s in zip(check_seq(allocation, "allocation", IndexOutOfRange, len(self.bounds)),
                           self.bounds, self._grid.strides):
            check_ints((x,), "allocation entry", 0, IndexOutOfRange, n)
            idx += x * s
        return idx

    def value(self, allocation: AllocationVector) -> Fraction:
        """Furthest normalized reach using the given robots."""
        return Fraction(self._values[self._index(allocation)] - self._starts[0], self._unit)

    def backpointer(self, allocation: AllocationVector) -> int | None:
        """Type index placed last on the path to this cell (None at origin)."""
        bt = self._backptr[self._index(allocation)]
        return None if bt < 0 else bt

    def feasible_at(self, allocation: AllocationVector) -> bool:
        return self._values[self._index(allocation)] >= self._ends[-1]


def coverage_table(per: Perimeter, anchor: int, fleet: FleetLR,
                   ell: RationalLike) -> CoverageTable:
    """Build the full reach table for one anchor at ratio ell."""
    check_class(per, Perimeter, "per")._check_index(anchor)
    ell = to_threshold(ell, "ell")
    unit, lines = integer_anchors([per])
    ratio = ell * unit
    (line,), steps = _at(lines, check_class(fleet, FleetLR, "fleet").capabilities, ratio)
    return CoverageTable(line, anchor, steps, fleet.counts, unit * ratio.denominator, ell)


def feasible(per: Perimeter, fleet: FleetLR, ell: RationalLike) -> tuple[bool, int | None]:
    """Can the whole fleet cover the perimeter at ratio ell from some anchor?

    Returns (True, a), a the first anchor in gap order (_by_gap) whose
    early-exit table covers, else (False, None).  Needs ascend, and no
    anchor past the first above the whole fleet's arc covers first.
    """
    (line,), steps = _at_ell([check_class(per, Perimeter, "per")], fleet, ell)
    (starts, ends), grid, q = line, _Grid(fleet.counts), per.q
    arc = sum(map(mul, fleet.counts, steps))
    anchor = next((a for need, a in _by_gap(line) if need <= arc
                   and _fill_table(starts[a:a + q], ends[a:a + q], steps, grid)[2] >= 0), None)
    return anchor is not None, anchor


def pareto_feasible_vectors(per: Perimeter, fleet: FleetLR,
                            ell: RationalLike) -> list[AllocationVector]:
    """All minimal allocation vectors that cover the perimeter at ratio ell."""
    (line,), steps = _at_ell([check_class(per, Perimeter, "per")], fleet, ell)
    grid = _Grid(fleet.counts)
    layer, _ = _pareto_layer(line, grid, steps, grid.by_capacity(fleet.capabilities))
    return [grid.vector(i) for i in _bits(grid.minimal(layer))]


def _fold_layers(layers, grid: _Grid) -> tuple[int, list[tuple[int, int]]]:
    """Fold _pareto_layer bitsets, one per perimeter, into covering totals.

    layers is drawn only as the fold reaches it, so an infeasible perimeter
    ends the work.  Returns the totals that split into one covering vector
    per perimeter (0 if none fits the fleet) and, per layer drawn, (the
    totals before it, the layer) for _Grid.split.
    """
    total, levels = grid.above(0), []   # every cell is >= the origin
    for layer in layers:
        levels.append((total, layer))
        # Both sets are upward-closed, so the layer's minimal cells v suffice.
        prefix, total = total, 0
        for idx in _bits(grid.minimal(layer)):
            total |= (prefix << idx) & grid.above(idx)
        if not total:
            break
    return total, levels


def partition_feasible(
    perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR, ell: RationalLike
) -> bool:
    """Can the fleet be split so every perimeter is covered at ratio ell?
    One perimeter is feasible's question."""
    perimeters = perimeter_list(perimeters)
    if len(perimeters) == 1:
        return feasible(perimeters[0], fleet, ell)[0]
    grids, steps = _at_ell(perimeters, fleet, ell)
    grid = _Grid(fleet.counts)
    order = grid.by_capacity(fleet.capabilities)
    layers = (_pareto_layer(line, grid, steps, order)[0] for line in grids)
    return _fold_layers(layers, grid)[0] != 0


# -- reconstruction -------------------------------------------------------------


def reconstruct_lr(
    table: CoverageTable, allocation: AllocationVector, perimeter_index: int = 0
) -> list[Arc]:
    """Turn a feasible table cell into concrete arcs.

    Takes the chain of robots that built the cell (_chain) and hands it to
    perimeter.place_arcs, which trims tails off gaps, drops robots that add
    nothing and re-checks the deployment.  Raises ReconstructionMismatch if
    the cell is not feasible, a backpointer names no placed robot, or the
    re-check fails.
    """
    check_ints((perimeter_index,), "perimeter_index", 0, ValidationError)
    if not check_class(table, CoverageTable, "table").feasible_at(allocation):
        raise ReconstructionMismatch(
            f"allocation {allocation} does not reach the working range at ell={table.ell}"
        )
    chain = _chain(table._values, table._backptr, table._grid, table._steps,
                   table._index(allocation))
    return place_arcs(table._unit, table._circ, table._starts, table._ends, chain, perimeter_index)


# -- the solver ----------------------------------------------------------------


@dataclass
class LrSolution:
    """Optimal ratio plus one witness deployment achieving it."""

    objective: Fraction
    arcs: list[Arc]
    allocations: list[AllocationVector]  # robots sent to each perimeter, by type
    anchors: list[int]                   # witness anchor per perimeter
    unused: AllocationVector             # robots left idle
    feasibility_calls: int = 0           # reach tables the ratio search filled


def _lap_spans(starts, ends, a: int, q: int) -> list[int]:
    """The run lengths ends[j] - starts[i], a <= i <= j < a + q, of anchor a's lap."""
    return [ends[j] - starts[i] for i in range(a, a + q) for j in range(i, a + q)]


def _search(lo: Fraction, hi: Fraction, spans, sums, check) -> tuple[Fraction, object]:
    """Smallest candidate span/D in the closed window [lo, hi] that passes
    check, given that one there does, and the witness from its check.

    spans are run lengths, sums the capability sums D ascending.  check(p)
    returns None for "no", else (r, witness) with r <= p a ratio that passes
    with that witness: the search records it and cuts at r.  Each span's row
    keeps the range [i0, i1) of sums whose ratio is in the window and
    strictly between the last "no" and "yes", and leaves once empty.  Each
    probe is the middle D of a seeded random row.
    """
    def cut(rows, r, yes):
        # A "no" at r lowers each row's i1 to keep s/D > r; a "yes" raises i0 to keep s/D < r.
        n, d = r.numerator, r.denominator
        if yes:
            return [(s, j, i1) for s, i0, i1 in rows
                    if (j := bisect_left(sums, s * d // n + 1, i0, i1)) < i1]
        return [(s, i0, j) for s, i0, i1 in rows
                if (j := bisect_left(sums, (s * d - 1) // n + 1, i0, i1)) > i0]

    (x, y), (n, d) = lo.as_integer_ratio(), hi.as_integer_ratio()   # ceil(s/hi) <= D <= floor(s/lo)
    rows = [(s, i0, i1) for s in sorted(set(spans)) if (i0 := bisect_left(sums, -(-s * d // n)))
            < (i1 := bisect_left(sums, s * y // x + 1))]
    pick = random.Random(0)
    witness = None
    while rows:
        s, i0, i1 = rows[pick.randrange(len(rows))]
        p = Fraction(s, sums[(i0 + i1) // 2])
        found = check(p)
        if found is not None:
            p, witness = found
            hi = p
        rows = cut(rows, p, found is not None)
    return hi, witness


def _eliminate_anchors(line, capabilities, grid: _Grid, lo, hi, sums) -> tuple[Fraction, int, int]:
    """Optimal ratio on one perimeter's line, the reach tables filled, and
    the witness cell's index.

    The optimum is the least of the anchors' own optima, each a candidate
    of its lap.  Anchors go in gap order: the first covers at hi, its lap's
    span over a_min, so it searches the closed window [lo, hi].  Every other
    fills a single early-exit table at best - 1/A^2; no two candidates are
    closer than that, so "yes" means exactly that its optimum is below
    best, and only then does it search [lo, best - 1/A^2], which holds that
    optimum, over the spans of its own lap.  The walk stops at the first
    need above A * (best - 1/A^2), below G once best = lo.  A check at p
    returns None for "no", else (p', hit): hit the table's lex-first covering
    cell, p' <= p the ratio its chain needs.  The witness is the hit of the
    last search's final "yes": the lex-first covering cell, at the optimum,
    of the anchor behind the last improvement.
    """
    starts, ends = line
    q = len(starts) // 2
    eps = Fraction(1, sums[-1] ** 2)
    probes: list[Fraction] = []

    def fits(a: int):
        lap = [(starts[a:a + q], ends[a:a + q])]

        def check(ratio: Fraction) -> tuple[Fraction, int] | None:
            probes.append(ratio)
            ((s, e),), steps = _at(lap, capabilities, ratio)
            values, backptr, hit = _fill_table(s, e, steps, grid)
            if hit < 0:
                return None
            # Along h's chain: a robot that does not start at its predecessor's
            # start plus step follows a gap skip, and the block before it ends
            # at the segment end before its start; the last at the lap's end.
            blocks, begin, cap, reach = [], s[0], 0, s[0]
            for tau, start, step in _chain(values, backptr, grid, steps, hit):
                if start != reach:
                    blocks.append((e[bisect_left(s, start) - 1] - begin, cap))
                    begin, cap = start, 0
                cap += capabilities[tau]
                reach = start + step
            blocks.append((e[-1] - begin, cap))
            span, cap = blocks[0]
            for b_span, b_cap in blocks:
                if b_span * cap > span * b_cap:
                    span, cap = b_span, b_cap
            return Fraction(span, cap * ratio.denominator), hit

        return check

    (_, first), *rest = _by_gap(line)   # its need G is within A * hi
    best, hit = _search(lo, hi, _lap_spans(starts, ends, first, q), sums, fits(first))
    for need, a in rest:
        if need > sums[-1] * (best - eps):
            break
        check = fits(a)
        if check(best - eps) is not None:
            best, hit = _search(lo, best - eps, _lap_spans(starts, ends, a, q), sums, check)
    return best, len(probes), hit


def solve_lr(perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR) -> LrSolution:
    """Minimize the coverage ratio over all ways to deploy the fleet.

    Accepts one perimeter or a sequence of them; with several, robots are
    also optimally partitioned between perimeters.  The optimum is exact:
    it is span/D with D a capability sum, and _search probes only such
    ratios; the module docstring describes both searches.  The witness
    comes from the search's last "yes", at the optimum: on one perimeter,
    the lex-first covering cell of the anchor behind the last improvement;
    on several, the lex-first covering total parted between perimeters by
    the last fold (_Grid.split).  Each vector is read from a table bounded
    by it, from the first anchor in gap order reaching it.  feasibility_calls
    counts the reach tables the search filled.
    """
    perimeters = perimeter_list(perimeters)
    if check_class(fleet, FleetLR, "fleet").total_count < len(perimeters):
        raise ValidationError(
            f"{fleet.total_count} robots cannot guard {len(perimeters)} perimeters"
        )
    unit, scaled = integer_anchors(perimeters)
    capabilities, counts = fleet.capabilities, fleet.counts
    a_min = min(capabilities)
    grid = _Grid(counts)
    sums = capability_sums(fleet)  # every D > 0, ascending; A last

    # Ratios here are scaled (ell * unit).  Every segment must be covered, so
    # ell * C_k >= G_k, perimeter k's guarded length, for its capability sum
    # C_k; the C_k add up to at most A, so ell >= sum G_k / A.  One robot from
    # the anchor after the widest gap, the first in gap order, covers its lap.
    lo = hi = Fraction(0)
    for starts, ends in scaled:
        guarded, first = _by_gap((starts, ends))[0]
        lo += Fraction(guarded, sums[-1])
        hi = max(hi, Fraction(ends[first + len(starts) // 2 - 1] - starts[first], a_min))

    if len(scaled) == 1:
        best, tables, hit = _eliminate_anchors(scaled[0], capabilities, grid, lo, hi, sums)
        allocations = [grid.vector(hit)]
    else:
        filled: list[int] = []   # tables per layer built
        # Per perimeter, the layer at the last "no" and the last "yes" that
        # drew it.  _search probes only between its last "no" (the "no" layer
        # was drawn at or below it) and its last "yes" (where the "yes" layer
        # was drawn), and feasible sets only grow with the ratio, so a layer
        # equal at both ends is pinned in between: reused, not rebuilt.
        below: list = [None] * len(scaled)
        above: list = [None] * len(scaled)
        order = grid.by_capacity(capabilities)

        def check(ratio: Fraction):
            grids, steps = _at(scaled, capabilities, ratio)

            def layer(k: int) -> int:
                if below[k] is not None and below[k] == above[k]:
                    return above[k]
                found, n = _pareto_layer(grids[k], grid, steps, order)
                filled.append(n)
                return found

            total, levels = _fold_layers(map(layer, range(len(grids))), grid)
            (above if total else below)[:len(levels)] = [found for _, found in levels]
            return (ratio, (total, levels)) if total else None

        # Every run of at most q segments: the union of the anchors' laps.
        spans = {e[j] - s[i] for per, (s, e) in zip(perimeters, scaled)
                 for i in range(per.q) for j in range(i, i + per.q)}
        best, (total, levels) = _search(lo, hi, spans, sums, check)
        allocations = grid.split(total, levels)
        tables = sum(filled)

    # Reach grows with robots, so a table bounded by v reaches at all iff it
    # reaches at v; every robot of v gets an arc (module docstring).
    grids, steps = _at(scaled, capabilities, best)
    ell_star = best / unit
    arcs: list[Arc] = []
    anchors: list[int] = []
    for k, (line, v) in enumerate(zip(grids, allocations)):
        anchors.append(next(a for _, a in _by_gap(line) if (table := CoverageTable(
            line, a, steps, v, unit * best.denominator, ell_star)).feasible_at(v)))
        placed = reconstruct_lr(table, v, perimeter_index=k)
        if len(placed) < sum(v):
            raise ReconstructionMismatch(f"a robot of {v} on perimeter {k} gets no arc")
        arcs.extend(placed)
    unused = tuple(n - sum(col) for n, col in zip(counts, zip(*allocations)))
    return LrSolution(
        objective=ell_star,
        arcs=arcs,
        allocations=allocations,
        anchors=anchors,
        unused=unused,
        feasibility_calls=tables,
    )


def capability_sums(fleet: FleetLR) -> list[int]:
    """The sums a_1*x_1+...+a_t*x_t > 0 over sub-multisets, ascending.  Each
    type's pass costs its output's size, at most the allocation cells."""
    _Grid(check_class(fleet, FleetLR, "fleet").counts)   # refuses an oversized fleet
    sums = {0}
    for a, n in zip(fleet.capabilities, fleet.counts):
        sums = {x + a * c for x in sums for c in range(n + 1)}
    return sorted(sums)[1:]


def ratio_certificate(
    perimeters: Sequence[Perimeter] | Perimeter, fleet: FleetLR, objective: RationalLike
) -> tuple[int, int, int, int] | None:
    """Exhibit the span/capability-sum factorization of an optimal ratio.

    Searches for (perimeter k, segments i..j, D) with span(i, j) == D *
    objective and D a capability sum of some sub-multiset of the fleet.
    Returns None when none exists (disproving optimality), as for objective <= 0.
    """
    perimeters = perimeter_list(perimeters)
    objective = to_fraction(objective, "objective")
    sums = set(capability_sums(fleet))
    if objective <= 0:
        return None
    for k, per in enumerate(perimeters):
        for i in range(per.q):
            for j in range(per.q):
                d = per.span_length(i, j) / objective
                if d.denominator == 1 and d in sums:
                    return k, i, j, int(d)
    return None
