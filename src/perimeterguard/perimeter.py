"""Circular perimeters of alternating guarded segments and open gaps.

A perimeter is described purely by exact arc lengths, never coordinates.
Segment i runs counterclockwise from its start point (the anchor of index
i); the gap with the same index follows it.  A circle that is guarded all
the way around is modeled as one segment and zero gaps.

Positions come in two flavors:

* global positions in [0, circumference), measured from the start of
  segment 0;
* anchored offsets, measured along the circle from a chosen segment start.

Perimeter's own geometry is exact fractions.Fraction arithmetic, never
floats; the validator and the oracles use it.

The solvers instead work on an integer line, and this module owns both of
its edges.  integer_anchors scales in: every length times the lcm of the
denominators, laid out in global positions over two laps, so anchor a's
view is a plain slice and the dynamic programs run on ints.  place_arcs
scales out: it lays robots on a slice of the line, re-checks the
deployment and wraps each arc's start back into the first lap.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .errors import (
    CountMismatch,
    DegeneratePolygon,
    EmptySegments,
    IndexOutOfRange,
    NoGuardedEdge,
    NonPositiveLength,
    ReconstructionMismatch,
)
from .rationals import RationalLike, to_fraction

QUANTIZATION_DENOMINATOR = 10**6


@dataclass(frozen=True)
class Arc:
    """One robot's covered arc: `length` counterclockwise from global `start`."""

    perimeter: int
    robot_type: int
    start: Fraction
    length: Fraction

    @property
    def end(self) -> Fraction:
        return self.start + self.length


class Perimeter:
    """Immutable alternating cycle of guarded segments and gaps.

    Instances are plain value objects: construct once, never mutate.  Use
    build_perimeter / from_polygon rather than calling this directly with
    unchecked data.
    """

    __slots__ = ("segments", "gaps", "q", "circumference", "_bounds")

    def __init__(self, segments: Sequence[Fraction], gaps: Sequence[Fraction]):
        if len(segments) == 0:
            raise EmptySegments("at least one guarded segment is required")
        if len(gaps) != len(segments) and not (len(gaps) == 0 and len(segments) == 1):
            raise CountMismatch(
                f"{len(segments)} segments need {len(segments)} gaps "
                f"(or none for a single fully guarded circle), got {len(gaps)}"
            )
        for name, lengths in (("segment", segments), ("gap", gaps)):
            for k, v in enumerate(lengths):
                if v <= 0:
                    raise NonPositiveLength(f"{name} {k} has non-positive length {v}")
        self.segments: tuple[Fraction, ...] = tuple(Fraction(s) for s in segments)
        self.gaps: tuple[Fraction, ...] = tuple(Fraction(g) for g in gaps)
        self.q = len(self.segments)
        # Piece boundaries in global coordinates: S0 G0 S1 G1 ... (gapless: just S0).
        bounds = [Fraction(0)]
        for i in range(self.q):
            bounds.append(bounds[-1] + self.segments[i])
            if self.gaps:
                bounds.append(bounds[-1] + self.gaps[i])
        self._bounds = bounds
        self.circumference: Fraction = bounds[-1]

    # -- basic geometry -------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.q:
            raise IndexOutOfRange(f"segment index {i} outside 0..{self.q - 1}")

    def seg_start(self, i: int) -> Fraction:
        """Global position of the start (anchor) of segment i."""
        self._check_index(i)
        return self._bounds[2 * i]

    def seg_end(self, i: int) -> Fraction:
        self._check_index(i)
        return self._bounds[2 * i + 1]

    def span_length(self, i: int, j: int) -> Fraction:
        """Arc length from the start of segment i to the end of segment j.

        Walks counterclockwise, wrapping past position 0 when j < i, and
        includes every gap strictly inside the walk.  span_length(i, i) is
        just segment i.
        """
        self._check_index(i)
        self._check_index(j)
        if j >= i:
            return self.seg_end(j) - self.seg_start(i)
        return self.circumference - self.seg_start(i) + self.seg_end(j)

    def required_span(self, anchor: int) -> Fraction:
        """Length of the full working range from an anchor: everything up to
        the end of the preceding segment.  Equals circumference minus the
        gap just before the anchor (the whole circle when gapless)."""
        return self.span_length(anchor, (anchor - 1) % self.q)

    # -- anchored coordinates -------------------------------------------

    def unrolled(self, anchor: int) -> tuple[list[Fraction], list[Fraction]]:
        """Relative segment intervals seen from an anchor.

        Returns (starts, ends): starts[k]/ends[k] bound the k-th segment
        counterclockwise from the anchor, with starts[0] == 0.  ends[-1]
        is required_span(anchor).
        """
        self._check_index(anchor)
        starts: list[Fraction] = []
        ends: list[Fraction] = []
        pos = Fraction(0)
        for k in range(self.q):
            i = (anchor + k) % self.q
            starts.append(pos)
            pos += self.segments[i]
            ends.append(pos)
            if self.gaps:
                pos += self.gaps[i]
        return starts, ends

    def normalize_position(self, anchor: int, p: Fraction) -> Fraction:
        """Snap an anchored offset out of gap interiors.

        A point strictly inside a gap, or exactly at a gap's start, moves
        forward to the gap's end; anything at or past the working range
        required_span(anchor) clamps to exactly that range.
        """
        self._check_index(anchor)
        if p < 0:
            raise IndexOutOfRange(f"anchored offset {p} is negative")
        required = self.required_span(anchor)
        if p >= required:
            return required
        if not self.gaps:
            return p
        starts, ends = self.unrolled(anchor)
        k = bisect_right(starts, p) - 1
        # Segment k holds [starts[k], ends[k]); from ends[k] (the gap's start)
        # through the gap interior, the point belongs to the next segment start.
        if p >= ends[k]:
            return starts[k + 1]
        return p

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Perimeter)
            and self.segments == other.segments
            and self.gaps == other.gaps
        )

    def __hash__(self) -> int:
        return hash((self.segments, self.gaps))

    def __repr__(self) -> str:
        return f"Perimeter(segments={list(self.segments)}, gaps={list(self.gaps)})"


def integer_anchors(perimeters: Sequence[Perimeter]):
    """(unit, per perimeter: its integer line (starts, ends)).

    unit is the lcm of every length's denominator; a bound is a sum of
    lengths, so bound * unit is an int.  A line holds those ints in global
    positions from the start of segment 0, over two laps: 2q entries each,
    the circumference at starts[q].  Anchor a's view is the slice a:a+q,
    which less starts[a] is perimeters[k].unrolled(a) scaled by unit.
    """
    unit = lcm(*(x.denominator for per in perimeters for x in (*per.segments, *per.gaps)))
    lines = []
    for per in perimeters:
        # S0 G0 S1 G1 ... (gapless: just S0)
        bounds = [b.numerator * (unit // b.denominator) for b in per._bounds]
        starts, ends, circ = bounds[:-1:2], bounds[1::2], bounds[-1]
        lines.append((starts + [s + circ for s in starts], ends + [e + circ for e in ends]))
    return unit, lines


def place_arcs(unit: int, circ: int, starts: Sequence[int], ends: Sequence[int],
               robots: Iterable[tuple[int, int, int]], perimeter_index: int) -> list[Arc]:
    """Lay robots out on a slice of an integer line and emit their Arcs.

    starts/ends are consecutive segment bounds from integer_anchors' line
    (an anchor's lap or a block of it), circ its circumference; robots
    holds (type, start, reach) in placement order, on the same grid.  Each
    arc ends at min(start + reach, ends[-1]); a tail ending in a gap pulls
    back to the gap's start, an arc left empty is dropped, and an arc
    starts at start % circ.  Raises ReconstructionMismatch if the arcs
    overlap, exceed a reach or leave a segment uncovered.
    """
    required = ends[-1]
    arcs: list[Arc] = []
    run_starts: list[int] = []   # maximal runs of touching arcs
    run_ends: list[int] = []
    for tau, s, reach in robots:
        e = min(s + reach, required)
        j = bisect_left(starts, e) - 1
        if e > ends[j]:
            e = ends[j]
        if e <= s:
            continue
        if e - s > reach:
            raise ReconstructionMismatch("rebuilt arc exceeds its robot's reach")
        if run_ends and s < run_ends[-1]:
            raise ReconstructionMismatch("rebuilt arcs overlap")
        if run_ends and s == run_ends[-1]:
            run_ends[-1] = e
        else:
            run_starts.append(s)
            run_ends.append(e)
        arcs.append(Arc(perimeter_index, tau, Fraction(s % circ, unit), Fraction(e - s, unit)))
    for a, b in zip(starts, ends):
        r = bisect_right(run_starts, a) - 1
        if r < 0 or b > run_ends[r]:
            raise ReconstructionMismatch("rebuilt arcs do not cover every segment")
    return arcs


def build_perimeter(
    segments: Sequence[RationalLike], gaps: Sequence[RationalLike]
) -> Perimeter:
    """Validate raw lengths (ints, Fractions, or 'num/den' strings) and build."""
    return Perimeter(
        [to_fraction(s, f"segments[{k}]") for k, s in enumerate(segments)],
        [to_fraction(g, f"gaps[{k}]") for k, g in enumerate(gaps)],
    )


# -- polygon ingestion ----------------------------------------------------


@dataclass(frozen=True)
class PolygonSpec:
    """Simple polygon outline: vertices in order plus a guarded flag per edge.

    Edge k joins vertex k to vertex (k+1) mod n.  Coordinates are exact
    rationals; edge lengths that are irrational get quantized.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]
    guarded: tuple[bool, ...]


def build_polygon_spec(
    vertices: Sequence[Sequence[RationalLike]], guarded: Sequence[bool]
) -> PolygonSpec:
    if len(vertices) < 3:
        raise DegeneratePolygon(f"need at least 3 vertices, got {len(vertices)}")
    if len(guarded) != len(vertices):
        raise CountMismatch(
            f"{len(vertices)} edges need {len(vertices)} guarded flags, got {len(guarded)}"
        )
    vs = []
    for k, v in enumerate(vertices):
        if len(v) != 2:
            raise DegeneratePolygon(f"vertex {k} is not an (x, y) pair")
        vs.append(
            (to_fraction(v[0], f"vertices[{k}].x"), to_fraction(v[1], f"vertices[{k}].y"))
        )
    return PolygonSpec(tuple(vs), tuple(bool(g) for g in guarded))


def _exact_or_quantized_sqrt(squared: Fraction) -> tuple[Fraction, bool]:
    """sqrt of an exact rational: exact when it is a perfect square, else the
    nearest multiple of 1/QUANTIZATION_DENOMINATOR (ties round down)."""
    num, den = squared.numerator, squared.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd), True
    scale = QUANTIZATION_DENOMINATOR
    # k ~= scale * sqrt(num/den); compare k^2 * den against num * scale^2 exactly.
    target = num * scale * scale
    k = isqrt(target // den)
    while (k + 1) * (k + 1) * den <= target:
        k += 1
    if abs((k + 1) * (k + 1) * den - target) < abs(k * k * den - target):
        k += 1
    return Fraction(k, scale), False


def edge_lengths(spec: PolygonSpec) -> tuple[list[Fraction], list[str]]:
    """Lengths of every edge, with human-readable notes for quantized ones."""
    n = len(spec.vertices)
    lengths: list[Fraction] = []
    notes: list[str] = []
    for k in range(n):
        (x0, y0), (x1, y1) = spec.vertices[k], spec.vertices[(k + 1) % n]
        sq = (x1 - x0) ** 2 + (y1 - y0) ** 2
        if sq == 0:
            raise DegeneratePolygon(f"edge {k} has zero length")
        length, exact = _exact_or_quantized_sqrt(sq)
        if not exact:
            notes.append(
                f"edge {k}: irrational length sqrt({sq}) quantized to {length} "
                f"(denominator {QUANTIZATION_DENOMINATOR})"
            )
        lengths.append(length)
    return lengths, notes


def from_polygon(spec: PolygonSpec) -> tuple[Perimeter, list[str]]:
    """Collapse a flagged polygon outline into a Perimeter.

    Consecutive edges with the same flag merge into one segment or gap;
    the perimeter starts at the first guarded run after the last unguarded
    one, so segment 0 always begins at a guard transition.  Returns the
    perimeter plus quantization notes (empty when all lengths are exact).
    """
    lengths, notes = edge_lengths(spec)
    n = len(lengths)
    if not any(spec.guarded):
        raise NoGuardedEdge("polygon has no guarded edge")
    if all(spec.guarded):
        return Perimeter([sum(lengths, Fraction(0))], []), notes
    # Rotate so edge 0 is guarded and edge n-1 is not: a clean run boundary.
    start = next(
        k for k in range(n) if spec.guarded[k] and not spec.guarded[(k - 1) % n]
    )
    flags = [spec.guarded[(start + k) % n] for k in range(n)]
    lens = [lengths[(start + k) % n] for k in range(n)]
    segments: list[Fraction] = []
    gaps: list[Fraction] = []
    k = 0
    while k < n:
        run = lens[k]
        j = k + 1
        while j < n and flags[j] == flags[k]:
            run += lens[j]
            j += 1
        (segments if flags[k] else gaps).append(run)
        k = j
    return Perimeter(segments, gaps), notes
