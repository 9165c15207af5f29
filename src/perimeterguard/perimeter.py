"""Circular perimeters of alternating guarded segments and open gaps.

A perimeter is described purely by exact arc lengths, never coordinates.
Segment i runs counterclockwise from its start point (the anchor of index
i); the gap with the same index follows it.  A circle that is guarded all
the way around is modeled as one segment and zero gaps.

Positions come in two flavors:

* global positions in [0, circumference), measured from the start of
  segment 0;
* anchored offsets, measured along the circle from a chosen segment start.

Perimeter checks each length once and keeps its piece boundaries as ints
over unit, the lcm of its denominators.  Its geometry returns exact
Fractions, never floats; the validator and the oracles use it.

The solvers instead work on an integer line, and this module owns both of
its edges.  integer_anchors scales in: every perimeter's bounds times
the lcm of their units over its own, laid out over two laps, so anchor
a's view is a plain slice and the dynamic programs run on ints.
place_arcs scales out: it lays robots on an anchor's lap, re-checks
the deployment and wraps each arc's start back into the first lap.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from math import isqrt, lcm

from .errors import (
    CountMismatch,
    DegeneratePolygon,
    EmptySegments,
    IndexOutOfRange,
    NoGuardedEdge,
    NonPositiveLength,
    ReconstructionMismatch,
    ValidationError,
)
from .rationals import RationalLike, check_class, check_ints, check_seq, to_fraction

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

    Lengths are ints, Fractions or 'num/den' strings (rationals.to_fraction),
    checked here once.  Instances are plain value objects: construct once,
    never mutate.
    """

    __slots__ = ("segments", "gaps", "q", "_unit", "_bounds")

    def __init__(self, segments: Sequence[RationalLike], gaps: Sequence[RationalLike]):
        self.segments = tuple(to_fraction(s, f"segments[{k}]")
                              for k, s in enumerate(check_seq(segments, "segments")))
        self.gaps = tuple(to_fraction(g, f"gaps[{k}]") for k, g in enumerate(check_seq(gaps, "gaps")))
        q = self.q = len(self.segments)
        if q == 0:
            raise EmptySegments("at least one guarded segment is required")
        if len(self.gaps) != q and not (len(self.gaps) == 0 and q == 1):
            raise CountMismatch(
                f"{q} segments need {q} gaps "
                f"(or none for a single fully guarded circle), got {len(self.gaps)}"
            )
        for name, lengths in (("segment", self.segments), ("gap", self.gaps)):
            for k, v in enumerate(lengths):
                if v.numerator <= 0:
                    raise NonPositiveLength(f"{name} {k} has non-positive length {v}")
        # Piece boundaries in global positions, times unit: S0 G0 S1 G1 ... (gapless: just S0).
        pieces = [x for pair in zip(self.segments, self.gaps) for x in pair] or self.segments
        unit = self._unit = lcm(*(x.denominator for x in pieces))
        self._bounds = [0, *accumulate(x.numerator * (unit // x.denominator) for x in pieces)]

    # -- basic geometry -------------------------------------------------

    def _check_index(self, i: int) -> None:
        check_ints((i,), "segment index", 0, IndexOutOfRange, self.q - 1)

    @property
    def circumference(self) -> Fraction:
        return Fraction(self._bounds[-1], self._unit)

    def seg_start(self, i: int) -> Fraction:
        """Global position of the start (anchor) of segment i."""
        self._check_index(i)
        return Fraction(self._bounds[2 * i], self._unit)

    def seg_end(self, i: int) -> Fraction:
        self._check_index(i)
        return Fraction(self._bounds[2 * i + 1], self._unit)

    def span_length(self, i: int, j: int) -> Fraction:
        """Arc length from the start of segment i to the end of segment j.

        Walks counterclockwise, wrapping past position 0 when j < i, and
        includes every gap strictly inside the walk.  span_length(i, i) is
        just segment i.
        """
        check_ints((i, j), "segment index", 0, IndexOutOfRange, self.q - 1)
        bounds = self._bounds
        span = bounds[2 * j + 1] - bounds[2 * i] + (bounds[-1] if j < i else 0)
        return Fraction(span, self._unit)

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


def perimeter_list(perimeters: Sequence[Perimeter] | Perimeter) -> list[Perimeter]:
    """One perimeter or a sequence of them, as a non-empty list."""
    if isinstance(perimeters, Perimeter):
        return [perimeters]
    perimeters = [check_class(per, Perimeter, f"perimeters[{k}]")
                  for k, per in enumerate(check_seq(perimeters, "perimeters"))]
    if not perimeters:
        raise ValidationError("need at least one perimeter")
    return perimeters


def integer_anchors(perimeters: Sequence[Perimeter]):
    """(unit, per perimeter: its integer line (starts, ends)).

    unit is the lcm of the perimeters' own units, so each one's integer
    bounds scale to it exactly.  A line holds those ints in global
    positions from the start of segment 0, over two laps: 2q entries each,
    the circumference at starts[q].  Anchor a's view is the slice a:a+q,
    which less starts[a] is perimeters[k].unrolled(a) scaled by unit.
    """
    unit = lcm(*(per._unit for per in perimeters))
    lines = []
    for per in perimeters:
        scale = unit // per._unit
        bounds = [b * scale for b in per._bounds]   # S0 G0 S1 G1 ... (gapless: just S0)
        starts, ends, circ = bounds[:-1:2], bounds[1::2], bounds[-1]
        lines.append((starts + [s + circ for s in starts], ends + [e + circ for e in ends]))
    return unit, lines


def place_arcs(unit: int, circ: int, starts: Sequence[int], ends: Sequence[int],
               robots: Iterable[tuple[int, int, int]], perimeter_index: int) -> list[Arc]:
    """Lay robots out on an anchor's lap of an integer line and emit their Arcs.

    starts/ends are the lap's q segment bounds from integer_anchors' line,
    circ its circumference; robots holds (type, start, reach) in placement
    order, on the same grid.  Each arc ends at min(start + reach, ends[-1]);
    a tail ending in a gap pulls back to the gap's start, an arc left empty
    is dropped, and an arc starts at start % circ.  Raises
    ReconstructionMismatch if the arcs overlap, exceed a reach or leave a
    segment uncovered.
    """
    required = ends[-1]
    scale = Fraction if unit == 1 else lambda x: Fraction(x, unit)   # Fraction(int) skips the gcd
    sizes: dict[int, Fraction] = {}   # one Fraction per distinct arc length
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
        if e - s not in sizes:
            sizes[e - s] = scale(e - s)
        arcs.append(Arc(perimeter_index, tau, scale(s % circ), sizes[e - s]))
    for a, b in zip(starts, ends):
        r = bisect_right(run_starts, a) - 1
        if r < 0 or b > run_ends[r]:
            raise ReconstructionMismatch("rebuilt arcs do not cover every segment")
    return arcs


build_perimeter = Perimeter


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
    vertices, guarded = check_seq(vertices, "vertices"), check_seq(guarded, "guarded")
    if len(vertices) < 3:
        raise DegeneratePolygon(f"need at least 3 vertices, got {len(vertices)}")
    if len(guarded) != len(vertices):
        raise CountMismatch(
            f"{len(vertices)} edges need {len(vertices)} guarded flags, got {len(guarded)}"
        )
    vs = []
    for k, (v, g) in enumerate(zip(vertices, guarded)):
        x, y = check_seq(v, f"vertices[{k}]", DegeneratePolygon, 2)
        vs.append((to_fraction(x, f"vertices[{k}][0]"), to_fraction(y, f"vertices[{k}][1]")))
        check_class(g, bool, f"guarded[{k}]")
    return PolygonSpec(tuple(vs), guarded)


def _exact_or_quantized_sqrt(squared: Fraction) -> tuple[Fraction, bool]:
    """sqrt of an exact rational: exact when it is a perfect square, else the
    nearest multiple of 1/QUANTIZATION_DENOMINATOR (ties round down)."""
    num, den = squared.numerator, squared.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd), True
    # k = floor(x) for x = 10^6 * sqrt(num/den); round up iff x > k + 1/2, i.e. 4x^2 > (2k + 1)^2.
    target = num * QUANTIZATION_DENOMINATOR**2
    k = isqrt(target // den)
    if 4 * target > (2 * k + 1) ** 2 * den:
        k += 1
    return Fraction(k, QUANTIZATION_DENOMINATOR), False


def edge_lengths(spec: PolygonSpec) -> tuple[list[Fraction], list[str]]:
    """Lengths of every edge, with human-readable notes for quantized ones."""
    n = len(check_class(spec, PolygonSpec, "spec").vertices)
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
    # Start where a guarded run follows an unguarded one (edge 0 if none does).
    start = next((k for k in range(n) if spec.guarded[k] and not spec.guarded[k - 1]), 0)
    segments: list[Fraction] = []
    gaps: list[Fraction] = []
    for guarded, run in groupby(range(start, start + n), key=lambda k: spec.guarded[k % n]):
        (segments if guarded else gaps).append(sum(lengths[k % n] for k in run))
    return Perimeter(segments, gaps), notes
