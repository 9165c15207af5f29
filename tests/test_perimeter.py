"""Geometry model tests: spans, normalization, polygon ingestion."""
from bisect import bisect_left
from decimal import ROUND_HALF_DOWN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perimeterguard.errors import (
    CountMismatch,
    DegeneratePolygon,
    EmptySegments,
    IndexOutOfRange,
    NoGuardedEdge,
    NonPositiveLength,
    ParseError,
    ReconstructionMismatch,
)
from perimeterguard.perimeter import (
    QUANTIZATION_DENOMINATOR,
    Arc,
    Perimeter,
    _exact_or_quantized_sqrt,
    build_perimeter,
    build_polygon_spec,
    edge_lengths,
    from_polygon,
    integer_anchors,
    place_arcs,
)

F = Fraction


def two_segment_example() -> Perimeter:
    return build_perimeter([2, 3], [1, 2])


def test_build_basic_properties():
    per = two_segment_example()
    assert per.q == 2
    assert per.circumference == 8
    assert per.seg_start(0) == 0
    assert per.seg_end(0) == 2
    assert per.seg_start(1) == 3
    assert per.seg_end(1) == 6


def test_span_lengths():
    per = two_segment_example()
    assert per.span_length(0, 0) == 2
    assert per.span_length(1, 1) == 3
    assert per.span_length(0, 1) == 6
    assert per.span_length(1, 0) == 7


def test_required_span_drops_preceding_gap():
    per = two_segment_example()
    assert per.required_span(0) == 6  # circumference 8 minus gap 1 (len 2)
    assert per.required_span(1) == 7  # minus gap 0 (len 1)


def test_normalize_examples():
    per = two_segment_example()
    # Offset 2 from anchor 0 is the start of gap 0: advances to the gap end.
    assert per.normalize_position(0, F(2)) == 3
    # Segment interiors and starts stay put.
    assert per.normalize_position(0, F(0)) == 0
    assert per.normalize_position(0, F(1)) == 1
    assert per.normalize_position(0, F(3)) == 3
    # Past the working range: clamp.
    assert per.normalize_position(0, F(7)) == 6
    assert per.normalize_position(0, F(6)) == 6
    # Inside gap 0 seen from anchor 0.
    assert per.normalize_position(0, F(5, 2)) == 3
    # Anchor 1 wraps: its range is 7, and gap 1 sits at offsets [3, 5).
    assert per.normalize_position(1, F(3)) == 5
    assert per.normalize_position(1, F(4)) == 5
    assert per.normalize_position(1, F(8)) == 7


def test_gapless_circle():
    per = build_perimeter([4], [])
    assert per.q == 1
    assert per.circumference == 4
    assert per.required_span(0) == 4
    assert per.normalize_position(0, F(7, 2)) == F(7, 2)
    assert per.normalize_position(0, F(9, 2)) == 4
    assert per.span_length(0, 0) == 4


def test_single_segment_with_gap():
    per = build_perimeter([7], [3])
    assert per.circumference == 10
    assert per.required_span(0) == 7
    assert per.normalize_position(0, F(7)) == 7
    assert per.normalize_position(0, F(9)) == 7


def test_rational_lengths_parse():
    assert build_perimeter is Perimeter
    per = Perimeter(["5/2", 3], ["1/2", "0.5"])
    assert per.segments == (F(5, 2), F(3))
    assert per.gaps == (F(1, 2), F(1, 2))
    assert per.circumference == F(13, 2)


def test_build_errors():
    with pytest.raises(EmptySegments):
        build_perimeter([], [])
    with pytest.raises(NonPositiveLength):
        build_perimeter([2, 0], [1, 1])
    with pytest.raises(NonPositiveLength):
        build_perimeter([2], ["-1/2"])
    with pytest.raises(CountMismatch):
        build_perimeter([2, 3], [1])
    with pytest.raises(CountMismatch):
        build_perimeter([2, 3], [])  # gapless form allows exactly one segment
    for build, value in ((build_perimeter, 1.5), (Perimeter, 0.1)):
        with pytest.raises(ParseError, match=r'^segments\[0\]: floats are inexact, write the '
                                             r'value as a string like "5/2"$'):
            build([value], [])
    with pytest.raises(ParseError, match=r"^gaps\[1\]: "):
        Perimeter([1, 2], [3, "x"])
    per = two_segment_example()
    with pytest.raises(IndexOutOfRange):
        per.span_length(0, 2)
    with pytest.raises(IndexOutOfRange):
        per.normalize_position(-1, F(0))
    with pytest.raises(IndexOutOfRange):
        per.normalize_position(0, F(-1))


def test_place_arcs():
    # unit 2; the line runs two laps of a 15/2-long (15-unit) circle, and
    # anchor 1's lap is segments [6, 11] and [15, 19] in global units.
    per = build_perimeter([2, "5/2"], [1, 2])
    unit, ((line_starts, line_ends),) = integer_anchors([per])
    assert unit == 2
    assert (line_starts, line_ends) == ([0, 6, 15, 21], [4, 11, 19, 26])
    circ = line_starts[per.q]
    starts, ends = line_starts[1:3], line_ends[1:3]
    robots = [
        (0, 6, 7),    # ends inside the gap: pulled back to its start, 11
        (1, 11, 4),   # starts at the gap: nothing left, dropped
        (0, 15, 1),   # global 15 units wraps to 0
        (1, 16, 6),   # global 1/2, past 0; shrinks to the working range
    ]
    assert place_arcs(unit, circ, starts, ends, robots, 3) == [
        Arc(3, 0, F(3), F(5, 2)),
        Arc(3, 0, F(0), F(1, 2)),
        Arc(3, 1, F(1, 2), F(3, 2)),
    ]
    with pytest.raises(ReconstructionMismatch, match="overlap"):
        place_arcs(unit, circ, starts, ends, [(0, 6, 7), (1, 10, 10)], 0)
    with pytest.raises(ReconstructionMismatch, match="cover"):
        place_arcs(unit, circ, starts, ends, [(0, 6, 5), (1, 16, 3)], 0)


@pytest.mark.parametrize("segments, gaps, want_unit", [
    ([4, 3, 5], [2, 1, 3], 1),
    (["7/2", 3, "5/3"], [2, "1/2", 1], 6),
])
def test_place_arcs_emits_exact_fractions_over_the_unit(segments, gaps, want_unit):
    per = build_perimeter(segments, gaps)
    unit, ((line_starts, line_ends),) = integer_anchors([per])
    assert unit == want_unit
    circ = line_starts[per.q]
    starts, ends = line_starts[1:per.q + 1], line_ends[1:per.q + 1]
    step = 2 * unit   # equal reaches share a length; the last crosses into lap two
    robots = [(k % 2, s, step) for k, s in enumerate(range(starts[0], ends[-1], step))]
    arcs = place_arcs(unit, circ, starts, ends, robots, 0)
    assert arcs and len({a.length for a in arcs}) < len(arcs)
    for arc in arcs:
        assert type(arc.start) is Fraction and type(arc.length) is Fraction
    want = []
    for tau, s, reach in robots:
        e = min(s + reach, ends[-1])
        e = min(e, ends[bisect_left(starts, e) - 1])
        if e > s:
            want.append((tau, Fraction(s % circ, unit), Fraction(e - s, unit)))
    assert [(a.robot_type, a.start, a.length) for a in arcs] == want


# -- randomized properties -------------------------------------------------

lengths = st.fractions(min_value=F(1, 6), max_value=F(40), max_denominator=6)


@st.composite
def perimeters(draw):
    q = draw(st.integers(min_value=1, max_value=4))
    segs = [draw(lengths) for _ in range(q)]
    if q == 1 and draw(st.booleans()):
        return Perimeter(segs, [])
    gaps = [draw(lengths) for _ in range(q)]
    return Perimeter(segs, gaps)


@st.composite
def anchored_offsets(draw):
    per = draw(perimeters())
    anchor = draw(st.integers(min_value=0, max_value=per.q - 1))
    # A scaled unit fraction, slightly past the range to exercise the clamp.
    unit = draw(st.fractions(min_value=F(0), max_value=F(1), max_denominator=16))
    p = unit * (per.circumference + 1)
    return per, anchor, p


@settings(max_examples=120, deadline=None)
@given(anchored_offsets())
def test_normalize_idempotent_and_bounded(case):
    per, anchor, p = case
    out = per.normalize_position(anchor, p)
    assert out == per.normalize_position(anchor, out)
    assert p <= per.circumference + 1
    assert out >= min(p, per.required_span(anchor))
    assert out <= per.required_span(anchor)


@settings(max_examples=120, deadline=None)
@given(anchored_offsets())
def test_normalize_never_lands_in_gap_interior(case):
    per, anchor, p = case
    out = per.normalize_position(anchor, p)
    required = per.required_span(anchor)
    starts, ends = per.unrolled(anchor)
    ok = out == required or any(s <= out < e for s, e in zip(starts, ends))
    assert ok


@settings(max_examples=120, deadline=None)
@given(anchored_offsets(), st.fractions(min_value=0, max_value=2, max_denominator=8))
def test_normalize_monotone(case, delta):
    per, anchor, p = case
    assert per.normalize_position(anchor, p) <= per.normalize_position(anchor, p + delta)


@settings(max_examples=80, deadline=None)
@given(perimeters(), st.integers(min_value=1, max_value=7))
def test_geometry_scales_linearly(per, k):
    scaled = Perimeter([s * k for s in per.segments], [g * k for g in per.gaps])
    for i in range(per.q):
        for j in range(per.q):
            assert scaled.span_length(i, j) == k * per.span_length(i, j)
        p = per.required_span(i) * F(2, 3)
        assert scaled.normalize_position(i, p * k) == k * per.normalize_position(i, p)


@settings(max_examples=100, deadline=None)
@given(perimeters())
def test_span_matches_linear_scan(per):
    for i in range(per.q):
        for j in range(per.q):
            walk = F(0)
            k = i
            while True:
                walk += per.segments[k]
                if k == j:
                    break
                if per.gaps:
                    walk += per.gaps[k]
                k = (k + 1) % per.q
            assert per.span_length(i, j) == walk
        if per.gaps:
            assert per.span_length(i, (i - 1) % per.q) + per.gaps[(i - 1) % per.q] \
                == per.circumference


@settings(max_examples=100, deadline=None)
@given(perimeters())
def test_positions_match_fraction_sums(per):
    # The integer bounds against plain Fraction sums, gapless circles included.
    for i in range(per.q):
        assert per.seg_start(i) == sum(per.segments[:i]) + sum(per.gaps[:i])
        assert per.seg_end(i) == sum(per.segments[:i + 1]) + sum(per.gaps[:i])
    assert per.circumference == sum(per.segments) + sum(per.gaps)


@st.composite
def thirds_perimeters(draw):
    """Lengths over denominators 1 to 3; a single segment may be a gapless circle."""
    def length():
        den = draw(st.integers(min_value=1, max_value=3))
        return F(draw(st.integers(min_value=1, max_value=12 * den)), den)

    q = draw(st.integers(min_value=1, max_value=4))
    segs = [length() for _ in range(q)]
    if q == 1 and draw(st.booleans()):
        return Perimeter(segs, [])
    return Perimeter(segs, [length() for _ in range(q)])


@settings(max_examples=100, deadline=None)
@given(st.lists(thirds_perimeters(), min_size=1, max_size=3))
@example([build_perimeter(["1/2", 2], [1, "1/3"]), build_perimeter([5], [])])  # unit 6
def test_integer_anchors_scale_unrolled(pers):
    unit, lines = integer_anchors(pers)
    assert len(lines) == len(pers)
    for per, (starts, ends) in zip(pers, lines):
        assert len(starts) == len(ends) == 2 * per.q
        assert all(type(v) is int for v in starts + ends)
        # Not per.circumference, which reads the bounds this line is scaled from.
        assert starts[per.q] == (sum(per.segments) + sum(per.gaps)) * unit
        for a in range(per.q):
            want_starts, want_ends = per.unrolled(a)
            origin = starts[a]
            assert [s - origin for s in starts[a:a + per.q]] == [s * unit for s in want_starts]
            assert [e - origin for e in ends[a:a + per.q]] == [e * unit for e in want_ends]


# -- polygons ---------------------------------------------------------------


def test_polygon_all_guarded_is_gapless():
    spec = build_polygon_spec([(0, 0), (1, 0), (1, 1), (0, 1)], [True] * 4)
    per, notes = from_polygon(spec)
    assert per.segments == (F(4),)
    assert per.gaps == ()
    assert notes == []


def test_polygon_alternating_square():
    spec = build_polygon_spec([(0, 0), (1, 0), (1, 1), (0, 1)], [True, False, True, False])
    per, _ = from_polygon(spec)
    assert per.segments == (F(1), F(1))
    assert per.gaps == (F(1), F(1))


def test_polygon_runs_merge_across_wrap():
    spec = build_polygon_spec([(0, 0), (1, 0), (1, 1), (0, 1)], [True, False, False, True])
    per, _ = from_polygon(spec)
    # Edges 3 and 0 merge into one segment; edges 1 and 2 into one gap.
    assert per.segments == (F(2),)
    assert per.gaps == (F(2),)


def test_polygon_pythagorean_edges_stay_exact():
    spec = build_polygon_spec([(0, 0), (3, 0), (0, 4)], [True, True, False])
    per, notes = from_polygon(spec)
    assert notes == []
    assert per.segments == (F(8),)  # 3 then 5, merged? no: rotation puts guarded first
    assert per.gaps == (F(4),)


def test_polygon_irrational_edge_quantized():
    from decimal import Decimal, getcontext

    spec = build_polygon_spec([(0, 0), (1, 0), (0, 1)], [False, True, True])
    per, notes = from_polygon(spec)
    assert len(notes) == 1 and "quantized" in notes[0]
    getcontext().prec = 40
    expected = int((Decimal(2).sqrt() * 10**6).to_integral_value(rounding="ROUND_HALF_EVEN"))
    assert per.segments == (F(expected, 10**6) + 1,)
    assert per.gaps == (F(1),)


def test_quantized_sqrt_rounds_to_nearest():
    # sqrt(10)/2 = 1.58..., so the nearest multiple of 1/10^6 is 2/10^6, not 1/10^6.
    assert _exact_or_quantized_sqrt(F(10, 4 * 10**12)) == (F(1, 500000), False)
    assert _exact_or_quantized_sqrt(F(9, 4 * 10**12)) == (F(3, 2 * 10**6), True)


def decimal_sqrt(squared: Fraction) -> Fraction:
    """sqrt(squared) to the nearest multiple of 1/10^6, ties down, by decimal.

    Sixty digits decide every case drawn below: for a non-square num/den,
    4 * num * 10^12 - (2k + 1)^2 * den is a nonzero integer, so the scaled
    root sits at least 1/(8 * den * (k + 1)) from the midpoint k + 1/2,
    above 10^-24 here.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(squared.numerator) / squared.denominator).sqrt()
        scaled = root * QUANTIZATION_DENOMINATOR
        return F(int(scaled.to_integral_value(rounding=ROUND_HALF_DOWN)), QUANTIZATION_DENOMINATOR)


@settings(max_examples=400, deadline=None)
@given(st.fractions(min_value=F(1, 10**12), max_value=F(10**9), max_denominator=10**12))
@example(F(10, 4 * 10**12))
@example(F(2))
def test_quantized_sqrt_matches_decimal(squared):
    length, exact = _exact_or_quantized_sqrt(squared)
    if exact:
        assert length * length == squared
    else:
        assert length == decimal_sqrt(squared)


def test_polygon_counterexample_edge_rounds_to_nearest():
    spec = build_polygon_spec([(0, 0), ("3/2000000", "1/2000000"), (0, 1)], [True, False, False])
    lengths, notes = edge_lengths(spec)
    assert lengths[0] == F(1, 500000)
    assert notes[0] == "edge 0: irrational length sqrt(1/400000000000) quantized to 1/500000 " \
                       "(denominator 1000000)"
    per, _ = from_polygon(spec)
    assert per.segments == (F(1, 500000),)


def merge_runs_reference(guarded, lengths):
    """from_polygon's run merging as it was, with explicit indices."""
    n = len(lengths)
    if all(guarded):
        return [sum(lengths, F(0))], []
    start = next(k for k in range(n) if guarded[k] and not guarded[(k - 1) % n])
    flags = [guarded[(start + k) % n] for k in range(n)]
    lens = [lengths[(start + k) % n] for k in range(n)]
    segments, gaps = [], []
    k = 0
    while k < n:
        run = lens[k]
        j = k + 1
        while j < n and flags[j] == flags[k]:
            run += lens[j]
            j += 1
        (segments if flags[k] else gaps).append(run)
        k = j
    return segments, gaps


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=3, max_size=12).filter(any))
@example([True] * 5)                  # all guarded: one gapless segment
@example([True, True, False, True])   # a single gap, runs merging across the wrap
@example([False, True, False])        # a single segment
def test_polygon_runs_match_reference(guarded):
    # Vertices on a parabola make a convex polygon whose edges all differ in length.
    spec = build_polygon_spec([(k, k * k) for k in range(len(guarded))], guarded)
    segments, gaps = merge_runs_reference(spec.guarded, edge_lengths(spec)[0])
    per, _ = from_polygon(spec)
    assert per.segments == tuple(segments)
    assert per.gaps == tuple(gaps)


def test_polygon_errors():
    with pytest.raises(DegeneratePolygon):
        build_polygon_spec([(0, 0), (1, 0)], [True, True])
    with pytest.raises(NoGuardedEdge):
        from_polygon(build_polygon_spec([(0, 0), (1, 0), (0, 1)], [False] * 3))
    with pytest.raises(DegeneratePolygon):
        from_polygon(
            build_polygon_spec([(0, 0), (0, 0), (0, 1)], [True, True, True])
        )
    with pytest.raises(CountMismatch):
        build_polygon_spec([(0, 0), (1, 0), (0, 1)], [True, True])
