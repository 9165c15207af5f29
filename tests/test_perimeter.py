"""Geometry model tests: spans, normalization, polygon ingestion."""
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
)
from perimeterguard.perimeter import (
    Perimeter,
    build_perimeter,
    build_polygon_spec,
    from_polygon,
    integer_anchors,
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
    per = build_perimeter(["5/2", 3], ["1/2", "0.5"])
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
    per = two_segment_example()
    with pytest.raises(IndexOutOfRange):
        per.span_length(0, 2)
    with pytest.raises(IndexOutOfRange):
        per.normalize_position(-1, F(0))
    with pytest.raises(IndexOutOfRange):
        per.normalize_position(0, F(-1))


def test_locate_boundaries():
    per = two_segment_example()
    assert per.locate(F(1)) == ("segment", 0)
    assert per.locate(F(2)) == ("gap", 0)       # segment end = gap start
    assert per.locate(F(3)) == ("segment", 1)   # gap end = next segment start
    assert per.locate(F(13, 2)) == ("gap", 1)
    assert per.locate(F(8)) == ("segment", 0)   # full wrap


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
    unit, view = integer_anchors(pers)
    assert len(view) == len(pers)
    for per, anchors in zip(pers, view):
        assert len(anchors) == per.q
        for a, (starts, ends) in enumerate(anchors):
            want_starts, want_ends = per.unrolled(a)
            assert all(type(v) is int for v in starts + ends)
            assert starts == [s * unit for s in want_starts]
            assert ends == [e * unit for e in want_ends]


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
