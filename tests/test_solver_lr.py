"""Fixed-fleet ratio solver: tables, feasibility, optimum, reconstruction.

_minimal and _fold_step below are the list-and-dict Pareto fold the
solver used before it kept allocation sets as bitsets (_Grid); they stay
here as references for _Grid.minimal, _fold_layers and _Grid.split.  inc
is the reach recurrence's step on Perimeter's exact geometry.
full_layer, full_decision and full_elimination are the anchor loops the
solver ran before it walked anchors in gap order with a slack stop
(_by_gap); gap_order_elimination finds the witness anchor without the stop.
reference_search and reference_elimination are the one-perimeter search
before each "yes" handed back the ratio its own chain needs.
"""
import ast
import inspect
import math
import random
import re
import textwrap
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perimeterguard import solver_lr
from perimeterguard.documents import InstanceDocument, solution_from_lr
from perimeterguard.errors import (
    IndexOutOfRange,
    InstanceTooLarge,
    ParseError,
    ReconstructionMismatch,
    ValidationError,
)
from perimeterguard.generate import gen_random
from perimeterguard.oracle import brute_feasible_lr, brute_feasible_lr_multi, brute_solve_lr
from perimeterguard.perimeter import build_perimeter, integer_anchors
from perimeterguard.solver_lr import (
    _at,
    _at_ell,
    _bits,
    _by_gap,
    _eliminate_anchors,
    _fill_table,
    _fold_layers,
    _Grid,
    _lap_spans,
    _pareto_layer,
    _search,
    build_fleet_lr,
    capability_sums,
    coverage_table,
    feasible,
    pareto_feasible_vectors,
    partition_feasible,
    ratio_certificate,
    reconstruct_lr,
    solve_lr,
)
from perimeterguard.solver_mc import build_types_mc, solve_mc_multi
from perimeterguard.validate import validate_solution
from test_integer_rule import check_refused_by_class, class_cases

F = Fraction


def inc(per, anchor: int, reach: Fraction, ell: Fraction) -> Fraction:
    """Extend a normalized reach by one robot's arc of length ell: the new
    reach slides past any gap it lands in and clamps at the working range."""
    return per.normalize_position(anchor, Fraction(reach) + Fraction(ell))


# -- the reference: the list-and-dict Pareto fold ---------------------------------


def _minimal(marked, sizes, strides):
    """Minimal cells of the upward closure of `marked`, a bytearray over the grid.

    Walks the grid once in lex order, closing `marked` upward in place; a
    cell is minimal if it is marked and no cell one robot below it is.
    Returns lex-sorted (index, cell) pairs.
    """
    axes = list(enumerate(strides))
    out = []
    for idx, x in enumerate(product(*map(range, sizes))):
        for tau, stride in axes:
            if x[tau] and marked[idx - stride]:
                marked[idx] = 1
                break
        else:
            if marked[idx]:
                out.append((idx, x))
    return out


def _fold_step(prev, layer, sizes, strides):
    """One left fold of per-perimeter antichains under shared robot counts.

    prev: lex-sorted totals so far; layer: lex-sorted vectors.  Returns
    (minimal combined totals, parents) where parents maps a total to its
    lexicographically smallest (previous_total, vector).
    """
    cand = {}
    for u in prev:
        for v in layer:
            w = tuple(a + b for a, b in zip(u, v))
            if all(c < s for c, s in zip(w, sizes)):
                cand.setdefault(w, (u, v))
    member = bytearray(math.prod(sizes))
    for w in cand:
        member[sum(c * s for c, s in zip(w, strides))] = 1
    return [w for _, w in _minimal(member, sizes, strides)], cand


def per_2seg():
    return build_perimeter([2, 3], [1, 2])


def test_inc_steps_over_gaps():
    per = per_2seg()
    assert inc(per, 0, F(0), F(3)) == 3
    assert inc(per, 0, F(3), F(3)) == 6
    assert inc(per, 0, F(0), F(2)) == 3   # lands on the gap start, slides to its end
    assert inc(per, 0, F(3), F(10)) == 6  # clamps at the working range
    assert inc(per, 1, F(0), F(3)) == 5


def test_grid_minimal_keeps_the_cells_with_no_cell_one_robot_below():
    # On a 3x3 grid the upward closure of (1, 0), (2, 1) and (0, 2) is every
    # cell but (0, 0) and (0, 1); (2, 1) lies above (1, 0), so only (0, 2) and
    # (1, 0) are minimal.
    grid = _Grid([2, 2])
    assert grid.strides == [3, 1] and grid.total == 9
    marked = bytearray(grid.total)
    for x0, x1 in ((1, 0), (2, 1), (0, 2)):
        marked[x0 * 3 + x1] = 1
    _minimal(marked, grid.sizes, grid.strides)  # the reference closes marked upward
    closed = as_int(marked)
    assert closed == 0b111111100
    assert grid.minimal(closed) == 1 << 2 | 1 << 3
    assert [grid.vector(idx) for idx in _bits(grid.minimal(closed))] == [(0, 2), (1, 0)]


def test_coverage_table_single_type():
    per = per_2seg()
    table = coverage_table(per, 0, build_fleet_lr([(3, 2)]), F(1))
    assert table.value((0,)) == 0
    assert table.value((1,)) == 3
    assert table.value((2,)) == 6
    assert table.backpointer((0,)) is None
    assert table.backpointer((2,)) == 0
    assert table.feasible_at((2,))
    assert not table.feasible_at((1,))
    # A list indexes as a tuple does; a bare count used to raise a bare
    # TypeError from len().
    assert table.value([2]) == 6 and table.feasible_at([2])
    for call in (table.value, table.feasible_at, table.backpointer,
                 lambda x: reconstruct_lr(table, x)):
        with pytest.raises(IndexOutOfRange, match="^allocation: expected a sequence, got int$"):
            call(3)

    weak = coverage_table(per, 0, build_fleet_lr([(2, 2)]), F(1))
    assert weak.value((1,)) == 3  # reach 2 is the gap start, normalized to 3
    assert weak.value((2,)) == 5
    assert not weak.feasible_at((2,))


def test_coverage_table_refuses_an_anchor_outside_the_perimeter():
    # Anchors 4 and 5 used to slice the second lap: they reported a cover
    # that feasible, which tries every real anchor, does not find.
    per, fleet = build_perimeter([2, 3, 4], [1, 2, 5]), build_fleet_lr([(3, 3)])
    assert feasible(per, fleet, F(1)) == (False, None)
    for anchor in (-1, 3, 4, 5):
        with pytest.raises(IndexOutOfRange, match=rf"segment index {anchor} outside 0\.\.2"):
            coverage_table(per, anchor, fleet, F(1))


def test_the_lr_api_reads_its_ratio_as_a_rational_literal():
    # The decision calls, the tables and the oracles read ell as documents
    # do: a float is not its decimal (0.1 is 3602879701896397/2**55),
    # and an exponent or a padded string is no literal at all.
    per, fleet = build_perimeter([10, 20], [5, 5]), build_fleet_lr([(3, 2), (5, 3)])
    other = build_perimeter([2, 3], [1, 1])

    def table_at(ell):
        table = coverage_table(per, 1, fleet, ell)
        return table.ell, table.value((1, 2))

    calls = {
        "feasible": lambda ell: feasible(per, fleet, ell),
        "partition_feasible": lambda ell: partition_feasible([per, other], fleet, ell),
        "pareto_feasible_vectors": lambda ell: pareto_feasible_vectors(per, fleet, ell),
        "coverage_table": table_at,
        "brute_feasible_lr": lambda ell: brute_feasible_lr(per, fleet, ell),
        "brute_feasible_lr_multi": lambda ell: brute_feasible_lr_multi([per, other], fleet, ell),
    }
    answers = {   # at ell = 1, 2, 7/3 and 5/2
        "feasible": [(False, None), (True, 1), (True, 1), (True, 1)],
        "partition_feasible": [False, True, True, True],
        "pareto_feasible_vectors": [[], [(0, 3), (2, 2)], [(0, 3), (2, 2)], [(0, 3), (1, 2)]],
        "coverage_table": [(1, 13), (2, 31), (F(7, 3), 32), (F(5, 2), 35)],
        "brute_feasible_lr": [False, True, True, True],
        "brute_feasible_lr_multi": [False, True, True, True],
    }
    for name, call in calls.items():
        assert [call(ell) for ell in (1, F(2), F(7, 3), "5/2")] == answers[name], name
        for bad, what in ((0.1, "floats are inexact"), ("1e3", "exponent forms"),
                          (" 5/2 ", "cannot parse")):
            with pytest.raises(ParseError, match=f"^ell: {what}"):
                call(bad)
    assert type(coverage_table(per, 1, fleet, 2).ell) is Fraction


def ell_case():
    return build_perimeter([10, 20], [5, 5]), build_fleet_lr([(3, 2), (5, 3)])


@pytest.mark.parametrize("ell", [0, -1, "-1/2"])
def test_lr_decisions_refuse_a_ratio_that_is_not_positive(ell):
    # Documents refuse such a ratio; the API did not, and answered (False,
    # None) and [] where the question has no answer.
    per, fleet = ell_case()
    for call in (lambda: feasible(per, fleet, ell),
                 lambda: pareto_feasible_vectors(per, fleet, ell),
                 lambda: partition_feasible([per, per], fleet, ell),
                 lambda: _at_ell([per], fleet, ell)):
        with pytest.raises(ValidationError, match="^ell: threshold must be positive$"):
            call()


def test_partition_feasible_takes_one_perimeter_as_solve_lr_does():
    # It used to iterate the Perimeter itself and raise a bare TypeError.
    per, fleet = ell_case()
    for ell in (1, 2):
        assert partition_feasible(per, fleet, ell) == partition_feasible([per], fleet, ell)
        assert partition_feasible(per, fleet, ell) == brute_feasible_lr_multi(per, fleet, ell)


PERIMETERS_ARGUMENT = {
    "solve_lr": lambda p: solve_lr(p, build_fleet_lr([(1, 2)])),
    "partition_feasible": lambda p: partition_feasible(p, build_fleet_lr([(1, 2)]), 3),
    "ratio_certificate": lambda p: ratio_certificate(p, build_fleet_lr([(1, 2)]), 3),
    "solve_mc_multi": lambda p: solve_mc_multi(p, build_types_mc([(3, 2), (5, 3)])),
    "brute_feasible_lr_multi": lambda p: brute_feasible_lr_multi(p, build_fleet_lr([(1, 2)]), 3),
    "brute_solve_lr": lambda p: brute_solve_lr(p, build_fleet_lr([(1, 2)])),
}


@pytest.mark.parametrize("call", PERIMETERS_ARGUMENT.values(), ids=PERIMETERS_ARGUMENT)
def test_perimeters_argument_is_one_perimeter_or_a_nonempty_sequence(call):
    # solve_mc_multi used to raise a bare TypeError on one Perimeter, and on
    # [] brute_solve_lr a bare IndexError, while brute_feasible_lr_multi
    # answered True and ratio_certificate None.
    per = per_2seg()
    assert call(per) == call([per]) == call((per,))
    with pytest.raises(ValidationError, match="^need at least one perimeter$"):
        call([])


@pytest.mark.parametrize("call", PERIMETERS_ARGUMENT.values(), ids=PERIMETERS_ARGUMENT)
def test_perimeters_argument_refuses_an_element_that_is_not_a_perimeter(call):
    # Each used to raise a bare AttributeError, a string included, and a bare
    # TypeError on an argument that is not iterable at all (5, None).  A
    # string is not a sequence of perimeters, so it is refused whole.
    cases = [(["x"], "[0]", "a Perimeter, got str"), ("ab", "", "a sequence, got str"),
             ([per_2seg(), None], "[1]", "a Perimeter, got NoneType"),
             ([3], "[0]", "a Perimeter, got int"),
             (5, "", "a sequence, got int"),
             (None, "", "a sequence, got NoneType")]
    for perimeters, where, what in cases:
        with pytest.raises(ValidationError, match=f"^perimeters{re.escape(where)}: expected {what}$"):
            call(perimeters)


@pytest.mark.parametrize("case", class_cases("test_solver_lr"))
def test_fleet_argument_is_refused_unless_a_fleet(case):
    check_refused_by_class(case)   # the cases are in test_integer_rule.CLASS_ARGUMENTS


@pytest.mark.parametrize("ell", [0, -1, "-1/2"])
def test_coverage_table_refuses_a_ratio_that_is_not_positive(ell):
    per, fleet = ell_case()     # at ell = -1 it used to report a reach of -1
    with pytest.raises(ValidationError, match="^ell: threshold must be positive$"):
        coverage_table(per, 0, fleet, ell)


@pytest.mark.parametrize("ell", [0, -1, "-1/2"])
def test_brute_feasible_lr_refuses_a_ratio_that_is_not_positive(ell):
    per, fleet = ell_case()     # at ell = -1 it used to raise IndexOutOfRange
    with pytest.raises(ValidationError, match="^ell: threshold must be positive$"):
        brute_feasible_lr(per, fleet, ell)


@pytest.mark.parametrize("ell", [0, -1, "-1/2"])
def test_brute_feasible_lr_multi_refuses_a_ratio_that_is_not_positive(ell):
    per, fleet = ell_case()
    with pytest.raises(ValidationError, match="^ell: threshold must be positive$"):
        brute_feasible_lr_multi([per, per], fleet, ell)


def test_ratio_certificate_reads_its_objective_as_a_rational_literal():
    per, fleet = build_perimeter([10, 20], [5, 5]), build_fleet_lr([(3, 2), (5, 3)])
    assert solve_lr(per, fleet).objective == F(20, 13)
    assert ratio_certificate(per, fleet, F(20, 13)) == ratio_certificate(per, fleet, "20/13")
    assert ratio_certificate(per, fleet, "20/13") == (0, 1, 1, 13)
    with pytest.raises(ParseError, match="^objective: floats are inexact"):
        ratio_certificate(per, fleet, 2.5)
    # No span is D times a ratio <= 0: there is nothing to factor.
    for objective in (0, -1, "-20/13"):
        assert ratio_certificate(per, fleet, objective) is None


def test_coverage_values_monotone_in_allocation():
    per = per_2seg()
    table = coverage_table(per, 1, build_fleet_lr([(1, 3), (2, 2)]), F(1, 2))
    for x0 in range(4):
        for x1 in range(3):
            v = table.value((x0, x1))
            if x0 < 3:
                assert table.value((x0 + 1, x1)) >= v
            if x1 < 2:
                assert table.value((x0, x1 + 1)) >= v


def test_feasible_examples():
    per = per_2seg()
    assert feasible(per, build_fleet_lr([(3, 2)]), F(1)) == (True, 0)
    assert feasible(per, build_fleet_lr([(2, 2)]), F(1)) == (False, None)
    # Big enough to swallow the whole circumference: feasible from anywhere.
    assert feasible(per, build_fleet_lr([(8, 1)]), F(1))[0]


def test_pareto_examples():
    per = build_perimeter([5], [5])
    assert pareto_feasible_vectors(per, build_fleet_lr([(1, 10)]), F(5)) == [(1,)]
    per = per_2seg()
    assert pareto_feasible_vectors(per, build_fleet_lr([(1, 1), (2, 1)]), F(2)) == [(1, 1)]


def test_solve_basic_examples():
    per = per_2seg()
    assert solve_lr(per, build_fleet_lr([(1, 2)])).objective == 3
    assert solve_lr(per, build_fleet_lr([(1, 3)])).objective == 2
    assert solve_lr(per, build_fleet_lr([(1, 1), (2, 1)])).objective == 2


def test_solve_stops_when_the_lower_bound_fits():
    # Gapless circle, exact fit: the robots' arcs at total-length / A tile it.
    sol = solve_lr(build_perimeter([6], []), build_fleet_lr([(1, 2), (2, 1)]))
    assert sol.objective == F(3, 2)
    assert sol.feasibility_calls == 2
    # Both anchors fit at the lower bound; the search of anchor 1 (after the
    # first widest gap) ends there in one table, whose "yes" at 5/2 tightens
    # to the lower bound 2 and empties the window, and the walk stops; the
    # witness is anchor 1, the first in gap order.
    per = build_perimeter([2, 2], [1, 1])
    sol = solve_lr(per, build_fleet_lr([(1, 2)]))
    assert sol.objective == 2
    assert sol.feasibility_calls == 1
    assert sol.anchors == [1]


def test_solve_with_anchors_tied_at_the_optimum():
    # Rotationally symmetric, so every anchor has the same optimum; the gaps
    # tie, and anchor 1, after gap 0, comes first in gap order.
    per = build_perimeter([3, 3, 3], [1, 1, 1])
    fleet = build_fleet_lr([(2, 2), (1, 1)])
    sol = solve_lr(per, fleet)
    assert sol.objective == brute_solve_lr(per, fleet)
    assert all(coverage_table(per, a, fleet, sol.objective).feasible_at(fleet.counts)
               for a in range(per.q))
    assert sol.anchors == [1]


def test_solve_witness_is_the_last_improving_anchors_cell_on_a_tie():
    # An anchor visited after the last improvement ties at ell* = 3 with the
    # lex-smaller cell (2, 0); the witness is the lex-first covering cell of
    # the anchor behind the last improvement, anchor 1, first in gap order:
    # (2, 1), read from anchor 1 itself.
    per = build_perimeter([3, 4, 3, 4, 3], [5, 5, 1, 1, 5])
    fleet = build_fleet_lr([(4, 2), (1, 1)])
    sol = solve_lr(per, fleet)
    assert sol.objective == 3
    assert sol.allocations == [(2, 1)]
    assert sol.anchors == [1]
    assert any(coverage_table(per, a, fleet, F(3)).feasible_at((2, 0)) for a in range(per.q))
    validate_solution(InstanceDocument("lr", (per,), fleet=fleet), solution_from_lr(sol))


def test_solve_gives_every_witness_robot_an_arc():
    # The last improver's lex-first cell holds a type-0 robot that a smaller
    # anchor does not need.  The witness table used to come from that smaller
    # anchor, leaving the robot with no arc: (0, 2) and (0, 1, 3), one unused.
    cases = [
        (build_perimeter([6, 6, 2, 3], [3, 4, 3, 3]), [(1, 1), (6, 2)], (1, 2)),
        (build_perimeter([4, 3, 2, 1, 4], [2, 2, 3, 3, 2]), [(1, 1), (3, 1), (2, 3)], (1, 1, 3)),
    ]
    for per, pairs, used in cases:
        fleet = build_fleet_lr(pairs)
        sol = solve_lr(per, fleet)
        assert sol.objective == brute_solve_lr([per], fleet) == 2
        assert sol.allocations == [used]
        assert sol.unused == (0,) * fleet.t
        assert len(sol.arcs) == sum(used)
        validate_solution(InstanceDocument("lr", (per,), fleet=fleet), solution_from_lr(sol))


def test_solve_witness_comes_from_the_last_improvement():
    # Anchor 3, after the widest gap, is searched first: its optimum 11/3
    # needs only (0, 3), which covers from no anchor at the optimum 10/3.
    # Anchor 5, after the other gap of 6, improves to it; the witness is its.
    per = build_perimeter([4, 6, 4, 1, 5, 4], [5, 1, 6, 5, 6, 2])
    fleet = build_fleet_lr([(2, 1), (3, 3)])
    assert coverage_table(per, 3, fleet, F(11, 3)).feasible_at((0, 3))
    sol = solve_lr(per, fleet)
    assert sol.objective == F(10, 3)
    assert sol.allocations == [(1, 3)]
    assert sol.anchors == [5]


def test_solve_with_an_anchor_infeasible_at_the_upper_bound():
    # The upper bound (circumference - widest gap) / a_min = 3 is what one
    # robot needs from anchor 1; from anchor 0 it must also cross the wide gap.
    per = build_perimeter([1, 1], [5, 1])
    fleet = build_fleet_lr([(1, 1)])
    assert not coverage_table(per, 0, fleet, F(3)).feasible_at((1,))
    sol = solve_lr(per, fleet)
    assert sol.objective == 3
    assert sol.anchors == [1]


@pytest.mark.parametrize("t, q, m, tables", [(2, 20, 1, 20), (4, 20, 1, 22), (2, 6, 3, 58)])
def test_feasibility_calls_pinned(t, q, m, tables):
    """Reach tables the ratio search fills, on seeded instances: more means the
    search does more work than it did when these were pinned."""
    doc = gen_random("lr", t, q, m, seed=0)
    assert solve_lr(list(doc.perimeters), doc.fleet).feasibility_calls == tables


def test_solve_scales_once_and_draws_no_layer_after_the_search():
    """The witness comes from the search's last "yes": one integer scaling,
    no coverage_table, and one layer per layer the search drew, each filling
    at most q tables."""
    doc = gen_random("lr", 2, 6, 3, seed=0)
    calls = dict.fromkeys(("integer_anchors", "coverage_table", "_pareto_layer"), 0)

    def spy(name):
        real = getattr(solver_lr, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    with mock.patch.multiple(solver_lr, **{name: spy(name) for name in calls}):
        sol = solve_lr(list(doc.perimeters), doc.fleet)
    assert sol.feasibility_calls == 58      # 72 with lo the largest G_k/A, not their sum
    assert calls == {"integer_anchors": 1, "coverage_table": 0, "_pareto_layer": 28}


def test_solve_fills_only_the_search_tables_and_one_witness_tail():
    """One perimeter: the search's 20 tables, then the witness table, bounded
    by the witness vector, from anchor 9, the first in gap order reaching it:
    the last improver."""
    doc = gen_random("lr", 2, 20, 1, seed=0)
    real, calls = solver_lr._fill_table, []

    def spy(*args, **kwargs):
        calls.append(tuple(n - 1 for n in args[3].sizes))   # the table's bounds
        return real(*args, **kwargs)

    with mock.patch.object(solver_lr, "_fill_table", spy):
        sol = solve_lr(list(doc.perimeters), doc.fleet)
    assert sol.feasibility_calls == 20
    assert len(calls) == 21
    assert calls[-1] == sol.allocations[0] and sol.anchors == [9]
    # Every perimeter count shares the one tail that builds witness tables.
    tree = ast.parse(inspect.getsource(solver_lr.solve_lr))
    assert sum(isinstance(n, ast.Name) and n.id == "CoverageTable" for n in ast.walk(tree)) == 1


def test_solve_two_perimeters():
    pers = [build_perimeter([4], []), build_perimeter([2], [2])]
    sol = solve_lr(pers, build_fleet_lr([(1, 3)]))
    assert sol.objective == 2
    assert sol.allocations == [(2,), (1,)]
    assert sol.unused == (0,)


def test_solve_reuses_a_layer_pinned_between_no_and_yes():
    # After the search's first "yes", the circle of length 1 needs one robot at
    # both ends of the window, so only the two-segment perimeter is rebuilt.
    pers = [build_perimeter([1], []), build_perimeter([2, 2], [1, 1])]
    fleet = build_fleet_lr([(1, 3)])
    built: dict[tuple, list[int]] = {}
    real = solver_lr._pareto_layer

    def spy(line, counts, steps, order):
        built.setdefault(tuple(steps), []).append(len(line[0]) // 2)
        return real(line, counts, steps, order)

    with mock.patch.object(solver_lr, "_pareto_layer", spy):
        sol = solve_lr(pers, fleet)
    assert sol.objective == 2
    assert sol.allocations == [(1,), (2,)]
    assert [2] in built.values()          # a step drew 2 of the m·q = 3 anchors' layers
    # Each layer fills one table: the slack stop cuts the second anchor of the
    # symmetric two-segment perimeter.  6 with every layer rebuilt.
    assert sol.feasibility_calls == 5


@st.composite
def search_windows(draw):
    """(spans, sums, c, lo, hi): the candidates span/D, a threshold c among
    them and a window [lo, hi] around c whose ends may or may not be candidates."""
    sums = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=12)))
    spans = draw(st.lists(st.integers(1, 200), min_size=1, max_size=12))
    candidates = sorted({F(s, d) for s in spans for d in sums})
    k = draw(st.integers(0, len(candidates) - 1))
    lo = candidates[draw(st.integers(0, k))] * F(draw(st.integers(90, 100)), 100)
    hi = candidates[draw(st.integers(k, len(candidates) - 1))] * F(draw(st.integers(100, 110)), 100)
    return spans, sums, candidates[k], lo, hi


@settings(max_examples=200, deadline=None)
@given(search_windows())
@example(([6], [1, 2, 3, 4], F(3, 2), F(3, 2), F(6)))   # lo is the answer: the window's least
@example(([5, 7], [2, 3], F(5, 2), F(2), F(5, 2)))     # hi is the answer: its only "yes"
def test_search_returns_the_smallest_passing_candidate(window):
    spans, sums, c, lo, hi = window
    candidates = {F(s, d) for s in spans for d in sums if lo <= F(s, d) <= hi}
    probes = []

    def check(r):
        probes.append(r)
        assert len(probes) <= len(candidates), "more probes than candidates"
        return (r, r) if r >= c else None

    assert _search(lo, hi, spans, sums, check) == (c, c)
    assert set(probes) <= candidates
    # A check may hand back a smaller passing ratio than its probe: the search
    # records and cuts there, and ends on c with the witness of that "yes".
    best, witness = _search(lo, hi, spans, sums, lambda r: (c, r) if r >= c else None)
    assert best == c and witness in candidates and witness >= c


def test_search_probes_only_in_its_loop():
    """_search takes no witness from its caller and calls check at one site,
    inside its loop: no probe of lo before it and none of hi after it."""
    (fn,) = ast.parse(inspect.getsource(_search)).body
    assert [arg.arg for arg in fn.args.args] == ["lo", "hi", "spans", "sums", "check"]
    probes = [n for n in ast.walk(fn)
              if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "check"]
    (loop,) = [n for n in ast.walk(fn) if isinstance(n, ast.While)]
    assert len(probes) == 1 and probes[0] in list(ast.walk(loop))


def test_solve_reports_unused_robots():
    # A third robot cannot lower the worst perimeter's ratio, so it stays idle.
    pers = [build_perimeter([4], []), build_perimeter([4], [])]
    sol = solve_lr(pers, build_fleet_lr([(1, 3)]))
    assert sol.objective == 4
    assert sol.allocations == [(1,), (1,)]
    assert sol.unused == (1,)
    assert len(sol.arcs) == 2


def test_solve_rejects_more_perimeters_than_robots():
    pers = [build_perimeter([4], []), build_perimeter([2], [2])]
    with pytest.raises(ValidationError):
        solve_lr(pers, build_fleet_lr([(5, 1)]))


def test_reconstruct_example():
    per = per_2seg()
    table = coverage_table(per, 0, build_fleet_lr([(3, 2)]), F(1))
    arcs = reconstruct_lr(table, (2,))
    assert [(a.start, a.length) for a in arcs] == [(F(0), F(2)), (F(3), F(3))]
    assert all(a.robot_type == 0 for a in arcs)


def test_reconstruct_rejects_infeasible_allocation():
    per = per_2seg()
    table = coverage_table(per, 0, build_fleet_lr([(3, 2)]), F(1))
    with pytest.raises(ReconstructionMismatch):
        reconstruct_lr(table, (1,))


def test_reconstruct_rejects_corrupt_backpointer():
    per = per_2seg()
    table = coverage_table(per, 0, build_fleet_lr([(3, 2), (1, 1)]), F(1))
    assert table.feasible_at((2, 0))
    # Point the cell at type 1, of which it holds no robot.
    table._backptr[table._index((2, 0))] = 1
    with pytest.raises(ReconstructionMismatch):
        reconstruct_lr(table, (2, 0))


def test_solution_max_ratio_equals_objective():
    per = per_2seg()
    fleet = build_fleet_lr([(2, 2), (3, 1)])
    sol = solve_lr(per, fleet)
    ratios = [a.length / fleet.capabilities[a.robot_type] for a in sol.arcs]
    assert max(ratios) == sol.objective


def _run_ratios(sol, perimeters, capabilities):
    """Per perimeter, (run length) / (its robots' capability sum) for each run
    of touching arcs: an arc joins a run when it starts where the run's last
    arc ends, modulo the circumference."""
    for k, per in enumerate(perimeters):
        circ = per.circumference
        arcs = sorted((a for a in sol.arcs if a.perimeter == k), key=lambda a: a.start % circ)
        runs = []   # [length, capability sum, end]
        for a in arcs:
            if runs and a.start % circ == runs[-1][2] % circ:
                runs[-1][0] += a.length
                runs[-1][1] += capabilities[a.robot_type]
                runs[-1][2] = a.end
            else:
                runs.append([a.length, capabilities[a.robot_type], a.end])
        if len(runs) > 1 and runs[-1][2] % circ == arcs[0].start % circ:
            length, cap, _ = runs.pop()   # the run across the origin
            runs[0][0] += length
            runs[0][1] += cap
        yield from (length / cap for length, cap, _ in runs)


def test_objective_is_the_largest_run_ratio_of_the_witness():
    """Each run of touching arcs is one block of the witness chain, laid from a
    segment start to a segment end, so the objective is the largest block
    ratio: the tightened search and the reconstruction read one chain."""
    cases = [([build_perimeter([4], [])], build_fleet_lr([(1, 3)]), F(4, 3)),
             ([build_perimeter([5], [1])], build_fleet_lr([(1, 2), (2, 1)]), F(5, 4))]
    for (t, q, m), seed in product([(2, 20, 1), (2, 6, 3)], range(40)):
        doc = gen_random("lr", t, q, m, seed=seed)
        cases.append((list(doc.perimeters), doc.fleet, None))
    for perimeters, fleet, objective in cases:
        sol = solve_lr(perimeters, fleet)
        assert objective in (None, sol.objective)
        assert max(_run_ratios(sol, perimeters, fleet.capabilities)) == sol.objective


def test_only_chain_reads_the_backpointers():
    """_chain is the one walk over a table's backpointers: besides it only
    CoverageTable.backpointer reads a cell, and only _fill_table stores one."""
    reads, stores = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Subscript) and (
                    getattr(child.value, "id", None) == "backptr"
                    or getattr(child.value, "attr", None) == "_backptr"):
                (stores if isinstance(child.ctx, ast.Store) else reads).add(scope)
            visit(child, scope)

    visit(ast.parse(inspect.getsource(solver_lr)), "")
    assert reads == {"_chain", "CoverageTable.backpointer"}
    assert stores == {"_fill_table"}


def test_certificate_factors_the_objective():
    per = per_2seg()
    for pairs in ([(1, 2)], [(1, 3)], [(1, 1), (2, 1)], [(2, 2), (3, 1)]):
        fleet = build_fleet_lr(pairs)
        sol = solve_lr(per, fleet)
        cert = ratio_certificate(per, fleet, sol.objective)
        assert cert is not None
        k, i, j, d = cert
        assert per.span_length(i, j) / d == sol.objective


# -- randomized agreement with the brute oracle --------------------------------

small_lengths = st.integers(min_value=1, max_value=12)


@st.composite
def small_instances(draw, max_m=1, max_q=3):
    m = draw(st.integers(min_value=1, max_value=max_m))
    # Lengths are multiples of 1/den, so the solver's integer scaling is exercised.
    den = draw(st.integers(min_value=1, max_value=3))
    perimeters = []
    for _ in range(m):
        q = draw(st.integers(min_value=1, max_value=max_q))
        segs = [F(draw(small_lengths), den) for _ in range(q)]
        if q == 1 and draw(st.booleans()):
            perimeters.append(build_perimeter(segs, []))
        else:
            gaps = [F(draw(small_lengths), den) for _ in range(q)]
            perimeters.append(build_perimeter(segs, gaps))
    t = draw(st.integers(min_value=1, max_value=2))
    caps = [draw(st.integers(min_value=1, max_value=6)) for _ in range(t)]
    total = draw(st.integers(min_value=max(m, 1), max_value=4))
    counts = [1] * t
    for _ in range(total - t):
        counts[draw(st.integers(min_value=0, max_value=t - 1))] += 1
    if sum(counts) < m:
        counts[0] += m - sum(counts)
    fleet = build_fleet_lr(zip(caps, counts))
    return perimeters, fleet


small_ratios = st.fractions(min_value=F(1, 4), max_value=F(8), max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(small_instances(), small_ratios, st.data())
def test_coverage_table_follows_recurrence(inst, ell, data):
    """value(x) = max over placed types of inc(value(x - e_tau), a_tau * ell);
    the backpointer is the smallest type attaining it."""
    (per,), fleet = inst
    anchor = data.draw(st.integers(min_value=0, max_value=per.q - 1))
    table = coverage_table(per, anchor, fleet, ell)
    assert table.value(tuple(0 for _ in fleet.counts)) == 0
    for x in product(*(range(n + 1) for n in fleet.counts)):
        if not any(x):
            continue
        reach = {
            tau: inc(per, anchor, table.value(x[:tau] + (c - 1,) + x[tau + 1:]), a * ell)
            for tau, (a, c) in enumerate(zip(fleet.capabilities, x))
            if c
        }
        best = max(reach.values())
        assert table.value(x) == best
        assert table.backpointer(x) == min(tau for tau, v in reach.items() if v == best)


@settings(max_examples=60, deadline=None)
@given(small_instances(), small_ratios, st.data())
def test_fill_table_with_done_cells_equals_the_full_table_elsewhere(inst, ell, data):
    (per,), fleet = inst
    ((starts, ends),), steps = _at_ell([per], fleet, ell)
    anchor = data.draw(st.integers(min_value=0, max_value=per.q - 1))
    lap = starts[anchor:anchor + per.q], ends[anchor:anchor + per.q]
    grid = _Grid(fleet.counts)
    total = grid.total
    done = bytearray(total)
    for idx in data.draw(st.lists(st.integers(min_value=1, max_value=total - 1), max_size=3)):
        done[idx] = 1
    _minimal(done, grid.sizes, grid.strides)  # the reference closes done upward in place
    values, backptr, _ = _fill_table(*lap, steps, grid, bytearray(total))
    open_cells = [idx for idx in range(total) if not done[idx]]
    marked = bytes(done)
    open_values, open_backptr, open_hit = _fill_table(*lap, steps, grid, done)
    assert [open_values[i] for i in open_cells] == [values[i] for i in open_cells]
    assert [open_backptr[i] for i in open_cells] == [backptr[i] for i in open_cells]
    covering = {i for i in open_cells if values[i] >= lap[1][-1]}
    assert open_hit == min(covering, default=-1)
    # Afterwards done is the old marks plus exactly the open cells that cover.
    assert {i for i in range(total) if done[i]} == {i for i in range(total) if marked[i]} | covering


@settings(max_examples=60, deadline=None)
@given(small_instances(), small_ratios, st.data())
def test_fill_table_bounded_by_a_sub_vector_equals_the_full_table_below_it(inst, ell, data):
    """A cell reads only cells below it, so a table bounded by v matches the
    full table at every cell <= v: value and backpointer."""
    (per,), fleet = inst
    ((starts, ends),), steps = _at_ell([per], fleet, ell)
    anchor = data.draw(st.integers(min_value=0, max_value=per.q - 1))
    lap = starts[anchor:anchor + per.q], ends[anchor:anchor + per.q]
    v = tuple(data.draw(st.integers(min_value=0, max_value=n)) for n in fleet.counts)
    grid, sub_grid = _Grid(fleet.counts), _Grid(v)
    values, backptr, _ = _fill_table(*lap, steps, grid, bytearray(grid.total))
    sub_values, sub_backptr, _ = _fill_table(*lap, steps, sub_grid, bytearray(sub_grid.total))
    strides = grid.strides
    for sub_idx, x in enumerate(product(*(range(n + 1) for n in v))):
        idx = sum(c * s for c, s in zip(x, strides))
        assert (sub_values[sub_idx], sub_backptr[sub_idx]) == (values[idx], backptr[idx])


@settings(max_examples=40, deadline=None)
@given(small_instances(max_m=3), small_ratios)
def test_pareto_layer_matches_full_tables(inst, ell):
    """The vectors feasible from some anchor's full table, and their minimal ones."""
    perimeters, fleet = inst
    grids, steps = _at_ell(perimeters, fleet, ell)
    strides = _Grid(fleet.counts).strides
    for per, line in zip(perimeters, grids):
        tables = [coverage_table(per, a, fleet, ell) for a in range(per.q)]
        covering = {x for x in product(*(range(n + 1) for n in fleet.counts))
                    if any(table.feasible_at(x) for table in tables)}
        minimal = [
            x for x in covering
            if not any(c and x[:k] + (c - 1,) + x[k + 1:] in covering for k, c in enumerate(x))
        ]
        grid = _Grid(fleet.counts)
        assert _pareto_layer(line, grid, steps, grid.by_capacity(fleet.capabilities))[0] == sum(
            1 << sum(c * s for c, s in zip(x, strides)) for x in covering
        )
        assert pareto_feasible_vectors(per, fleet, ell) == sorted(minimal)


# -- the untightened ratio search --------------------------------------------------


def reference_search(lo, hi, spans, sums, check):
    """_search as it was before a "yes" handed back a tighter ratio: check
    returns None or a witness, and a "yes" records and cuts at its probe."""
    def cut(rows, r, yes):
        n, d = r.numerator, r.denominator
        if yes:
            return [(s, j, i1) for s, i0, i1 in rows
                    if (j := bisect_left(sums, s * d // n + 1, i0, i1)) < i1]
        return [(s, i0, j) for s, i0, i1 in rows
                if (j := bisect_left(sums, (s * d - 1) // n + 1, i0, i1)) > i0]

    (x, y), (n, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    rows = [(s, i0, i1) for s in sorted(set(spans)) if (i0 := bisect_left(sums, -(-s * d // n)))
            < (i1 := bisect_left(sums, s * y // x + 1))]
    pick = random.Random(0)
    witness = None
    while rows:
        s, i0, i1 = rows[pick.randrange(len(rows))]
        p = F(s, sums[(i0 + i1) // 2])
        found = check(p)
        if found is not None:
            hi, witness = p, found
        rows = cut(rows, p, found is not None)
    return hi, witness


def reference_elimination(line, capabilities, grid, lo, hi, sums):
    """_eliminate_anchors over reference_search: (best, tables, hit)."""
    starts, ends = line
    q = len(starts) // 2
    eps = F(1, sums[-1] ** 2)
    probes = []

    def fits(a):
        lap = [(starts[a:a + q], ends[a:a + q])]

        def check(ratio):
            probes.append(ratio)
            ((s, e),), steps = _at(lap, capabilities, ratio)
            hit = _fill_table(s, e, steps, grid)[2]
            return hit if hit >= 0 else None
        return check

    (_, first), *rest = _by_gap(line)
    best, hit = reference_search(lo, hi, _lap_spans(starts, ends, first, q), sums, fits(first))
    for need, a in rest:
        if need > sums[-1] * (best - eps):
            break
        check = fits(a)
        if check(best - eps) is not None:
            best, hit = reference_search(lo, best - eps, _lap_spans(starts, ends, a, q), sums,
                                         check)
    return best, len(probes), hit


def search_bounds(per, fleet):
    """(line, sums, lo, hi) as solve_lr hands them to _eliminate_anchors."""
    unit, (line,) = integer_anchors([per])
    starts, ends = line
    sums = capability_sums(fleet)
    lo = F(sum(ends[:per.q]) - sum(starts[:per.q]), sums[-1])
    hi = F(starts[per.q] - max(s - e for s, e in zip(starts[1:], ends)), min(fleet.capabilities))
    return line, sums, lo, hi


# -- the gap-order walks against the full anchor loop ------------------------------


def full_layer(line, grid, steps) -> int:
    """_pareto_layer with a table from every anchor, in index order."""
    starts, ends = line
    q = len(starts) // 2
    feas = bytearray(grid.total)
    for a in range(q):
        _fill_table(starts[a:a + q], ends[a:a + q], steps, grid, feas)
    return as_int(feas)


def full_decision(line, grid, steps) -> set[int]:
    """The anchors whose table covers the line, from every anchor in index order."""
    starts, ends = line
    q = len(starts) // 2
    return {a for a in range(q)
            if _fill_table(starts[a:a + q], ends[a:a + q], steps, grid)[2] >= 0}


def full_elimination(line, capabilities, grid, lo, hi, sums):
    """_eliminate_anchors over every anchor in a fixed shuffled order, stopping
    only at the lower bound: (best, hit)."""
    starts, ends = line
    q = len(starts) // 2
    eps = F(1, sums[-1] ** 2)

    def fits(a):
        lap = [(starts[a:a + q], ends[a:a + q])]

        def check(ratio):
            ((s, e),), steps = _at(lap, capabilities, ratio)
            hit = _fill_table(s, e, steps, grid)[2]
            return hit if hit >= 0 else None
        return check

    first = (max(range(q), key=lambda j: starts[j + 1] - ends[j]) + 1) % q
    rest = [a for a in range(q) if a != first]
    random.Random(q).shuffle(rest)
    best, hit = reference_search(lo, hi, _lap_spans(starts, ends, first, q), sums, fits(first))
    for a in rest:
        if best == lo:
            break
        check = fits(a)
        if check(best - eps) is not None:
            best, hit = reference_search(lo, best - eps, _lap_spans(starts, ends, a, q), sums,
                                         check)
    return best, hit


@st.composite
def gapped_instances(draw, max_q=6, max_count=2):
    """One perimeter of at most max_q segments over denominators 1-3, gaps up
    to 200 or none, a fleet of at most 3 types of count at most max_count,
    and a ratio between half and four times the lower bound G/A."""
    den = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=max_q))
    lengths = st.integers(min_value=1, max_value=200)
    segs = [F(draw(lengths), den) for _ in range(q)]
    gapless = q == 1 and draw(st.booleans())
    per = build_perimeter(segs, [] if gapless else [F(draw(lengths), den) for _ in range(q)])
    pairs = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=9),
                                    st.integers(min_value=1, max_value=max_count)),
                          min_size=1, max_size=3))
    fleet = build_fleet_lr(pairs)
    ell = sum(segs) / fleet.total_capability * draw(
        st.fractions(min_value=F(1, 2), max_value=F(4), max_denominator=12))
    return per, fleet, ell


# Tight: G = 12, the fleet's arc at ratio 4 is 16, and anchor 1, after the
# widest gap (4), fails; so the walk must go on while G plus the gaps seen
# equals the arc, and a later anchor covers.
TIGHT = (build_perimeter([6, 2, 4], [4, 3, 3]), build_fleet_lr([(3, 1), (1, 1)]), F(4))


@settings(max_examples=150, deadline=None)
@given(gapped_instances())
@example(TIGHT)
def test_pareto_layer_equals_the_full_anchor_loop(inst):
    per, fleet, ell = inst
    (line,), steps = _at_ell([per], fleet, ell)
    grid = _Grid(fleet.counts)
    layer, tables = _pareto_layer(line, grid, steps, grid.by_capacity(fleet.capabilities))
    assert layer == full_layer(line, grid, steps)
    assert tables <= per.q
    assert (tables == 0) == (fleet.total_capability * ell < sum(per.segments))


@settings(max_examples=150, deadline=None)
@given(gapped_instances())
@example(TIGHT)
def test_feasible_is_the_full_anchor_loop_read_in_gap_order(inst):
    """The same answer as a table from every anchor, and the anchor is the
    first covering one in gap order: the slack stop loses none."""
    per, fleet, ell = inst
    (line,), steps = _at_ell([per], fleet, ell)
    covering = full_decision(line, _Grid(fleet.counts), steps)
    first = next((a for _, a in _by_gap(line) if a in covering), None)
    assert feasible(per, fleet, ell) == (bool(covering), first)
    assert partition_feasible([per], fleet, ell) == bool(covering)


def test_a_decision_below_the_guarded_length_fills_no_table():
    # The whole fleet's arc, 4 * 3 = 12, is short of G = 13: the answer is
    # "no" before any table, where the full loop filled one per anchor.
    per, fleet = build_perimeter([6, 2, 5], [4, 3, 3]), build_fleet_lr([(3, 1), (1, 1)])
    (line,), steps = _at_ell([per], fleet, 3)
    grid = _Grid(fleet.counts)
    real, calls = solver_lr._fill_table, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(solver_lr, "_fill_table", spy):
        assert not partition_feasible([per], fleet, 3)
        assert _pareto_layer(line, grid, steps, grid.by_capacity(fleet.capabilities)) == (0, 0)
        assert calls == []
        partition_feasible([per], fleet, "13/4")   # the arc is G: the walk starts
        assert calls


@settings(max_examples=100, deadline=None)
@given(gapped_instances())
def test_eliminate_anchors_equals_the_shuffled_full_loop(inst):
    per, fleet, _ = inst
    line, sums, lo, hi = search_bounds(per, fleet)
    grid = _Grid(fleet.counts)
    best, tables, hit = _eliminate_anchors(line, fleet.capabilities, grid, lo, hi, sums)
    assert (best, hit) == full_elimination(line, fleet.capabilities, grid, lo, hi, sums)


@settings(max_examples=100, deadline=None)
@given(gapped_instances(max_q=8, max_count=4))
def test_tightened_search_ends_on_the_reference_optimum_and_hit(inst):
    per, fleet, _ = inst
    line, sums, lo, hi = search_bounds(per, fleet)
    grid = _Grid(fleet.counts)
    best, _, hit = _eliminate_anchors(line, fleet.capabilities, grid, lo, hi, sums)
    ref_best, _, ref_hit = reference_elimination(line, fleet.capabilities, grid, lo, hi, sums)
    assert (best, hit) == (ref_best, ref_hit)


def test_tightened_search_fills_fewer_tables_than_the_reference():
    """Summed over a seeded pool of one-perimeter instances, with the same
    (best, hit) on each.  Not per instance: once a cut lands lower, the seeded
    row pick takes another path, and 4 of these 120 fill more tables."""
    tables = ref_tables = 0
    for seed in range(120):
        r = random.Random(seed)
        q = r.randint(1, 8)
        segs = [F(r.randint(1, 200), 2) for _ in range(q)]
        per = build_perimeter(segs, [F(r.randint(1, 200), 2) for _ in range(q)])
        fleet = build_fleet_lr([(r.randint(1, 9), r.randint(1, 4)) for _ in range(r.randint(1, 3))])
        line, sums, lo, hi = search_bounds(per, fleet)
        grid = _Grid(fleet.counts)
        best, n, hit = _eliminate_anchors(line, fleet.capabilities, grid, lo, hi, sums)
        ref_best, ref_n, ref_hit = reference_elimination(line, fleet.capabilities, grid,
                                                         lo, hi, sums)
        assert (best, hit) == (ref_best, ref_hit)
        tables, ref_tables = tables + n, ref_tables + ref_n
    assert (tables, ref_tables) == (709, 824)


def test_a_yes_tightens_to_the_ratio_its_chain_needs():
    """Anchor 0 comes first, after the gap of 7.  At the first "yes", 5, its
    lex-first covering cell (1, 1) lays the capability-1 robot from 0 into the
    gap [4, 6), then the capability-2 robot from 6 past the lap's end 11: the
    blocks [0, 4] over 1 and [6, 11] over 2 need max(4, 5/2) = 4.  The optimum
    11/3 comes from another order of the same robots."""
    per = build_perimeter([4, 5], [2, 7])
    fleet = build_fleet_lr([(2, 1), (1, 1)])
    answers = []
    real = solver_lr._search

    def spy(lo, hi, spans, sums, check):
        def recorded(p):
            answers.append((p, check(p)))
            return answers[-1][1]
        return real(lo, hi, spans, sums, recorded)

    with mock.patch.object(solver_lr, "_search", spy):
        sol = solve_lr(per, fleet)
    (p, (tight, hit)), *_ = [(p, found) for p, found in answers if found is not None]
    unit, (line,) = integer_anchors([per])
    v = _Grid(fleet.counts).vector(hit)
    assert (p, tight, v, sol.objective) == (5, 4, (1, 1), F(11, 3))
    assert tight in {F(s, d) for s in _lap_spans(*line, 0, per.q) for d in capability_sums(fleet)}
    assert coverage_table(per, 0, fleet, tight / unit).feasible_at(v)


def gap_order_elimination(line, capabilities, grid, sums):
    """Every anchor's own optimum, each from a search up to its lap's span
    over a_min, in gap order with no stop: (the least, the last anchor to
    improve on the best so far, that anchor's hit at the least)."""
    starts, ends = line
    q = len(starts) // 2
    lo = F(sum(ends[:q]) - sum(starts[:q]), sums[-1])
    best = None
    for _, a in _by_gap(line):
        lap = [(starts[a:a + q], ends[a:a + q])]

        def check(ratio, lap=lap):
            ((s, e),), steps = _at(lap, capabilities, ratio)
            hit = _fill_table(s, e, steps, grid)[2]
            return hit if hit >= 0 else None

        hi = F(ends[a + q - 1] - starts[a], min(capabilities))   # one robot covers the lap
        own, hit = reference_search(lo, hi, _lap_spans(starts, ends, a, q), sums, check)
        if best is None or own < best[0]:
            best = own, a, hit
    return best


@settings(max_examples=80, deadline=None)
@given(small_instances(max_m=3))
@example(([build_perimeter([6, 6, 2, 3], [3, 4, 3, 3])], build_fleet_lr([(1, 1), (6, 2)])))
def test_every_witness_robot_gets_an_arc(inst):
    """One arc per robot of the witness vectors; on one perimeter the witness
    anchor is the last improver of the gap-order elimination, and the vector
    its lex-first covering cell."""
    perimeters, fleet = inst
    sol = solve_lr(perimeters, fleet)
    assert len(sol.arcs) == sum(map(sum, sol.allocations))
    if len(perimeters) == 1:
        unit, (line,) = integer_anchors(perimeters)
        grid = _Grid(fleet.counts)
        best, last, hit = gap_order_elimination(line, fleet.capabilities, grid,
                                                capability_sums(fleet))
        assert (sol.objective, sol.anchors, sol.allocations) == (
            best / unit, [last], [grid.vector(hit)])


def test_every_anchor_walk_takes_its_order_from_by_gap():
    """The anchor walks call _by_gap and loop over no range of anchors of
    their own; the three that stop compare its need inline (solve_lr's
    witness walk always ends on a cover).  Nothing in the module shuffles an
    order or rebinds an enclosing name (nonlocal)."""
    for fn in (solver_lr._eliminate_anchors, solver_lr._pareto_layer, solver_lr.feasible,
               solver_lr.solve_lr):
        nodes = list(ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))))
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_by_gap"
                   for n in nodes), fn.__name__
        assert fn is solver_lr.solve_lr or any(
            isinstance(n, ast.Compare) and any(getattr(x, "id", None) == "need"
                                               for x in (n.left, *n.comparators))
            for n in nodes), fn.__name__
        # The names loops over range() bind: only solve_lr's runs of segments
        # i..j, listed for the several-perimeter candidates, and no anchor.
        ranged = {name.id for n in nodes if isinstance(n, (ast.For, ast.comprehension))
                  and isinstance(n.iter, ast.Call) and getattr(n.iter.func, "id", None) == "range"
                  for name in ast.walk(n.target) if isinstance(name, ast.Name)}
        assert ranged <= {"i", "j"}, (fn.__name__, ranged)
    module = list(ast.walk(ast.parse(inspect.getsource(solver_lr))))
    assert not any(getattr(n, "attr", getattr(n, "id", None)) == "shuffle" for n in module)
    assert not any(isinstance(n, ast.Nonlocal) for n in module)


def test_tables_and_layers_take_the_callers_grid():
    """No table, layer or single-perimeter search builds a _Grid of its own:
    the caller's one grid per call comes in."""
    for fn in (solver_lr._fill_table, solver_lr._pareto_layer, solver_lr._eliminate_anchors):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_Grid"
                       for n in ast.walk(tree)), fn.__name__


def test_by_gap_puts_the_widest_gap_first_and_stops_on_the_slack():
    # Gaps before anchors 0..3 are 4, 1, 4, 2 and G = 10; ties go to the
    # smaller anchor - 1 (mod q), so anchor 2 (after gap 1) precedes anchor 0.
    # Each need is G plus the gaps before the anchors ahead of it.
    per = build_perimeter([1, 2, 3, 4], [1, 4, 2, 4])
    _, (line,) = integer_anchors([per])
    needs = _by_gap(line)
    assert needs == [(10, 2), (14, 0), (18, 3), (20, 1)]
    # A walk stops at the first need above its arc: an arc of 18 visits
    # three anchors, G alone one, and less than G none.
    assert [sum(need <= arc for need, _ in needs) for arc in (10**6, 18, 10, 9)] == [4, 3, 1, 0]


# -- the several-perimeter candidate set ------------------------------------------


@st.composite
def gapped_circles(draw):
    """A perimeter of q <= 8 segments over denominators 1-3, or a gapless circle."""
    den = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=8))
    segs = [F(draw(st.integers(min_value=1, max_value=30)), den) for _ in range(q)]
    if q == 1 and draw(st.booleans()):
        return build_perimeter(segs, [])
    return build_perimeter(segs, [F(draw(st.integers(min_value=1, max_value=30)), den)
                                  for _ in range(q)])


@settings(max_examples=60, deadline=None)
@given(st.lists(gapped_circles(), min_size=2, max_size=3))
def test_several_perimeters_search_the_union_of_every_anchors_lap(perimeters):
    """The distinct runs solve_lr hands _search are exactly the spans of every
    anchor's lap on every perimeter, as it once listed them."""
    _, lines = integer_anchors(perimeters)
    laps = {x for (s, e), per in zip(lines, perimeters) for a in range(per.q)
            for x in _lap_spans(s, e, a, per.q)}
    real, seen = solver_lr._search, []

    def spy(lo, hi, spans, *rest):
        seen.append(set(spans))
        return real(lo, hi, spans, *rest)

    with mock.patch.object(solver_lr, "_search", spy):
        solve_lr(perimeters, build_fleet_lr([(1, len(perimeters))]))
    assert seen == [laps]


def test_several_perimeters_list_no_anchors_lap():
    # solve_lr used to list each anchor's lap here: m·q = 8 calls, and
    # m·q³/2 runs for m·q² distinct ones.
    pers = [build_perimeter([1] * 4, [1] * 4), build_perimeter([2, 1, 3, 1], [1, 2, 1, 1])]
    with mock.patch.object(solver_lr, "_lap_spans", wraps=solver_lr._lap_spans) as spy:
        sol = solve_lr(pers, build_fleet_lr([(1, 2)]))
    assert spy.call_count == 0
    assert (sol.objective, sol.feasibility_calls, sol.anchors) == (10, 5, [1, 2])


# -- allocation sets as bitsets, against per-cell references -----------------------


@st.composite
def allocation_grids(draw):
    return _Grid([draw(st.integers(min_value=1, max_value=3))
                  for _ in range(draw(st.integers(min_value=1, max_value=3)))])


def cells_of(grid):
    return list(product(*map(range, grid.sizes)))


def upward_set(draw, grid, max_size=4):
    """A random upward-closed set: the closure of a few cells, as a bytearray."""
    marked = bytearray(grid.total)
    for idx in draw(st.lists(st.integers(min_value=0, max_value=grid.total - 1),
                             max_size=max_size)):
        marked[idx] = 1
    _minimal(marked, grid.sizes, grid.strides)
    return marked


def as_int(marked) -> int:
    return sum(1 << idx for idx, bit in enumerate(marked) if bit)


@settings(max_examples=100, deadline=None)
@given(allocation_grids(), st.data())
def test_grid_masks_match_a_per_cell_reference(grid, data):
    """above(idx) holds exactly the cells >= vector(idx), per axis and for a
    whole vector, and index order is lex order."""
    cells = cells_of(grid)
    assert [grid.vector(idx) for idx in range(grid.total)] == cells
    for tau, size in enumerate(grid.sizes):
        for c in range(size):
            assert grid.above(c * grid.strides[tau]) == sum(
                1 << idx for idx, x in enumerate(cells) if x[tau] >= c
            )
    v = cells[data.draw(st.integers(min_value=0, max_value=grid.total - 1))]
    assert grid.above(cells.index(v)) == sum(
        1 << idx for idx, x in enumerate(cells) if all(a >= b for a, b in zip(x, v))
    )


@settings(max_examples=100, deadline=None)
@given(allocation_grids(), st.data())
def test_fold_is_the_minkowski_sum_cut_to_the_grid(grid, data):
    """Folding two upward-closed sets gives every u + v <= counts; the minimal
    cells match the reference _minimal."""
    cells = cells_of(grid)
    first, second = upward_set(data.draw, grid), upward_set(data.draw, grid)
    expected = set()
    for u, in_first in zip(cells, first):
        for v, in_second in zip(cells, second):
            w = tuple(a + b for a, b in zip(u, v))
            if in_first and in_second and all(c < s for c, s in zip(w, grid.sizes)):
                expected.add(cells.index(w))
    total, levels = _fold_layers([as_int(first), as_int(second)], grid)
    assert total == sum(1 << idx for idx in expected)
    assert levels[0] == ((1 << grid.total) - 1, as_int(first))
    assert len(levels) == (2 if as_int(first) else 1)
    reference = _minimal(bytearray(first), grid.sizes, grid.strides)
    assert [(idx, grid.vector(idx)) for idx in _bits(grid.minimal(as_int(first)))] == reference


@settings(max_examples=150, deadline=None)
@given(allocation_grids(), st.data())
def test_split_matches_the_reference_fold_walk(grid, data):
    """Folding 1-4 layers and splitting the lex-first total gives the totals,
    levels and vectors of the reference _fold_step walk over its parents."""
    layers = [upward_set(data.draw, grid, max_size=3)
              for _ in range(data.draw(st.integers(min_value=1, max_value=4)))]
    prev = [(0,) * len(grid.sizes)]
    parents = []
    for layer in layers:
        minimal = [x for _, x in _minimal(bytearray(layer), grid.sizes, grid.strides)]
        prev, cand = _fold_step(prev, minimal, grid.sizes, grid.strides)
        parents.append(cand)
        if not prev:
            break
    total, levels = _fold_layers(map(as_int, layers), grid)
    assert [grid.vector(idx) for idx in _bits(grid.minimal(total))] == prev
    assert len(levels) == len(parents)
    if prev:
        walk, w = [], prev[0]
        for level in reversed(parents):
            w, v = level[w]
            walk.insert(0, v)
        assert grid.split(total, levels) == walk


def test_split_takes_only_prefix_cells_below_the_total():
    # The lex-first total is (2, 0, 1) = (1, 0, 0) + (1, 0, 1).  The prefix cell
    # (0, 0, 2) comes first in index order, and the index difference to the
    # total decodes to (1, 2, 2), which is in the layer; but (0, 0, 2) is not
    # below (2, 0, 1), so the walk must pass over it.
    grid = _Grid([3, 2, 2])
    layers = []
    for vectors in [[(0, 0, 2), (1, 0, 0)], [(1, 0, 1), (2, 0, 0)]]:
        marked = bytearray(grid.total)
        for x in vectors:
            marked[sum(c * s for c, s in zip(x, grid.strides))] = 1
        _minimal(marked, grid.sizes, grid.strides)
        layers.append(as_int(marked))
    total, levels = _fold_layers(layers, grid)
    assert grid.vector(next(_bits(total))) == (2, 0, 1)
    assert grid.split(total, levels) == [(1, 0, 0), (1, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(small_instances(), small_ratios)
def test_feasible_agrees_with_brute(inst, ell):
    (per,), fleet = inst
    assert feasible(per, fleet, ell)[0] == brute_feasible_lr(per, fleet, ell)


@settings(max_examples=40, deadline=None)
@given(small_instances(max_m=2), small_ratios)
def test_partition_feasible_agrees_with_brute(inst, ell):
    perimeters, fleet = inst
    assert partition_feasible(perimeters, fleet, ell) == brute_feasible_lr_multi(
        perimeters, fleet, ell
    )


@settings(max_examples=50, deadline=None)
@given(small_instances())
def test_solve_agrees_with_brute(inst):
    (per,), fleet = inst
    assert solve_lr(per, fleet).objective == brute_solve_lr(per, fleet)


@settings(max_examples=25, deadline=None)
@given(small_instances(max_m=2))
def test_solve_multi_agrees_with_brute(inst):
    perimeters, fleet = inst
    assert solve_lr(perimeters, fleet).objective == brute_solve_lr(perimeters, fleet)


@settings(max_examples=50, deadline=None)
@given(small_instances(max_m=3))
def test_solve_witness_is_the_lex_first_minimal_vector(inst):
    """Every perimeter's vector comes from the first anchor in gap order whose
    table covers it.  On one perimeter it is the lex-first covering cell of
    some anchor; on several it is a minimal vector of its perimeter."""
    perimeters, fleet = inst
    sol = solve_lr(perimeters, fleet)
    _, lines = integer_anchors(perimeters)
    for per, line, v, anchor in zip(perimeters, lines, sol.allocations, sol.anchors):
        tables = [coverage_table(per, a, fleet, sol.objective) for a in range(per.q)]
        if len(perimeters) == 1:
            cells = list(product(*(range(n + 1) for n in fleet.counts)))   # lex order
            assert v in [next((x for x in cells if t.feasible_at(x)), None) for t in tables]
        else:
            assert v in pareto_feasible_vectors(per, fleet, sol.objective)
        assert anchor == next(a for _, a in _by_gap(line) if tables[a].feasible_at(v))


@settings(max_examples=30, deadline=None)
@given(small_instances(), st.integers(min_value=2, max_value=5))
def test_scaling_invariances(inst, k):
    (per,), fleet = inst
    base = solve_lr(per, fleet).objective
    boosted = build_fleet_lr((a * k, n) for a, n in zip(fleet.capabilities, fleet.counts))
    assert solve_lr(per, boosted).objective == base / k
    grown = build_perimeter(
        [s * k for s in per.segments], [g * k for g in per.gaps]
    )
    assert solve_lr(grown, fleet).objective == base * k


@settings(max_examples=30, deadline=None)
@given(small_instances())
def test_extra_robot_never_hurts(inst):
    (per,), fleet = inst
    base = solve_lr(per, fleet).objective
    pairs = list(zip(fleet.capabilities, fleet.counts))
    pairs[0] = (pairs[0][0], pairs[0][1] + 1)
    assert solve_lr(per, build_fleet_lr(pairs)).objective <= base


@settings(max_examples=40, deadline=None)
@given(small_instances(max_m=2))
def test_solution_arcs_are_sound(inst):
    perimeters, fleet = inst
    sol = solve_lr(perimeters, fleet)
    for k, per in enumerate(perimeters):
        arcs = [a for a in sol.arcs if a.perimeter == k]
        anchor_pos = per.seg_start(sol.anchors[k])
        spans = []
        for a in arcs:
            assert 0 < a.length <= fleet.capabilities[a.robot_type] * sol.objective
            assert 0 <= a.start < per.circumference
            rel = (a.start - anchor_pos) % per.circumference
            spans.append((rel, rel + a.length))
        # Relative to the anchor nothing wraps, so plain interval checks work.
        for (s1, e1), (s2, e2) in zip(sorted(spans), sorted(spans)[1:]):
            assert e1 <= s2
        assert all(e <= per.required_span(sol.anchors[k]) for _, e in spans)
    used = [0] * fleet.t
    for v in sol.allocations:
        for tau, c in enumerate(v):
            used[tau] += c
    assert tuple(n - u for n, u in zip(fleet.counts, used)) == sol.unused
    assert len(sol.arcs) == sum(used)


def test_grid_refuses_more_cells_than_the_cap_before_allocating():
    assert _Grid((15,) * 5).total == 16**5        # the largest table1 --full grid
    with pytest.raises(InstanceTooLarge):
        _Grid((400,) * 3)
    per = per_2seg()
    fleet = build_fleet_lr([(1, 400), (2, 400), (3, 400)])
    with pytest.raises(InstanceTooLarge):
        solve_lr(per, fleet)
    for perimeters in ([per], [per, per]):
        with pytest.raises(InstanceTooLarge):
            partition_feasible(perimeters, fleet, F(1))


def test_capability_sums_refuse_the_fleet_solve_lr_refuses():
    # Listing the sums of 10**8 allocation cells took seconds before the cap.
    per, fleet = build_perimeter([5], [1]), build_fleet_lr([(1, 10**4), (2, 10**4)])
    for call in (lambda: solve_lr(per, fleet), lambda: capability_sums(fleet),
                 lambda: ratio_certificate(per, fleet, 5)):
        started = time.perf_counter()
        with pytest.raises(InstanceTooLarge):
            call()
        assert time.perf_counter() - started < 1


def test_solve_cost_does_not_grow_with_the_capabilities():
    # One robot covers from the anchor after the widest gap to the lap's end;
    # listing the capability sums must not walk a range as wide as A = 10**12.
    big = 10**12
    per = per_2seg()
    sol = solve_lr(per, build_fleet_lr([(big, 1)]))
    assert sol.objective == F(6, big)
    assert ratio_certificate(per, build_fleet_lr([(big, 1)]), sol.objective)[3] == big
    sol = solve_lr([per, build_perimeter([5], [5])], build_fleet_lr([(big, 2)]))
    assert sol.objective == F(6, big)
    assert sol.allocations == [(1,), (1,)]
