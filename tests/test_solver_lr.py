"""Fixed-fleet ratio solver: tables, feasibility, optimum, reconstruction.

_minimal and _fold_step below are the list-and-dict Pareto fold the
solver used before it kept allocation sets as bitsets (_Grid); they stay
here as references for _Grid.minimal, _fold_layers and _Grid.split.  inc
is the reach recurrence's step on Perimeter's exact geometry.
"""
import ast
import inspect
import math
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
from perimeterguard.perimeter import build_perimeter
from perimeterguard.solver_lr import (
    _at_ell,
    _bits,
    _fill_table,
    _fold_layers,
    _Grid,
    _pareto_layer,
    _search,
    build_fleet_lr,
    coverage_table,
    feasible,
    pareto_feasible_vectors,
    partition_feasible,
    ratio_certificate,
    reconstruct_lr,
    solve_lr,
)
from perimeterguard.validate import validate_solution

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
        "feasible": [(False, None), (True, 0), (True, 0), (True, 0)],
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
    assert sol.feasibility_calls == 1
    # Both anchors fit at the lower bound; the search tries anchor 1 (after
    # the first widest gap) and stops, but the witness is still anchor 0.
    per = build_perimeter([2, 2], [1, 1])
    sol = solve_lr(per, build_fleet_lr([(1, 2)]))
    assert sol.objective == 2
    assert sol.feasibility_calls == 1
    assert sol.anchors == [0]


def test_solve_with_anchors_tied_at_the_optimum():
    # Rotationally symmetric, so every anchor has the same optimum.
    per = build_perimeter([3, 3, 3], [1, 1, 1])
    fleet = build_fleet_lr([(2, 2), (1, 1)])
    sol = solve_lr(per, fleet)
    assert sol.objective == brute_solve_lr(per, fleet)
    assert all(coverage_table(per, a, fleet, sol.objective).feasible_at(fleet.counts)
               for a in range(per.q))
    assert sol.anchors == [0]


def test_solve_witness_is_the_last_improving_anchors_cell_on_a_tie():
    # An anchor visited after the last improvement ties at ell* = 3 with the
    # lex-smaller cell (2, 0); the witness is the lex-first covering cell of
    # the anchor behind the last improvement, (2, 1), read from anchor 0.
    per = build_perimeter([3, 4, 3, 4, 3], [5, 5, 1, 1, 5])
    fleet = build_fleet_lr([(4, 2), (1, 1)])
    sol = solve_lr(per, fleet)
    assert sol.objective == 3
    assert sol.allocations == [(2, 1)]
    assert sol.anchors == [0]
    assert any(coverage_table(per, a, fleet, F(3)).feasible_at((2, 0)) for a in range(per.q))
    validate_solution(InstanceDocument("lr", (per,), fleet=fleet), solution_from_lr(sol))


def test_solve_leaves_the_robot_a_smaller_anchor_does_not_need_unused():
    # The best anchor's lex-first cell holds a type-0 robot that the witness
    # anchor, smaller, does not need: it gets no arc and stays unused.
    cases = [
        (build_perimeter([6, 6, 2, 3], [3, 4, 3, 3]), [(1, 1), (6, 2)], (0, 2)),
        (build_perimeter([4, 3, 2, 1, 4], [2, 2, 3, 3, 2]), [(1, 1), (3, 1), (2, 3)], (0, 1, 3)),
    ]
    for per, pairs, used in cases:
        fleet = build_fleet_lr(pairs)
        sol = solve_lr(per, fleet)
        assert sol.objective == brute_solve_lr([per], fleet) == 2
        assert sol.allocations == [used]
        assert sol.unused == (1,) + (0,) * (fleet.t - 1)
        validate_solution(InstanceDocument("lr", (per,), fleet=fleet), solution_from_lr(sol))


def test_solve_witness_comes_from_the_last_improvement():
    # Anchor 3, after the widest gap, is searched first: its optimum 11/3
    # needs only (0, 3), which covers from no anchor at the optimum 10/3.
    per = build_perimeter([4, 6, 4, 1, 5, 4], [5, 1, 6, 5, 6, 2])
    fleet = build_fleet_lr([(2, 1), (3, 3)])
    assert coverage_table(per, 3, fleet, F(11, 3)).feasible_at((0, 3))
    sol = solve_lr(per, fleet)
    assert sol.objective == F(10, 3)
    assert sol.allocations == [(1, 3)]
    assert sol.anchors == [1]


def test_solve_with_an_anchor_infeasible_at_the_upper_bound():
    # The upper bound (circumference - widest gap) / a_min = 3 is what one
    # robot needs from anchor 1; from anchor 0 it must also cross the wide gap.
    per = build_perimeter([1, 1], [5, 1])
    fleet = build_fleet_lr([(1, 1)])
    assert not coverage_table(per, 0, fleet, F(3)).feasible_at((1,))
    sol = solve_lr(per, fleet)
    assert sol.objective == 3
    assert sol.anchors == [1]


@pytest.mark.parametrize("t, q, m, tables", [(2, 20, 1, 36), (4, 20, 1, 39), (2, 6, 3, 204)])
def test_feasibility_calls_pinned(t, q, m, tables):
    """Reach tables the ratio search fills, on seeded instances: more means the
    search does more work than it did when these were pinned."""
    doc = gen_random("lr", t, q, m, seed=0)
    assert solve_lr(list(doc.perimeters), doc.fleet).feasibility_calls == tables


def test_solve_scales_once_and_draws_no_layer_after_the_search():
    """The witness comes from the search's last "yes": one integer scaling,
    no coverage_table, and one layer of q tables per layer the search drew."""
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
    assert sol.feasibility_calls == 204
    assert calls == {"integer_anchors": 1, "coverage_table": 0, "_pareto_layer": 204 // 6}


def test_solve_fills_only_the_search_tables_and_one_witness_tail():
    """One perimeter: the search's 36 tables, then the witness table, bounded
    by the witness vector, from anchor 0, the first that reaches it."""
    doc = gen_random("lr", 2, 20, 1, seed=0)
    real, calls = solver_lr._fill_table, []

    def spy(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    with mock.patch.object(solver_lr, "_fill_table", spy):
        sol = solve_lr(list(doc.perimeters), doc.fleet)
    assert sol.feasibility_calls == 36
    assert len(calls) == 37
    assert calls[-1] == sol.allocations[0] and sol.anchors == [0]
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

    def spy(line, counts, steps):
        built.setdefault(tuple(steps), []).append(len(line[0]) // 2)
        return real(line, counts, steps)

    with mock.patch.object(solver_lr, "_pareto_layer", spy):
        sol = solve_lr(pers, fleet)
    assert sol.objective == 2
    assert sol.allocations == [(1,), (2,)]
    assert [2] in built.values()          # a step filled 2 of the m·q = 3 tables
    assert sol.feasibility_calls == 8     # 9 with every layer rebuilt


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
@example(([6], [1, 2, 3, 4], F(3, 2), F(3, 2), F(6)))   # lo is the answer: one probe
@example(([5, 7], [2, 3], F(5, 2), F(2), F(5, 2)))     # hi is the answer: probed last
def test_search_returns_the_smallest_passing_candidate(window):
    spans, sums, c, lo, hi = window
    candidates = {F(s, d) for s in spans for d in sums if lo <= F(s, d) <= hi}
    probes = []

    def check(r):
        probes.append(r)
        assert len(probes) <= len(candidates), "more probes than candidates"
        return r if r >= c else None

    assert _search(lo, hi, spans, sums, check) == (c, c)
    assert set(probes) <= candidates


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
    values, backptr, _ = _fill_table(*lap, steps, fleet.counts, bytearray(total))
    open_cells = [idx for idx in range(total) if not done[idx]]
    marked = bytes(done)
    open_values, open_backptr, open_hit = _fill_table(*lap, steps, fleet.counts, done)
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
    values, backptr, _ = _fill_table(*lap, steps, fleet.counts, bytearray(grid.total))
    sub_values, sub_backptr, _ = _fill_table(*lap, steps, v, bytearray(sub_grid.total))
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
        assert _pareto_layer(line, fleet.counts, steps) == sum(
            1 << sum(c * s for c, s in zip(x, strides)) for x in covering
        )
        assert pareto_feasible_vectors(per, fleet, ell) == sorted(minimal)


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
    """Every perimeter's vector comes from the smallest anchor whose table
    covers it.  On one perimeter it is the lex-first covering cell of some
    anchor; on several it is a minimal vector of its perimeter."""
    perimeters, fleet = inst
    sol = solve_lr(perimeters, fleet)
    for per, v, anchor in zip(perimeters, sol.allocations, sol.anchors):
        tables = [coverage_table(per, a, fleet, sol.objective) for a in range(per.q)]
        if len(perimeters) == 1:
            cells = list(product(*(range(n + 1) for n in fleet.counts)))   # lex order
            assert v in [next((x for x in cells if t.feasible_at(x)), None) for t in tables]
        else:
            assert v in pareto_feasible_vectors(per, fleet, sol.objective)
        assert anchor == min(a for a, t in enumerate(tables) if t.feasible_at(v))


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
    with pytest.raises(InstanceTooLarge):
        partition_feasible([per], fleet, F(1))


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
