"""Fixed-fleet ratio solver: tables, feasibility, optimum, reconstruction."""
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimeterguard import solver_lr
from perimeterguard.errors import ReconstructionMismatch, ValidationError
from perimeterguard.generate import gen_random
from perimeterguard.oracle import brute_feasible_lr, brute_feasible_lr_multi, brute_solve_lr
from perimeterguard.perimeter import build_perimeter
from perimeterguard.solver_lr import (
    _at_ell,
    _fill_table,
    _lex_first,
    _minimal,
    _pareto_layer,
    _strides,
    build_fleet_lr,
    coverage_table,
    feasible,
    inc,
    pareto_feasible_vectors,
    partition_feasible,
    ratio_certificate,
    reconstruct_lr,
    solve_lr,
)

F = Fraction


def per_2seg():
    return build_perimeter([2, 3], [1, 2])


def test_inc_steps_over_gaps():
    per = per_2seg()
    assert inc(per, 0, F(0), F(3)) == 3
    assert inc(per, 0, F(3), F(3)) == 6
    assert inc(per, 0, F(0), F(2)) == 3   # lands on the gap start, slides to its end
    assert inc(per, 0, F(3), F(10)) == 6  # clamps at the working range
    assert inc(per, 1, F(0), F(3)) == 5


def test_minimal_closes_upward_and_keeps_minimal_cells():
    # On a 3x3 grid, (2, 1) lies above (1, 0): only (0, 2) and (1, 0) are minimal,
    # and the closure is every cell but (0, 0) and (0, 1).
    sizes = [3, 3]
    strides, total = _strides(sizes)
    marked = bytearray(total)
    for x0, x1 in ((1, 0), (2, 1), (0, 2)):
        marked[x0 * strides[0] + x1] = 1
    assert _minimal(marked, sizes, strides) == [(2, (0, 2)), (3, (1, 0))]
    assert marked == bytearray([0, 0, 1, 1, 1, 1, 1, 1, 1])


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


def test_solve_with_an_anchor_infeasible_at_the_upper_bound():
    # The upper bound (circumference - widest gap) / a_min = 3 is what one
    # robot needs from anchor 1; from anchor 0 it must also cross the wide gap.
    per = build_perimeter([1, 1], [5, 1])
    fleet = build_fleet_lr([(1, 1)])
    assert not coverage_table(per, 0, fleet, F(3)).feasible_at((1,))
    sol = solve_lr(per, fleet)
    assert sol.objective == 3
    assert sol.anchors == [1]


@pytest.mark.parametrize("t, q, m, tables", [(2, 20, 1, 50), (4, 20, 1, 54), (2, 6, 3, 318)])
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
    assert sol.feasibility_calls == 318
    assert calls == {"integer_anchors": 1, "coverage_table": 0, "_pareto_layer": 318 // 6}


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
    assert sol.feasibility_calls == 18    # 24 with every layer rebuilt


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
    sizes = [n + 1 for n in fleet.counts]
    strides, total = _strides(sizes)
    done = bytearray(total)
    for idx in data.draw(st.lists(st.integers(min_value=1, max_value=total - 1), max_size=3)):
        done[idx] = 1
    _minimal(done, sizes, strides)  # closes done upward in place
    values, backptr, hit = _fill_table(*lap, steps, fleet.counts, False)
    open_values, open_backptr, open_hit = _fill_table(*lap, steps, fleet.counts, False, done=done)
    open_cells = [idx for idx in range(total) if not done[idx]]
    assert [open_values[i] for i in open_cells] == [values[i] for i in open_cells]
    assert [open_backptr[i] for i in open_cells] == [backptr[i] for i in open_cells]
    assert open_hit == next((i for i in open_cells if values[i] >= lap[1][-1]), -1)


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
    values, backptr, _ = _fill_table(*lap, steps, fleet.counts, False)
    sub_values, sub_backptr, _ = _fill_table(*lap, steps, v, False)
    strides, _ = _strides([n + 1 for n in fleet.counts])
    for sub_idx, x in enumerate(product(*(range(n + 1) for n in v))):
        idx = sum(c * s for c, s in zip(x, strides))
        assert (sub_values[sub_idx], sub_backptr[sub_idx]) == (values[idx], backptr[idx])


@settings(max_examples=40, deadline=None)
@given(small_instances(max_m=3), small_ratios)
def test_pareto_layer_matches_full_tables(inst, ell):
    """Minimal vectors feasible from some anchor's full table."""
    perimeters, fleet = inst
    grids, steps = _at_ell(perimeters, fleet, ell)
    for per, line in zip(perimeters, grids):
        tables = [coverage_table(per, a, fleet, ell) for a in range(per.q)]
        covering = {x for x in product(*(range(n + 1) for n in fleet.counts))
                    if any(table.feasible_at(x) for table in tables)}
        minimal = [
            x for x in covering
            if not any(c and x[:k] + (c - 1,) + x[k + 1:] in covering for k, c in enumerate(x))
        ]
        assert _pareto_layer(line, fleet.counts, steps) == sorted(minimal)


@settings(max_examples=150, deadline=None)
@given(small_instances(max_q=7))
def test_lex_first_over_live_anchors_matches_a_full_scan(inst):
    (per,), fleet = inst
    scans = []

    def spy(line, steps, counts, anchors):
        scans.append((_lex_first(line, steps, counts, anchors),
                      _lex_first(line, steps, counts, range(per.q))))
        return scans[-1][0]

    with mock.patch.object(solver_lr, "_lex_first", spy):
        solve_lr(per, fleet)
    [(live, full)] = scans
    assert live == full


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
    """Every perimeter gets a minimal vector, from the smallest anchor whose
    table covers it; on one perimeter the vector is the lex-first one."""
    perimeters, fleet = inst
    sol = solve_lr(perimeters, fleet)
    for per, v, anchor in zip(perimeters, sol.allocations, sol.anchors):
        layer = pareto_feasible_vectors(per, fleet, sol.objective)
        assert v in layer
        if len(perimeters) == 1:
            assert v == layer[0]
        assert anchor == min(a for a in range(per.q)
                             if coverage_table(per, a, fleet, sol.objective).feasible_at(v))


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
    assert len(sol.arcs) <= sum(used)
