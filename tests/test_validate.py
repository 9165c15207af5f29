"""The integer validator against the Fraction validator it replaced.

reference_validate_solution below is the Fraction-arithmetic validator
kept as the reference: for any instance and solution, validate_solution
must raise ValidationError with the same message exactly when it does.
"""
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimeterguard.cli import main
from perimeterguard.documents import (
    InstanceDocument,
    SolutionDocument,
    solution_from_lr,
    solution_from_mc,
    write_instance,
    write_solution,
)
from perimeterguard.errors import ValidationError
from perimeterguard.generate import SplitMix64
from perimeterguard.perimeter import Arc, build_perimeter
from perimeterguard.solver_lr import build_fleet_lr, solve_lr
from perimeterguard.solver_mc import build_types_mc, solve_mc_multi
from perimeterguard.validate import validate_solution

F = Fraction


# -- the reference: the Fraction validator, unchanged ---------------------------


def _arc_pieces(start: Fraction, length: Fraction, circumference: Fraction):
    """Split an arc at the zero point; yields linear intervals within [0, C]."""
    end = start + length
    if end <= circumference:
        return [(start, end)]
    return [(start, circumference), (Fraction(0), end - circumference)]


def reference_validate_solution(instance: InstanceDocument, solution: SolutionDocument) -> None:
    """Raise ValidationError unless the solution genuinely solves the instance.

    Checks coverage of every segment, per-arc capacity bounds, pairwise
    disjoint arc interiors, count consistency, and that the claimed
    objective is recomputable from the arcs.
    """
    if solution.problem != instance.problem:
        raise ValidationError(
            f"solution solves {solution.problem!r} but instance is {instance.problem!r}"
        )
    lr = instance.problem == "lr"
    t = instance.fleet.t if lr else instance.types.t
    if len(solution.counts) != t:
        raise ValidationError(f"counts has {len(solution.counts)} entries for {t} types")

    tallies = [0] * t
    by_perimeter: list[list[tuple[Fraction, Fraction]]] = [[] for _ in instance.perimeters]
    for k, arc in enumerate(solution.arcs):
        where = f"arcs[{k}]"
        if not 0 <= arc.perimeter < len(instance.perimeters):
            raise ValidationError(f"{where}: no perimeter {arc.perimeter}")
        if not 0 <= arc.robot_type < t:
            raise ValidationError(f"{where}: no robot type {arc.robot_type}")
        per = instance.perimeters[arc.perimeter]
        if not 0 <= arc.start < per.circumference:
            raise ValidationError(f"{where}: start {arc.start} outside [0, {per.circumference})")
        if arc.length <= 0:
            raise ValidationError(f"{where}: arc length {arc.length} is not positive")
        if arc.length > per.circumference:
            raise ValidationError(f"{where}: arc longer than the whole perimeter")
        if lr:
            limit = instance.fleet.capabilities[arc.robot_type] * solution.objective
            if arc.length > limit:
                raise ValidationError(
                    f"{where}: length {arc.length} exceeds capability x ratio = {limit}"
                )
        else:
            limit = instance.types.lengths[arc.robot_type]
            if arc.length > limit:
                raise ValidationError(f"{where}: length {arc.length} exceeds type length {limit}")
        tallies[arc.robot_type] += 1
        by_perimeter[arc.perimeter].extend(_arc_pieces(arc.start, arc.length, per.circumference))

    if tuple(tallies) != solution.counts:
        raise ValidationError(f"arcs tally to {tuple(tallies)} but counts claim {solution.counts}")
    if lr:
        for tau, n in enumerate(solution.counts):
            if n > instance.fleet.counts[tau]:
                raise ValidationError(
                    f"counts[{tau}] = {n} exceeds the {instance.fleet.counts[tau]} available"
                )

    for k, per in enumerate(instance.perimeters):
        pieces = sorted(by_perimeter[k])
        for (s1, e1), (s2, e2) in zip(pieces, pieces[1:]):
            if e1 > s2:
                raise ValidationError(
                    f"perimeter {k}: arcs overlap on ({s2}, {min(e1, e2)})"
                )
        merged: list[list[Fraction]] = []
        for s, e in pieces:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        for i in range(per.q):
            s, e = per.seg_start(i), per.seg_end(i)
            if not any(ms <= s and e <= me for ms, me in merged):
                raise ValidationError(f"perimeter {k}: segment {i} [{s}, {e}] is not covered")

    if lr:
        worst = max(
            arc.length / instance.fleet.capabilities[arc.robot_type] for arc in solution.arcs
        )
        if worst != solution.objective:
            raise ValidationError(
                f"objective {solution.objective} but the arcs realize max ratio {worst}"
            )
    else:
        if solution.objective.denominator != 1:
            raise ValidationError(f"cost objective {solution.objective} is not an integer")
        spent = sum(n * c for n, c in zip(solution.counts, instance.types.costs))
        if spent != solution.objective:
            raise ValidationError(f"objective {solution.objective} but the robots cost {spent}")


# -- agreement on solver output and its mutations --------------------------------

LENGTHS = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)


@st.composite
def solved_instances(draw):
    """An lr or mc instance with 1-3 perimeters of denominators 1-6, and the
    solver's solution."""
    problem = draw(st.sampled_from(("lr", "mc")))
    perimeters = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(1, 3))
        segments = draw(st.lists(LENGTHS, min_size=q, max_size=q))
        gapless = q == 1 and draw(st.booleans())
        gaps = [] if gapless else draw(st.lists(LENGTHS, min_size=q, max_size=q))
        perimeters.append(build_perimeter(segments, gaps))
    t = draw(st.integers(1, 2 if problem == "lr" else 3))
    if problem == "lr":
        capabilities = draw(st.lists(st.integers(1, 6), min_size=t, max_size=t))
        counts = draw(st.lists(st.integers(1, 3), min_size=t, max_size=t))
        counts[0] += max(0, len(perimeters) - sum(counts))
        fleet = build_fleet_lr(zip(capabilities, counts))
        instance = InstanceDocument("lr", tuple(perimeters), fleet=fleet)
        return instance, solution_from_lr(solve_lr(perimeters, fleet))
    lengths = draw(st.lists(st.integers(1, 6), min_size=t, max_size=t))
    costs = draw(st.lists(st.integers(1, 9), min_size=t, max_size=t))
    types = build_types_mc(zip(lengths, costs))
    instance = InstanceDocument("mc", tuple(perimeters), types=types)
    return instance, solution_from_mc(solve_mc_multi(perimeters, types))


def _retally(instance, arcs):
    t = len(instance.fleet.counts if instance.problem == "lr" else instance.types.costs)
    counts = [0] * t
    for arc in arcs:
        if 0 <= arc.robot_type < t:
            counts[arc.robot_type] += 1
    return tuple(counts)


MUTATIONS = (
    "shift", "stretch", "drop", "duplicate", "wrap", "negative", "at_circumference",
    "zero", "perimeter", "type", "off_grid", "objective", "counts",
)


def mutate(draw, instance, sol, kind):
    """A solver solution with one planted defect of the given kind."""
    arcs = list(sol.arcs)
    if kind == "objective":
        factor, shift = draw(st.sampled_from(((F(1, 2), 0), (F(2), 0), (1, F(-1, 7)), (1, F(1, 7)))))
        return replace(sol, objective=sol.objective * factor + shift)
    if kind == "counts":
        tau = draw(st.integers(0, len(sol.counts) - 1))
        counts = list(sol.counts)
        counts[tau] += draw(st.sampled_from((-1, 1)))
        return replace(sol, counts=tuple(counts))
    if not arcs:
        return sol
    k = draw(st.integers(0, len(arcs) - 1))
    arc = arcs[k]
    # An earlier mutation may have left a bad perimeter index on this arc.
    circ = instance.perimeters[min(max(arc.perimeter, 0), len(instance.perimeters) - 1)].circumference
    if kind == "shift":
        arcs[k] = replace(arc, start=arc.start + draw(st.sampled_from((F(-1, 7), F(1, 7)))))
    elif kind == "stretch":
        arcs[k] = replace(arc, length=arc.length + draw(st.sampled_from((F(1, 7), F(1, 2), F(1)))))
    elif kind == "drop":
        del arcs[k]
    elif kind == "duplicate":
        arcs.append(arc)
    elif kind == "wrap":
        arcs[k] = replace(arc, start=circ - arc.length / 2)
    elif kind == "negative":
        arcs[k] = replace(arc, start=draw(st.sampled_from((F(-1, 7), -arc.start - 1))))
    elif kind == "at_circumference":
        arcs[k] = replace(arc, start=circ)
    elif kind == "zero":
        arcs[k] = replace(arc, length=F(0))
    elif kind == "perimeter":
        arcs[k] = replace(arc, perimeter=draw(st.sampled_from((-1, len(instance.perimeters)))))
    elif kind == "type":
        arcs[k] = replace(arc, robot_type=draw(st.sampled_from((-1, len(sol.counts)))))
    elif kind == "off_grid":
        field = draw(st.sampled_from(("start", "length")))
        arcs[k] = replace(arc, **{field: getattr(arc, field) + F(1, 11)})
    counts = _retally(instance, arcs) if draw(st.booleans()) else sol.counts
    return replace(sol, arcs=tuple(arcs), counts=counts)


def outcome(validate, instance, solution):
    try:
        validate(instance, solution)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_agrees_with_the_fraction_validator(data):
    instance, sol = data.draw(solved_instances())
    assert outcome(validate_solution, instance, sol) is None
    # Every kind of defect alone, then two drawn kinds on top of each other.
    cases = [mutate(data.draw, instance, sol, kind) for kind in MUTATIONS]
    first, second = data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=2, max_size=2))
    cases.append(mutate(data.draw, instance, mutate(data.draw, instance, sol, first), second))
    for case in cases:
        assert outcome(validate_solution, instance, case) == outcome(
            reference_validate_solution, instance, case
        )


# -- the bound on the validator's scale ------------------------------------------


def _primes(n):
    found, k = [], 2
    while len(found) < n:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def prime_denominator_case(n=2000):
    """An mc solution of n arcs, each with its own prime denominator."""
    per = build_perimeter([n], [])
    instance = InstanceDocument("mc", (per,), types=build_types_mc([(1, 1)]))
    arcs = tuple(
        Arc(perimeter=0, robot_type=0, start=F(k), length=F(p - 1, p))
        for k, p in enumerate(_primes(n))
    )
    return instance, SolutionDocument("mc", F(n), arcs, (n,))


def test_scale_bound_stops_distinct_prime_denominators():
    instance, sol = prime_denominator_case()
    tick = time.perf_counter()
    with pytest.raises(ValidationError, match="common denominator of over"):
        validate_solution(instance, sol)
    assert time.perf_counter() - tick < 1.0


def test_render_refuses_distinct_prime_denominators(tmp_path, capsys):
    instance, sol = prime_denominator_case()
    (tmp_path / "i.json").write_text(write_instance(instance))
    (tmp_path / "s.json").write_text(write_solution(sol))
    code = main(["render", "--input", str(tmp_path / "i.json"),
                 "--solution", str(tmp_path / "s.json"), "--out", str(tmp_path / "p.svg")])
    assert code == 2
    assert "common denominator of over" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


def _rand_length(rng):
    den = rng.randint(1, 6)
    return F(rng.randint(1, 8 * den), den)


def test_solver_output_sits_on_the_instance_grid():
    # mc arcs share the instance's grid and lr arcs that grid times the
    # objective's denominator, so solver output never nears the bound.
    rng = SplitMix64(995)
    checked = 0
    for k in range(120):
        perimeters = []
        for _ in range(1 + k % 3):
            q = rng.randint(1, 3)
            gaps = [] if q == 1 and rng.randint(0, 2) == 0 else [_rand_length(rng) for _ in range(q)]
            perimeters.append(build_perimeter([_rand_length(rng) for _ in range(q)], gaps))
        if k % 2:
            fleet = build_fleet_lr((rng.randint(1, 6), rng.randint(1, 3)) for _ in range(2))
            fleet = build_fleet_lr(zip(fleet.capabilities, (n + 2 for n in fleet.counts)))
            instance = InstanceDocument("lr", tuple(perimeters), fleet=fleet)
            sol = solution_from_lr(solve_lr(perimeters, fleet))
        else:
            types = build_types_mc((rng.randint(1, 8), rng.randint(1, 9)) for _ in range(3))
            instance = InstanceDocument("mc", tuple(perimeters), types=types)
            sol = solution_from_mc(solve_mc_multi(perimeters, types))
        grid = math.lcm(*(x.denominator for per in perimeters for x in (*per.segments, *per.gaps)))
        grid *= sol.objective.denominator
        for arc in sol.arcs:
            assert grid % arc.start.denominator == 0 and grid % arc.length.denominator == 0
        validate_solution(instance, sol)
        checked += 1
    assert checked == 120


def test_overlap_reports_the_first_pair_in_start_end_order():
    # Pieces sort by (start, end): of three arcs from 2, the shortest follows
    # the arc from 0, whatever order the arcs come in.
    per = build_perimeter([10], [])
    instance = InstanceDocument("mc", (per,), types=build_types_mc([(10, 1)]))
    arcs = tuple(Arc(0, 0, F(s), F(n)) for s, n in ((0, 6), (2, 5), (2, 1), (2, 3)))
    sol = SolutionDocument("mc", F(4), arcs, (4,))
    message = "perimeter 0: arcs overlap on (2, 3)"
    assert outcome(reference_validate_solution, instance, sol) == message
    assert outcome(validate_solution, instance, sol) == message


def test_objective_one_step_above_the_worst_ratio():
    # At objective 3 + 1/7 the validator's scale is 7, and the longest arc
    # sits one step (1/7) below capability x objective.
    per = build_perimeter([2, 3], [1, 2])
    fleet = build_fleet_lr([(1, 2)])
    instance = InstanceDocument("lr", (per,), fleet=fleet)
    sol = solution_from_lr(solve_lr([per], fleet))
    assert sol.objective == 3
    lied = replace(sol, objective=F(22, 7))
    message = "objective 22/7 but the arcs realize max ratio 3"
    assert outcome(reference_validate_solution, instance, lied) == message
    assert outcome(validate_solution, instance, lied) == message
