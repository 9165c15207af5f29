"""JSON document parsing, serialization, and independent re-validation."""
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from perimeterguard.documents import (
    InstanceDocument,
    SolutionDocument,
    parse_instance,
    parse_solution,
    solution_from_lr,
    solution_from_mc,
    write_instance,
    write_solution,
)
from perimeterguard.errors import ParseError, ValidationError
from perimeterguard.perimeter import Arc, build_perimeter
from perimeterguard.solver_lr import build_fleet_lr, solve_lr
from perimeterguard.solver_mc import build_types_mc, solve_mc_multi
from perimeterguard.validate import validate_solution

F = Fraction

LR_DOC = """
{
  "problem": "lr",
  "perimeters": [{"segments": [2, 3], "gaps": [1, 2]}],
  "types": [{"capability": 1, "count": 2}]
}
"""

MC_DOC = """
{
  "problem": "mc",
  "perimeters": [{"segments": [2, 3], "gaps": [1, 2]}],
  "types": [{"length": 3, "cost": 2}, {"length": 5, "cost": 3}]
}
"""


def test_parse_minimal_lr():
    doc = parse_instance(LR_DOC)
    assert doc.problem == "lr"
    assert doc.perimeters == (build_perimeter([2, 3], [1, 2]),)
    assert doc.fleet == build_fleet_lr([(1, 2)])
    assert doc.types is None and doc.ell is None and doc.seed is None


def test_parse_accepts_bytes_and_rational_strings():
    doc = parse_instance(
        b'{"problem": "lr", "perimeters": [{"segments": ["5/2", "2.5"], "gaps": ["1", 2]}],'
        b' "types": [{"capability": 3, "count": 1}]}'
    )
    assert doc.perimeters[0].segments == (F(5, 2), F(5, 2))


def test_parse_polygon_entry():
    doc = parse_instance(json.dumps({
        "problem": "mc",
        "perimeters": [{"polygon": {
            "vertices": [[0, 0], [3, 0], [3, 4]],
            "guarded": [True, True, False],
        }}],
        "types": [{"length": 4, "cost": 1}],
    }))
    per = doc.perimeters[0]
    assert per.segments == (F(7),)   # 3 then 4, merged along the walk
    assert per.gaps == (F(5),)


def test_parse_error_paths():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("{nope")
    with pytest.raises(ParseError, match="instance: missing required field"):
        parse_instance("{}")
    with pytest.raises(ParseError, match=r"perimeters\[0\].segments\[1\]"):
        parse_instance(
            '{"problem": "lr", "perimeters": [{"segments": [2, 0.5]}],'
            ' "types": [{"capability": 1, "count": 1}]}'
        )
    with pytest.raises(ParseError, match=r"types\[0\].count"):
        parse_instance(
            '{"problem": "lr", "perimeters": [{"segments": [2]}],'
            ' "types": [{"capability": 1, "count": "two"}]}'
        )


def test_deep_nesting_is_a_parse_error():
    for text in ("[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"a":' * 50_000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_instance(text)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_solution("[" * 100_000)


def test_non_utf8_bytes_are_a_parse_error():
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_instance(b"\xff\xfe{}")


def test_exponent_strings_are_rejected():
    for text in ("1e5000", "2E3", "1.5e-2"):
        doc = json.loads(MC_DOC)
        doc["perimeters"][0]["segments"][0] = text
        with pytest.raises(ParseError, match="exponent"):
            parse_instance(json.dumps(doc))
    # Fraction() takes these too, but the documented syntax does not.
    for text in ("1_000", " 3 ", "+3", ".5", "5.", "٣", "3\n", "1/0", "-", "1/-2"):
        doc = json.loads(MC_DOC)
        doc["perimeters"][0]["segments"][0] = text
        with pytest.raises(ParseError, match="cannot parse"):
            parse_instance(json.dumps(doc))
    doc = json.loads(MC_DOC)
    doc["perimeters"][0]["segments"] = ["9/4", "2.25"]
    doc["perimeters"][0]["gaps"] = ["007/2", "1.0"]
    per = parse_instance(json.dumps(doc)).perimeters[0]
    assert (per.segments, per.gaps) == ((F(9, 4), F(9, 4)), (F(7, 2), F(1)))


def test_validation_error_paths():
    with pytest.raises(ValidationError, match="problem"):
        parse_instance('{"problem": "xx", "perimeters": [], "types": []}')
    with pytest.raises(ValidationError, match=r"perimeters\[0\]"):
        parse_instance(
            '{"problem": "lr", "perimeters": [{"segments": [2, 3], "gaps": [1]}],'
            ' "types": [{"capability": 1, "count": 1}]}'
        )
    with pytest.raises(ValidationError, match="ell"):
        parse_instance(MC_DOC.replace('"problem": "mc"', '"problem": "mc", "ell": 1'))
    with pytest.raises(ValidationError, match="budget"):
        parse_instance(LR_DOC.replace('"problem": "lr"', '"problem": "lr", "budget": 1'))


def test_decision_fields():
    doc = parse_instance(LR_DOC.replace('"problem": "lr"', '"problem": "lr", "ell": "5/2"'))
    assert doc.ell == F(5, 2)
    doc = parse_instance(MC_DOC.replace('"problem": "mc"', '"problem": "mc", "budget": 9'))
    assert doc.budget == 9


def test_instance_round_trip():
    for text in (LR_DOC, MC_DOC):
        first = parse_instance(text)
        again = parse_instance(write_instance(first))
        assert again == first
    with_extras = parse_instance(
        MC_DOC.replace('"problem": "mc"', '"problem": "mc", "budget": "7", "seed": 3,'
                       ' "metadata": {"origin": "unit test"}')
    )
    assert parse_instance(write_instance(with_extras)) == with_extras


def test_solution_round_trip():
    instance = parse_instance(LR_DOC)
    sol = solution_from_lr(solve_lr(instance.perimeters, instance.fleet), wall_time=0.25)
    assert sol.stats["wall_time_seconds"] == 0.25
    again = parse_solution(write_solution(sol))
    assert again == sol

    instance = parse_instance(MC_DOC)
    sol = solution_from_mc(solve_mc_multi(instance.perimeters, instance.types))
    assert parse_solution(write_solution(sol)) == sol


def test_solution_from_lr_counts_deployed_robots():
    instance = parse_instance(LR_DOC)
    sol = solve_lr(instance.perimeters, instance.fleet)
    doc = solution_from_lr(sol)
    assert doc.counts == (2,)
    assert doc.objective == 3


# -- the independent re-validator ----------------------------------------------


def lr_case():
    instance = parse_instance(LR_DOC)
    sol = solution_from_lr(solve_lr(instance.perimeters, instance.fleet))
    return instance, sol


def mc_case():
    instance = parse_instance(MC_DOC)
    sol = solution_from_mc(solve_mc_multi(instance.perimeters, instance.types))
    return instance, sol


def test_validate_accepts_solver_output():
    for instance, sol in (lr_case(), mc_case()):
        validate_solution(instance, sol)


def test_validate_rejects_wrong_problem():
    instance, sol = lr_case()
    with pytest.raises(ValidationError, match="instance is"):
        validate_solution(instance, replace(sol, problem="mc"))


def test_validate_rejects_uncovered_segment():
    instance, sol = lr_case()
    broken = replace(sol, arcs=sol.arcs[:1], counts=(1,))
    with pytest.raises(ValidationError, match="not covered"):
        validate_solution(instance, broken)


def test_validate_rejects_overlap():
    instance, sol = mc_case()
    doubled = replace(
        sol,
        arcs=sol.arcs + (sol.arcs[0],),
        counts=tuple(
            c + (1 if tau == sol.arcs[0].robot_type else 0)
            for tau, c in enumerate(sol.counts)
        ),
    )
    with pytest.raises(ValidationError, match="overlap"):
        validate_solution(instance, doubled)


def test_validate_rejects_capacity_violation():
    instance, sol = lr_case()
    lied = replace(sol, objective=sol.objective / 2)
    with pytest.raises(ValidationError, match="exceeds capability"):
        validate_solution(instance, lied)


def test_validate_rejects_inflated_objective():
    instance, sol = lr_case()
    lied = replace(sol, objective=sol.objective * 2)
    with pytest.raises(ValidationError, match="realize max ratio"):
        validate_solution(instance, lied)

    instance, sol = mc_case()
    lied = replace(sol, objective=sol.objective + 1)
    with pytest.raises(ValidationError, match="the robots cost"):
        validate_solution(instance, lied)


def test_validate_rejects_count_lies():
    instance, sol = lr_case()
    with pytest.raises(ValidationError, match="tally"):
        validate_solution(instance, replace(sol, counts=(1,)))


def test_validate_rejects_too_many_robots():
    per = build_perimeter([2, 3], [1, 2])
    instance = InstanceDocument(
        problem="lr", perimeters=(per,), fleet=build_fleet_lr([(1, 1)])
    )
    fake = SolutionDocument(
        problem="lr",
        objective=F(3),
        arcs=(
            Arc(perimeter=0, robot_type=0, start=F(0), length=F(3)),
            Arc(perimeter=0, robot_type=0, start=F(3), length=F(3)),
        ),
        counts=(2,),
    )
    with pytest.raises(ValidationError, match="available"):
        validate_solution(instance, fake)


def test_validate_accepts_wrapping_arc():
    per = build_perimeter([4], [])
    instance = InstanceDocument(
        problem="mc", perimeters=(per,), types=build_types_mc([(4, 1)])
    )
    wrapped = SolutionDocument(
        problem="mc",
        objective=F(1),
        arcs=(Arc(perimeter=0, robot_type=0, start=F(3), length=F(4)),),
        counts=(1,),
    )
    validate_solution(instance, wrapped)
