"""JSON document parsing, serialization, and independent re-validation."""
import contextlib
import copy
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimeterguard import documents, perimeter
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
from perimeterguard.errors import GuardingError, ParseError, ValidationError
from perimeterguard.generate import gen_random
from perimeterguard.perimeter import Arc, build_perimeter
from perimeterguard.rationals import to_fraction
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


def test_parse_polygon_rounds_irrational_edges_to_nearest():
    """Edge 0 is sqrt(10)/(2 * 10^6) long: 1.58 millionths, so 2 of them."""
    doc = parse_instance(json.dumps({
        "problem": "mc",
        "perimeters": [{"polygon": {
            "vertices": [[0, 0], ["3/2000000", "1/2000000"], [0, 1]],
            "guarded": [True, False, False],
        }}],
        "types": [{"length": 1, "cost": 1}],
    }))
    assert doc.perimeters[0].segments == (F(1, 500000),)
    assert doc.notes[0] == ("perimeters[0]: edge 0: irrational length sqrt(1/400000000000) "
                            "quantized to 1/500000 (denominator 1000000)")


def test_floats_are_refused_with_their_path():
    message = ': floats are inexact, write the value as a string like "5/2"$'
    lr = json.loads(LR_DOC)
    polygon = {"vertices": [[0, 0], [3, 0.5], [3, 4]], "guarded": [True, True, False]}
    docs = {
        r"perimeters\[0\]\.segments\[1\]": {**lr, "perimeters": [{"segments": [2, 0.5]}]},
        r"perimeters\[0\]\.polygon\.vertices\[1\]\[1\]":
            {**lr, "perimeters": [{"polygon": polygon}]},
        r"instance\.ell": {**lr, "ell": 2.5},
    }
    for path, doc in docs.items():
        with pytest.raises(ParseError, match="^" + path + message):
            parse_instance(json.dumps(doc))
    sol = json.loads(write_solution(SolutionDocument("lr", F(3), (), (2,))))
    with pytest.raises(ParseError, match=r"^solution\.objective" + message):
        parse_solution(json.dumps({**sol, "objective": 3.0}))


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
    for polygon, path, what in (
        ('{"vertices": [[0, 0], [3, 0, 1], [3, 4]], "guarded": [true, true, false]}',
         r"vertices\[1\]", r"expected \[x, y\]"),
        ('{"vertices": [[0, 0], [3, 0], [3, 4]], "guarded": [true, 1, false]}',
         r"guarded\[1\]", "expected true or false"),
    ):
        with pytest.raises(ParseError, match=rf"^perimeters\[0\]\.polygon\.{path}: {what}$"):
            parse_instance(
                f'{{"problem": "lr", "perimeters": [{{"polygon": {polygon}}}],'
                ' "types": [{"capability": 1, "count": 1}]}'
            )


_TRIANGLE = {"vertices": [[0, 0], [3, 0], [3, 4]], "guarded": [True, True, False]}
_FLOAT = 'floats are inexact, write the value as a string like "5/2"'

# One perimeter entry with one fault each, and the (error class, message)
# parse_instance gives it as the second perimeter of an otherwise valid document.
PERIMETER_FAULTS = [
    ("x", ParseError, "perimeters[1]: expected an object, got str"),
    ({"gaps": [1]}, ParseError, "perimeters[1]: missing required field 'segments'"),
    ({"segments": 5}, ParseError, "perimeters[1].segments: expected an array, got int"),
    ({"segments": [2], "gaps": "x"}, ParseError,
     "perimeters[1].gaps: expected an array, got str"),
    ({"segments": [2, 0.5], "gaps": [1, 1]}, ParseError, f"perimeters[1].segments[1]: {_FLOAT}"),
    ({"segments": [2, 3], "gaps": [True, 1]}, ParseError,
     "perimeters[1].gaps[0]: expected a rational, got a bool"),
    ({"segments": ["1e3", 3], "gaps": [1, 1]}, ParseError,
     "perimeters[1].segments[0]: exponent forms are not accepted, got '1e3'"),
    ({"segments": [2, 3], "gaps": [1, "3/"]}, ParseError,
     "perimeters[1].gaps[1]: cannot parse rational from '3/'"),
    ({"segments": [], "gaps": []}, ValidationError,
     "perimeters[1]: at least one guarded segment is required"),
    ({"segments": [2, 3], "gaps": [1]}, ValidationError,
     "perimeters[1]: 2 segments need 2 gaps (or none for a single fully guarded circle), got 1"),
    ({"segments": [2, 0], "gaps": [1, 1]}, ValidationError,
     "perimeters[1]: segment 1 has non-positive length 0"),
    ({"segments": [2, 3], "gaps": [1, "-1/2"]}, ValidationError,
     "perimeters[1]: gap 1 has non-positive length -1/2"),
    ({"polygon": [[0, 0]]}, ParseError, "perimeters[1].polygon: expected an object, got list"),
    ({"polygon": {"guarded": _TRIANGLE["guarded"]}}, ParseError,
     "perimeters[1].polygon: missing required field 'vertices'"),
    ({"polygon": {**_TRIANGLE, "vertices": 3}}, ParseError,
     "perimeters[1].polygon.vertices: expected an array, got int"),
    ({"polygon": {"vertices": _TRIANGLE["vertices"]}}, ParseError,
     "perimeters[1].polygon: missing required field 'guarded'"),
    ({"polygon": {**_TRIANGLE, "guarded": "yes"}}, ParseError,
     "perimeters[1].polygon.guarded: expected an array, got str"),
    ({"polygon": {**_TRIANGLE, "vertices": [[0, 0], 3, [3, 4]]}}, ParseError,
     "perimeters[1].polygon.vertices[1]: expected an array, got int"),
    ({"polygon": {**_TRIANGLE, "vertices": [[0, 0], [3, 0, 1], [3, 4]]}}, ParseError,
     "perimeters[1].polygon.vertices[1]: expected [x, y]"),
    ({"polygon": {**_TRIANGLE, "vertices": [[0, 0], [3, 0.5], [3, 4]]}}, ParseError,
     f"perimeters[1].polygon.vertices[1][1]: {_FLOAT}"),
    ({"polygon": {**_TRIANGLE, "vertices": [[0, 0], [3, 0], ["3", "4e0"]]}}, ParseError,
     "perimeters[1].polygon.vertices[2][1]: exponent forms are not accepted, got '4e0'"),
    ({"polygon": {**_TRIANGLE, "guarded": [True, 1, False]}}, ParseError,
     "perimeters[1].polygon.guarded[1]: expected true or false"),
    ({"polygon": {"vertices": [[0, 0], [3, 0]], "guarded": [True, True]}}, ValidationError,
     "perimeters[1].polygon: need at least 3 vertices, got 2"),
    ({"polygon": {**_TRIANGLE, "guarded": [True, True]}}, ValidationError,
     "perimeters[1].polygon: 3 edges need 3 guarded flags, got 2"),
    ({"polygon": {**_TRIANGLE, "vertices": [[0, 0], [3, 0], [3, 0]]}}, ValidationError,
     "perimeters[1].polygon: edge 1 has zero length"),
    ({"polygon": {**_TRIANGLE, "guarded": [False, False, False]}}, ValidationError,
     "perimeters[1].polygon: polygon has no guarded edge"),
]


@pytest.mark.parametrize("entry, error, message", PERIMETER_FAULTS)
def test_a_perimeter_fault_keeps_its_class_and_message(entry, error, message):
    doc = {**json.loads(LR_DOC), "perimeters": [{"segments": [1]}, entry]}
    with pytest.raises(GuardingError) as info:
        parse_instance(json.dumps(doc))
    assert (type(info.value), str(info.value)) == (error, message)


def test_parse_converts_each_geometry_literal_once(monkeypatch):
    """documents checks the JSON shape; Perimeter reads each length and
    build_polygon_spec each coordinate, under the labels they report."""
    labels = []

    def spy(value, where="value"):
        labels.append(where)
        return to_fraction(value, where)

    monkeypatch.setattr(documents, "to_fraction", spy)
    monkeypatch.setattr(perimeter, "to_fraction", spy)
    parse_instance(json.dumps({**json.loads(LR_DOC), "perimeters": [
        {"segments": [2, "5/2", 3], "gaps": ["1.5", 2, 1]}]}))
    assert labels == [f"{name}[{k}]" for name in ("segments", "gaps") for k in range(3)]
    labels.clear()
    parse_instance(json.dumps({**json.loads(LR_DOC), "perimeters": [{"polygon": {
        "vertices": [[0, 0], [2, 0], ["2", "3/2"], [0, 2]],
        "guarded": [True, False, True, False]}}]}))
    # Two per vertex, then from_polygon's merged runs, Fractions handed back as is.
    assert labels == ([f"vertices[{k}][{c}]" for k in range(4) for c in (0, 1)]
                      + [f"{name}[{k}]" for name in ("segments", "gaps") for k in range(2)])


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


def test_over_long_numbers_are_parse_errors():
    big = "9" * 5000   # past CPython's 4,300-digit limit on int <-> str
    as_string = json.loads(MC_DOC)
    as_string["perimeters"][0]["segments"][0] = big
    with pytest.raises(ParseError, match=r"perimeters\[0\].segments\[0\]: .*4300 digits"):
        parse_instance(json.dumps(as_string))
    for text in (MC_DOC.replace('"segments": [2, 3]', f'"segments": [{big}, 3]'),
                 MC_DOC.replace('"problem": "mc"', f'"problem": "mc", "seed": {big}')):
        with pytest.raises(ParseError, match="instance: .*4300 digits"):
            parse_instance(text)


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


def test_write_instance_spells_each_catalog_by_its_own_fields():
    per = (build_perimeter([2], [1]),)
    lr = InstanceDocument("lr", per, fleet=build_fleet_lr([(1, 2), (3, 1)]))
    mc = InstanceDocument("mc", per, types=build_types_mc([(4, 5), (3, 1)]))
    assert write_instance(lr).endswith(
        '  "types": [\n'
        '    {\n      "capability": 1,\n      "count": 2\n    },\n'
        '    {\n      "capability": 3,\n      "count": 1\n    }\n'
        "  ]\n}\n"
    )
    assert write_instance(mc).endswith(
        '  "types": [\n'
        '    {\n      "length": 4,\n      "cost": 5\n    },\n'
        '    {\n      "length": 3,\n      "cost": 1\n    }\n'
        "  ]\n}\n"
    )


def test_solution_round_trip():
    instance = parse_instance(LR_DOC)
    sol = solution_from_lr(solve_lr(instance.perimeters, instance.fleet))
    again = parse_solution(write_solution(sol))
    assert again == sol

    instance = parse_instance(MC_DOC)
    sol = solution_from_mc(solve_mc_multi(instance.perimeters, instance.types))
    assert parse_solution(write_solution(sol)) == sol


def test_non_object_stats_is_a_parse_error():
    instance = parse_instance(MC_DOC)
    body = json.loads(write_solution(solution_from_mc(
        solve_mc_multi(instance.perimeters, instance.types))))
    for stats in ([], 0, "", False, [1], "x"):
        body["stats"] = stats
        with pytest.raises(ParseError, match="solution.stats"):
            parse_solution(json.dumps(body))
    body["stats"] = {}
    assert parse_solution(json.dumps(body)).stats == {}
    del body["stats"]
    assert parse_solution(json.dumps(body)).stats == {}


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


# -- the writers: byte for byte what json.dumps(indent=2) writes ----------------


def _rational_json(value):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _instance_body(doc):
    body = {"problem": doc.problem, "perimeters": [
        {"segments": [_rational_json(s) for s in per.segments],
         "gaps": [_rational_json(g) for g in per.gaps]}
        for per in doc.perimeters
    ]}
    if doc.problem == "lr":
        body["types"] = [{"capability": a, "count": n}
                         for a, n in zip(doc.fleet.capabilities, doc.fleet.counts)]
    else:
        body["types"] = [{"length": l, "cost": c} for l, c in zip(doc.types.lengths, doc.types.costs)]
    for key in ("ell", "budget"):
        if getattr(doc, key) is not None:
            body[key] = _rational_json(getattr(doc, key))
    for key in ("seed", "metadata"):
        if getattr(doc, key) is not None:
            body[key] = getattr(doc, key)
    return body


def _solution_body(doc):
    body = {
        "problem": doc.problem,
        "objective": _rational_json(doc.objective),
        "arcs": [{"perimeter": a.perimeter, "type": a.robot_type,
                  "start": _rational_json(a.start), "length": _rational_json(a.length)}
                 for a in doc.arcs],
        "counts": list(doc.counts),
    }
    if doc.stats:
        body["stats"] = doc.stats
    return body


def _writer_cases():
    instances = [gen_random("lr", 2, 6, 2, seed=s) for s in range(3)]
    instances += [gen_random("mc", 3, 5, 1, seed=s, target_length=40) for s in range(3)]
    fractional = (build_perimeter([F(5, 2), F(7, 3)], [F(1, 2), 2]), build_perimeter([F(9, 4)], []))
    instances.append(InstanceDocument("lr", fractional, fleet=build_fleet_lr([(2, 2), (3, 1)])))
    instances.append(InstanceDocument("mc", fractional, types=build_types_mc([(2, 3), (5, 4)])))
    solutions = []
    for doc in instances:
        if doc.problem == "lr":
            solutions.append(solution_from_lr(solve_lr(doc.perimeters, doc.fleet)))
        else:
            solutions.append(solution_from_mc(solve_mc_multi(doc.perimeters, doc.types)))
    metadata = {"origin": "unit test", "nested": {"list": [1, "x\ny", {"deep": None}],
                                                   "empty": {}, "none": []}}
    instances += [
        replace(instances[-2], ell=F(5, 2), budget=F(7), seed=None, metadata=metadata),
        replace(instances[-1], ell=F(3), budget=F(9, 2), seed=12, metadata={}),
    ]
    stats = {"wall_time_seconds": 0.1 + 0.2, "nested": {"a": [1, {"b": None}], "é": "naïve ☃"},
             "empty": {}, "list": [], "feasibility_calls": 7}
    solutions += [
        replace(solutions[0], stats=stats),
        SolutionDocument("mc", F(0), (), (0, 0)),
        SolutionDocument("lr", F(7, 3), (), ()),
    ]
    return instances, solutions


def test_writers_match_json_dumps():
    instances, solutions = _writer_cases()
    assert any(not per.gaps for doc in instances for per in doc.perimeters)
    for doc in instances:
        assert write_instance(doc) == json.dumps(_instance_body(doc), indent=2) + "\n"
    for sol in solutions:
        assert write_solution(sol) == json.dumps(_solution_body(sol), indent=2) + "\n"


# -- the input contract under fuzzing ----------------------------------------------

FUZZ_BASES = {
    "lr": {
        "problem": "lr",
        "perimeters": [{"segments": [2, "3/2"], "gaps": [1, "1/2"]},
                       {"polygon": {"vertices": [[0, 0], [3, 0], [3, 4]],
                                    "guarded": [True, True, False]}}],
        "types": [{"capability": 1, "count": 2}, {"capability": 3, "count": 1}],
    },
    "mc": {
        "problem": "mc",
        "perimeters": [{"segments": ["7/2", 2], "gaps": [3, "2.5"]}],
        "types": [{"length": 3, "cost": 2}, {"length": 5, "cost": 3}],
    },
}
_LR, _MC = (parse_instance(json.dumps(FUZZ_BASES[problem])) for problem in ("lr", "mc"))
FUZZ_SOLUTIONS = {
    "lr": write_solution(solution_from_lr(solve_lr(_LR.perimeters, _LR.fleet))),
    "mc": write_solution(solution_from_mc(solve_mc_multi(_MC.perimeters, _MC.types))),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=12,
)
# What a mutation writes over a scalar: plausible counts and rationals that
# keep a document parsing, bad rationals, odd scalars and floats.
odd_scalars = st.one_of(
    st.integers(min_value=-2, max_value=12),
    st.sampled_from(["1/2", "5/2", "13/2", "7/3", "0/1", "3"]),
    st.sampled_from(["1/0", "0/0", "-3/2", "3/-2", "1e3", "1_000", " 3", ".5", "5.", "+3",
                     "2/3/4", "1/2.5", "", "abc", "lr", "mc"]),
    st.sampled_from([2**70, -2**70, True, False, None]),
    st.floats(),
)


def _paths(node, path=()):
    """Every position below the root of a JSON tree, as the keys and indices leading to it."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _paths(child, path + (key,))


@st.composite
def near_valid(draw, base):
    """base (a JSON tree) with up to two positions dropped from their object
    or array, or replaced: a scalar by an odd scalar, a container by any JSON."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        if draw(st.booleans()):
            container = isinstance(parent[last], (dict, list))
            parent[last] = draw(json_values if container else odd_scalars)
        else:
            del parent[last]
    return doc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_documents_raise_only_guarding_errors(data):
    """Arbitrary JSON and near-valid documents, with floats, bad counts and
    bad rationals: parsing either succeeds or raises GuardingError, and so
    does validating a parsed solution against the valid instance and, if
    it parsed, the fuzzed one."""
    problem = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    instance_base, solution_base = FUZZ_BASES[problem], json.loads(FUZZ_SOLUTIONS[problem])
    instances = [parse_instance(json.dumps(instance_base))]
    solution = None
    with contextlib.suppress(GuardingError):
        instances.append(parse_instance(json.dumps(data.draw(near_valid(instance_base)
                                                             | json_values))))
    with contextlib.suppress(GuardingError):
        solution = parse_solution(json.dumps(data.draw(near_valid(solution_base) | json_values)))
    if solution is not None:
        for instance in instances:
            with contextlib.suppress(GuardingError):
                validate_solution(instance, solution)
