"""The integer rule (an int, not a bool, within a bound), the class rule
(an instance of the package class an argument names), the sequence rule
(an ordered collection, of a given size) and their one home."""
import ast
import builtins
import contextlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perimeterguard
from perimeterguard.bench import run_suite, time_cell
from perimeterguard.documents import (InstanceDocument, solution_from_lr, solution_from_mc,
                                      write_instance, write_solution)
from perimeterguard.errors import (DegeneratePolygon, GuardingError, IndexOutOfRange, InvalidSpec,
                                   OutOfTableRange, ValidationError)
from perimeterguard.oracle import (SubsetSumSpec, ThreePartitionSpec, brute_feasible_lr,
                                   brute_feasible_lr_multi, brute_solve_lr, brute_solve_mc,
                                   gen_3partition_instance, gen_subsetsum_instance)
from perimeterguard.perimeter import Perimeter, build_perimeter, build_polygon_spec, from_polygon
from perimeterguard.render import render_svg
from perimeterguard.solver_lr import (FleetLR, build_fleet_lr, capability_sums, coverage_table, feasible,
                                      pareto_feasible_vectors, partition_feasible,
                                      ratio_certificate, reconstruct_lr, solve_lr)
from perimeterguard.solver_mc import (TypesMC, build_types_mc, interval_table, presolve, reconstruct_mc,
                                      sol, solve_mc_multi)
from perimeterguard.validate import validate_solution

PACKAGE = Path(perimeterguard.__file__).parent


def _lr_table():
    return coverage_table(build_perimeter([2, 3], [1, 2]), 0, build_fleet_lr([(3, 2)]), 2)


def _mc_case():
    per, types = build_perimeter([2, 3], [1, 2]), build_types_mc([(3, 2), (5, 3)])
    lookup = presolve(types, 8)
    return interval_table(per, lookup)


INTEGER_ARGUMENTS = {
    "seg_start": (IndexOutOfRange, lambda v: build_perimeter([2, 3], [1, 2]).seg_start(v)),
    "coverage_table anchor": (IndexOutOfRange, lambda v: coverage_table(
        build_perimeter([2, 3], [1, 2]), v, build_fleet_lr([(3, 2)]), 2)),
    "CoverageTable.value": (IndexOutOfRange, lambda v: _lr_table().value((v,))),
    "presolve max_len": (ValidationError, lambda v: presolve(build_types_mc([(3, 2)]), v)),
    "sol length": (OutOfTableRange, lambda v: sol(presolve(build_types_mc([(3, 2)]), 8), v)),
    "CostLookup.cost length": (OutOfTableRange,
                               lambda v: presolve(build_types_mc([(3, 2)]), 8).cost(v)),
    "reconstruct_mc anchor": (IndexOutOfRange, lambda v: reconstruct_mc(_mc_case(), v)),
    "reconstruct_mc perimeter_index": (ValidationError,
                                       lambda v: reconstruct_mc(_mc_case(), 0, v)),
    "reconstruct_lr perimeter_index": (ValidationError,
                                       lambda v: reconstruct_lr(_lr_table(), (2,), v)),
    "run_suite seeds": (ValidationError, lambda v: run_suite("table1", seeds=v)),
}


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("error, call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_a_bool_and_a_float(error, call, value):
    # Each used to raise a bare TypeError on the float or to read True as 1:
    # seg_start(True) gave segment 1's start and reconstruct_lr emitted arcs
    # on "perimeter 1.0".
    with pytest.raises(error, match="must be an integer >= "):
        call(value)


def test_only_rationals_tests_whether_a_value_is_an_int():
    # rationals.check_ints is the integer rule; a copy elsewhere is how a
    # bool or a float used to slip through one site and not the others.
    def names_int(node):
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(part, ast.Name) and part.id == "int" for part in parts)

    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and names_int(node.args[1])):
                copies.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Compare) and any(map(names_int, node.comparators)):
                copies.append(f"{path.name}:{node.lineno}")
    assert not copies, f"integer checks outside rationals.check_ints: {copies}"


PER = build_perimeter([2, 3], [1, 2])
LR_FLEET, MC_TYPES = build_fleet_lr([(1, 2)]), build_types_mc([(3, 2), (5, 3)])
LOOKUP = presolve(MC_TYPES, 8)
TABLE = interval_table(PER, LOOKUP)
MC_DOC = InstanceDocument("mc", (PER,), types=MC_TYPES)
MC_SOLUTION = solution_from_mc(solve_mc_multi(PER, MC_TYPES))
NOT_A_FLEET = ([(1, 2)], None, {"1": 2}, MC_TYPES)
NOT_A_CATALOG = ([(1, 2)], None, {"1": 2}, LR_FLEET)

# id: (call on the argument, a value it takes, values it refuses, the refusal
# up to ", got <type>").  Each refusal used to be a bare AttributeError, such
# as "'list' object has no attribute 'total_count'" from solve_lr, or an
# answer: ratio_certificate gave None at objective 0.
CLASS_ARGUMENTS = {
    "solve_lr": (lambda f: solve_lr(PER, f), LR_FLEET, NOT_A_FLEET, "fleet: expected a FleetLR"),
    "feasible": (lambda f: feasible(PER, f, 3), LR_FLEET, NOT_A_FLEET, "fleet: expected a FleetLR"),
    "partition_feasible": (lambda f: partition_feasible([PER] * 2, f, 3), LR_FLEET, NOT_A_FLEET,
                           "fleet: expected a FleetLR"),
    "coverage_table": (lambda f: coverage_table(PER, 0, f, 3), LR_FLEET, NOT_A_FLEET,
                       "fleet: expected a FleetLR"),
    "capability_sums": (capability_sums, LR_FLEET, NOT_A_FLEET, "fleet: expected a FleetLR"),
    "pareto_feasible_vectors": (lambda f: pareto_feasible_vectors(PER, f, 3), LR_FLEET, NOT_A_FLEET,
                                "fleet: expected a FleetLR"),
    "ratio_certificate": (lambda f: ratio_certificate(PER, f, 3), LR_FLEET, NOT_A_FLEET,
                          "fleet: expected a FleetLR"),
    "ratio_certificate-at-0": (lambda f: ratio_certificate(PER, f, 0), LR_FLEET, NOT_A_FLEET,
                               "fleet: expected a FleetLR"),
    "brute_feasible_lr": (lambda f: brute_feasible_lr(PER, f, 3), LR_FLEET, NOT_A_FLEET,
                          "fleet: expected a FleetLR"),
    "brute_feasible_lr_multi": (lambda f: brute_feasible_lr_multi([PER] * 2, f, 3), LR_FLEET,
                                NOT_A_FLEET, "fleet: expected a FleetLR"),
    "brute_solve_lr": (lambda f: brute_solve_lr(PER, f), LR_FLEET, NOT_A_FLEET,
                       "fleet: expected a FleetLR"),
    "solve_mc_multi": (lambda f: solve_mc_multi(PER, f), MC_TYPES, NOT_A_CATALOG,
                       "types: expected a TypesMC"),
    "presolve": (lambda f: presolve(f, 10), MC_TYPES, NOT_A_CATALOG, "types: expected a TypesMC"),
    "brute_solve_mc types": (lambda f: brute_solve_mc(PER, f), MC_TYPES, NOT_A_CATALOG,
                             "types: expected a TypesMC"),
    "interval_table per, a str": (lambda p: interval_table(p, LOOKUP), PER, ["x"],
                                  "per: expected a Perimeter"),
    "interval_table per, a list": (lambda p: interval_table(p, LOOKUP), PER, [[PER]],
                                   "per: expected a Perimeter"),
    "feasible per": (lambda p: feasible(p, LR_FLEET, 3), PER, ["x"], "per: expected a Perimeter"),
    "coverage_table per": (lambda p: coverage_table(p, 0, LR_FLEET, 3), PER, ["x"],
                           "per: expected a Perimeter"),
    "pareto_feasible_vectors per": (lambda p: pareto_feasible_vectors(p, LR_FLEET, 3), PER, ["x"],
                                    "per: expected a Perimeter"),
    "brute_solve_mc per": (lambda p: brute_solve_mc(p, MC_TYPES), PER, ["x"],
                           "per: expected a Perimeter"),
    "interval_table lookup": (lambda l: interval_table(PER, l), LOOKUP, [None],
                              "lookup: expected a CostLookup"),
    "interval_table lookup, a table": (lambda l: interval_table(PER, l), LOOKUP, [TABLE],
                                       "lookup: expected a CostLookup"),
    "sol lookup": (lambda l: sol(l, 3), LOOKUP, ["x"], "lookup: expected a CostLookup"),
    "reconstruct_mc table": (lambda t: reconstruct_mc(t, 0), TABLE, [None],
                             "table: expected an IntervalCostTable"),
    "reconstruct_mc table, a lookup": (lambda t: reconstruct_mc(t, 0), TABLE, [LOOKUP],
                                       "table: expected an IntervalCostTable"),
    "reconstruct_lr table": (lambda t: reconstruct_lr(t, (1,)), _lr_table(), [None],
                             "table: expected a CoverageTable"),
    "gen_3partition_instance": (gen_3partition_instance, ThreePartitionSpec(1, 12, (4, 4, 4)), ["x"],
                                "spec: expected a ThreePartitionSpec"),
    "gen_subsetsum_instance": (gen_subsetsum_instance, SubsetSumSpec((1, 2), 2, 3), ["x"],
                               "spec: expected a SubsetSumSpec"),
    "from_polygon": (from_polygon, build_polygon_spec([(0, 0), (3, 0), (0, 4)], [True] * 3), ["x"],
                     "spec: expected a PolygonSpec"),
    "write_instance": (write_instance, MC_DOC, ["x"], "doc: expected an InstanceDocument"),
    "write_solution": (write_solution, MC_SOLUTION, ["x"], "doc: expected a SolutionDocument"),
    "solution_from_lr": (solution_from_lr, solve_lr(PER, LR_FLEET), ["x"],
                         "sol: expected a LrSolution"),
    "solution_from_mc": (solution_from_mc, solve_mc_multi(PER, MC_TYPES), ["x"],
                         "sol: expected a McSolution"),
    "validate_solution instance": (lambda d: validate_solution(d, MC_SOLUTION), MC_DOC, ["x"],
                                   "instance: expected an InstanceDocument"),
    "validate_solution solution": (lambda s: validate_solution(MC_DOC, s), MC_SOLUTION, ["y"],
                                   "solution: expected a SolutionDocument"),
    "render_svg": (lambda d: render_svg(d, MC_SOLUTION), MC_DOC, ["x"],
                   "instance: expected an InstanceDocument"),
}


# The module whose test runs each argument's cases: the fleet and types
# cases and the per, lookup and table cases keep the test ids they had there.
CLASS_TESTS = {"test_solver_lr": ("fleet", "types"), "test_solver_mc": ("per", "lookup", "table"),
               "test_integer_rule": ("spec", "doc", "sol", "instance", "solution")}


def class_cases(module):
    """The ids of the CLASS_ARGUMENTS cases that `module` runs."""
    return [case for case, row in CLASS_ARGUMENTS.items()
            if row[3].split(":")[0] in CLASS_TESTS[module]]


def check_refused_by_class(case):
    """The case's call takes its value and refuses each wrong one by name."""
    call, good, wrong, refusal = CLASS_ARGUMENTS[case]
    call(good)
    for value in wrong:
        with pytest.raises(ValidationError, match=f"^{refusal}, got {type(value).__name__}$"):
            call(value)


@pytest.mark.parametrize("case", class_cases("test_integer_rule"))
def test_spec_and_document_arguments_are_refused_by_class(case):
    check_refused_by_class(case)


def test_every_class_case_runs():
    routed = [case for module in CLASS_TESTS for case in class_cases(module)]
    assert sorted(routed) == sorted(CLASS_ARGUMENTS)


def test_only_rationals_refuses_an_argument_by_class():
    # rationals.check_class is the class rule; each copy of it worded its
    # refusal apart, and some public entries had none and raised a bare
    # AttributeError.  An isinstance may name only builtins and classes
    # imported from outside the package (a generic `cls` is a copy too).
    # Perimeter.__eq__ compares, and perimeter_list takes "a Perimeter or a
    # sequence of them": neither refuses an argument.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    allowed = {("perimeter.py", "__eq__"), ("perimeter.py", "perimeter_list")}

    def parts(node):
        return node.elts if isinstance(node, ast.Tuple) else [node]

    copies = []
    for name, tree in trees.items():
        if name == "rationals.py":
            continue
        foreign = set(vars(builtins)) | {alias.asname or alias.name for node in ast.walk(tree)
                                         if isinstance(node, ast.ImportFrom) and node.level == 0
                                         for alias in node.names}
        exempt = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and (name, func.name) in allowed
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and not all(isinstance(part, ast.Name) and part.id in foreign
                                for part in parts(node.args[1]))):
                copies.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Compare) and any(
                    isinstance(part, ast.Name) and part.id in classes
                    for comparator in node.comparators for part in parts(comparator)):
                copies.append(f"{name}:{node.lineno}")
    assert not copies, f"class checks outside rationals.check_class: {copies}"


TRIANGLE = [(0, 0), (3, 0), (0, 3)]

# id: (call, the arguments it takes, argument tuples it refuses, the error
# and its whole message).  Each refused call used to raise a bare TypeError
# or ValueError, or to succeed: Perimeter("35", "12") built segments (3, 5)
# and gaps (1, 2) from the digits, ["00", "30", "03"] the triangle (0, 0),
# (3, 0), (0, 3), and build_fleet_lr(["12"]) blamed capability '1'.
SEQUENCE_ARGUMENTS = {
    "Perimeter, two strings": (Perimeter, ([3, 5], [1, 2]), [("35", "12"), ("5", [])],
                               ValidationError, "segments: expected a sequence, got str"),
    "Perimeter segments": (Perimeter, ([5], []), [(5, [])], ValidationError,
                           "segments: expected a sequence, got int"),
    "Perimeter gaps": (Perimeter, ([1], []), [([1], None)], ValidationError,
                       "gaps: expected a sequence, got NoneType"),
    "build_polygon_spec vertices": (build_polygon_spec, (TRIANGLE, [True] * 3), [(5, [True])],
                                    ValidationError, "vertices: expected a sequence, got int"),
    "build_polygon_spec vertex": (build_polygon_spec, (TRIANGLE, [True] * 3),
                                  [(["00", "30", "03"], [True] * 3)], DegeneratePolygon,
                                  "vertices[0]: expected a sequence, got str"),
    "build_polygon_spec guarded": (build_polygon_spec, (TRIANGLE, (True, False, True)),
                                   [(TRIANGLE, [True, "no", True])], ValidationError,
                                   "guarded[1]: expected a bool, got str"),
    "build_polygon_spec guarded, ints": (build_polygon_spec, (TRIANGLE, [True, False, True]),
                                         [(TRIANGLE, [1, 0, 1])], ValidationError,
                                         "guarded[0]: expected a bool, got int"),
    "build_fleet_lr, a str": (build_fleet_lr, ([(1, 2)],), [("ab",)], ValidationError,
                              "pairs: expected a sequence, got str"),
    "build_fleet_lr, an int": (build_fleet_lr, ([(1, 2)],), [(5,)], ValidationError,
                               "pairs: expected a sequence, got int"),
    "build_fleet_lr pair": (build_fleet_lr, ([[1, 2]],), [(["12"],)], ValidationError,
                            "pairs[0]: expected a sequence, got str"),
    "build_fleet_lr pair size": (build_fleet_lr, ([(1, 2)],), [([(1, 2, 3)],)], ValidationError,
                                 "pairs[0]: expected 2 items, got 3"),
    "build_types_mc pair": (build_types_mc, ([(3, 2)],), [([1],)], ValidationError,
                            "pairs[0]: expected a sequence, got int"),
    "FleetLR counts": (FleetLR, ([3], [2]), [([3, 4], [2])], ValidationError,
                       "counts: expected 2 items, got 1"),
    "TypesMC lengths": (TypesMC, ([3], [2]), [({3: 1}, [2])], ValidationError,
                        "lengths: expected a sequence, got dict"),
    "ThreePartitionSpec sizes": (ThreePartitionSpec, (1, 12, [4, 4, 4]), [(1, 12, [4, 4])],
                                 InvalidSpec, "sizes: expected 3 items, got 2"),
    "SubsetSumSpec weights": (SubsetSumSpec, ([1, 2], 2, 3), [(5, 1, 5)], InvalidSpec,
                              "weights: expected a sequence, got int"),
    "time_cell seeds": (time_cell, ("table1", "lr", 2, 3, 1, None, [0]),
                        [("table1", "lr", 2, 3, 1, None, 5)], ValidationError,
                        "seeds: expected a sequence, got int"),
    "CoverageTable allocation": (lambda v: _lr_table().value(v), ([1],), [((1, 1),)],
                                 IndexOutOfRange, "allocation: expected 1 items, got 2"),
    "solve_lr perimeters": (lambda p: solve_lr(p, LR_FLEET), ([PER],), [({PER},)],
                            ValidationError, "perimeters: expected a sequence, got set"),
}


@pytest.mark.parametrize("case", SEQUENCE_ARGUMENTS)
def test_sequence_arguments_are_refused_by_shape(case):
    call, good, refused, error, refusal = SEQUENCE_ARGUMENTS[case]
    call(*good)
    for args in refused:
        with pytest.raises(error, match=f"^{re.escape(refusal)}$"):
            call(*args)


def test_model_classes_hold_tuples():
    # A frozen class given lists used to keep them, so hashing it raised
    # "TypeError: unhashable type: 'list'".
    assert hash(FleetLR([3], [2])) == hash(FleetLR((3,), (2,)))
    assert hash(TypesMC([3], [2])) == hash(TypesMC((3,), (2,)))
    assert hash(ThreePartitionSpec(1, 12, [4, 4, 4])) == hash(ThreePartitionSpec(1, 12, (4, 4, 4)))
    assert hash(SubsetSumSpec([1, 2], 2, 3)) == hash(SubsetSumSpec((1, 2), 2, 3))


scalars = st.integers() | st.booleans() | st.none() | st.text(max_size=4) | st.binary(max_size=4)
shapes = st.recursive(scalars | st.sets(st.integers() | st.text(max_size=2), max_size=3),
                      lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=12)
BUILDERS = {"Perimeter": (Perimeter, 2), "build_polygon_spec": (build_polygon_spec, 2),
            "build_fleet_lr": (build_fleet_lr, 1), "build_types_mc": (build_types_mc, 1),
            "FleetLR": (FleetLR, 2), "TypesMC": (TypesMC, 2),
            "ThreePartitionSpec": (ThreePartitionSpec, 3), "SubsetSumSpec": (SubsetSumSpec, 3),
            "solve_lr perimeters": (lambda p: solve_lr(p, LR_FLEET), 1)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_builders_raise_only_guarding_errors(data):
    """Ints, None, text, bytes, dicts, sets and nested lists of them, given
    to each public builder: it either returns or raises GuardingError."""
    call, arity = BUILDERS[data.draw(st.sampled_from(sorted(BUILDERS)))]
    with contextlib.suppress(GuardingError):
        call(*(data.draw(shapes) for _ in range(arity)))


def test_only_rationals_decides_what_a_sequence_is():
    # rationals.check_seq is the sequence rule; its copies answered in four
    # ways, and two let a string through as a sequence of its characters.
    # documents' JSON-shape helpers ask another question: is this JSON
    # value an array (or an object, or JSON text).
    names = {"str", "bytes", "bytearray", "list", "tuple", "Iterable", "Sequence", "Mapping", "Set"}
    allowed = {("documents.py", name) for name in ("_as_dict", "_as_list", "_load_json")}

    def names_shape(node):
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(part, ast.Name) and part.id in names for part in parts)

    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rationals.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and (path.name, func.name) in allowed
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and names_shape(node.args[1])):
                copies.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Compare) and any(map(names_shape, node.comparators)):
                copies.append(f"{path.name}:{node.lineno}")
    assert not copies, f"sequence checks outside rationals.check_seq: {copies}"
