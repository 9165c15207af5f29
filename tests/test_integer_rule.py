"""The integer rule (an int, not a bool, within a bound), the class rule
(an instance of the package class an argument names) and their one home."""
import ast
import builtins
from pathlib import Path

import pytest

import perimeterguard
from perimeterguard.bench import run_suite
from perimeterguard.documents import (InstanceDocument, solution_from_lr, solution_from_mc,
                                      write_instance, write_solution)
from perimeterguard.errors import IndexOutOfRange, OutOfTableRange, ValidationError
from perimeterguard.oracle import (SubsetSumSpec, ThreePartitionSpec, brute_feasible_lr,
                                   brute_feasible_lr_multi, brute_solve_lr, brute_solve_mc,
                                   gen_3partition_instance, gen_subsetsum_instance)
from perimeterguard.perimeter import build_perimeter, build_polygon_spec, from_polygon
from perimeterguard.render import render_svg
from perimeterguard.solver_lr import (build_fleet_lr, capability_sums, coverage_table, feasible,
                                      pareto_feasible_vectors, partition_feasible,
                                      ratio_certificate, reconstruct_lr, solve_lr)
from perimeterguard.solver_mc import (build_types_mc, interval_table, presolve, reconstruct_mc,
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
