"""The integer rule (an int, not a bool, within a bound) and its one home."""
import ast
from pathlib import Path

import pytest

import perimeterguard
from perimeterguard.bench import run_suite
from perimeterguard.errors import IndexOutOfRange, OutOfTableRange, ValidationError
from perimeterguard.perimeter import build_perimeter
from perimeterguard.solver_lr import build_fleet_lr, coverage_table, reconstruct_lr
from perimeterguard.solver_mc import build_types_mc, interval_table, presolve, reconstruct_mc, sol

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
