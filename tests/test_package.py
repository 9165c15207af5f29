"""The package's top-level namespace, import cost and module boundaries."""
import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import perimeterguard

PACKAGE = Path(perimeterguard.__file__).parent


def test_all_exports_public_names_not_submodules():
    assert perimeterguard.__all__
    for name in perimeterguard.__all__:
        assert not isinstance(getattr(perimeterguard, name), ModuleType), name
    assert {"solve_lr", "solve_mc", "validate_solution", "GuardingError"} <= set(
        perimeterguard.__all__
    )


def test_references_share_no_solver_code():
    # The oracles and the validator check the solvers, so they may take only
    # the fleet and catalog types from them, neither integer view edge, not
    # the solvers' scaling helpers (the validator takes its own math.lcm),
    # and not the integer line Perimeter keeps for the solvers to scale.
    allowed = {"FleetLR", "TypesMC", "build_fleet_lr", "build_types_mc"}
    solvers = {"solver_lr", "solver_mc"}
    banned = {"integer_anchors", "place_arcs", "common_denominator", "scaled_ints",
              "_bounds", "_unit"}
    for name in ("oracle.py", "validate.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(tuple(solvers)):
                imported = {alias.name for alias in node.names}
                assert imported <= allowed, (name, imported - allowed)
            elif isinstance(node, ast.alias):
                assert node.name.rpartition(".")[2] not in solvers | banned, (name, node.name)
            elif isinstance(node, ast.Name):
                assert node.id not in banned, (name, node.id)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in banned, (name, node.attr)


def test_references_import_no_solver_module():
    # The catalogs live beside Perimeter, so the oracles and the validator
    # build and read them without importing a solver.
    solvers = {"solver_lr", "solver_mc"}
    imports = []
    for name in ("oracle.py", "validate.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + (modules if node.module is None else [])
                if any(module.rpartition(".")[2] in solvers for module in modules):
                    imports.append(f"{name}:{node.lineno}")
    assert not imports, f"solver imports: {imports}"


# The solvers import the catalogs again from perimeter, so that
# `from perimeterguard.solver_lr import build_fleet_lr` keeps working.
RE_EXPORTS = {("solver_lr.py", "FleetLR"), ("solver_lr.py", "build_fleet_lr"),
              ("solver_mc.py", "TypesMC"), ("solver_mc.py", "build_types_mc")}


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read and (path.name, name) not in RE_EXPORTS:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imported but never read: {unused}"


def _loaded_by_import(modules):
    """Which of the named modules a fresh `import perimeterguard` loads."""
    code = f"import sys, perimeterguard; print(sorted(set({modules!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    return out.stdout.strip()


def test_import_loads_no_process_pools():
    assert _loaded_by_import(("multiprocessing", "concurrent.futures")) == "[]"


def test_import_leaves_the_bench_record_modules_unloaded():
    # bench.write_json imports platform and subprocess itself, so importing
    # the package (which perfbench's setup_s times) does not pay for them.
    assert _loaded_by_import(("platform", "subprocess", "csv")) == "[]"


def test_reach_recurrence_has_one_home():
    # The reach DP steps past gaps with bisect_right; only _fill_table may,
    # so a second copy of the DP loop cannot come back unnoticed.
    tree = ast.parse((PACKAGE / "solver_lr.py").read_text(encoding="utf-8"))
    (fill,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_fill_table"]
    inside = {id(node) for node in ast.walk(fill)}

    def names_bisect(node):
        return ((isinstance(node, ast.Name) and node.id == "bisect_right")
                or (isinstance(node, ast.Attribute) and node.attr == "bisect_right"))

    uses = [node for node in ast.walk(tree) if names_bisect(node)]
    assert uses, "solver_lr no longer uses bisect_right; update this test"
    outside = [node.lineno for node in uses if id(node) not in inside]
    assert not outside, f"bisect_right used outside _fill_table at lines {outside}"


def test_no_function_recurses():
    # Recursion depth would grow with the input, and Python's stack is small:
    # walk with an explicit stack instead.  The brute-force oracles recurse
    # only as deep as their MAX_LR_ROBOTS and MAX_MC_TYPES caps allow.
    recursive = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (node for node in ast.walk(func) if isinstance(node, ast.Call))
                if any(isinstance(call.func, ast.Name) and call.func.id == func.name
                       for call in calls):
                    recursive.append(f"{path.name}:{func.name}")
    assert not recursive, f"functions that call themselves: {recursive}"
