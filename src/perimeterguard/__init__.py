"""Exact deployment planning for robot fleets guarding circular perimeters.

Two problems, both solved exactly over rational arithmetic:

* fixed fleet, minimize the worst coverage-capacity ratio (solve_lr);
* unlimited robots with per-type costs, minimize total cost (solve_mc).
"""
from types import ModuleType as _ModuleType

from .errors import (
    CountMismatch,
    DegeneratePolygon,
    EmptySegments,
    GuardingError,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidSpec,
    NoGuardedEdge,
    NonPositiveLength,
    OutOfTableRange,
    ParseError,
    ReconstructionMismatch,
    ValidationError,
)
from .perimeter import (
    Arc,
    FleetLR,
    Perimeter,
    PolygonSpec,
    TypesMC,
    build_fleet_lr,
    build_perimeter,
    build_polygon_spec,
    build_types_mc,
    from_polygon,
)
from .solver_lr import (
    CoverageTable,
    LrSolution,
    coverage_table,
    feasible,
    capability_sums,
    pareto_feasible_vectors,
    partition_feasible,
    ratio_certificate,
    reconstruct_lr,
    solve_lr,
)
from .solver_mc import (
    CostLookup,
    IntervalCostTable,
    McSolution,
    interval_table,
    presolve,
    reconstruct_mc,
    sol,
    solve_mc,
    solve_mc_multi,
)
from .oracle import (
    SubsetSumSpec,
    ThreePartitionSpec,
    brute_feasible_lr,
    brute_feasible_lr_multi,
    brute_solve_lr,
    brute_solve_mc,
    gen_3partition_instance,
    gen_subsetsum_instance,
)
from .documents import (
    InstanceDocument,
    SolutionDocument,
    parse_instance,
    parse_solution,
    solution_from_lr,
    solution_from_mc,
    write_instance,
    write_solution,
)
from .validate import validate_solution
from .generate import SplitMix64, gen_random
from .bench import BenchRow, run_suite, time_cell, write_json
from .render import render_svg

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
