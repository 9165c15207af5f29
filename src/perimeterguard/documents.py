"""JSON instance and solution documents.

Instances carry perimeters plus a robot catalog; solutions carry the
objective, the deployed arcs, and per-type counts.  Rationals serialize
as plain ints when integral and "num/den" strings otherwise, so a
parse -> write -> parse round trip reproduces the same values exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import GuardingError, ParseError, ValidationError
from .perimeter import Arc, Perimeter, build_polygon_spec, from_polygon
from .rationals import check_ints, to_fraction, to_threshold
from .solver_lr import FleetLR, LrSolution, build_fleet_lr
from .solver_mc import McSolution, TypesMC, build_types_mc

# The two integer fields a document gives each robot type, per problem, and
# the JSON text write_instance writes for one type, those names baked in.
CATALOG_FIELDS = {"lr": ("capability", "count"), "mc": ("length", "cost")}
_TYPE_TEXT = {p: '{\n      "%s": %%s,\n      "%s": %%s\n    }' % f for p, f in CATALOG_FIELDS.items()}
PROBLEMS = tuple(CATALOG_FIELDS)


@dataclass
class InstanceDocument:
    """A parsed problem instance: geometry plus the robot catalog."""

    problem: str
    perimeters: tuple[Perimeter, ...]
    fleet: FleetLR | None = None      # lr only
    types: TypesMC | None = None      # mc only
    ell: Fraction | None = None       # lr decision threshold, optional
    budget: Fraction | None = None    # mc decision budget, optional
    seed: int | None = None
    metadata: dict | None = None
    notes: tuple[str, ...] = field(default=(), compare=False)  # quantization remarks

    @property
    def catalog(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The robot catalog's two (field name, column) pairs, one entry per type."""
        columns = ((self.fleet.capabilities, self.fleet.counts) if self.problem == "lr"
                   else (self.types.lengths, self.types.costs))
        return tuple(zip(CATALOG_FIELDS[self.problem], columns))


@dataclass
class SolutionDocument:
    """A deployment: objective value, one arc per robot, per-type counts."""

    problem: str
    objective: Fraction
    arcs: tuple[Arc, ...]
    counts: tuple[int, ...]
    stats: dict = field(default_factory=dict)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing required field {key!r}")
    return obj[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _load_json(data: bytes | str, what: str) -> dict:
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what}: arrays or objects nested too deeply") from exc
    except ValueError as exc:   # an integer literal past CPython's digit limit
        raise ParseError(f"{what}: {exc}") from exc
    return _as_dict(doc, what)


def _parse_perimeter(entry, path: str) -> tuple[Perimeter, list[str]]:
    """Check an entry's JSON shape; Perimeter and build_polygon_spec convert its numbers."""
    entry = _as_dict(entry, path)
    if "polygon" in entry:
        path += ".polygon"
        poly = _as_dict(entry["polygon"], path)
        vertices = _as_list(_require(poly, "vertices", path), f"{path}.vertices")
        guarded = _as_list(_require(poly, "guarded", path), f"{path}.guarded")
        for k, v in enumerate(vertices):
            if len(_as_list(v, f"{path}.vertices[{k}]")) != 2:
                raise ParseError(f"{path}.vertices[{k}]: expected [x, y]")
        for k, g in enumerate(guarded):
            if not isinstance(g, bool):
                raise ParseError(f"{path}.guarded[{k}]: expected true or false")
    else:
        segments = _as_list(_require(entry, "segments", path), f"{path}.segments")
        gaps = _as_list(entry.get("gaps", []), f"{path}.gaps")
    try:
        if "polygon" in entry:
            return from_polygon(build_polygon_spec(vertices, guarded))
        return Perimeter(segments, gaps), []
    except ParseError as exc:
        raise ParseError(f"{path}.{exc}") from exc
    except GuardingError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_instance(data: bytes | str) -> InstanceDocument:
    """Parse and validate an instance document.

    Accepts segments/gaps given directly or as polygon outlines.  Raises
    ParseError for malformed JSON and ValidationError for well-formed
    documents that do not describe a valid instance.
    """
    doc = _load_json(data, "instance")
    problem = _require(doc, "problem", "instance")
    if problem not in PROBLEMS:
        raise ValidationError(f"instance.problem: expected one of {PROBLEMS}, got {problem!r}")

    entries = _as_list(_require(doc, "perimeters", "instance"), "instance.perimeters")
    if not entries:
        raise ValidationError("instance.perimeters: need at least one perimeter")
    perimeters = []
    notes: list[str] = []
    for k, entry in enumerate(entries):
        per, remarks = _parse_perimeter(entry, f"perimeters[{k}]")
        perimeters.append(per)
        notes.extend(f"perimeters[{k}]: {r}" for r in remarks)

    raw_types = _as_list(_require(doc, "types", "instance"), "instance.types")
    if not raw_types:
        raise ValidationError("instance.types: need at least one robot type")
    names = CATALOG_FIELDS[problem]
    pairs = []
    for k, entry in enumerate(raw_types):
        entry = _as_dict(entry, f"types[{k}]")
        pairs.append(tuple(_require(entry, name, f"types[{k}]") for name in names))
    for name, column in zip(names, zip(*pairs)):
        check_ints(column, f"types[{{k}}].{name}", None, ParseError)
    fleet = build_fleet_lr(pairs) if problem == "lr" else None
    types = build_types_mc(pairs) if problem == "mc" else None

    ell = budget = None
    if "ell" in doc:
        if problem != "lr":
            raise ValidationError("instance.ell: only lr documents take a ratio threshold")
        ell = to_threshold(doc["ell"], "instance.ell")
    if "budget" in doc:
        if problem != "mc":
            raise ValidationError("instance.budget: only mc documents take a cost budget")
        budget = to_fraction(doc["budget"], "instance.budget")
        if budget < 0:
            raise ValidationError("instance.budget: budget cannot be negative")

    seed = doc.get("seed")
    if "seed" in doc:
        check_ints((seed,), "instance.seed", None, ParseError)
        if seed < 0:
            raise ValidationError("instance.seed: seed cannot be negative")
    metadata = doc.get("metadata")
    if metadata is not None:
        metadata = _as_dict(metadata, "instance.metadata")

    return InstanceDocument(
        problem=problem,
        perimeters=tuple(perimeters),
        fleet=fleet,
        types=types,
        ell=ell,
        budget=budget,
        seed=seed,
        metadata=metadata,
        notes=tuple(notes),
    )


def _json_rational(value: Fraction) -> str:
    """A rational as JSON text: a bare int, or str(value) quoted as "num/den"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f'"{value.numerator}/{value.denominator}"'


def _json_list(items: Sequence[str], indent: str) -> str:
    """A JSON array of items already formatted as JSON text, laid out the
    way json.dumps(indent=2) lays it out at the depth of `indent`."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_value(value, indent: str) -> str:
    """Any JSON value through json.dumps(indent=2), at the depth of `indent`
    (json.dumps escapes newlines inside strings, so every one is layout)."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _json_object(fields: Sequence[str]) -> str:
    """The top-level object from its '"key": value' lines, plus a newline."""
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def write_instance(doc: InstanceDocument) -> str:
    """Serialize an instance back to JSON text.

    Byte for byte what json.dumps(..., indent=2) writes for the document's
    body.  Numbers come from templates; only the problem name, seed and
    metadata, which may be any JSON, go through json.dumps.
    """
    perimeters = [
        f'{{\n      "segments": {_json_list([_json_rational(s) for s in per.segments], "      ")},'
        f'\n      "gaps": {_json_list([_json_rational(g) for g in per.gaps], "      ")}\n    }}'
        for per in doc.perimeters
    ]
    (_, firsts), (_, seconds) = doc.catalog
    types = [_TYPE_TEXT[doc.problem] % pair for pair in zip(firsts, seconds)]
    fields = [
        f'"problem": {_json_value(doc.problem, "  ")}',
        f'"perimeters": {_json_list(perimeters, "  ")}',
        f'"types": {_json_list(types, "  ")}',
    ]
    if doc.ell is not None:
        fields.append(f'"ell": {_json_rational(doc.ell)}')
    if doc.budget is not None:
        fields.append(f'"budget": {_json_rational(doc.budget)}')
    if doc.seed is not None:
        fields.append(f'"seed": {_json_value(doc.seed, "  ")}')
    if doc.metadata is not None:
        fields.append(f'"metadata": {_json_value(doc.metadata, "  ")}')
    return _json_object(fields)


def parse_solution(data: bytes | str) -> SolutionDocument:
    """Parse a solution document; structural checks only.

    Cross-checks against the instance (coverage, capacity, disjointness)
    live in validate.validate_solution.
    """
    doc = _load_json(data, "solution")
    problem = _require(doc, "problem", "solution")
    if problem not in PROBLEMS:
        raise ValidationError(f"solution.problem: expected one of {PROBLEMS}, got {problem!r}")
    objective = to_fraction(_require(doc, "objective", "solution"), "solution.objective")
    arcs = []
    for k, entry in enumerate(_as_list(_require(doc, "arcs", "solution"), "solution.arcs")):
        entry = _as_dict(entry, f"arcs[{k}]")
        arcs.append(Arc(
            perimeter=_require(entry, "perimeter", f"arcs[{k}]"),
            robot_type=_require(entry, "type", f"arcs[{k}]"),
            start=to_fraction(_require(entry, "start", f"arcs[{k}]"), f"arcs[{k}].start"),
            length=to_fraction(_require(entry, "length", f"arcs[{k}]"), f"arcs[{k}].length"),
        ))
    check_ints([arc.perimeter for arc in arcs], "arcs[{k}].perimeter", None, ParseError)
    check_ints([arc.robot_type for arc in arcs], "arcs[{k}].type", None, ParseError)
    counts = tuple(_as_list(_require(doc, "counts", "solution"), "solution.counts"))
    check_ints(counts, "counts[{k}]", None, ParseError)
    stats = _as_dict(doc.get("stats", {}), "solution.stats")
    return SolutionDocument(
        problem=problem,
        objective=objective,
        arcs=tuple(arcs),
        counts=counts,
        stats=stats,
    )


def write_solution(doc: SolutionDocument) -> str:
    """Serialize a solution to JSON text.

    Byte for byte what json.dumps(..., indent=2) writes for the document's
    body.  Each arc comes from one template; only the problem name and
    stats, which may be any JSON (a float wall time among it), go through
    json.dumps.
    """
    arcs = [
        f'{{\n      "perimeter": {a.perimeter},\n      "type": {a.robot_type},'
        f'\n      "start": {_json_rational(a.start)},'
        f'\n      "length": {_json_rational(a.length)}\n    }}'
        for a in doc.arcs
    ]
    fields = [
        f'"problem": {_json_value(doc.problem, "  ")}',
        f'"objective": {_json_rational(doc.objective)}',
        f'"arcs": {_json_list(arcs, "  ")}',
        f'"counts": {_json_list([str(c) for c in doc.counts], "  ")}',
    ]
    if doc.stats:
        fields.append(f'"stats": {_json_value(doc.stats, "  ")}')
    return _json_object(fields)


def solution_from_lr(sol: LrSolution) -> SolutionDocument:
    """Package a ratio-minimizing deployment as a document."""
    t = len(sol.unused)
    counts = [0] * t
    for alloc in sol.allocations:
        for tau, n in enumerate(alloc):
            counts[tau] += n
    return SolutionDocument(
        problem="lr",
        objective=sol.objective,
        arcs=tuple(sol.arcs),
        counts=tuple(counts),
        stats={"feasibility_calls": sol.feasibility_calls},
    )


def solution_from_mc(sol: McSolution) -> SolutionDocument:
    """Package a minimum-cost deployment as a document."""
    return SolutionDocument(
        problem="mc",
        objective=Fraction(sol.total_cost),
        arcs=tuple(sol.arcs),
        counts=sol.counts,
    )
