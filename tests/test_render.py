"""SVG rendering: element counts, colors, validation gate, pinned bytes."""
import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from perimeterguard.documents import (
    InstanceDocument,
    SolutionDocument,
    parse_instance,
    solution_from_lr,
    solution_from_mc,
)
from perimeterguard.errors import ValidationError
from perimeterguard.generate import gen_random
from perimeterguard.perimeter import Arc, build_perimeter
from perimeterguard.render import SEGMENT_STROKE, render_svg
from perimeterguard.solver_lr import solve_lr
from perimeterguard.solver_mc import build_types_mc, solve_mc_multi

F = Fraction


def lr_pair():
    instance = parse_instance(
        '{"problem": "lr", "perimeters": [{"segments": [2, 3], "gaps": [1, 2]}],'
        ' "types": [{"capability": 1, "count": 2}]}'
    )
    return instance, solution_from_lr(solve_lr(instance.perimeters, instance.fleet))


def test_one_cover_element_per_robot():
    instance, sol = lr_pair()
    svg = render_svg(instance, sol)
    assert svg.count('class="cover"') == 2
    assert svg.startswith("<svg ")
    assert 'version="1.1"' in svg


def test_lr_legend_names_capability_and_count():
    svg = render_svg(*lr_pair())
    assert ">type 0: capability 1, count 2</text>" in svg


def test_two_perimeters_render_two_circles():
    instance = parse_instance(
        '{"problem": "mc", "perimeters": [{"segments": [2, 3], "gaps": [1, 2]},'
        ' {"segments": [7], "gaps": [3]}],'
        ' "types": [{"length": 3, "cost": 2}, {"length": 5, "cost": 3}]}'
    )
    sol = solution_from_mc(solve_mc_multi(instance.perimeters, instance.types))
    svg = render_svg(instance, sol)
    assert ">perimeter 0</text>" in svg
    assert ">perimeter 1</text>" in svg
    assert svg.count('class="cover"') == len(sol.arcs)


def test_type_colors_match_convention():
    instance = parse_instance(
        '{"problem": "mc", "perimeters": [{"segments": [7], "gaps": [3]}],'
        ' "types": [{"length": 3, "cost": 2}, {"length": 5, "cost": 3}]}'
    )
    sol = solution_from_mc(solve_mc_multi(instance.perimeters, instance.types))
    svg = render_svg(instance, sol)
    # First type orange, second green, in both arcs and legend.
    assert "#e8801a" in svg
    assert "#2e9e44" in svg
    assert "legend" in svg
    assert "type 0: length 3, cost 2" in svg


def test_full_circle_cover_renders_as_circle():
    per = build_perimeter([4], [])
    instance = InstanceDocument(
        problem="mc", perimeters=(per,), types=build_types_mc([(4, 1)])
    )
    sol = SolutionDocument(
        problem="mc",
        objective=F(1),
        arcs=(Arc(perimeter=0, robot_type=0, start=F(0), length=F(4)),),
        counts=(1,),
    )
    svg = render_svg(instance, sol)
    assert '<circle class="cover"' in svg


def test_gapless_segment_renders_as_one_circle():
    # An arc whose endpoints coincide is not drawn (SVG 1.1, F.6.2), so the
    # guarded ring of a gapless perimeter must be a <circle>.
    instance = parse_instance(
        '{"problem": "mc", "perimeters": [{"segments": [9]}], "types": [{"length": 2, "cost": 1}]}'
    )
    svg = render_svg(instance, solution_from_mc(solve_mc_multi(instance.perimeters, instance.types)))
    segments = [line for line in svg.splitlines()
                if SEGMENT_STROKE in line and not line.startswith("<line")]   # not the legend
    assert segments == [f'<circle cx="210.000" cy="210.000" r="140" fill="none" {SEGMENT_STROKE}/>']


def test_render_refuses_invalid_solution():
    instance, sol = lr_pair()
    broken = replace(sol, arcs=sol.arcs[:1], counts=(1,))
    with pytest.raises(ValidationError):
        render_svg(instance, broken)


def _solve(instance):
    if instance.problem == "lr":
        return solution_from_lr(solve_lr(instance.perimeters, instance.fleet))
    return solution_from_mc(solve_mc_multi(instance.perimeters, instance.types))


def svg_corpus():
    """(instance, solution) pairs covering every element the renderer writes."""
    cells = (
        ("lr", 2, 5, 1, None),
        ("lr", 2, 4, 2, None),
        ("mc", 3, 5, 1, 200),
        ("mc", 4, 3, 2, 300),
        ("mc", 10, 4, 1, 200),   # more types than PALETTE colors: the palette wraps
    )
    for problem, t, q, m, length in cells:
        for seed in range(12):
            instance = gen_random(problem, t, q, m, seed=seed, target_length=length)
            yield instance, _solve(instance)
    gapless = parse_instance(
        '{"problem": "mc", "perimeters": [{"segments": [9]}],'
        ' "types": [{"length": 2, "cost": 1}, {"length": 5, "cost": 2}]}'
    )
    yield gapless, _solve(gapless)
    circle = InstanceDocument(
        problem="mc", perimeters=(build_perimeter([4], []),), types=build_types_mc([(4, 1)])
    )
    yield circle, SolutionDocument(
        problem="mc", objective=F(1), counts=(1,),
        arcs=(Arc(perimeter=0, robot_type=0, start=F(0), length=F(4)),),
    )
    polygon = parse_instance(   # the edge (3, 1)-(1, 4) is sqrt(13) long
        '{"problem": "lr", "perimeters": [{"polygon": {"vertices": [[0, 0], [3, 1], [1, 4]],'
        ' "guarded": [true, true, false]}}], "types": [{"capability": 2, "count": 3}]}'
    )
    yield polygon, _solve(polygon)


# sha256 over the render_svg text of every svg_corpus pair.
SVG_DIGEST = "1d5558ea539d457acff6a2a474b8c5ea136980a093fdbaee1126332d9ab58b2e"


def test_svg_bytes_unchanged():
    digest = hashlib.sha256()
    for instance, solution in svg_corpus():
        digest.update(render_svg(instance, solution).encode())
    assert digest.hexdigest() == SVG_DIGEST, (
        "the SVG text changed; if on purpose, say why and re-pin"
    )
