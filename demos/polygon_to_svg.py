"""
From a building footprint to a rendered deployment
==================================================

"""

import os

# Real sites are polygons, not circles.  An outline with a guarded
# flag per edge collapses into a perimeter: consecutive edges with the
# same flag merge, and the walk starts at a guard transition.
from perimeterguard import build_polygon_spec, from_polygon

outline = build_polygon_spec(
    vertices=[(0, 0), (40, 0), (40, 30), (25, 30), (25, 18), (0, 18)],
    guarded=[True, True, False, True, False, False],
)
perimeter, notes = from_polygon(outline)
print("segments:", perimeter.segments)
print("gaps:", perimeter.gaps)

# Irrational edge lengths get quantized to a fixed denominator, and
# every quantization is reported rather than silently applied.
tilted = build_polygon_spec(
    vertices=[(0, 0), (3, 1), (1, 4)],
    guarded=[True, True, False],
)
_, tilted_notes = from_polygon(tilted)
for note in tilted_notes:
    print("note:", note)

# Solve the footprint as a fixed-fleet instance and wrap everything in
# documents, the layer the CLI and the renderer speak.
from perimeterguard import (
    InstanceDocument,
    build_fleet_lr,
    render_svg,
    solution_from_lr,
    solve_lr,
    write_instance,
)

fleet = build_fleet_lr([(30, 2), (12, 3)])
instance = InstanceDocument(problem="lr", perimeters=(perimeter,), fleet=fleet)
solution = solution_from_lr(solve_lr([perimeter], fleet))
print("optimal ratio:", solution.objective)

# The renderer validates the solution against the instance first, then
# draws segments, gaps, and the covering arcs in offset lanes.  It returns
# the SVG text; the demo writes it to footprint.svg next to this script.
out = os.path.join(os.path.dirname(__file__), "footprint.svg")
with open(out, "w", encoding="utf-8") as fh:
    fh.write(render_svg(instance, solution))
print("wrote", out)

# The JSON form round-trips exactly; rationals appear as ints or
# "num/den" strings, never floats.
print(write_instance(instance)[:200], "...")
