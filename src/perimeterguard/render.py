"""SVG rendering of instances and their deployments.

Each perimeter is a circle: guarded segments in red, gaps dotted grey,
and one colored cover arc per deployed robot drawn offset outward.
Positions map to angles clockwise from twelve o'clock.
"""
from __future__ import annotations

import math

from .documents import InstanceDocument, SolutionDocument
from .validate import validate_solution

PALETTE = (
    "#e8801a",  # orange
    "#2e9e44",  # green
    "#7d4bc4",  # purple
    "#1f77b4",
    "#d62728",
    "#17becf",
    "#bcbd22",
    "#8c564b",
)
SEGMENT_STROKE = 'stroke="#d4322c" stroke-width="6"'  # red
GAP_STROKE = 'stroke="#9a9a9a" stroke-width="3" stroke-dasharray="2 7"'
COVER = ' class="cover"'

RADIUS = 140
CELL = 380
TOP = 70


def _point(cx: float, cy: float, r: float, frac: float) -> tuple[float, float]:
    theta = 2 * math.pi * frac - math.pi / 2
    return cx + r * math.cos(theta), cy + r * math.sin(theta)


def _type_stroke(tau: int) -> str:
    return f'stroke="{PALETTE[tau % len(PALETTE)]}" stroke-width="5"'


def _arc(cx, cy, r, start_frac, len_frac, stroke: str, cls: str = "") -> str:
    """An unfilled arc from start_frac over len_frac of the circle; cls is COVER or "".
    A full turn is a <circle>: SVG omits an arc whose endpoints coincide (1.1, F.6.2)."""
    if len_frac >= 1.0:
        return f'<circle{cls} cx="{cx:.3f}" cy="{cy:.3f}" r="{r}" fill="none" {stroke}/>'
    x1, y1 = _point(cx, cy, r, start_frac)
    x2, y2 = _point(cx, cy, r, start_frac + len_frac)
    large = 1 if len_frac > 0.5 else 0
    return (f'<path{cls} d="M {x1:.3f} {y1:.3f} A {r} {r} 0 {large} 1 {x2:.3f} {y2:.3f}" '
            f'fill="none" {stroke}/>')


def render_svg(instance: InstanceDocument, solution: SolutionDocument) -> str:
    """Render a validated solution to an SVG 1.1 document and return its text."""
    validate_solution(instance, solution)
    m = len(instance.perimeters)
    (first, xs), (second, ys) = instance.catalog
    t = len(xs)

    width = CELL * m + 40
    height = TOP + 2 * RADIUS + 150 + 18 * t
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    for k, per in enumerate(instance.perimeters):
        cx = 20 + CELL * k + CELL / 2
        cy = TOP + RADIUS
        c = per.circumference
        spans = [(per.seg_start(i), per.segments[i], SEGMENT_STROKE) for i in range(per.q)]
        spans += [(per.seg_end(i), g, GAP_STROKE) for i, g in enumerate(per.gaps)]
        for start, length, stroke in spans:
            out.append(_arc(cx, cy, RADIUS, float(start / c), float(length / c), stroke))
        arcs = sorted(
            (a for a in solution.arcs if a.perimeter == k), key=lambda a: (a.start, a.length)
        )
        for idx, arc in enumerate(arcs):
            r = RADIUS + 18 + 11 * (idx % 2)
            out.append(_arc(cx, cy, r, float(arc.start / c), float(arc.length / c),
                            _type_stroke(arc.robot_type), COVER))
        out.append(
            f'<text x="{cx:.3f}" y="{cy + RADIUS + 46:.3f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">perimeter {k}</text>'
        )

    ly = TOP + 2 * RADIUS + 80
    out.append(
        f'<text x="24" y="{ly}" font-family="sans-serif" font-size="13" '
        f'font-weight="bold">legend</text>'
    )
    rows = [(SEGMENT_STROKE, "guarded segment"), (GAP_STROKE, "gap")]
    rows += [(_type_stroke(tau), f"type {tau}: {first} {xs[tau]}, {second} {ys[tau]}")
             for tau in range(t)]
    for stroke, label in rows:
        ly += 16
        out.append(
            f'<line x1="24" x2="54" y1="{ly - 4}" y2="{ly - 4}" {stroke}/>'
            f'<text x="62" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
