"""SVG rendering of instances and their deployments.

Each perimeter is a circle: guarded segments in red, gaps dotted grey,
and one colored cover arc per deployed robot drawn offset outward.
Positions map to angles clockwise from twelve o'clock.
"""
from __future__ import annotations

import math
from fractions import Fraction

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
SEGMENT_COLOR = "#d4322c"  # red
GAP_COLOR = "#9a9a9a"

RADIUS = 140
CELL = 380
TOP = 70


def _point(cx: float, cy: float, r: float, frac: float) -> tuple[float, float]:
    theta = 2 * math.pi * frac - math.pi / 2
    return cx + r * math.cos(theta), cy + r * math.sin(theta)


def _arc_path(cx, cy, r, start_frac, len_frac) -> str:
    x1, y1 = _point(cx, cy, r, start_frac)
    x2, y2 = _point(cx, cy, r, start_frac + len_frac)
    large = 1 if len_frac > 0.5 else 0
    return (
        f"M {x1:.3f} {y1:.3f} A {r} {r} 0 {large} 1 {x2:.3f} {y2:.3f}"
    )


def render_svg(
    instance: InstanceDocument, solution: SolutionDocument, path: str | None = None
) -> str:
    """Render a validated solution to an SVG 1.1 document.

    Returns the SVG text; writes it to `path` as well when given.
    """
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
        for i in range(per.q):
            s = float(per.seg_start(i) / c)
            l = float((per.seg_end(i) - per.seg_start(i)) / c)
            out.append(
                f'<path d="{_arc_path(cx, cy, RADIUS, s, l)}" fill="none" '
                f'stroke="{SEGMENT_COLOR}" stroke-width="6"/>'
            )
        for i in range(per.q):
            g = per.gaps[i] if per.gaps else Fraction(0)
            if g == 0:
                continue
            s = float(per.seg_end(i) / c)
            l = float(g / c)
            out.append(
                f'<path d="{_arc_path(cx, cy, RADIUS, s, l)}" fill="none" '
                f'stroke="{GAP_COLOR}" stroke-width="3" stroke-dasharray="2 7"/>'
            )
        arcs = sorted(
            (a for a in solution.arcs if a.perimeter == k), key=lambda a: (a.start, a.length)
        )
        for idx, arc in enumerate(arcs):
            r = RADIUS + 18 + 11 * (idx % 2)
            color = PALETTE[arc.robot_type % len(PALETTE)]
            frac_len = float(arc.length / c)
            if frac_len >= 1.0:
                out.append(
                    f'<circle class="cover" cx="{cx:.3f}" cy="{cy:.3f}" r="{r}" '
                    f'fill="none" stroke="{color}" stroke-width="5"/>'
                )
            else:
                d = _arc_path(cx, cy, r, float(arc.start / c), frac_len)
                out.append(
                    f'<path class="cover" d="{d}" fill="none" '
                    f'stroke="{color}" stroke-width="5"/>'
                )
        out.append(
            f'<text x="{cx:.3f}" y="{cy + RADIUS + 46:.3f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">perimeter {k}</text>'
        )

    ly = TOP + 2 * RADIUS + 80
    out.append(
        f'<text x="24" y="{ly}" font-family="sans-serif" font-size="13" '
        f'font-weight="bold">legend</text>'
    )
    ly += 16
    out.append(
        f'<line x1="24" x2="54" y1="{ly - 4}" y2="{ly - 4}" '
        f'stroke="{SEGMENT_COLOR}" stroke-width="6"/>'
        f'<text x="62" y="{ly}" font-family="sans-serif" font-size="12">guarded segment</text>'
    )
    ly += 16
    out.append(
        f'<line x1="24" x2="54" y1="{ly - 4}" y2="{ly - 4}" stroke="{GAP_COLOR}" '
        f'stroke-width="3" stroke-dasharray="2 7"/>'
        f'<text x="62" y="{ly}" font-family="sans-serif" font-size="12">gap</text>'
    )
    for tau in range(t):
        ly += 16
        color = PALETTE[tau % len(PALETTE)]
        label = f"type {tau}: {first} {xs[tau]}, {second} {ys[tau]}"
        out.append(
            f'<line x1="24" x2="54" y1="{ly - 4}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="5"/>'
            f'<text x="62" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
