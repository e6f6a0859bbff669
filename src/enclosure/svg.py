"""Deterministic SVG rendering of instances and solutions.

Obstacles are drawn gray, required objects with a hatched fill, the
solution walk stroked on top.  Edges traversed more than once are offset
perpendicular to their direction by 0.5% of the bounding-box diagonal so
the overlapping passes stay visible.  Output is byte-identical across runs
for the same input.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .geometry import Point
from .instance import Instance
from .walks import Walk


def _f(x) -> str:
    return f"{float(x):.4f}".rstrip("0").rstrip(".")


def _poly_points(verts) -> str:
    return " ".join(f"{_f(v.x)},{_f(v.y)}" for v in verts)


def render_svg(inst: Instance, walk: Optional[Walk], path: str) -> None:
    x0, y0, x1, y1 = inst.bounding_box()
    if walk is not None:
        for p in walk.points:
            x0 = min(x0, p.x)
            y0 = min(y0, p.y)
            x1 = max(x1, p.x)
            y1 = max(y1, p.y)
    w = float(x1 - x0) or 1.0
    h = float(y1 - y0) or 1.0
    mx, my = 0.1 * w, 0.1 * h
    vb = (float(x0) - mx, float(y0) - my, w + 2 * mx, h + 2 * my)
    diag = math.hypot(w, h)
    offset = 0.005 * diag
    stroke = max(diag / 400.0, 0.01)

    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    # Flip y so the mathematical orientation matches the on-screen one.
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_f(vb[0])} '
        f'{_f(-vb[1] - vb[3])} {_f(vb[2])} {_f(vb[3])}" width="640" height="640">')
    lines.append('<defs><pattern id="hatch" width="4" height="4" '
                 'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
                 f'<rect width="4" height="4" fill="#f4c7c3"/>'
                 f'<line x1="0" y1="0" x2="0" y2="4" stroke="#c43d3d" '
                 f'stroke-width="1"/></pattern></defs>')
    lines.append(f'<g transform="scale(1,-1)">')

    for poly in inst.polygons:
        if poly.unbounded:
            continue
        fill = 'url(#hatch)' if poly.kind == "required" else "#bbbbbb"
        lines.append(f'<polygon points="{_poly_points(poly.vertices)}" '
                     f'fill="{fill}" stroke="#555555" '
                     f'stroke-width="{_f(stroke / 2)}"/>')

    if walk is not None and len(walk.points) >= 2:
        counts: Dict[Tuple[Point, Point], int] = {}
        for a, b in walk.edges():
            key = (a, b) if a <= b else (b, a)
            seen = counts.get(key, 0)
            counts[key] = seen + 1
            dx, dy = float(b.x - a.x), float(b.y - a.y)
            length = math.hypot(dx, dy) or 1.0
            # Successive passes alternate sides: 0, +1, -1, +2, ...
            step = (seen + 1) // 2 * (1 if seen % 2 else -1)
            ox = -dy / length * offset * step
            oy = dx / length * offset * step
            lines.append(
                f'<line x1="{_f(float(a.x) + ox)}" y1="{_f(float(a.y) + oy)}" '
                f'x2="{_f(float(b.x) + ox)}" y2="{_f(float(b.y) + oy)}" '
                f'stroke="#1f4fd8" stroke-width="{_f(stroke)}" '
                f'stroke-linecap="round"/>')
    elif walk is not None and len(walk.points) == 1:
        p = walk.points[0]
        lines.append(f'<circle cx="{_f(p.x)}" cy="{_f(p.y)}" '
                     f'r="{_f(stroke * 3)}" fill="#1f4fd8"/>')

    for poly in inst.polygons:
        if poly.reference_point is None or poly.unbounded:
            continue
        X, Y, W = poly.reference_point
        lines.append(f'<circle cx="{_f(X / W)}" cy="{_f(Y / W)}" '
                     f'r="{_f(stroke)}" fill="#222222"/>')

    lines.append('</g>')
    lines.append('</svg>')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
