"""Exact planar predicates and winding-number machinery.

All predicates work on points with integer or `fractions.Fraction`
coordinates and are evaluated exactly (no epsilons).  Input coordinates are
expected to be scaled integers; rational coordinates only appear internally,
e.g. at crossing points created by the uncrossing step.  With |x|, |y| < 2**30
the 3-point orientation determinant stays well inside machine-int range, but
Python integers are exact at any magnitude, so this is a convention rather
than a hard limit.

Euclidean lengths are the only inexact quantities; they are computed in
double precision and compared with a relative tolerance of 1e-9 elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Sequence, Tuple, Union

from .errors import OnBoundary

Coord = Union[int, Fraction]


class Point(NamedTuple):
    x: Coord
    y: Coord


class Segment(NamedTuple):
    a: Point
    b: Point


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the exact orientation determinant; +1 means ccw."""
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def homogeneous(p: Point) -> Tuple[int, int, int]:
    """Integers (X, Y, W), W > 0, with p = (X/W, Y/W)."""
    x, y = Fraction(p.x), Fraction(p.y)
    w = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator),
            y.numerator * (w // y.denominator), w)


def distance(a: Point, b: Point) -> float:
    return math.hypot(float(b.x - a.x), float(b.y - a.y))


def on_segment(x: Point, a: Point, b: Point) -> bool:
    """True iff x lies on the closed segment ab."""
    if orient(a, b, x) != 0:
        return False
    return (min(a.x, b.x) <= x.x <= max(a.x, b.x)
            and min(a.y, b.y) <= x.y <= max(a.y, b.y))


def in_open_segment(x: Point, a: Point, b: Point) -> bool:
    """True iff x lies in the relative interior of segment ab."""
    return on_segment(x, a, b) and x != a and x != b


def sort_along(a: Point, b: Point, points: Sequence[Point]) -> List[Point]:
    """Points of the line ab sorted from a towards b, by their exact
    parameter along ab on its dominant axis."""
    if abs(b.x - a.x) >= abs(b.y - a.y):
        return sorted(points, key=lambda p: Fraction(p.x - a.x, b.x - a.x))
    return sorted(points, key=lambda p: Fraction(p.y - a.y, b.y - a.y))


def angular_key(origin: Point) -> Callable[[Point], Tuple]:
    """Sort key ordering points counterclockwise by their exact direction
    from origin, starting at the +x direction; points in one direction tie."""
    def key(p: Point) -> Tuple:
        dx, dy = p.x - origin.x, p.y - origin.y
        # Within each half-turn the angle grows with -dx/dy.
        return (dy < 0 or (dy == 0 and dx < 0), dy != 0,
                -Fraction(dx, dy) if dy else 0)
    return key


def boxes_meet(s: Tuple[Coord, Coord, Coord, Coord],
               t: Tuple[Coord, Coord, Coord, Coord]) -> bool:
    """True iff the closed boxes (xmin, ymin, xmax, ymax) s and t share a
    point."""
    return s[0] <= t[2] and t[0] <= s[2] and s[1] <= t[3] and t[1] <= s[3]


def segments_properly_cross(s: Segment, t: Segment) -> bool:
    """True iff s and t share a point interior to both and are not collinear."""
    o1 = orient(s.a, s.b, t.a)
    o2 = orient(s.a, s.b, t.b)
    o3 = orient(t.a, t.b, s.a)
    o4 = orient(t.a, t.b, s.b)
    return o1 * o2 < 0 and o3 * o4 < 0


def crossing_point(s: Segment, t: Segment) -> Point:
    """Exact rational intersection point of two properly crossing segments."""
    ax, ay = Fraction(s.a.x), Fraction(s.a.y)
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    ex, ey = t.b.x - t.a.x, t.b.y - t.a.y
    denom = dx * ey - dy * ex
    lam = Fraction((t.a.x - s.a.x) * ey - (t.a.y - s.a.y) * ex, denom)
    return Point(ax + lam * dx, ay + lam * dy)


def ray_crossing(a: Point, b: Point, x: Point) -> int:
    """Signed crossing of the directed edge ab with the +x ray from x, by
    the half-open rule: ab counts iff exactly one of a, b has y strictly
    above x.y and ab passes strictly right of x; upward gives +1, downward
    -1.  This makes vertex-on-ray degeneracies impossible by construction,
    and an edge through x (orientation 0) counts 0."""
    if a.y <= x.y:
        return 1 if b.y > x.y and orient(a, b, x) > 0 else 0
    return -1 if b.y <= x.y and orient(a, b, x) < 0 else 0


def winding_number(walk: Sequence[Point], x: Point) -> int:
    """Winding number of the closed walk around x: the sum of
    `ray_crossing` over its edges.

    Raises OnBoundary if x lies on a vertex or edge of the walk.
    """
    m = len(walk)
    total = 0
    for i in range(m):
        a = walk[i]
        b = walk[(i + 1) % m]
        if a == b:
            continue
        if on_segment(x, a, b):
            raise OnBoundary(f"point {x} lies on the walk")
        total += ray_crossing(a, b, x)
    return total


def point_in_polygon(x: Point, boundary: Sequence[Point]) -> str:
    """Classify x against a (ccw, almost-simple) polygon boundary walk.

    Returns 'inside', 'boundary' or 'outside'.  Interior points of a ccw
    walk have nonzero winding number; boundary walks of faces may repeat
    edges (bridges), which cancel out in the winding count.
    """
    try:
        w = winding_number(boundary, x)
    except OnBoundary:
        return "boundary"
    return "inside" if w != 0 else "outside"


def signed_area2(walk: Sequence[Point]) -> Coord:
    """Twice the signed area of the closed walk (shoelace), exact."""
    total = 0
    m = len(walk)
    for i in range(m):
        a = walk[i]
        b = walk[(i + 1) % m]
        total += a.x * b.y - a.y * b.x
    return total
