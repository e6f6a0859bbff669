"""Exact planar predicates and winding-number machinery.

All predicates work on points with integer or `fractions.Fraction`
coordinates and are evaluated exactly (no epsilons).  Input coordinates are
expected to be scaled integers; rational coordinates only appear internally,
e.g. at crossing points created by the uncrossing step.  With |x|, |y| < 2**30
the 3-point orientation determinant stays well inside machine-int range, but
Python integers are exact at any magnitude, so this is a convention rather
than a hard limit.

Winding tests (`ray_crossing`, `homogeneous_winding`) take the query point
in homogeneous form (X, Y, W) and compare it with the walk's vertices
scaled by W, so an integer walk, such as every input polygon, is tested in
integers even at a rational query point (a reference point, a doubled
segment midpoint).  Rationals remain in `crossing_point`, whose results
uncrossing adds to walks and the verifier then sees, in rational reference
points as stored (converted once by `homogeneous`), and in `angular_key`.

Euclidean lengths are the only inexact quantities; they are computed in
double precision, and only costs are compared with a relative tolerance
(1e-9); no validation decision rests on one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Sequence, Tuple, Union

from .errors import OnBoundary

Coord = Union[int, Fraction]
# A point (X/W, Y/W) as (X, Y, W), W a positive integer; X and Y are
# integers except where the point is built from rational coordinates.
Homogeneous = Tuple[Coord, Coord, int]


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
    """Integers (X, Y, W), W > 0, with p = (X/W, Y/W); W = 1 for an
    integer point."""
    x, y = p
    if isinstance(x, int) and isinstance(y, int):
        return x, y, 1
    x, y = Fraction(x), Fraction(y)
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
    """Points of the line ab sorted from a towards b, by their signed
    offset from a on the dominant axis of ab (ties keep their order)."""
    if abs(b.x - a.x) >= abs(b.y - a.y):
        sign = 1 if b.x > a.x else -1
        return sorted(points, key=lambda p: (p.x - a.x) * sign)
    sign = 1 if b.y > a.y else -1
    return sorted(points, key=lambda p: (p.y - a.y) * sign)


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


def ray_crossing(a: Point, b: Point, x: Homogeneous) -> int:
    """Signed crossing of the directed edge ab with the +x ray from the
    point x = (X/W, Y/W), given as (X, Y, W) with W > 0, by the half-open
    rule: ab counts iff exactly one of a, b has y strictly above Y/W and ab
    passes strictly right of x; upward gives +1, downward -1.  This makes
    vertex-on-ray degeneracies impossible by construction, and an edge
    through x (orientation 0) counts 0.

    Evaluated on the scaled vertices (a.x*W, a.y*W), so integer vertices
    and an integer (X, Y) build no `Fraction`."""
    X, Y, W = x
    ay, by = a.y * W, b.y * W
    if (ay <= Y) == (by <= Y):
        return 0
    # W times the orientation of (a, b, x).
    d = (b.x - a.x) * (Y - ay) - (b.y - a.y) * (X - a.x * W)
    if ay <= Y:
        return 1 if d > 0 else 0
    return -1 if d < 0 else 0


def homogeneous_winding(walk: Sequence[Point], x: Homogeneous) -> int:
    """Winding number of the closed walk around the point x = (X/W, Y/W),
    given as (X, Y, W) with W > 0: the sum of `ray_crossing` over its
    edges.  An edge whose y-range misses Y/W can neither cross the ray nor
    hold x, so only the others are looked at.

    Raises OnBoundary if x lies on a vertex or edge of the walk.
    """
    X, Y, W = x
    total = 0
    a = walk[-1] if walk else None
    for b in walk:
        ay, by = a.y * W, b.y * W
        if (ay <= Y or by <= Y) and (ay >= Y or by >= Y) and a != b:
            if (b.x - a.x) * (Y - ay) == (b.y - a.y) * (X - a.x * W) \
                    and min(a.x, b.x) * W <= X <= max(a.x, b.x) * W:
                raise OnBoundary(f"point (X, Y, W) = {x} lies on the walk")
            total += ray_crossing(a, b, x)
        a = b
    return total


def winding_number(walk: Sequence[Point], x: Point) -> int:
    """Winding number of the closed walk around x (`homogeneous_winding`).

    Raises OnBoundary if x lies on a vertex or edge of the walk.
    """
    return homogeneous_winding(walk, homogeneous(x))


def signed_area2(walk: Sequence[Point]) -> Coord:
    """Twice the signed area of the closed walk (shoelace), exact."""
    total = 0
    m = len(walk)
    for i in range(m):
        a = walk[i]
        b = walk[(i + 1) % m]
        total += a.x * b.y - a.y * b.x
    return total
