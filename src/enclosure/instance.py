"""Problem data model: parsing, validation, subdivision, reference points.

Coordinates are integers on a grid; the JSON header's ``scale`` records how
many grid units make one real-world unit and is carried through unchanged
(all weights and costs reported by the solvers are in grid units).

Point objects are approximated by small right-isosceles triangles of side
``point_epsilon`` grid units (default: one ten-thousandth of the bounding
box, at least 1).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import (
    CapacityError,
    DegeneratePolygon,
    OnBoundary,
    OverlapError,
    ParseError,
    SchemaError,
)
from .geometry import (
    Homogeneous,
    Point,
    Segment,
    boxes_meet,
    crossing_pairs,
    distance,
    homogeneous_winding,
    on_segment,
    orient,
    signed_area2,
    sort_along,
    split_at,
    transitions_non_crossing,
)

REQUIRED = "required"
OPTIONAL = "optional"

MAX_REQUIRED = 20  # SubsetMask must fit a machine word with room to spare


@dataclass(frozen=True)
class InputPolygon:
    id: str
    vertices: Tuple[Point, ...]
    kind: str  # REQUIRED or OPTIONAL
    penalty: float = 0.0  # optional polygons only; may be math.inf
    # The point (X/W, Y/W) as (X, Y, W); validation stores it reduced
    # (W > 0, gcd 1), the one triple of its point.
    reference_point: Optional[Homogeneous] = None
    unbounded: bool = False

    def edges(self):
        m = len(self.vertices)
        for i in range(m):
            yield self.vertices[i], self.vertices[(i + 1) % m]

    @cached_property
    def box(self) -> Optional[Tuple[int, int, int, int]]:
        """Closed bounding box (xmin, ymin, xmax, ymax) of a bounded
        polygon, which holds its interior; None for the unbounded polygon,
        whose interior lies outside its boundary."""
        if self.unbounded:
            return None
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def contains(self, x: Homogeneous) -> str:
        """Classify the point (X/W, Y/W), given as x = (X, Y, W) with
        W > 0, against this polygon: 'inside', 'boundary', 'outside'.

        By the winding number of the boundary walk around x: nonzero inside
        a bounded polygon (bridges, walked twice, cancel out); zero inside
        the unbounded polygon, the outer region, since its walk is
        clockwise around the bounded part of the plane.
        """
        try:
            w = homogeneous_winding(self.vertices, x)
        except OnBoundary:
            return "boundary"
        return "inside" if (w == 0) == self.unbounded else "outside"

    def segment_meets_interior(self, a: Point, b: Point) -> bool:
        """True iff the closed segment ab meets this polygon's open interior.

        Either ab properly crosses an edge, or, split at the vertices in its
        relative interior, one of its open pieces lies inside: with no
        crossing and no vertex in it a piece lies in one face, so its
        midpoint decides, tested doubled as (mx, my, 2).  A bounded
        polygon's interior lies in its box, so a piece whose midpoint lies
        outside the box is skipped; both hold for any rational endpoints.

        One pass over the vertices finds both.  It takes the side
        s(v) = (b - a) x (v - a) of each vertex v once, exactly: the
        determinant whose sign `orient(a, b, v)` returns.  An edge cd
        properly crosses ab iff orient(a, b, c) * orient(a, b, d) < 0 and
        orient(c, d, a) * orient(c, d, b) < 0; the first holds iff s(c)
        and s(d) have strictly opposite signs, so only such an edge gets
        the two determinants of a and b against cd.  The vertices in the
        relative interior of ab are those with s(v) = 0 in ab's closed box
        other than a and b, kept in vertex order; with none the chain is
        just ab."""
        ax, ay = a
        bx, by = b
        dx, dy = bx - ax, by - ay
        xlo, xhi = (ax, bx) if ax <= bx else (bx, ax)
        ylo, yhi = (ay, by) if ay <= by else (by, ay)
        touches = []
        cx, cy = self.vertices[-1]
        sc = dx * (cy - ay) - dy * (cx - ax)
        for v in self.vertices:
            vx, vy = v
            sv = dx * (vy - ay) - dy * (vx - ax)
            if sv == 0:
                if xlo <= vx <= xhi and ylo <= vy <= yhi and v != a and v != b:
                    touches.append(v)
            elif sc < 0 < sv or sv < 0 < sc:
                ex, ey = vx - cx, vy - cy
                sa = ex * (ay - cy) - ey * (ax - cx)
                sb = ex * (by - cy) - ey * (bx - cx)
                if sa < 0 < sb or sb < 0 < sa:
                    return True
            cx, cy, sc = vx, vy, sv
        chain = [a] + sort_along(a, b, touches) + [b] if touches else (a, b)
        box = self.box
        for u, v in zip(chain, chain[1:]):
            mx, my = u.x + v.x, u.y + v.y     # the midpoint, doubled
            if box is not None and not (2 * box[0] <= mx <= 2 * box[2]
                                        and 2 * box[1] <= my <= 2 * box[3]):
                continue
            if self.contains((mx, my, 2)) == "inside":
                return True
        return False


@dataclass(frozen=True)
class Instance:
    polygons: Tuple[InputPolygon, ...]
    squeezed: Dict[FrozenSet[Point], float] = field(default_factory=dict)
    mode: str = "enclose"
    scale: int = 1
    point_epsilon: int = 0
    validated: bool = False

    @property
    def required(self) -> Tuple[InputPolygon, ...]:
        return tuple(p for p in self.polygons if p.kind == REQUIRED)

    @property
    def optional(self) -> Tuple[InputPolygon, ...]:
        return tuple(p for p in self.polygons if p.kind == OPTIONAL)

    @property
    def k(self) -> int:
        return len(self.required)

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """All distinct polygon vertices, sorted for determinism."""
        seen = set()
        for p in self.polygons:
            seen.update(p.vertices)
        return tuple(sorted(seen))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def bounding_box(self) -> Tuple[int, int, int, int]:
        xs = [v.x for p in self.polygons for v in p.vertices]
        ys = [v.y for p in self.polygons for v in p.vertices]
        if not xs:
            return (0, 0, 0, 0)
        return (min(xs), min(ys), max(xs), max(ys))

    def segment_weight(self, a: Point, b: Point) -> float:
        """Weight of segment ab: a squeezed edge's own weight; otherwise ab
        split at the ends of the squeezed edges uv on its line, where each
        piece on such a uv of weight w weighs w * |piece| / |uv|, as
        `_resplit_squeezed` splits a squeezed edge, and every other piece
        its Euclidean length."""
        if a == b:
            return 0.0
        w = self.squeezed.get(frozenset((a, b)))
        if w is not None:
            return w
        walls = [(u, v, w) for (u, v), w in self.squeezed.items()
                 if not orient(a, b, u) and not orient(a, b, v)]
        if not walls:
            return distance(a, b)
        chain = split_at(a, b, {x for u, v, _w in walls for x in (u, v)})
        weight = 0.0
        for c, d in zip(chain, chain[1:]):
            for u, v, w in walls:
                if on_segment(c, u, v) and on_segment(d, u, v):
                    weight += w * (distance(c, d) / distance(u, v))
                    break
            else:
                weight += distance(c, d)
        return weight

    def walk_weight(self, walk: Sequence[Point]) -> float:
        pts = list(walk)
        if len(pts) < 2:
            return 0.0
        return sum(self.segment_weight(a, b) for a, b in zip(pts, pts[1:] + pts[:1]))


def _is_int(value) -> bool:
    """A JSON integer: `bool` subclasses `int` in Python, but true and
    false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_point(obj, where: str) -> Point:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(_is_int(c) for c in obj)):
        raise SchemaError(f"{where}: expected integer coordinate pair, got {obj!r}")
    return Point(obj[0], obj[1])


def _parse_penalty(value, where: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not value >= 0:  # also rejects NaN, which JSON accepts
            raise SchemaError(f"{where}: penalty must be nonnegative, got {value}")
        return float(value)
    raise SchemaError(f"{where}: penalty must be a number or \"inf\", got {value!r}")


def _parse_weight(value, where: str) -> float:
    """A squeezed-edge or plane-graph edge weight: a number > 0, so not NaN."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not value > 0:
        raise SchemaError(f"{where}: weight must be a number > 0, got {value!r}")
    return float(value)


def _parse_kind(obj: dict, where: str) -> Tuple[str, float]:
    """Kind and penalty of a polygon, a point or a plane-graph face tag:
    an optional object's penalty defaults to 0, a required one has none."""
    kind = obj.get("kind")
    if kind not in (REQUIRED, OPTIONAL):
        raise SchemaError(f"{where}: kind must be 'required' or 'optional'")
    if kind == OPTIONAL:
        return kind, _parse_penalty(obj.get("penalty", 0), where)
    if "penalty" in obj:
        raise SchemaError(f"{where}: required objects carry no penalty")
    return kind, 0.0


def _claim_id(obj: dict, default: str, seen: set, where: str) -> str:
    """The object's id (`default` if absent), which no earlier polygon or
    point may carry."""
    oid = obj.get("id", default)
    if isinstance(oid, (list, dict)):
        raise SchemaError(f"{where}: id must be a string or a number, got {oid!r}")
    if oid in seen:
        raise SchemaError(f"{where}: duplicate id {oid!r}")
    seen.add(oid)
    return oid


def _entries(data: dict, key: str, prefix: str = "", item=dict):
    """(index, location, entry) for each entry of the list field
    `data[key]`, empty when absent; each entry must be an `item` (a JSON
    object unless a list is asked for)."""
    entries = data.get(key, [])
    if not isinstance(entries, (list, tuple)):
        raise SchemaError(f"{prefix}{key}: expected a list")
    for i, entry in enumerate(entries):
        where = f"{prefix}{key}[{i}]"
        if not isinstance(entry, item):
            raise SchemaError(
                f"{where}: expected {'an object' if item is dict else 'a list'}")
        yield i, where, entry


def parse_instance(data) -> Instance:
    """Parse the JSON instance format into an unvalidated Instance.

    Accepts bytes, a JSON string, or an already-decoded dict.  Plane-graph
    input ({"graph": ...}, with `mode` its only other field) is routed
    through the face-extraction reduction.
    Run validate_and_subdivide on the result before solving.
    """
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    mode = data.get("mode", "enclose")
    if mode not in ("enclose", "invert"):
        raise SchemaError(f"mode must be 'enclose' or 'invert', got {mode!r}")

    if "graph" in data:
        extra = [key for key in ("polygons", "points", "squeezed_edges", "scale",
                                 "point_epsilon") if key in data]
        if extra:
            raise SchemaError(f"a plane-graph document carries no {', '.join(extra)}")
        from .planegraph import graph_to_instance, parse_plane_graph
        return replace(graph_to_instance(parse_plane_graph(data["graph"])), mode=mode)

    scale = data.get("scale", 1)
    if not _is_int(scale) or scale <= 0:
        raise SchemaError(f"scale must be a positive integer, got {scale!r}")

    polygons: List[InputPolygon] = []
    seen_ids = set()
    for i, where, pd in _entries(data, "polygons"):
        pid = _claim_id(pd, f"polygon{i}", seen_ids, where)
        kind, penalty = _parse_kind(pd, where)
        verts_raw = pd.get("vertices")
        if not isinstance(verts_raw, list) or len(verts_raw) < 3:
            raise SchemaError(f"{where}: vertices must be a list of at least 3 points")
        verts = tuple(_parse_point(v, f"{where}.vertices[{j}]")
                      for j, v in enumerate(verts_raw))
        for j in range(len(verts)):
            if verts[j] == verts[(j + 1) % len(verts)]:
                raise SchemaError(f"{where}: repeated consecutive vertex {verts[j]}")
        unbounded = pd.get("unbounded", False)
        if not isinstance(unbounded, bool):
            raise SchemaError(f"{where}: unbounded must be true or false, got {unbounded!r}")
        if unbounded and kind != OPTIONAL:
            raise SchemaError(f"{where}: the unbounded polygon must be optional")
        # Orient bounded walks ccw, the unbounded one cw.
        area2 = signed_area2(verts)
        if area2 == 0 and not unbounded:
            raise SchemaError(f"{where}: polygon has zero area")
        if (area2 < 0) != unbounded:
            verts = verts[::-1]
        ref = None
        if "reference_point" in pd:
            ref = (*_parse_point(pd["reference_point"], f"{where}.reference_point"), 1)
        polygons.append(InputPolygon(pid, verts, kind, penalty, ref, unbounded))
    if sum(p.unbounded for p in polygons) > 1:
        raise SchemaError("at most one polygon may be unbounded")

    points = [(_claim_id(pt, f"point{i}", seen_ids, where),
               _parse_point(pt.get("at"), f"{where}.at"), *_parse_kind(pt, where))
              for i, where, pt in _entries(data, "points")]
    eps = data.get("point_epsilon")
    if "point_epsilon" in data and (not _is_int(eps) or eps <= 0):
        raise SchemaError(f"point_epsilon must be a positive integer, got {eps!r}")
    if not points:
        eps = 0
    elif eps is None:
        corners = [v for p in polygons for v in p.vertices] + [q[1] for q in points]
        xs, ys = [v.x for v in corners], [v.y for v in corners]
        eps = max(1, max(max(xs) - min(xs), max(ys) - min(ys)) // 10000)
    for pid, at, kind, penalty in points:
        triangle = (at, Point(at.x + eps, at.y), Point(at.x, at.y + eps))
        polygons.append(InputPolygon(pid, triangle, kind, penalty))

    squeezed: Dict[FrozenSet[Point], float] = {}
    for _, where, sd in _entries(data, "squeezed_edges"):
        if not {"a", "b", "weight"} <= sd.keys():
            raise SchemaError(f"{where}: expected {{a, b, weight}}")
        a = _parse_point(sd["a"], f"{where}.a")
        b = _parse_point(sd["b"], f"{where}.b")
        if a == b:
            raise SchemaError(f"{where}: degenerate squeezed edge")
        w = _parse_weight(sd["weight"], where)
        key = frozenset((a, b))
        if key in squeezed:
            raise SchemaError(f"{where}: duplicate squeezed edge")
        squeezed[key] = w

    return Instance(tuple(polygons), squeezed, mode, scale, eps)


# ---------------------------------------------------------------------------
# Validation and subdivision


def _subdivide_polygon(poly: InputPolygon, all_vertices) -> InputPolygon:
    new_verts: List[Point] = []
    for a, b in poly.edges():
        new_verts += split_at(a, b, all_vertices)[:-1]
    return replace(poly, vertices=tuple(new_verts))


def _check_no_self_crossing(poly: InputPolygon) -> None:
    """Raise DegeneratePolygon when the subdivided walk of the polygon
    crosses itself: two of its edges properly cross, at a point that is no
    vertex, so no curve can pass through it; or the transition chords of
    its passes through a vertex it visits more than once cross
    (`transitions_non_crossing`).  A proper crossing of the input's edges
    at another polygon's vertex becomes a vertex the subdivided walk
    visits twice, where its passes cross.  Passes that only touch, like
    two lobes meeting at a corner or the two sides of a bridge, are kept;
    a walk that visits every vertex once has no passes to test."""
    edges = [Segment(a, b) for a, b in poly.edges()]
    for i, j in crossing_pairs(edges):
        s, t = edges[i], edges[j]
        raise DegeneratePolygon(
            f"polygon {poly.id!r}: edges {s.a}-{s.b} and {t.a}-{t.b} cross")
    if len(set(poly.vertices)) < len(poly.vertices) \
            and not transitions_non_crossing(poly.vertices):
        raise DegeneratePolygon(
            f"polygon {poly.id!r} crosses itself at a vertex it visits twice")


def _check_disjoint_interiors(polygons) -> None:
    """Raise OverlapError for the first pair of polygons whose interiors
    meet.  Two bounded polygons whose closed boxes are disjoint are skipped:
    a bounded polygon's interior, and its reference point once settled,
    lie in its box.

    Meeting interiors put a boundary point of one polygon inside the
    other, and so a piece of one of its edges, which
    `segment_meets_interior` finds, unless the interiors are equal; then
    each holds the other's reference point.  Both polygons' edges are
    tested, as that boundary point may be the other's only: a lobe of Q
    hanging inside P from a point of P's boundary puts no edge of P inside
    Q, and Q's reference point may lie in another lobe, outside P."""
    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            P, Q = polygons[i], polygons[j]
            if P.box is not None and Q.box is not None \
                    and not boxes_meet(P.box, Q.box):
                continue
            for A, B in ((P, Q), (Q, P)):
                if any(B.segment_meets_interior(a, b) for a, b in A.edges()) \
                        or A.reference_point is not None \
                        and B.contains(A.reference_point) == "inside":
                    raise OverlapError(P.id, Q.id)


def _resplit_squeezed(squeezed, polygons, all_vertices) -> Dict[FrozenSet[Point], float]:
    """Split each squeezed edge uv of weight w at the vertices in its
    relative interior.  Each piece must be a (subdivided) polygon edge with
    polygons on both sides, that is, traversed at least twice by the
    polygon walks, and weighs w * |piece| / |uv|."""
    sides = Counter(frozenset(e) for p in polygons for e in p.edges())
    out: Dict[FrozenSet[Point], float] = {}
    for key, w in squeezed.items():
        u, v = tuple(key)
        chain = split_at(u, v, all_vertices)
        for a, b in zip(chain, chain[1:]):
            piece = frozenset((a, b))
            if piece not in sides:
                raise SchemaError(
                    f"squeezed edge {u}-{v} does not coincide with polygon edges")
            if sides[piece] < 2:
                raise SchemaError(
                    f"squeezed edge {a}-{b} is not incident to polygons on both sides")
            if piece in out:
                raise SchemaError(f"squeezed edge {a}-{b} specified twice")
            out[piece] = w * (distance(a, b) / distance(u, v))
    return out


def _in_general_position(x: Homogeneous, vertices: Sequence[Point]) -> bool:
    """True iff the point x = (X/W, Y/W), given as (X, Y, W) with W > 0,
    is not collinear with any two of the (integer) polygon vertices.

    O(n) in the number of vertices, exact: the line through x and a vertex
    v has the integer direction (v.x*W - X, v.y*W - Y), reduced by its gcd
    and signed so that its first nonzero entry is positive.  x is collinear
    with two vertices exactly when two of them share a line, or x is itself
    a vertex.
    """
    X, Y, W = x
    lines = set()
    for v in vertices:
        dx, dy = v.x * W - X, v.y * W - Y
        g = math.gcd(dx, dy)
        if g == 0:      # x is v: collinear with v and any other vertex
            return len(vertices) < 2
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        line = (dx // g, dy // g)
        if line in lines:
            return False
        lines.add(line)
    return True


def _reduced(x: Homogeneous) -> Homogeneous:
    """The triple (X, Y, W), W > 0, divided by gcd(X, Y, W): the one
    reduced triple of its point."""
    g = math.gcd(*x)
    return x[0] // g, x[1] // g, x[2] // g


def pick_reference_point(poly: InputPolygon) -> Homogeneous:
    """A point strictly interior to a bounded almost-simple polygon.

    Finds a strictly convex corner v with neighbors a, b; if triangle avb is
    empty of other walk vertices its centroid is interior, otherwise a point
    between v and the contained vertex farthest from line ab is.  The result
    is verified by an exact winding test and kept at sub-grid (rational)
    precision when needed.  Candidates are homogeneous integers (X, Y, W),
    built one at a time; the accepted one is returned reduced.
    """
    verts = poly.vertices
    m = len(verts)
    corner = None
    for i in range(m):
        a, v, b = verts[(i - 1) % m], verts[i], verts[(i + 1) % m]
        if orient(a, v, b) > 0:
            if corner is None or (v.y, v.x) < (verts[corner].y, verts[corner].x):
                corner = i
    if corner is None:
        raise DegeneratePolygon(f"polygon {poly.id!r} has empty interior")

    i = corner
    a, v, b = verts[(i - 1) % m], verts[i], verts[(i + 1) % m]
    inside = [u for u in verts
              if u not in (a, v, b)
              and orient(a, v, u) >= 0 and orient(v, b, u) >= 0 and orient(b, a, u) >= 0]
    if not inside:
        first = (a.x + v.x + b.x, a.y + v.y + b.y, 3)
    else:
        q = max(inside, key=lambda u: abs((b.x - a.x) * (u.y - a.y)
                                          - (b.y - a.y) * (u.x - a.x)))
        first = (v.x + q.x, v.y + q.y, 2)
    # Fallbacks: approach the convex corner from inside, ever closer, at
    # v + (a - v)/t + (b - v)/t.
    fallbacks = (((t - 2) * v.x + a.x + b.x, (t - 2) * v.y + a.y + b.y, t)
                 for t in (4, 8, 16, 64, 256, 1024, 4096))
    for cand in itertools.chain((first,), fallbacks):
        if poly.contains(cand) == "inside":
            return _reduced(cand)
    raise DegeneratePolygon(f"polygon {poly.id!r}: no interior point found")


def _settle_reference_point(poly: InputPolygon, all_vertices) -> Homogeneous:
    """Choose/adjust the reference point: strictly interior, integer grid if
    possible, and in general position w.r.t. all polygon vertices.  Raises
    DegeneratePolygon when no candidate is in general position.  Candidates
    are tested in homogeneous integer form (X, Y, W); the accepted one is
    returned reduced."""
    h = poly.reference_point
    if h is None:
        if poly.unbounded:
            xs = [v.x for v in all_vertices]
            ys = [v.y for v in all_vertices]
            h = (max(xs) + (max(xs) - min(xs)) + 7,
                 max(ys) + (max(ys) - min(ys)) + 3, 1)
        else:
            h = pick_reference_point(poly)
    X, Y, W = h
    if poly.contains(h) != "inside":
        raise SchemaError(
            f"reference point {h} of polygon {poly.id!r} is not strictly interior")
    rounded = (round(X / W), round(Y / W), 1)
    if poly.contains(rounded) == "inside" \
            and _in_general_position(rounded, all_vertices):
        return rounded
    if _in_general_position(h, all_vertices):
        return _reduced(h)
    # Perturb at a fine sub-grid scale until in general position: by
    # (dx, dy) / (997 d), that is, to (X*s + dx*W, Y*s + dy*W, W*s).
    for d in range(1, 40):
        s = 997 * d
        for dx, dy in ((1, 2), (-2, 1), (3, -1), (-1, -3), (2, 3), (-3, 2)):
            p = (X * s + dx * W, Y * s + dy * W, W * s)
            if poly.contains(p) == "inside" \
                    and _in_general_position(p, all_vertices):
                return _reduced(p)
    raise DegeneratePolygon(
        f"polygon {poly.id!r}: no reference point in general position found")


def validate_and_subdivide(inst: Instance) -> Instance:
    """Reject self-crossing polygons, subdivide edges at foreign vertices,
    verify pairwise-disjoint interiors, settle reference points, and
    re-split squeezed edges.  Each polygon's reference point is stored as
    its reduced triple (X, Y, W).

    Idempotent: running it on its own output changes nothing.
    """
    if inst.k > MAX_REQUIRED:
        raise CapacityError(f"{inst.k} required objects exceed the cap of {MAX_REQUIRED}")
    all_vertices = inst.vertices
    polygons = tuple(_subdivide_polygon(p, all_vertices) for p in inst.polygons)
    for p in polygons:
        _check_no_self_crossing(p)
    polygons = tuple(
        replace(p, reference_point=_settle_reference_point(p, all_vertices))
        for p in polygons)
    _check_disjoint_interiors(polygons)
    squeezed = _resplit_squeezed(inst.squeezed, polygons, all_vertices)
    return Instance(polygons, squeezed, inst.mode, inst.scale,
                    inst.point_epsilon, validated=True)
