"""Free-space edge graph construction and region contents.

A free-space edge is an inclusion-minimal segment between polygon vertices
that avoids every polygon's open interior, has no polygon vertex in its
relative interior, and is tangent at both ends: it cuts no corner of a
polygon that stands alone at its end (see `compute_free_space_edges`),
as in the reduced visibility graph of shortest-path planning.  For each
vertex only the nearest other vertex along each exact ray direction (the
gcd-reduced integer offset) is a candidate, which rules out blocked pairs
in O(n) per vertex.  The tangency test then drops a candidate with at
most two `orient` calls per end.  Each remaining candidate is tested only
against the polygons whose bounding boxes meet it, by
`InputPolygon.segment_meets_interior`, the one segment-meets-interior test
that validation and the verifier use too.  That test makes one pass over
a polygon's vertices: it takes each vertex's side of the candidate's line
once, and only an edge whose ends lie strictly on opposite sides gets the
two further determinants of a proper crossing.

Region contents are asked by vertex index (`triangle_content`, `plank`,
and `x_at_most` at a vertex's abscissa for a half-plane): ANDs of
memoized per-chord and per-abscissa bitmasks over exact integer side
tests; see `FreeSpaceGraph`.  One mask per chord suffices, as validation
settles every reference point off every line through two vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import DegenerateTriangle, InternalError, SchemaError
from .geometry import Coord, Point, distance, orient
from .instance import Instance


@dataclass(frozen=True)
class FreeSpaceEdge:
    a: int
    b: int
    weight: float
    squeezed: bool


def segment_in_free_space(a: Point, b: Point, inst: Instance) -> bool:
    """True iff the closed segment ab avoids every polygon's open interior
    (running along boundaries is allowed).

    A bounded polygon's interior lies in its box, so a polygon whose box
    misses the segment's box is skipped; the others get
    `InputPolygon.segment_meets_interior`."""
    if a == b:
        raise SchemaError(f"segment endpoints coincide at {a}")
    xlo, xhi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    ylo, yhi = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    for poly in inst.polygons:
        box = poly.box
        if (box is None or box[0] <= xhi and xlo <= box[2]
                and box[1] <= yhi and ylo <= box[3]) \
                and poly.segment_meets_interior(a, b):
            return False
    return True


@dataclass
class FreeSpaceGraph:
    """Free-space edges plus exact region-content queries over memoized
    chord and abscissa masks.

    `adjacency[i]` maps each neighbour j of vertex i to the weight of the
    edge ij, in `edges` order.

    The reference points are read from `instance`, where validation
    stores each as the reduced integer triple (X, Y, W), W > 0, standing
    for the point (X/W, Y/W).  In a reference mask the required objects
    take bits 0..k-1 and the optional objects bits k.., in
    `instance.required` and `instance.optional` order.  A directed vertex
    chord i -> j is resolved on first use into one reference mask, the
    points strictly left of the line i -> j, by the sign of
    dx*(Y - Py*W) - dy*(X - Px*W); no `Fraction` is involved.  No
    reference point lies on the line
    (`instance._in_general_position`; one that does raises
    `InternalError`), so the mask of j -> i is the complement.
    Triangle contents are ANDs of three of these masks, and plank contents
    AND one of them with two abscissa masks (`x_at_most`); neither is
    memoized, as ANDing memoized masks costs about what a lookup by
    triangle would.  `recursion.relax` reads `_chords` and `_penalty_memo`
    directly.

    `h_scale` is c, the least weight/length ratio over the edges and 1
    (the ratio of an unsqueezed edge), shaved by a factor (1 - 1e-9), or
    0.0 without edges: every edge ab weighs at least c·|ab|, so c·|pq| is
    a lower bound on the weight of any walk from p to q, and c·(|pr| +
    |rq|) on that of a walk from p to q that closes around the point r.
    The future costs of the searches of `recursion.py` (`FutureCost`,
    `EnclosureCost`) are built from these bounds.
    """
    instance: Instance
    vertices: Tuple[Point, ...]
    edges: List[FreeSpaceEdge]
    adjacency: List[Dict[int, float]]
    h_scale: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.vertices)
        required, optional = self.instance.required, self.instance.optional
        self._href = [poly.reference_point for poly in required + optional]
        self.n = n
        self._k = len(required)
        self.full_mask = (1 << self._k) - 1  # the required references' bits
        self._all = (1 << len(self._href)) - 1
        self._penalties = [poly.penalty for poly in optional]
        # Directed chord i -> j lives at index i*n + j: `_chords` holds the
        # references strictly left of it, `_left` the vertices.
        self._chords: List[Optional[int]] = [None] * (n * n)
        self._left: List[Optional[int]] = [None] * (n * n)
        self._x_masks: Dict[Coord, int] = {}
        self._penalty_memo: Dict[int, float] = {0: 0.0}

    def left_vertices(self, a: int, b: int) -> int:
        """Memoized mask of the vertices r strictly left of a -> b (abr
        strictly ccw); the vertices strictly right of it, the mask of
        b -> a, are memoized with it."""
        left = self._left[a * self.n + b]
        if left is None:
            verts = self.vertices
            P, Q = verts[a], verts[b]
            dx, dy = Q.x - P.x, Q.y - P.y
            left = right = 0
            for bit, V in enumerate(verts):
                d = dx * (V.y - P.y) - dy * (V.x - P.x)
                if d > 0:
                    left |= 1 << bit
                elif d < 0:
                    right |= 1 << bit
            self._left[a * self.n + b] = left
            self._left[b * self.n + a] = right
        return left

    def _chord(self, i: int, j: int) -> int:
        """Memoized mask of the references strictly left of the chord
        i -> j, i != j; the chord j -> i gets the complement."""
        n = len(self.vertices)
        left = self._chords[i * n + j]
        if left is None:
            P, Q = self.vertices[i], self.vertices[j]
            dx, dy = Q.x - P.x, Q.y - P.y
            left = 0
            for bit, (X, Y, W) in enumerate(self._href):
                d = dx * (Y - P.y * W) - dy * (X - P.x * W)
                if d > 0:
                    left |= 1 << bit
                elif d == 0:
                    raise InternalError(f"a reference lies on the line {P}-{Q}")
            self._chords[i * n + j] = left
            self._chords[j * n + i] = self._all & ~left
        return left

    def x_at_most(self, x: Coord) -> int:
        """Reference mask of the points with abscissa <= x."""
        mask = self._x_masks.get(x)
        if mask is None:
            mask = 0
            for bit, (X, _Y, W) in enumerate(self._href):
                if X <= x * W:
                    mask |= 1 << bit
            self._x_masks[x] = mask
        return mask

    def split_content(self, bits: int) -> Tuple[int, float]:
        """(required mask, penalty sum) of a reference mask.  Penalties add
        in ascending bit order from 0.0, the order of `instance.optional`."""
        optional = bits >> self._k
        pen = self._penalty_memo.get(optional)
        if pen is None:
            pen = 0.0
            rest = optional
            for penalty in self._penalties:
                if rest & 1:
                    pen += penalty
                rest >>= 1
            self._penalty_memo[optional] = pen
        return bits & self.full_mask, pen

    def triangle_content(self, p: int, r: int, q: int) -> Tuple[int, float]:
        """(required mask, penalty sum) of reference points in the ccw
        triangle prq.  No reference point lies on its sides.

        The reference mask of the triangle is L(p,r) & L(r,q) & L(q,p),
        where L(i,j) is the chord mask of the points strictly left of the
        line i -> j; bits 0..k-1 of it are the required mask.
        `recursion.relax` computes the same expression inline, where its
        apex filter has already tested the triangle; this method is its
        reference in the tests."""
        if not self.left_vertices(q, p) >> r & 1:  # qpr, so prq, not ccw
            P, R, Q = self.vertices[p], self.vertices[r], self.vertices[q]
            raise DegenerateTriangle(f"triangle {P}, {R}, {Q} is not strictly ccw")
        return self.split_content(
            self._chord(p, r) & self._chord(r, q) & self._chord(q, p))

    def plank(self, i: int, j: int, up: bool) -> Tuple[int, float]:
        """(required mask, penalty sum) of reference points strictly above
        (up) or strictly below the chord between vertices i and j and in
        the strip between the vertical lines through its ends, open on the
        left line and closed on the right one; (0, 0.0) for a vertical
        chord, whose strip is empty.  `inverted.solve_inverted` keeps each
        plank in its plank index, so it asks once per chord and side."""
        lo, hi = self.vertices[i], self.vertices[j]
        if lo.x == hi.x:
            return 0, 0.0
        if lo.x > hi.x:
            i, j, lo, hi = j, i, hi, lo
        # Above the chord is left of lo -> hi, below it is left of hi -> lo.
        side = self._chord(i, j) if up else self._chord(j, i)
        strip = self.x_at_most(hi.x) & ~self.x_at_most(lo.x)
        return self.split_content(strip & side)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[v.x, v.y] for v in self.vertices],
            "edges": [{"a": e.a, "b": e.b, "weight": e.weight,
                       "squeezed": e.squeezed} for e in self.edges],
        }


def _unblocked_after(vertices: Tuple[Point, ...], i: int) -> List[int]:
    """The indices j > i, ascending, with no vertex in the open segment
    from vertex i to vertex j: j is the nearest vertex to i along the ray
    from i through j, whose direction is exact once reduced by its gcd."""
    a = vertices[i]
    nearest: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for j, b in enumerate(vertices):
        if j != i:
            dx, dy = b.x - a.x, b.y - a.y
            g = math.gcd(dx, dy)
            ray = (dx // g, dy // g)
            hit = nearest.get(ray)
            if hit is None or g < hit[0]:
                nearest[ray] = (g, j)
    return sorted(j for _g, j in nearest.values() if j > i)


def _corners(inst: Instance) -> Dict[Point, Tuple[Point, Point]]:
    """The two walk neighbours of each vertex that the polygon walks visit
    once in all: the vertices where `compute_free_space_edges` applies its
    tangency test."""
    visits = Counter(u for poly in inst.polygons for u in poly.vertices)
    corners: Dict[Point, Tuple[Point, Point]] = {}
    for poly in inst.polygons:
        walk = poly.vertices
        for t, u in enumerate(walk):
            if visits[u] == 1:
                corners[u] = (walk[t - 1], walk[(t + 1) % len(walk)])
    return corners


def _tangent(u: Point, v: Point, corner: Optional[Tuple[Point, Point]]) -> bool:
    """True iff the segment uv leaves u with both polygon neighbours of u
    on one closed side of the line uv (always, where u has no corner)."""
    return corner is None or orient(u, v, corner[0]) * orient(u, v, corner[1]) >= 0


def compute_free_space_edges(inst: Instance) -> FreeSpaceGraph:
    """The free-space edges that are tangent at both ends, with squeezed
    edges flagged and carrying their specified weights, in (a, b) order,
    a < b.

    An edge uv is tangent at u when u's two polygon neighbours x and y
    satisfy orient(u, v, x) * orient(u, v, y) >= 0.  The test applies at
    a vertex u of a single polygon P, visited once by P's walk; near u
    only P is present, since subdivision made every polygon that touches
    u a polygon at u.  No squeezed edge ends at such a u unless x = y (the
    tip of a bridge), where every edge is tangent: validation puts
    polygons on both sides of a squeezed edge, so its walks pass its ends
    twice or turn back at them.

    Dropping the other edges keeps every optimal curve.  If x and y lie
    strictly on opposite sides of the line uv, the line's two rays from u
    run through the two wedges at u that the edges ux and uy bound.  The
    segment uv is free, so its ray runs outside P and the opposite ray
    through P's interior.  Let a curve turn at u from wu to uv (w = v for
    a spike).  The directions from u to w and to v point outside P, and
    so does every direction in the angle below 180 degrees between them,
    which misses the direction opposite to v.  So for a small t > 0 the
    triangle u, u + t(w - u), u + t(v - u) meets no polygon interior and
    holds no reference point, as reference points are strictly interior.
    Replacing its two legs at u by its third side changes the winding of
    no reference point and shortens the curve, since wu and uv are not
    squeezed and weigh their Euclidean lengths.  So no optimal curve turns
    at u onto a non-tangent edge, and none passes straight through u on
    one, as wu would then enter P's interior.

    The argument fails at a vertex of two or more polygons and at a
    vertex one polygon visits twice (the base of a bridge); every free
    edge there is kept.  Plane-graph instances are not filtered, as each
    of their vertices lies on two face walks, twice on one, or at the tip
    of a bridge.  The test takes at most two `orient` calls per end and
    runs before `segment_in_free_space`."""
    if not inst.validated:
        raise SchemaError("validate_and_subdivide the instance first")
    vertices = inst.vertices
    corners = _corners(inst)
    edges: List[FreeSpaceEdge] = []
    adjacency: List[Dict[int, float]] = [{} for _ in vertices]
    ratio = 1.0  # the least weight/length so far; 1 for an unsqueezed edge
    for i in range(len(vertices)):
        a = vertices[i]
        corner = corners.get(a)
        for j in _unblocked_after(vertices, i):
            b = vertices[j]
            if not (_tangent(a, b, corner) and _tangent(b, a, corners.get(b))
                    and segment_in_free_space(a, b, inst)):
                continue
            key = frozenset((a, b))
            squeezed = key in inst.squeezed
            w = inst.squeezed[key] if squeezed else distance(a, b)
            if squeezed:
                ratio = min(ratio, w / distance(a, b))
            edges.append(FreeSpaceEdge(i, j, w, squeezed))
            adjacency[i][j] = adjacency[j][i] = w

    return FreeSpaceGraph(inst, vertices, edges, adjacency,
                          max(ratio, 0.0) * (1 - 1e-9) if edges else 0.0)
