"""Shared helpers for the test suite."""

import math
import random
from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter

from enclosure import (
    Point,
    Walk,
    compute_free_space_edges,
    make_walk,
    parse_instance,
    solve_dijkstra,
    solve_dp,
    orient,
    validate_and_subdivide,
)
from enclosure.errors import DegenerateTriangle
from enclosure.recursion import (
    FutureCost, Label, Settled, check_solvable, label_setting, relax)

INF = math.inf


def build(data):
    """Parse + validate an instance given as a JSON-compatible dict."""
    return validate_and_subdivide(parse_instance(data))


def as_point(x):
    """The point (X/W, Y/W) of a homogeneous triple x = (X, Y, W), such as
    a settled reference point: integer coordinates when W = 1, else
    `Fraction` ones."""
    X, Y, W = x
    return Point(X, Y) if W == 1 else Point(Fraction(X, W), Fraction(Y, W))


def square(x, y, side=1):
    return [[x, y], [x + side, y], [x + side, y + side], [x, y + side]]


def req(pid, verts):
    return {"id": pid, "kind": "required", "vertices": verts}


def opt(pid, verts, penalty=0):
    return {"id": pid, "kind": "optional", "penalty": penalty, "vertices": verts}


def point_in_triangle_halfopen(x, p, r, q):
    """Membership in the ccw triangle prq, closed on pr and rq, open on pq.

    Vertices p and q are excluded, vertex r is included.  Resolved purely by
    exact orientation signs; the brute-force oracle for the solvers' bitmask
    triangle contents.
    """
    if orient(p, r, q) <= 0:
        raise DegenerateTriangle(f"triangle {p}, {r}, {q} is not strictly ccw")
    return (orient(p, r, x) >= 0
            and orient(r, q, x) >= 0
            and orient(q, p, x) > 0)


def tangent_at_both_ends(inst, a, b):
    """Oracle for the free-space tangency filter, read off the polygon
    walks: the segment ab is dropped when one of its ends u is visited
    exactly once over all polygon walks, ends no squeezed edge, and has its
    two walk neighbours strictly on opposite sides of the line ab."""
    squeezed_ends = {u for key in inst.squeezed for u in key}

    def cuts_corner(u, v):
        visits = sum(poly.vertices.count(u) for poly in inst.polygons)
        if visits != 1 or u in squeezed_ends:
            return False
        walk = next(poly.vertices for poly in inst.polygons if u in poly.vertices)
        t = walk.index(u)
        sides = {orient(u, v, walk[t - 1]), orient(u, v, walk[(t + 1) % len(walk)])}
        return sides == {-1, 1}

    return not cuts_corner(a, b) and not cuts_corner(b, a)


def solved(inst):
    """(fsg, dp result, dijkstra result) for a validated instance."""
    fsg = compute_free_space_edges(inst)
    return fsg, solve_dp(fsg), solve_dijkstra(fsg)


def settled_labels(settled):
    """Every label of a `Settled` index: the closed labels by vertex, then
    the open labels by start and end vertex, each list in settling order."""
    return [lab for labs in settled.closed for lab in labs] + \
        [lab for ends in settled.open_from for labs in ends.values()
         for lab in labs]


def by_state(labels, kind=None):
    """Labels keyed by key + (mask,), of one kind or of every kind."""
    return {lab.key + (lab.mask,): lab for lab in labels
            if kind is None or lab.kind == kind}


def stairs_by_state(settled):
    """The labels of a `Settled` index grouped by state, key + (mask,),
    each group in increasing edge count t: the DP fill's staircases."""
    stairs = {}
    for lab in settled_labels(settled):
        stairs.setdefault(lab.key + (lab.mask,), []).append(lab)
    for stair in stairs.values():
        stair.sort(key=attrgetter("t"))
    return stairs


def fixed_point(fsg, stats=None):
    """The `Settled` index of the entire fixed point of the label-setting
    search: unbounded, and so with h = 0, in value order."""
    from enclosure.dijkstra import _search

    return _search(fsg, False, stats)[1]


def compute_all_labels(fsg):
    """Finalize the entire fixed point of the label-setting search; returns
    (fin_C, fin_M) keyed by (p, mask) and (p, q, mask)."""
    check_solvable(fsg)
    labels = settled_labels(fixed_point(fsg))
    return by_state(labels, "C"), by_state(labels, "M")


def mouth_fixed_point(fsg):
    """The reference mouths of the inverted solver: the whole fixed point
    of the enclosure recursion with the closing rule C1 off, from the
    point walks, unbounded and so with h = 0.  Returns its `Settled`
    index, the point walks and every mouth."""
    settled = Settled(fsg.n)
    zero = FutureCost(fsg, 0.0, 0)

    def expand(label, push, bound, pending):
        settled.add(label)
        relax(fsg, label, settled, push, False, bound, pending, zero)

    seeds = [("C", (p,), 0, 0.0, 0, "base", ()) for p in range(fsg.n)]
    label_setting(fsg, seeds, expand, zero, INF, False)
    return settled


class StairTables:
    """Budget-indexed tables C(p, t, B) and M(pq, t, B): one staircase of
    labels per state, keyed (p, B) and (p, q, B), with strictly increasing
    edge count t and strictly decreasing value."""

    def __init__(self, fsg, t_max, stairs):
        self.fsg = fsg
        self.t_max = t_max
        self.stairs = stairs

    def _value(self, state, t):
        """Cheapest value at budget <= t (staircases are non-increasing in t)."""
        stair = self.stairs.get(state, [])
        i = bisect_right(stair, t, key=attrgetter("t"))
        return stair[i - 1].value if i else INF

    def value_C(self, p, t, mask):
        if mask == 0:
            return 0.0 if t >= 0 else INF
        return self._value((p, mask), t)

    def value_M(self, p, q, t, mask):
        return self._value((p, q, mask), t)

    def best(self, p, mask):
        if mask == 0:
            return 0.0, Label("C", (p,), 0, 0.0, "base")
        stair = self.stairs.get((p, mask))
        if not stair:
            return INF, None
        return stair[-1].value, stair[-1]


def every_push_tables(fsg, t_max=None):
    """The reference staircase fill, up to t_max (default 6n): every push
    is kept in its bucket and the buckets are sorted by (value, kind, key,
    mask, push order), with no bound.  `solve_dp`'s fill keeps one
    entry per state and bucket and drops labels whose value + h exceeds
    its bound; the labels it stores with value + h at most the answer must
    be this fill's."""
    check_solvable(fsg)
    if t_max is None:
        t_max = 6 * fsg.n
    stairs, settled = {}, Settled(fsg.n)
    buckets = [[] for _ in range(t_max + 1)]
    seq = 0
    zero = FutureCost(fsg, 0.0, 0)

    def push(kind, key, mask, value, t, rule, ops):
        nonlocal seq
        stair = stairs.get(key + (mask,))
        if t <= t_max and value < INF and not (stair and stair[-1].value <= value):
            buckets[t].append((value, kind, key, mask, seq, rule, ops))
            seq += 1

    for p in range(fsg.n):
        push("C", (p,), 0, 0.0, 0, "base", ())
    for t in range(t_max + 1):
        for value, kind, key, mask, _seq, rule, ops in sorted(buckets[t]):
            stair = stairs.setdefault(key + (mask,), [])
            if not (stair and stair[-1].value <= value):
                label = Label(kind, key, mask, value, rule, ops, t)
                stair.append(label)
                settled.add(label)
                # No bound, no pending state and h = 0: every check is off.
                relax(fsg, label, settled, push, True, INF, {}, zero)
    return StairTables(fsg, t_max, stairs)


def dp_cell_C(tables, p: int, t: int, mask: int) -> float:
    """Direct evaluation of the C recursion from the stored tables.

    Used to cross-check the staircase fill: must agree with value_C."""
    fsg = tables.fsg
    if mask == 0:
        return 0.0 if t >= 0 else INF
    if t <= 1:
        return INF
    best = INF
    for q, w in fsg.adjacency[p].items():
        best = min(best, w + tables.value_M(q, p, t - 1, mask))
    sub = (mask - 1) & mask
    while sub:
        rest = mask ^ sub
        if rest:
            for t1 in range(t + 1):
                v1 = tables.value_C(p, t1, sub)
                if v1 == INF:
                    continue
                best = min(best, v1 + tables.value_C(p, t - t1, rest))
        sub = (sub - 1) & mask
    return best


def dp_cell_M(tables, p: int, q: int, t: int, mask: int) -> float:
    """Direct evaluation of the M recursion from the stored tables."""
    fsg = tables.fsg
    if t < 1:
        return INF
    best = INF
    w = fsg.adjacency[p].get(q)
    if w is not None:
        v = tables.value_C(p, t - 1, mask)
        if v < INF:
            best = w + v
    ccw = fsg.left_vertices(q, p)  # the apexes r of ccw triangles prq
    for r in range(fsg.n):
        if not ccw >> r & 1:
            continue
        cmask, cpen = fsg.triangle_content(p, r, q)
        if (cmask & mask) != cmask or cpen == INF:
            continue
        rest = mask ^ cmask
        sub = rest
        while True:
            for t1 in range(1, t):
                v1 = tables.value_M(p, r, t1, sub)
                if v1 == INF:
                    continue
                v2 = tables.value_M(r, q, t - t1, rest ^ sub)
                if v2 < INF:
                    best = min(best, v1 + v2 + cpen)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return best


def rel_close(a, b, tol=1e-9):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


EMPTY_INSTANCE = build({"polygons": []})


def random_closed_walk(rng: random.Random, n_points=8, grid=20) -> Walk:
    """A random (usually self-intersecting) closed walk on the integer grid."""
    pts = []
    while len(pts) < n_points:
        p = Point(rng.randint(0, grid), rng.randint(0, grid))
        if not pts or p != pts[-1]:
            pts.append(p)
    if pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        pts = [Point(0, 0), Point(5, 1), Point(1, 5)]
    return make_walk(EMPTY_INSTANCE, pts)


def sample_points_off(walks, rng: random.Random, count, grid=25):
    """Integer sample points lying on no edge of any of the given walks."""
    from enclosure.geometry import on_segment

    out = []
    tries = 0
    while len(out) < count and tries < count * 100:
        tries += 1
        x = Point(rng.randint(-2, grid), rng.randint(-2, grid))
        if any(on_segment(x, a, b) for w in walks for a, b in w.edges()):
            continue
        out.append(x)
    return out
