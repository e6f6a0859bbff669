"""Shared helpers for the test suite."""

import math
import random

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


def build(data):
    """Parse + validate an instance given as a JSON-compatible dict."""
    return validate_and_subdivide(parse_instance(data))


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


def by_state(fin, kind=None):
    """The settled labels of `label_setting` (keyed by int state code)
    keyed by key + (mask,), of one kind or of every kind."""
    return {lab.key + (lab.mask,): lab for lab in fin.values()
            if kind is None or lab.kind == kind}


def compute_all_labels(fsg):
    """Finalize the entire fixed point of the label-setting search; returns
    (fin_C, fin_M) keyed by (p, mask) and (p, q, mask)."""
    from enclosure.dijkstra import _search
    from enclosure.recursion import check_solvable

    check_solvable(fsg)
    _answer, fin, _settled = _search(fsg, early_stop=False, closures=True)
    return by_state(fin, "C"), by_state(fin, "M")


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
