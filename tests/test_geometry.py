import itertools
import random
from fractions import Fraction

import pytest

from enclosure import Point, Segment, orient, signed_area2, winding_number
from enclosure.errors import DegenerateTriangle, OnBoundary
from enclosure.geometry import (
    angular_key,
    crossing_pairs,
    crossing_point,
    homogeneous,
    in_open_segment,
    on_segment,
    segments_properly_cross,
    sort_along,
    split_at,
)
from enclosure.instance import InputPolygon
from conftest import point_in_triangle_halfopen

SQUARE = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]


def test_orient_signs():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


def test_orient_antisymmetric():
    rng = random.Random(7)
    for _ in range(200):
        p, q, r = (Point(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3))
        assert orient(p, q, r) == -orient(q, p, r) == -orient(p, r, q)


def test_winding_square():
    center = Point(Fraction(1, 2), Fraction(1, 2))
    assert winding_number(SQUARE, center) == 1
    assert winding_number(SQUARE, Point(5, 5)) == 0
    assert winding_number(SQUARE * 2, center) == 2  # traversed twice
    assert winding_number(list(reversed(SQUARE)), center) == -1


def test_winding_on_boundary_raises():
    with pytest.raises(OnBoundary):
        winding_number(SQUARE, Point(0, 0))
    with pytest.raises(OnBoundary):
        winding_number(SQUARE, Point(Fraction(1, 2), 0))


def test_winding_invariant_under_rotation():
    # A 90-degree rotation of the whole plane swaps which coordinate ray the
    # crossing rule effectively uses; winding numbers must not change.
    rng = random.Random(3)
    for _ in range(100):
        walk = [Point(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(7)]
        x = Point(rng.randint(-3, 15), rng.randint(-3, 15))
        rot = [Point(-p.y, p.x) for p in walk]
        rx = Point(-x.y, x.x)
        try:
            w1 = winding_number(walk, x)
        except OnBoundary:
            with pytest.raises(OnBoundary):
                winding_number(rot, rx)
            continue
        assert winding_number(rot, rx) == w1


def test_triangle_halfopen_membership():
    p, r, q = Point(0, 0), Point(4, -4), Point(8, 0)
    assert orient(p, r, q) == 1
    assert point_in_triangle_halfopen(Point(4, -2), p, r, q)  # interior
    assert not point_in_triangle_halfopen(Point(4, 0), p, r, q)  # open mouth pq
    assert point_in_triangle_halfopen(r, p, r, q)  # middle vertex included
    assert not point_in_triangle_halfopen(p, p, r, q)
    assert not point_in_triangle_halfopen(q, p, r, q)
    assert point_in_triangle_halfopen(Point(2, -2), p, r, q)  # closed leg pr
    assert point_in_triangle_halfopen(Point(6, -2), p, r, q)  # closed leg rq


def test_triangle_halfopen_rejects_degenerate():
    with pytest.raises(DegenerateTriangle):
        point_in_triangle_halfopen(Point(1, 1), Point(0, 0), Point(1, 0), Point(2, 0))
    with pytest.raises(DegenerateTriangle):
        point_in_triangle_halfopen(Point(1, 1), Point(0, 0), Point(0, 1), Point(1, 0))


def test_triangle_halfopen_partitions_fan():
    # Fan decomposition of a convex polygon into half-open triangles
    # (v_i, v_{i+1}, v_last): every point is covered by at most one triangle;
    # interior points and shared-chord points by exactly one.
    poly = [Point(0, 0), Point(6, -2), Point(10, 2), Point(8, 8), Point(2, 7)]
    tris = [(poly[i], poly[i + 1], poly[-1]) for i in range(len(poly) - 2)]
    rng = random.Random(11)
    samples = [Point(Fraction(rng.randint(-20, 120), 10),
                     Fraction(rng.randint(-40, 100), 10)) for _ in range(400)]
    samples += [Point(5, 4), Point(4, 3), poly[2], Point(3, 1)]
    for x in samples:
        count = sum(point_in_triangle_halfopen(x, *t) for t in tris)
        assert count <= 1
        try:
            inside = winding_number(poly, x) != 0
        except OnBoundary:
            continue
        if inside:
            assert count == 1
        # Points on the shared chords are counted exactly once.
    for i in range(1, len(poly) - 2):
        chord_mid = Point(Fraction(poly[i].x + poly[-1].x, 2),
                          Fraction(poly[i].y + poly[-1].y, 2))
        assert sum(point_in_triangle_halfopen(chord_mid, *t) for t in tris) == 1


def test_segments_properly_cross():
    assert segments_properly_cross(Segment(Point(0, 0), Point(2, 2)),
                                   Segment(Point(0, 2), Point(2, 0)))
    assert not segments_properly_cross(Segment(Point(0, 0), Point(1, 0)),
                                       Segment(Point(1, 0), Point(2, 1)))
    assert not segments_properly_cross(Segment(Point(0, 0), Point(3, 0)),
                                       Segment(Point(1, 0), Point(2, 0)))
    # On small grids full of touches and overlaps: segments_properly_cross
    # is the four-orientation definition, and crossing_pairs yields exactly
    # the crossing pairs i < j, in lexicographic order.
    def by_definition(s, t):
        return orient(s.a, s.b, t.a) * orient(s.a, s.b, t.b) < 0 and \
            orient(t.a, t.b, s.a) * orient(t.a, t.b, s.b) < 0

    rng = random.Random(5)
    for _ in range(200):
        segs = [Segment(Point(rng.randrange(4), rng.randrange(4)),
                        Point(rng.randrange(4), rng.randrange(4)))
                for _ in range(rng.randrange(8))]
        for s, t in itertools.product(segs, repeat=2):
            assert segments_properly_cross(s, t) == by_definition(s, t)
        assert list(crossing_pairs(segs)) == [
            (i, j) for i, j in itertools.combinations(range(len(segs)), 2)
            if segments_properly_cross(segs[i], segs[j])]


def test_crossing_point_exact():
    s = Segment(Point(0, 0), Point(2, 2))
    t = Segment(Point(0, 2), Point(2, 0))
    assert crossing_point(s, t) == Point(1, 1)
    t2 = Segment(Point(0, 1), Point(3, 0))
    x = crossing_point(Segment(Point(0, 0), Point(3, 3)), t2)
    assert orient(Point(0, 0), Point(3, 3), x) == 0
    assert orient(t2.a, t2.b, x) == 0
    assert x == Point(Fraction(3, 4), Fraction(3, 4))


def test_point_in_polygon():
    square = InputPolygon("sq", tuple(SQUARE), "required")
    assert square.contains(homogeneous(Point(Fraction(1, 2), Fraction(1, 2)))) == "inside"
    assert square.contains((1, 1, 2)) == "inside"
    assert square.contains((3, 3, 6)) == "inside"
    assert square.contains((0, 0, 1)) == "boundary"
    assert square.contains((9, 9, 1)) == "outside"


def test_segment_predicates():
    assert on_segment(Point(1, 1), Point(0, 0), Point(2, 2))
    assert not on_segment(Point(1, 2), Point(0, 0), Point(2, 2))
    assert in_open_segment(Point(1, 1), Point(0, 0), Point(2, 2))
    assert not in_open_segment(Point(0, 0), Point(0, 0), Point(2, 2))


def test_signed_area():
    assert signed_area2(SQUARE) == 2
    assert signed_area2(list(reversed(SQUARE))) == -2


@pytest.mark.parametrize("a, b, inner", [
    (Point(2, 0), Point(2, 9), [Point(2, 1), Point(2, 4), Point(2, 8)]),  # vertical
    (Point(7, 3), Point(-1, 3), [Point(6, 3), Point(5, 3), Point(0, 3)]),  # horizontal
    (Point(0, 0), Point(6, -6), [Point(1, -1), Point(2, -2), Point(5, -5)]),  # diagonal
    (Point(0, 0), Point(1, 3),  # rational points on a steep line
     [Point(Fraction(1, 3), 1), Point(Fraction(1, 2), Fraction(3, 2)),
      Point(Fraction(2, 3), 2)]),
])
def test_sort_along(a, b, inner):
    for perm in (inner, inner[::-1], inner[1:] + inner[:1]):
        assert sort_along(a, b, perm) == inner
        assert sort_along(b, a, perm) == inner[::-1]
    assert sort_along(a, b, []) == []


def test_angular_key_counterclockwise_from_positive_x():
    o = Point(1, 1)
    ring = [Point(5, 1), Point(3, 2), Point(1, 4), Point(0, 3), Point(-2, 1),
            Point(0, 0), Point(1, Fraction(1, 2)), Point(2, Fraction(-1, 2))]
    rng = random.Random(3)
    for _ in range(5):
        shuffled = ring[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=angular_key(o)) == ring
    key = angular_key(o)
    assert key(Point(2, 2)) == key(Point(5, 5))  # one direction, one place
    assert key(Point(3, 1)) == key(Point(9, 1))
    # Against the key by exact slopes: the half-turn, then whether the
    # direction is off the x-axis, then -dx/dy as a `Fraction`.
    def fraction_key(origin):
        def key(p):
            dx, dy = p.x - origin.x, p.y - origin.y
            return (dy < 0 or (dy == 0 and dx < 0), dy != 0,
                    -Fraction(dx, dy) if dy else 0)
        return key

    coord = [lambda: rng.randint(-4, 4),
             lambda: Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))]
    for _ in range(300):
        o = Point(rng.choice(coord)(), rng.choice(coord)())
        pts = [Point(rng.choice(coord)(), rng.choice(coord)())
               for _ in range(rng.randint(1, 12))]
        key, oracle = angular_key(o), fraction_key(o)
        assert sorted(pts, key=key) == sorted(pts, key=oracle)
        for p, q in itertools.product(pts, repeat=2):
            assert (key(p) < key(q), key(p) == key(q)) == \
                (oracle(p) < oracle(q), oracle(p) == oracle(q)), (o, p, q)


@pytest.mark.parametrize("a,b,points,chain", [
    (Point(0, 0), Point(6, 0), [Point(4, 0), Point(7, 0), Point(0, 0), Point(2, 0),
                                Point(3, 1)],
     [Point(0, 0), Point(2, 0), Point(4, 0), Point(6, 0)]),
    (Point(6, 3), Point(0, 0), [Point(2, 1), Point(4, 2), Point(8, 4)],
     [Point(6, 3), Point(4, 2), Point(2, 1), Point(0, 0)]),
    (Point(0, 0), Point(0, 3), [Point(0, Fraction(3, 2)), Point(1, 1)],
     [Point(0, 0), Point(0, Fraction(3, 2)), Point(0, 3)]),
    (Point(0, 0), Point(1, 1), [], [Point(0, 0), Point(1, 1)]),
])
def test_split_at(a, b, points, chain):
    # Only the points inside the open segment are kept, in order from a.
    assert split_at(a, b, points) == chain
    assert split_at(b, a, points) == chain[::-1]
