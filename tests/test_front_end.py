"""The geometry front end (general-position test, free-space edges,
segment test, interior-overlap check) against brute-force oracles: the
O(n^2) collinearity scan, the all-pairs free-space builder with its O(n)
blocking-vertex scan, and the segment and overlap tests without bounding
boxes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclosure import Point, compute_free_space_edges, segment_in_free_space
from enclosure.errors import DegeneratePolygon, OverlapError
from enclosure.geometry import (
    Segment,
    distance,
    in_open_segment,
    orient,
    segments_properly_cross,
    sort_along,
)
from enclosure.instance import (
    _check_disjoint_interiors,
    _in_general_position,
    parse_instance,
    validate_and_subdivide,
)
from enclosure.oracle import random_instance
from conftest import build, opt, req, square
from test_planegraph import grid_graph

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


# --------------------------------------------------------------------------
# Oracles


def general_position_oracle(x, vertices):
    vs = list(vertices)
    return all(orient(vs[i], vs[j], x) != 0
               for i in range(len(vs)) for j in range(i + 1, len(vs)))


def segment_oracle(a, b, inst):
    seg = Segment(a, b)
    for poly in inst.polygons:
        for c, d in poly.edges():
            if segments_properly_cross(seg, Segment(c, d)):
                return False
        touches = [v for v in poly.vertices if in_open_segment(v, a, b)]
        chain = [a] + sort_along(a, b, touches) + [b]
        for u, v in zip(chain, chain[1:]):
            mid = Point(Fraction(u.x + v.x, 2), Fraction(u.y + v.y, 2))
            if poly.contains(mid) == "inside":
                return False
    return True


def edges_oracle(inst):
    vertices = inst.vertices
    out = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            a, b = vertices[i], vertices[j]
            if any(in_open_segment(v, a, b) for v in vertices):
                continue
            if not segment_oracle(a, b, inst):
                continue
            key = frozenset((a, b))
            squeezed = key in inst.squeezed
            w = inst.squeezed[key] if squeezed else distance(a, b)
            out.append((i, j, w, squeezed))
    return out


def overlap_oracle(polygons):
    """The all-pairs check; returns the OverlapError message, or None."""
    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            P, Q = polygons[i], polygons[j]
            for a, b in P.edges():
                for c, d in Q.edges():
                    if segments_properly_cross(Segment(a, b), Segment(c, d)):
                        return str(OverlapError(P.id, Q.id))
            for A, B in ((P, Q), (Q, P)):
                for v in A.vertices:
                    if B.contains(v) == "inside":
                        return str(OverlapError(P.id, Q.id))
                for a, b in A.edges():
                    mid = Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
                    if B.contains(mid) == "inside":
                        return str(OverlapError(P.id, Q.id))
                if A.reference_point is not None \
                        and B.contains(A.reference_point) == "inside":
                    return str(OverlapError(P.id, Q.id))
    return None


def overlap_result(polygons):
    try:
        _check_disjoint_interiors(polygons)
    except OverlapError as e:
        return str(e)
    return None


# --------------------------------------------------------------------------
# Instances


def _frame(side=30, at=-10):
    return {"id": "out", "kind": "optional", "penalty": 1, "unbounded": True,
            "vertices": square(at, at, side)}


DEGENERATE = {
    # Bottom edges on one line, and a diagonal chain of triangles.
    "collinear_chain": {"polygons": [
        req("A", square(0, 0)), opt("B", square(2, 0), 1), opt("C", square(4, 0), 2),
        opt("D", [[0, 3], [1, 4], [0, 4]], 1), opt("E", [[2, 5], [3, 6], [2, 6]], 1),
        opt("F", [[4, 7], [5, 8], [4, 8]], 1)]},
    # A shared edge, a shared corner and a vertex in the middle of an edge.
    "shared": {"polygons": [
        req("A", square(0, 0, 2)), opt("B", square(2, 0, 2), 1),
        opt("C", square(4, 2, 1), 2), opt("D", square(-2, 1, 1), 1)],
        "squeezed_edges": [{"a": [2, 0], "b": [2, 2], "weight": 3}]},
    "unbounded": {"polygons": [
        req("A", square(0, 0, 2)), opt("B", [[4, 4], [7, 4], [4, 7]], 2),
        opt("C", square(8, 0, 3), 1), _frame()]},
}


def _instances():
    for name, data in DEGENERATE.items():
        yield name, build(data)
    yield "grid4x4", build({"graph": grid_graph(4, 4)})
    for seed in range(6):
        yield f"random{seed}", random_instance(seed, n_objects=2 + seed % 3, k=1)


INSTANCES = list(_instances())


# --------------------------------------------------------------------------
# Free-space edges and the segment test


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_free_space_edges_match_all_pairs_builder(name, inst):
    fsg = compute_free_space_edges(inst)
    assert [(e.a, e.b, e.weight, e.squeezed) for e in fsg.edges] == \
        edges_oracle(inst)


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_segment_test_matches_oracle_inside_and_out(name, inst):
    # Reference points lie strictly inside their polygons (the unbounded
    # polygon's lies in its outer region); pair them with every vertex and
    # with each other.
    refs = [p.reference_point for p in inst.polygons]
    ends = refs + list(inst.vertices)
    for a in refs:
        for b in ends:
            if a != b:
                assert segment_in_free_space(a, b, inst) == \
                    segment_oracle(a, b, inst), (a, b)


_coord = st.fractions(min_value=-12, max_value=14, max_denominator=4)
_point = st.builds(Point, _coord, _coord)


@SETTINGS
@given(a=_point, b=_point, which=st.sampled_from(sorted(DEGENERATE)))
def test_segment_test_matches_oracle_on_rational_endpoints(a, b, which):
    inst = dict(INSTANCES)[which]
    if a != b:
        assert segment_in_free_space(a, b, inst) == segment_oracle(a, b, inst)


# --------------------------------------------------------------------------
# General position


_vertex = st.builds(Point, st.integers(-5, 5), st.integers(-5, 5))


@SETTINGS
@given(vertices=st.lists(_vertex, max_size=12, unique=True),
       x=st.builds(Point, st.fractions(-6, 6, max_denominator=3),
                   st.fractions(-6, 6, max_denominator=3)))
def test_general_position_matches_pair_scan(vertices, x):
    x = Point(*(c.numerator if c.denominator == 1 else c for c in x))
    assert _in_general_position(x, tuple(vertices)) == \
        general_position_oracle(x, vertices)


@pytest.mark.parametrize("x,vertices", [
    (Point(1, 1), (Point(0, 0), Point(2, 2), Point(5, 0))),          # collinear
    (Point(Fraction(1, 2), 1), (Point(0, 0), Point(1, 2), Point(3, 1))),
    (Point(Fraction(1, 3), Fraction(2, 3)), (Point(0, 0), Point(1, 2))),
    (Point(3, 1), (Point(3, 1), Point(0, 0), Point(7, 2))),          # a vertex
    (Point(3, 1), (Point(3, 1),)),
    (Point(0, 0), (Point(1, 1), Point(-2, -2))),                    # opposite rays
    (Point(0, 0), (Point(1, 2), Point(2, 1), Point(-1, 3))),
    (Point(Fraction(1, 7), Fraction(2, 9)), (Point(0, 0), Point(1, 0), Point(0, 1))),
])
def test_general_position_edge_cases(x, vertices):
    assert _in_general_position(x, vertices) == general_position_oracle(x, vertices)


def test_reference_point_without_general_position_is_an_error(monkeypatch):
    import enclosure.instance as instance_module
    monkeypatch.setattr(instance_module, "_in_general_position",
                        lambda x, vertices: False)
    with pytest.raises(DegeneratePolygon):
        build({"polygons": [req("A", square(0, 0, 2))]})


# --------------------------------------------------------------------------
# Interior overlap


def _polygons(data):
    return parse_instance(data).polygons


def test_overlap_raised_when_boxes_barely_overlap():
    # The boxes share only the unit square [1, 2] x [1, 2], where the
    # interiors overlap.
    polys = _polygons({"polygons": [
        req("A", square(0, 0, 2)), opt("B", [[1, 1], [3, 1], [3, 3]], 1)]})
    assert overlap_result(polys) == overlap_oracle(polys) == \
        str(OverlapError("A", "B"))


def test_touching_boxes_skipped_but_later_overlap_found():
    # A and B, and B and C, have boxes that only touch (a shared edge, a
    # shared corner): their interiors are disjoint.  D overlaps C.
    polys = _polygons({"polygons": [
        req("A", square(0, 0, 2)), opt("B", square(2, 0, 2), 1),
        opt("C", square(4, 2, 2), 1), opt("D", square(5, 3, 2), 1)]})
    assert overlap_result(polys) == overlap_oracle(polys) == \
        str(OverlapError("C", "D"))
    assert overlap_result(polys[:3]) is None and overlap_oracle(polys[:3]) is None


def test_overlap_with_unbounded_polygon():
    # B lies outside the unbounded polygon's boundary, in its interior.
    polys = _polygons({"polygons": [
        req("A", square(0, 0, 2)), _frame(side=10, at=-3),
        opt("B", square(20, 20, 2), 1)]})
    assert overlap_result(polys) == overlap_oracle(polys) == \
        str(OverlapError("out", "B"))
    with pytest.raises(OverlapError):
        validate_and_subdivide(parse_instance({"polygons": [
            req("A", square(0, 0, 2)), _frame(side=10, at=-3),
            opt("B", square(20, 20, 2), 1)]}))


_shape = st.tuples(st.sampled_from(("square", "triangle")), st.integers(0, 6),
                   st.integers(0, 6), st.integers(1, 3))


@SETTINGS
@given(shapes=st.lists(_shape, min_size=2, max_size=4),
       frame=st.booleans())
def test_overlap_check_matches_all_pairs(shapes, frame):
    polys = []
    for i, (kind, x, y, s) in enumerate(shapes):
        verts = square(x, y, s) if kind == "square" else \
            [[x, y], [x + s, y], [x, y + s]]
        polys.append(opt(f"p{i}", verts, 1))
    if frame:
        polys.append(_frame(side=8, at=-1))
    polygons = _polygons({"polygons": polys})
    assert overlap_result(polygons) == overlap_oracle(polygons)
