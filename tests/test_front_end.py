"""The geometry front end (general-position test, winding tests,
reference points, free-space edges, segment test, interior-overlap check)
against brute-force oracles: the O(n^2) collinearity scan, the `Fraction`
winding test, containment and reference-point choice the library used
before it went to homogeneous integers, the all-pairs free-space builder
with its O(n) blocking-vertex scan (the full visibility graph, which a
tangency oracle filters), the segment and overlap tests
without bounding boxes, and the depth-first search that checked plane-graph
connectivity before Euler's formula did."""

import dataclasses
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enclosure import (
    FreeSpaceEdge,
    Point,
    brute_force,
    compute_free_space_edges,
    evaluate_solution,
    segment_in_free_space,
    solve_dijkstra,
    solve_dp,
    solve_inverted,
    uncross,
)
from enclosure.errors import (
    DegeneratePolygon,
    OnBoundary,
    OverlapError,
    SchemaError,
)
from enclosure.geometry import (
    Segment,
    boxes_meet,
    distance,
    homogeneous,
    homogeneous_winding,
    in_open_segment,
    on_segment,
    orient,
    segments_properly_cross,
    sort_along,
    winding_number,
)
from enclosure.instance import (
    InputPolygon,
    _check_disjoint_interiors,
    _in_general_position,
    _settle_reference_point,
    _subdivide_polygon,
    parse_instance,
    pick_reference_point,
    validate_and_subdivide,
)
from enclosure.oracle import random_instance
from enclosure.planegraph import extract_faces, graph_to_instance, parse_plane_graph
from enclosure.uncrossing import subdivide_walk
from enclosure.verify import _face_windings
from conftest import (
    EMPTY_INSTANCE, build, opt, random_closed_walk, rel_close, req, square,
    tangent_at_both_ends)
from test_planegraph import grid_graph

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


# --------------------------------------------------------------------------
# Oracles


def general_position_oracle(x, vertices):
    vs = list(vertices)
    return all(orient(vs[i], vs[j], x) != 0
               for i in range(len(vs)) for j in range(i + 1, len(vs)))


def ray_crossing_oracle(a, b, x):
    """The half-open crossing rule on a `Point` query, by `orient`."""
    if a.y <= x.y:
        return 1 if b.y > x.y and orient(a, b, x) > 0 else 0
    return -1 if b.y <= x.y and orient(a, b, x) < 0 else 0


def winding_oracle(walk, x):
    """Winding number by `Fraction` arithmetic on the query point."""
    m = len(walk)
    total = 0
    for i in range(m):
        a, b = walk[i], walk[(i + 1) % m]
        if a == b:
            continue
        if on_segment(x, a, b):
            raise OnBoundary(f"point {x} lies on the walk")
        total += ray_crossing_oracle(a, b, x)
    return total


def contains_oracle(poly, x):
    try:
        w = winding_oracle(poly.vertices, x)
    except OnBoundary:
        return "boundary"
    return "inside" if (w == 0) == poly.unbounded else "outside"


def pick_reference_oracle(poly):
    """Every candidate built up front, as `Fraction` points."""
    verts = poly.vertices
    m = len(verts)
    corner = None
    for i in range(m):
        a, v, b = verts[(i - 1) % m], verts[i], verts[(i + 1) % m]
        if orient(a, v, b) > 0:
            if corner is None or (v.y, v.x) < (verts[corner].y, verts[corner].x):
                corner = i
    if corner is None:
        raise DegeneratePolygon(poly.id)
    a, v, b = verts[(corner - 1) % m], verts[corner], verts[(corner + 1) % m]
    inside = [u for u in verts
              if u not in (a, v, b)
              and orient(a, v, u) >= 0 and orient(v, b, u) >= 0 and orient(b, a, u) >= 0]
    if not inside:
        candidates = [Point(Fraction(a.x + v.x + b.x, 3), Fraction(a.y + v.y + b.y, 3))]
    else:
        q = max(inside, key=lambda u: abs((b.x - a.x) * (u.y - a.y)
                                          - (b.y - a.y) * (u.x - a.x)))
        candidates = [Point(Fraction(v.x + q.x, 2), Fraction(v.y + q.y, 2))]
    for t in (4, 8, 16, 64, 256, 1024, 4096):
        candidates.append(Point(v.x + Fraction(a.x - v.x, t) + Fraction(b.x - v.x, t),
                                v.y + Fraction(a.y - v.y, t) + Fraction(b.y - v.y, t)))
    for cand in candidates:
        if contains_oracle(poly, cand) == "inside":
            return cand
    raise DegeneratePolygon(poly.id)


def settle_oracle(poly, all_vertices):
    """The reference point by `Fraction` candidates and perturbations."""
    cand = poly.reference_point
    if cand is None:
        if poly.unbounded:
            xs = [v.x for v in all_vertices]
            ys = [v.y for v in all_vertices]
            cand = Point(max(xs) + (max(xs) - min(xs)) + 7,
                         max(ys) + (max(ys) - min(ys)) + 3)
        else:
            cand = pick_reference_oracle(poly)
    if contains_oracle(poly, cand) != "inside":
        raise SchemaError(poly.id)
    rounded = Point(int(round(float(cand.x))), int(round(float(cand.y))))
    if contains_oracle(poly, rounded) == "inside" \
            and general_position_oracle(rounded, all_vertices):
        return rounded
    if general_position_oracle(cand, all_vertices):
        return cand
    for d in range(1, 40):
        for dx, dy in ((1, 2), (-2, 1), (3, -1), (-1, -3), (2, 3), (-3, 2)):
            p = Point(cand.x + Fraction(dx, 997 * d), cand.y + Fraction(dy, 997 * d))
            if contains_oracle(poly, p) == "inside" \
                    and general_position_oracle(p, all_vertices):
                return p
    raise DegeneratePolygon(poly.id)


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
            if contains_oracle(poly, mid) == "inside":
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


def tangent_edges_oracle(inst):
    """The full visibility graph of `edges_oracle` restricted to the pairs
    tangent at both ends."""
    vertices = inst.vertices
    return [e for e in edges_oracle(inst)
            if tangent_at_both_ends(inst, vertices[e[0]], vertices[e[1]])]


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
                    if contains_oracle(B, v) == "inside":
                        return str(OverlapError(P.id, Q.id))
                for a, b in A.edges():
                    mid = Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
                    if contains_oracle(B, mid) == "inside":
                        return str(OverlapError(P.id, Q.id))
                if A.reference_point is not None \
                        and contains_oracle(B, A.reference_point) == "inside":
                    return str(OverlapError(P.id, Q.id))
    return None


def disjoint_interiors_oracle(polygons):
    """The box-pruned check with its own edge-against-edge, vertex-inside
    and edge-midpoint loops, as validation ran it before it went to
    `InputPolygon.segment_meets_interior`; raises OverlapError."""
    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            P, Q = polygons[i], polygons[j]
            if P.box is not None and Q.box is not None \
                    and not boxes_meet(P.box, Q.box):
                continue
            for a, b in P.edges():
                for c, d in Q.edges():
                    if segments_properly_cross(Segment(a, b), Segment(c, d)):
                        raise OverlapError(P.id, Q.id)
            for A, B in ((P, Q), (Q, P)):
                for v in A.vertices:
                    if B.contains_homogeneous((v.x, v.y, 1)) == "inside":
                        raise OverlapError(P.id, Q.id)
                for a, b in A.edges():
                    if B.contains_homogeneous((a.x + b.x, a.y + b.y, 2)) == "inside":
                        raise OverlapError(P.id, Q.id)
                if A.reference_point is not None and B.contains(A.reference_point) == "inside":
                    raise OverlapError(P.id, Q.id)


def overlap_result(polygons, check=_check_disjoint_interiors):
    try:
        check(polygons)
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
    # A square with a slit down from its top side at (1, 3), which the
    # walk visits twice, and a triangle above it.
    "bridge": {"polygons": [
        req("A", [[0, 0], [3, 0], [3, 3], [1, 3], [1, 2], [1, 3], [0, 3]]),
        opt("B", [[4, 5], [5, 5], [4, 6]], 1)]},
    # Two triangles meeting at (3, 3), where B's edges cut A's corner.
    "bowtie": {"polygons": [
        opt("A", [[3, 3], [1, 2], [1, 4]], 5), req("B", [[3, 3], [6, 2], [6, 4]])]},
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
        tangent_edges_oracle(inst)


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


def _degenerate_end(data, inst):
    """A polygon vertex, a reference point, or a point on the line through
    a polygon edge: a vertex plus an integer or rational multiple of the
    edge's direction."""
    how = data.draw(st.sampled_from(("vertex", "reference", "edge_line")))
    if how == "vertex":
        return data.draw(st.sampled_from(inst.vertices))
    if how == "reference":
        return data.draw(st.sampled_from([p.reference_point for p in inst.polygons]))
    walk = data.draw(st.sampled_from(inst.polygons)).vertices
    i = data.draw(st.integers(0, len(walk) - 1))
    c, d = walk[i], walk[(i + 1) % len(walk)]
    t = data.draw(st.one_of(st.integers(-3, 3),
                            st.fractions(-3, 3, max_denominator=4)))
    return Point(c.x + t * (d.x - c.x), c.y + t * (d.y - c.y))


@SETTINGS
@given(which=st.sampled_from(sorted(DEGENERATE)), data=st.data())
def test_segment_test_matches_oracle_on_degenerate_endpoints(which, data):
    # Endpoints on vertices and on edge lines reach the collinear-vertex
    # and straddling-edge cases that random rational endpoints miss.
    inst = dict(INSTANCES)[which]
    a, b = _degenerate_end(data, inst), _degenerate_end(data, inst)
    if a != b:
        assert segment_in_free_space(a, b, inst) == segment_oracle(a, b, inst)


# A diamond whose lines through opposite corners run through its interior:
# a corner beyond a segment on such a line is no touch point.
_NAMED_SCENES = dict(INSTANCES, diamond=build({"polygons": [
    req("A", [[2, 0], [4, 2], [2, 4], [0, 2]])]}))


@pytest.mark.parametrize("which,a,b,free", [
    ("collinear_chain", (-1, 0), (6, 0), True),   # along three bottom edges
    ("collinear_chain", (1, 0), (2, 0), True),    # the gap between two of them
    ("shared", (-1, -1), (1, 1), False),          # through A's corner, inside
    ("shared", (1, -1), (-1, 1), True),           # grazes A's corner (0, 0)
    ("shared", (2, 0), (2, 2), True),             # the squeezed wall
    ("bowtie", (3, 1), (3, 5), True),             # through the shared tip
    ("bridge", (1, 4), (1, 2), True),             # down the bridge to its tip
    ("bridge", (1, 3), (1, 1), False),            # past the tip, inside A
    ("bridge", (0, 3), (3, 3), True),             # along the top, over its base
    ("diamond", (2, -3), (2, 0), True),           # up to a corner
    ("diamond", (-3, 2), (0, 2), True),           # right to a corner
    ("diamond", (2, -1), (2, 1), False),          # through a corner, inside
])
def test_segment_test_named_degenerate_cases(which, a, b, free):
    inst = _NAMED_SCENES[which]
    a, b = Point(*a), Point(*b)
    assert segment_in_free_space(a, b, inst) == segment_oracle(a, b, inst) == free


# --------------------------------------------------------------------------
# General position


_vertex = st.builds(Point, st.integers(-5, 5), st.integers(-5, 5))


@SETTINGS
@given(vertices=st.lists(_vertex, max_size=12, unique=True),
       x=st.builds(Point, st.fractions(-6, 6, max_denominator=3),
                   st.fractions(-6, 6, max_denominator=3)))
def test_general_position_matches_pair_scan(vertices, x):
    x = Point(*(c.numerator if c.denominator == 1 else c for c in x))
    assert _in_general_position(homogeneous(x), tuple(vertices)) == \
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
    assert _in_general_position(homogeneous(x), vertices) == general_position_oracle(x, vertices)


def test_reference_point_without_general_position_is_an_error(monkeypatch):
    import enclosure.instance as instance_module
    monkeypatch.setattr(instance_module, "_in_general_position",
                        lambda x, vertices: False)
    with pytest.raises(DegeneratePolygon):
        build({"polygons": [req("A", square(0, 0, 2))]})


# A triangle with a bridge into a pendant vertex, as a plane graph.
_PENDANT = build({"graph": {
    "vertices": [[0, 0], [6, 0], [0, 6], [2, 2]],
    "edges": [[0, 1, 1], [1, 2, 1], [2, 0, 1], [0, 3, 1]]}})


@pytest.mark.parametrize("name,inst", INSTANCES + [("pendant", _PENDANT)],
                         ids=[n for n, _ in INSTANCES] + ["pendant"])
def test_every_chord_splits_the_references(name, inst):
    # Settled references lie on no line through two vertices, so every
    # directed chord resolves, and its strictly-left mask and its
    # reverse's partition the references as the exact side test does.
    fsg = compute_free_space_edges(inst)
    refs = [poly.reference_point for poly in inst.required + inst.optional]
    verts = fsg.vertices
    for i, j in itertools.permutations(range(fsg.n), 2):
        left, right = fsg._chord(i, j), fsg._chord(j, i)
        assert left & right == 0
        assert left | right == fsg._all
        assert left == sum(1 << bit for bit, ref in enumerate(refs)
                           if orient(verts[i], verts[j], ref) > 0)


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


def _pair_shape(kind, x, y, s, h):
    """Vertices of one shape: a square, a right triangle, an L, or a square
    with a bridge (an edge walked there and back) poking in or out of its
    top side at x + h."""
    if kind == "square":
        return square(x, y, s)
    if kind == "triangle":
        return [[x, y], [x + s, y], [x, y + s]]
    if kind == "ell":
        return [[x, y], [x + s, y], [x + s, y + 1], [x + 1, y + 1],
                [x + 1, y + s], [x, y + s]]
    tip = y + s - 1 if kind == "bridge_in" else y + s + 2
    return [[x, y], [x + s, y], [x + s, y + s], [x + h, y + s], [x + h, tip],
            [x + h, y + s], [x, y + s]]


_pair_kind = st.sampled_from(("square", "triangle", "ell", "bridge_in", "bridge_out"))


@st.composite
def _polygon_pairs(draw):
    """Two polygons as validation sees them: subdivided at every vertex,
    with settled reference points.  The second is a copy of the first, the
    first shifted (sharing an edge or a vertex, overlapping or apart), a
    shape of its own (which may nest with the first), or the unbounded
    polygon."""
    kind, x, y = draw(_pair_kind), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    s = draw(st.integers(2, 4))
    h = draw(st.integers(1, s - 1))
    first = opt("A", _pair_shape(kind, x, y, s, h), 1)
    how = draw(st.sampled_from(("identical", "shifted", "other", "unbounded")))
    if how == "identical":
        second = opt("B", first["vertices"], 2)
    elif how == "shifted":
        dx, dy = draw(st.integers(-s, s)), draw(st.integers(-s, s))
        second = opt("B", [[vx + dx, vy + dy] for vx, vy in first["vertices"]], 2)
    elif how == "other":
        t = draw(st.integers(2, 4))
        second = opt("B", _pair_shape(draw(_pair_kind), draw(st.integers(0, 6)),
                                      draw(st.integers(0, 6)), t,
                                      draw(st.integers(1, t - 1))), 2)
    else:
        at, side = draw(st.integers(-2, 4)), draw(st.integers(2, 12))
        second = _frame(side=side, at=at)
    pair = list(_polygons({"polygons": [first, second]}))
    if draw(st.booleans()):
        pair.reverse()
    all_vertices = sorted({v for poly in pair for v in poly.vertices})
    pair = [_subdivide_polygon(poly, all_vertices) for poly in pair]
    try:
        return [dataclasses.replace(
            poly, reference_point=_settle_reference_point(poly, all_vertices))
            for poly in pair]
    except DegeneratePolygon:
        return pair


@SETTINGS
@given(pair=_polygon_pairs())
def test_overlap_check_matches_loop_oracle_on_pairs(pair):
    # Same OverlapError pair, or none, as the check with its own loops.
    assert overlap_result(pair) == overlap_result(pair, disjoint_interiors_oracle)


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_overlap_check_matches_loop_oracle_on_instances(name, inst):
    polygons = list(inst.polygons)
    assert overlap_result(polygons) is None
    assert overlap_result(polygons, disjoint_interiors_oracle) is None
    # Every polygon doubled: a copy holds the reference point of its twin.
    doubled = polygons + [dataclasses.replace(p, id=f"{p.id}'") for p in polygons]
    assert overlap_result(doubled) == \
        overlap_result(doubled, disjoint_interiors_oracle) is not None


# --------------------------------------------------------------------------
# Winding tests and reference points against the Fraction oracles


# Denominators of reference points and their perturbations: 2 (midpoints),
# 3 (centroids) and 997 d.
_DENOMINATOR = st.one_of(st.sampled_from((1, 2, 3)),
                         st.integers(1, 39).map(lambda d: 997 * d))


def _coord(lo, hi):
    return _DENOMINATOR.flatmap(lambda d: st.integers(lo * d, hi * d).map(
        lambda n: n if d == 1 else Fraction(n, d)))


def _query(lo, hi):
    return st.builds(Point, _coord(lo, hi), _coord(lo, hi))


def _on_walk(data, walk):
    """A point on a vertex or an edge of the closed walk."""
    i = data.draw(st.integers(0, len(walk) - 1))
    a, b = walk[i], walk[(i + 1) % len(walk)]
    d = data.draw(_DENOMINATOR)
    t = Fraction(data.draw(st.integers(0, d)), d)
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def _outcome(fn, *args):
    """The result's repr (so that int and Fraction coordinates differ), or
    the name of the exception raised."""
    try:
        return repr(fn(*args))
    except (OnBoundary, SchemaError, DegeneratePolygon) as e:
        return type(e).__name__


def _assert_same_winding(walk, x):
    expected = _outcome(winding_oracle, walk, x)
    assert _outcome(winding_number, walk, x) == expected
    X, Y, W = homogeneous(x)    # an unreduced homogeneous form
    assert _outcome(homogeneous_winding, walk, (3 * X, 3 * Y, 3 * W)) == expected


_int_walk = st.lists(st.builds(Point, st.integers(0, 12), st.integers(0, 12)),
                     min_size=1, max_size=8)


@SETTINGS
@given(walk=_int_walk, x=_query(-2, 14), data=st.data())
def test_winding_matches_fraction_oracle(walk, x, data):
    _assert_same_winding(walk, x)
    _assert_same_winding(walk, _on_walk(data, walk))


_POLYGONS = [p for _name, inst in INSTANCES for p in inst.polygons]


@SETTINGS
@given(i=st.integers(0, len(_POLYGONS) - 1), data=st.data())
def test_contains_matches_fraction_oracle(i, data):
    poly = _POLYGONS[i]
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    x = Point(data.draw(_coord(min(xs) - 2, max(xs) + 2)),
              data.draw(_coord(min(ys) - 2, max(ys) + 2)))
    for q in (x, _on_walk(data, poly.vertices), poly.reference_point):
        expected = contains_oracle(poly, q)
        assert poly.contains(q) == expected
        X, Y, W = homogeneous(q)
        assert poly.contains_homogeneous((2 * X, 2 * Y, 2 * W)) == expected


# Plane-graph faces: a grid, and a triangle with a bridge into a pendant
# vertex, whose face walk traverses the bridge twice.
_FACES = extract_faces(parse_plane_graph(grid_graph(4, 4))) + \
    extract_faces(parse_plane_graph({
        "vertices": [[0, 0], [6, 0], [0, 6], [2, 2]],
        "edges": [[0, 1, 1], [1, 2, 1], [2, 0, 1], [0, 3, 1]]}))


@SETTINGS
@given(x=_query(-1, 7), data=st.data())
def test_face_location_matches_fraction_oracle(x, data):
    for face in _FACES:
        _assert_same_winding(face, x)
    _assert_same_winding(_FACES[0], _on_walk(data, _FACES[0]))


def face_windings_oracle(g):
    """Face windings counted on doubled `Point` coordinates."""
    doubled = [Point(2 * p.x, 2 * p.y) for p in g.traversal]
    darts = list(zip(doubled, doubled[1:] + doubled[:1]))
    return {sum(ray_crossing_oracle(u, v, Point(a.x + b.x, a.y + b.y))
                for u, v in darts)
            for a, b in g.multiplicity}


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), x=_query(-2, 22), data=st.data())
def test_uncrossed_walk_windings_match_fraction_oracle(seed, x, data):
    # Uncrossing adds the rational crossing points as walk vertices.
    walk = random_closed_walk(random.Random(seed), n_points=6)
    out, _report = uncross(EMPTY_INSTANCE, walk)
    g, _ = subdivide_walk(out)
    for pts in (walk.points, out.points, tuple(g.traversal)):
        _assert_same_winding(pts, x)
        _assert_same_winding(pts, _on_walk(data, pts))
    assert _face_windings(g) == face_windings_oracle(g)


def _histogram(x0, y0, widths, heights):
    """A ccw histogram polygon on the base y = y0: column i spans widths[i]
    and rises to y0 + heights[i]; equal neighbours leave collinear
    vertices."""
    xs = [x0]
    for w in widths:
        xs.append(xs[-1] + w)
    verts = [[xs[0], y0], [xs[-1], y0]]
    for i in reversed(range(len(widths))):
        for p in ([xs[i + 1], y0 + heights[i]], [xs[i], y0 + heights[i]]):
            if p != verts[-1]:
                verts.append(p)
    if verts[-1] == verts[0]:
        verts.pop()
    return verts


_columns = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)),
                    min_size=1, max_size=5)


@SETTINGS
@given(x0=st.integers(-3, 3), y0=st.integers(-3, 3), columns=_columns,
       extra=st.lists(st.builds(Point, st.integers(-4, 12), st.integers(-4, 12)),
                      max_size=8),
       given_ref=st.one_of(st.none(), _query(-3, 12)))
def test_reference_points_match_fraction_oracle(x0, y0, columns, extra, given_ref):
    widths, heights = zip(*columns)
    verts = _histogram(x0, y0, widths, heights)
    assume(len(verts) >= 3)
    poly = parse_instance({"polygons": [req("h", verts)]}).polygons[0]
    assert _outcome(pick_reference_point, poly) == \
        _outcome(pick_reference_oracle, poly)
    # Extra vertices put candidates out of general position now and then.
    all_vertices = tuple(sorted(set(poly.vertices) | set(extra)))
    poly = dataclasses.replace(poly, reference_point=given_ref)
    assert _outcome(_settle_reference_point, poly, all_vertices) == \
        _outcome(settle_oracle, poly, all_vertices)


@SETTINGS
@given(walk=st.lists(st.builds(Point, st.integers(0, 8), st.integers(0, 8)),
                     min_size=3, max_size=8),
       extra=st.lists(st.builds(Point, st.integers(0, 8), st.integers(0, 8)),
                      max_size=4))
def test_reference_points_on_arbitrary_walks_match_fraction_oracle(walk, extra):
    # Self-crossing and self-touching walks make the first candidate fail
    # now and then, so that the fallbacks, and the errors, are reached.
    poly = InputPolygon("w", tuple(walk), "required")
    assert _outcome(pick_reference_point, poly) == \
        _outcome(pick_reference_oracle, poly)
    all_vertices = tuple(sorted(set(walk) | set(extra)))
    assert _outcome(_settle_reference_point, poly, all_vertices) == \
        _outcome(settle_oracle, poly, all_vertices)


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_settled_reference_points_match_fraction_oracle(name, inst):
    for poly in inst.polygons:
        unsettled = dataclasses.replace(poly, reference_point=None)
        assert repr(_settle_reference_point(unsettled, inst.vertices)) == \
            repr(settle_oracle(unsettled, inst.vertices))


def _benchmark_documents(seed=1):
    """(workload, documents) of the benchmark's generators; `pool_dp`
    shares `pool`'s documents and is left out."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(name, [doc for doc, _cost in generate(seed)])
            for name, (generate, _solver) in workloads.WORKLOADS.items()
            if name != "pool_dp"]


@pytest.mark.parametrize("name,docs", _benchmark_documents(),
                         ids=[n for n, _ in _benchmark_documents()])
def test_benchmark_documents_match_fraction_oracles(name, docs):
    for doc in docs:
        parsed = parse_instance(doc)
        inst = validate_and_subdivide(parsed)
        for given_poly, poly in zip(parsed.polygons, inst.polygons):
            unsettled = dataclasses.replace(
                poly, reference_point=given_poly.reference_point)
            assert repr(poly.reference_point) == \
                repr(settle_oracle(unsettled, inst.vertices))
        fsg = compute_free_space_edges(inst)
        assert [(e.a, e.b, e.weight, e.squeezed) for e in fsg.edges] == \
            tangent_edges_oracle(inst)


def connected_oracle(g):
    """Plane-graph connectivity by depth-first search from vertex 0."""
    adj = {i: [] for i in range(len(g.vertices))}
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(g.vertices)


@st.composite
def _plane_graphs(draw):
    """A straight-line plane graph with at least one edge on distinct grid
    points, optionally inside a square frame whose bounded face then holds
    every other component.  Drawn edges are kept when they cross no kept
    edge and pass through no vertex, which leaves trees, bridges, isolated
    vertices and cycles."""
    points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           min_size=2, max_size=9, unique=True))
    pairs = []
    if draw(st.booleans()):
        m = len(points)
        points += [(-2, -2), (8, -2), (8, 8), (-2, 8)]
        pairs = [(m + i, m + (i + 1) % 4) for i in range(4)]
    verts = [Point(*p) for p in points]
    index = st.integers(0, len(verts) - 1)
    pairs += draw(st.lists(st.tuples(index, index), max_size=14))
    edges = []
    for u, v in pairs:
        seg = Segment(verts[u], verts[v])
        if u == v or {u, v} in [{a, b} for a, b in edges] \
                or any(in_open_segment(x, seg.a, seg.b) for x in verts) \
                or any(segments_properly_cross(seg, Segment(verts[a], verts[b]))
                       for a, b in edges):
            continue
        edges.append((u, v))
    assume(edges)
    return parse_plane_graph({"vertices": [list(p) for p in points],
                              "edges": [[u, v, 1] for u, v in edges]})


@SETTINGS
@given(g=_plane_graphs())
def test_euler_connectivity_matches_depth_first_search(g):
    try:
        graph_to_instance(g)
        connected = True
    except SchemaError as e:
        assert "not connected" in str(e)
        connected = False
    assert connected == connected_oracle(g)


# --------------------------------------------------------------------------
# Tangent-only free space against the full visibility graph


def full_visibility_graph(inst):
    """The instance's free-space graph with every edge of `edges_oracle`,
    tangent or not."""
    edges = [FreeSpaceEdge(*e) for e in edges_oracle(inst)]
    adjacency = [{} for _ in range(inst.n)]
    for e in edges:
        adjacency[e.a][e.b] = adjacency[e.b][e.a] = e.weight
    return dataclasses.replace(
        compute_free_space_edges(inst), edges=edges, adjacency=adjacency)


_SMALL_SCENES = ("apart", "collinear", "shared_edge", "squeezed",
                 "shared_vertex", "bowtie", "bridge", "points", "unbounded",
                 "graph")


@st.composite
def _small_documents(draw):
    """A document of at most about ten vertices: two objects apart (they
    may overlap and then fail validation) or on one line, sharing an edge
    (squeezed or not) or a vertex (also as a bowtie, where one triangle's
    edges may cut the other's corner), a square with a bridge, point
    objects, an object in the unbounded polygon, or a plane graph; in
    enclose or invert mode."""
    scene = draw(st.sampled_from(_SMALL_SCENES))
    mode = draw(st.sampled_from(("enclose", "invert")))

    def at():
        return draw(st.integers(0, 6))

    def tag():
        if draw(st.booleans()):
            return {"kind": "required"}
        return {"kind": "optional",
                "penalty": draw(st.sampled_from((0, 1, 2, 5, 10, "inf")))}

    def obj(name, vertices):
        return dict(tag(), id=name, vertices=vertices)

    def shape(x, y):
        side = draw(st.integers(1, 3))
        if draw(st.booleans()):
            return square(x, y, side)
        return [[x, y], [x + side, y], [x, y + side]]

    if scene == "graph":
        centers = draw(st.lists(st.sampled_from(((1, 1), (3, 1), (1, 3), (3, 3))),
                                unique=True, max_size=3))
        faces = [dict(tag(), point=list(c)) for c in centers]
        graph = grid_graph(3, 3, weight=draw(st.integers(1, 3)))
        return {"mode": mode, "graph": dict(graph, faces=faces)}
    data = {"mode": mode}
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if scene == "apart":
        polys = [obj("A", shape(at(), at())), obj("B", shape(at(), at()))]
    elif scene == "collinear":
        polys = [obj("A", square(0, 0, s)), obj("B", shape(s + t, 0))]
    elif scene in ("shared_edge", "squeezed"):
        polys = [obj("A", square(0, 0, s)), obj("B", square(s, 0, t))]
        if scene == "squeezed":
            data["squeezed_edges"] = [{"a": [s, 0], "b": [s, min(s, t)],
                                       "weight": draw(st.sampled_from((0.5, 1, 3, 9)))}]
    elif scene == "shared_vertex":
        polys = [obj("A", square(0, 0, s)), obj("B", shape(s, s))]
    elif scene == "bowtie":
        polys = [obj("A", [[3, 3], [3 - s, 2], [3 - s, 4]]),
                 obj("B", [[3, 3], [3 + t, 2], [3 + t, 4]])]
    elif scene == "bridge":
        kind = draw(st.sampled_from(("bridge_in", "bridge_out")))
        polys = [obj("A", _pair_shape(kind, 0, 0, 3, draw(st.integers(1, 2)))),
                 obj("B", [[5, 0], [5 + s, 0], [5, s]])]
    elif scene == "points":
        polys = [obj("A", square(0, 0, s))]
        data["points"] = [dict(tag(), id=f"p{i}", at=[at() + 4, at()])
                          for i in range(draw(st.integers(1, 2)))]
        data["point_epsilon"] = 1
    else:
        frame = dict(_frame(side=12, at=-3),
                     penalty=draw(st.sampled_from((0, 1, 5, "inf"))))
        polys = [obj("A", shape(at(), at())), frame]
    return dict(data, polygons=polys)


@SETTINGS
@given(doc=_small_documents())
def test_tangent_graph_solvers_match_brute_force_on_full_graph(doc):
    try:
        inst = build(doc)
    except OverlapError:
        assume(False)
    assume(inst.n <= 10)
    fsg = compute_free_space_edges(inst)
    expected = brute_force(inst, full_visibility_graph(inst)).best_cost
    if inst.mode == "invert":
        costs = [solve_inverted(inst, fsg)[0]]
    else:
        costs = [solve_dijkstra(fsg)[0], solve_dp(fsg)[0]]
    for cost in costs:
        assert rel_close(cost, expected), (cost, expected)


@SETTINGS
@given(doc=_small_documents())
def test_solver_walks_verify_on_degenerate_scenes(doc):
    # Costs alone do not show a walk is right.  Every enclose-mode walk of
    # the search and the DP, uncrossed, and every inverted walk as it is
    # must verify: feasible, every check true, at the solver's cost.
    try:
        inst = build(doc)
    except OverlapError:
        assume(False)
    fsg = compute_free_space_edges(inst)
    if inst.mode == "invert":
        results = [solve_inverted(inst, fsg)]
    else:
        results = [solve_dijkstra(fsg), solve_dp(fsg)]
    for cost, walk in results:
        if walk is None:
            assert cost == float("inf")
            continue
        if inst.mode == "enclose":
            walk, _report = uncross(inst, walk)
        sol = evaluate_solution(inst, walk, check_simple=True)
        assert sol.feasible and all(sol.checks.values()), sol.checks
        assert rel_close(sol.cost, cost), (sol.cost, cost)


@pytest.mark.parametrize("seed", range(25))
def test_tangent_graph_keeps_random_instance_costs(seed):
    # The DP and the search agree on any graph, so the search alone
    # solves the full visibility graph.
    for mode, ks in (("enclose", range(4)), ("invert", range(3))):
        for k in ks:
            inst = random_instance(seed, n_objects=6, k=k, mode=mode)
            tangent, full = compute_free_space_edges(inst), full_visibility_graph(inst)
            if mode == "enclose":
                expected = solve_dijkstra(full)[0]
                costs = [solve_dijkstra(tangent)[0], solve_dp(tangent)[0]]
            else:
                expected = solve_inverted(inst, full)[0]
                costs = [solve_inverted(inst, tangent)[0]]
            for cost in costs:
                assert rel_close(cost, expected), (mode, k, cost, expected)


def test_oracle_answers_invert_mode_with_infinite_outside_penalty_at_once():
    # Every curve leaves the frame's reference point outside and pays its
    # infinite penalty; enumerating the 21 full-visibility edges up to the
    # default budget took minutes.
    inst = build({"mode": "invert", "polygons": [
        opt("A", square(0, 0, 1), 10), dict(_frame(side=12, at=-3), penalty="inf")]})
    full = full_visibility_graph(inst)
    assert (inst.n, len(full.edges)) == (8, 21)
    res = brute_force(inst, full)
    assert res.best_cost == solve_inverted(inst, compute_free_space_edges(inst))[0] \
        == float("inf")
    assert res.best_walk is None and res.walks_examined == 0
