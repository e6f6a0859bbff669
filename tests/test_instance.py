import json
import math

import pytest

from enclosure import (
    Point,
    parse_instance,
    pick_reference_point,
    validate_and_subdivide,
)
from enclosure.errors import (
    CapacityError,
    DegeneratePolygon,
    OverlapError,
    ParseError,
    SchemaError,
)
from enclosure.geometry import orient
from conftest import as_point, build, opt, req, square


def test_parse_single_square():
    inst = build({"polygons": [req("A", square(0, 0, 2))]})
    assert inst.k == 1 and inst.n == 4
    assert inst.polygons[0].kind == "required"


def test_parse_accepts_bytes_and_str():
    data = {"polygons": [req("A", square(0, 0, 2))]}
    s = json.dumps(data)
    assert parse_instance(s).k == 1
    assert parse_instance(s.encode()).k == 1


def test_parse_inf_penalty():
    inst = parse_instance({"polygons": [opt("B", square(0, 0, 2), "inf")]})
    assert math.isinf(inst.polygons[0].penalty)


def test_negative_penalty_rejected():
    with pytest.raises(SchemaError):
        parse_instance({"polygons": [opt("B", square(0, 0, 2), -1)]})


def _squeezed_document(weight):
    """Two touching required unit squares with their shared wall squeezed,
    plus one optional triangle."""
    return {"polygons": [req("A", square(0, 0, 1)), req("B", square(1, 0, 1)),
                         opt("C", [[3, 0], [4, 0], [3, 1]], 1)],
            "squeezed_edges": [{"a": [1, 0], "b": [1, 1], "weight": weight}]}


def _graph_document(weight):
    return {"graph": {"vertices": [[0, 0], [6, 0], [0, 6]],
                      "edges": [[0, 1, 2], [1, 2, weight], [2, 0, 4]],
                      "faces": [{"point": [1, 1], "kind": "required"}]}}


@pytest.mark.parametrize("weight", [-5, 0, math.nan], ids=["negative", "zero", "nan"])
@pytest.mark.parametrize("document", [_squeezed_document, _graph_document],
                         ids=["squeezed", "graph"])
def test_nonpositive_or_nan_weight_rejected(document, weight):
    with pytest.raises(SchemaError, match="weight"):
        parse_instance(document(weight))
    with pytest.raises(SchemaError, match="weight"):  # JSON spells NaN out
        parse_instance(json.dumps(document(weight)))
    assert parse_instance(document(0.5)).squeezed


@pytest.mark.parametrize("form", ["polygon", "point", "face"])
def test_nan_penalty_rejected(form):
    nan = math.nan
    document = {
        "polygon": {"polygons": [opt("B", square(0, 0, 2), nan)]},
        "point": {"points": [{"kind": "optional", "at": [0, 0], "penalty": nan}]},
        "face": {"graph": {"vertices": [[0, 0], [6, 0], [0, 6]],
                           "edges": [[0, 1, 2], [1, 2, 3], [2, 0, 4]],
                           "faces": [{"point": [1, 1], "kind": "optional",
                                      "penalty": nan}]}},
    }[form]
    with pytest.raises(SchemaError, match="penalty"):
        parse_instance(document)
    with pytest.raises(SchemaError, match="penalty"):
        parse_instance(json.dumps(document))


def test_required_penalty_rejected():
    bad = req("A", square(0, 0, 2))
    bad["penalty"] = 1
    with pytest.raises(SchemaError):
        parse_instance({"polygons": [bad]})


def test_malformed_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_instance({"polygons": [{"id": "A", "kind": "weird",
                                      "vertices": square(0, 0, 2)}]})
    with pytest.raises(SchemaError):
        parse_instance({"polygons": [req("A", [[0, 0], [1, 0]])]})
    with pytest.raises(SchemaError):  # duplicate ids
        parse_instance({"polygons": [req("A", square(0, 0, 2)),
                                     req("A", square(5, 0, 2))]})
    with pytest.raises(SchemaError):  # zero area
        parse_instance({"polygons": [req("A", [[0, 0], [2, 0], [4, 0]])]})
    with pytest.raises(SchemaError):  # non-integer coordinates
        parse_instance({"polygons": [req("A", [[0, 0], [1.5, 0], [0, 1]])]})
    with pytest.raises(SchemaError):
        parse_instance({"mode": "sideways", "polygons": []})
    with pytest.raises(SchemaError):
        parse_instance({"scale": 0, "polygons": []})


def test_unbounded_rules():
    frame = {"id": "out", "kind": "optional", "penalty": 1, "unbounded": True,
             "vertices": square(-10, -10, 30)}
    inst = build({"polygons": [req("A", square(0, 0, 2)), frame]})
    out = inst.polygons[1]
    assert out.unbounded
    # The unbounded region is everything outside the drawn boundary.
    assert out.contains((99, 99, 1)) == "inside"
    assert out.contains((1, 1, 1)) == "outside"
    with pytest.raises(SchemaError):  # must be optional
        parse_instance({"polygons": [
            {"id": "o", "kind": "required", "unbounded": True,
             "vertices": square(-10, -10, 30)}]})
    with pytest.raises(SchemaError):  # at most one
        parse_instance({"polygons": [
            dict(frame), {**frame, "id": "out2", "vertices": square(-20, -20, 50)}]})


def test_orientation_normalized():
    inst = parse_instance({"polygons": [
        {"id": "A", "kind": "required",
         "vertices": [[0, 0], [0, 2], [2, 2], [2, 0]]}]})  # given clockwise
    from enclosure.geometry import signed_area2
    assert signed_area2(inst.polygons[0].vertices) > 0


def test_shared_edge_no_split():
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               opt("B", square(2, 0, 2), 1)]})
    # Shared edge endpoints already vertices of both; nothing to split.
    assert all(len(p.vertices) == 4 for p in inst.polygons)
    assert inst.n == 6


def test_vertex_on_edge_forces_split():
    # Triangle apex touches the midpoint of the square's left edge.
    inst = build({"polygons": [
        req("A", square(0, 0, 4)),
        opt("B", [[0, 2], [-3, 1], [-3, 3]], 1)]})
    sq = next(p for p in inst.polygons if p.id == "A")
    assert Point(0, 2) in sq.vertices
    assert len(sq.vertices) == 5
    assert inst.n == 7


def test_overlap_rejected():
    with pytest.raises(OverlapError):
        build({"polygons": [req("A", square(0, 0, 4)),
                            opt("B", square(2, 2, 4), 1)]})
    with pytest.raises(OverlapError):  # containment is overlap too
        build({"polygons": [req("A", square(0, 0, 10)),
                            opt("B", square(4, 4, 2), 1)]})
    # Q is two lobes meeting at (10, 5), a point of P's edge x = 10; its
    # left lobe lies inside P, and its reference point (13, 5) in the
    # right lobe, outside P.  Q's edges meet P's interior, but no edge of
    # P meets Q's, and neither reference point lies inside the other
    # polygon: only testing the edges of both polygons, each against the
    # other's interior, sees the overlap, in either order.
    P = req("P", square(0, 0, 10))
    Q = {**opt("Q", [[10, 5], [8, 6], [8, 4], [10, 5], [14, 3], [14, 7]], 1),
         "reference_point": [13, 5]}
    for polygons in ([P, Q], [Q, P]):
        with pytest.raises(OverlapError):
            build({"polygons": polygons})


def test_validate_idempotent():
    inst = build({"polygons": [
        req("A", square(0, 0, 4)),
        opt("B", [[0, 2], [-3, 1], [-3, 3]], 1)]})
    again = validate_and_subdivide(inst)
    assert [p.vertices for p in again.polygons] == [p.vertices for p in inst.polygons]
    assert [p.reference_point for p in again.polygons] == \
        [p.reference_point for p in inst.polygons]


def test_pick_reference_point():
    inst = parse_instance({"polygons": [
        req("sq", square(0, 0, 2)),
        req("thin", [[0, 10], [4, 10], [4, 11]]),
        req("ell", [[10, 0], [16, 0], [16, 2], [12, 2], [12, 6], [10, 6]]),
    ]})
    for p in inst.polygons:
        ref = pick_reference_point(p)
        assert p.contains(ref) == "inside"


def test_reference_points_settled_interior_general_position():
    inst = build({"polygons": [req("A", square(0, 0, 4)),
                               opt("B", square(10, 0, 4), 2)]})
    verts = inst.vertices
    for p in inst.polygons:
        assert p.contains(p.reference_point) == "inside"
        ref = as_point(p.reference_point)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                assert orient(verts[i], verts[j], ref) != 0


def test_point_objects_become_triangles():
    inst = build({"polygons": [req("A", square(0, 0, 20000))],
                  "points": [{"id": "p1", "kind": "optional", "penalty": 3,
                              "at": [30000, 5000]}]})
    tri = next(p for p in inst.polygons if p.id == "p1")
    assert len(tri.vertices) == 3
    eps = inst.point_epsilon
    assert eps >= 1
    assert Point(30000, 5000) in tri.vertices
    assert Point(30000 + eps, 5000) in tri.vertices


def test_point_epsilon_explicit():
    inst = parse_instance({"point_epsilon": 5,
                           "points": [{"id": "p", "kind": "required", "at": [0, 0]}]})
    assert inst.point_epsilon == 5
    assert Point(5, 0) in inst.polygons[0].vertices


def test_squeezed_edges_split_proportionally():
    # The shared wall of two 4-high squares stays whole, as C touches it
    # nowhere; a piece of it weighs its share of the weight by length.
    data = {"polygons": [req("A", square(0, 0, 4)),
                         opt("B", square(4, 0, 4), 1),
                         opt("C", square(4, 0, 4), 1)],
            "squeezed_edges": [{"a": [4, 0], "b": [4, 4], "weight": 10.0}]}
    data["polygons"][2] = opt("C", square(8, 0, 4), 1)
    inst = build(data)
    assert list(inst.squeezed) == [frozenset((Point(4, 0), Point(4, 4)))]
    assert inst.segment_weight(Point(4, 0), Point(4, 4)) == pytest.approx(10.0)
    assert inst.segment_weight(Point(4, 0), Point(4, 2)) == pytest.approx(5.0)
    assert inst.segment_weight(Point(4, 1), Point(4, 3)) == pytest.approx(5.0)
    # Non-squeezed segments fall back to Euclidean length.
    assert inst.segment_weight(Point(0, 0), Point(4, 0)) == pytest.approx(4.0)


def test_split_squeezed_wall_weighs_its_pieces():
    # Validation splits the wall (4,0)-(4,4) of weight 10 at the corner
    # (4,2) of B1 and B2 into two pieces of weight 5.  A segment over both
    # pieces, or over parts of them, weighs its share of each.
    inst = build({"polygons": [req("A", square(0, 0, 4)),
                               opt("B1", square(4, 0, 2), 1),
                               opt("B2", square(4, 2, 2), 1)],
                  "squeezed_edges": [{"a": [4, 0], "b": [4, 4], "weight": 10.0}]})
    assert inst.squeezed == {frozenset((Point(4, 0), Point(4, 2))): 5.0,
                             frozenset((Point(4, 2), Point(4, 4))): 5.0}
    assert inst.segment_weight(Point(4, 0), Point(4, 4)) == pytest.approx(10.0)
    assert inst.segment_weight(Point(4, 4), Point(4, 0)) == pytest.approx(10.0)
    assert inst.segment_weight(Point(4, 1), Point(4, 3)) == pytest.approx(5.0)
    assert inst.segment_weight(Point(4, 1), Point(4, 2)) == pytest.approx(2.5)
    # Beyond the wall the segment weighs its length.
    assert inst.segment_weight(Point(4, -1), Point(4, 5)) == pytest.approx(12.0)
    walk = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
    assert inst.walk_weight(walk) == pytest.approx(4 + 10 + 4 + 4)


def test_self_crossing_polygon_rejected():
    # The edges (0,0)-(4,4) and (4,0)-(0,6) cross at (12/5, 12/5), which is
    # no vertex, so no curve can turn there.
    doc = {"polygons": [req("A", [[0, 0], [4, 4], [4, 0], [0, 6]])]}
    with pytest.raises(DegeneratePolygon, match="cross"):
        build(doc)
    # A polygon that only touches itself at a vertex it visits twice is
    # not rejected for that.
    doc["polygons"][0]["vertices"] = [[0, 0], [2, 0], [2, 2], [4, 2], [4, 4],
                                      [2, 4], [2, 2], [0, 2]]
    assert len(build(doc).polygons[0].vertices) == 8


@pytest.mark.parametrize("vertices", [
    # Two lobes through (2, 2): the walk comes in from the west and leaves
    # east, then comes in from the south and leaves north.
    [[0, 2], [2, 2], [6, 2], [6, 0], [2, 0], [2, 2], [2, 4], [0, 4]],
    # The same walk, with (2, 2) inside the edge (2, 0)-(2, 4): subdivision
    # makes it a vertex the walk visits twice.
    [[0, 2], [2, 2], [6, 2], [6, 0], [2, 0], [2, 4], [0, 4]],
])
def test_crossing_at_a_repeated_vertex_rejected(vertices):
    # No edges properly cross, but the two passes through (2, 2) cross
    # there, so the walk is no simple polygon pinched at a vertex.
    with pytest.raises(DegeneratePolygon, match="crosses itself"):
        build({"polygons": [req("A", vertices)]})


def test_proper_self_crossing_at_a_foreign_vertex_rejected():
    # The edges (0,0)-(6,6) and (6,0)-(0,3) of A properly cross at (2, 2),
    # where B, below A's crossing, has a vertex.  Subdivision splits both
    # edges there, so no two edges of A's walk properly cross any more:
    # the crossing is caught at (2, 2), the vertex the walk now visits
    # twice, whose two passes cross.
    doc = {"polygons": [req("A", [[0, 0], [6, 6], [6, 0], [0, 3]]),
                        opt("B", [[2, 2], [1, -1], [3, -1]], 1)]}
    for polygons in (doc["polygons"], doc["polygons"][::-1]):
        with pytest.raises(DegeneratePolygon, match="'A' crosses itself at "
                                                    "a vertex it visits twice"):
            build({"polygons": polygons})


def test_squeezed_edge_must_be_two_sided():
    with pytest.raises(SchemaError):
        build({"polygons": [req("A", square(0, 0, 4))],
               "squeezed_edges": [{"a": [0, 0], "b": [4, 0], "weight": 2.0}]})
    with pytest.raises(SchemaError):  # not a polygon edge at all
        build({"polygons": [req("A", square(0, 0, 4)),
                            opt("B", square(4, 0, 4), 1)],
               "squeezed_edges": [{"a": [0, 0], "b": [4, 4], "weight": 2.0}]})


def test_capacity_cap():
    polys = [req(f"r{i}", square(6 * i, 0, 2)) for i in range(21)]
    with pytest.raises(CapacityError):
        build({"polygons": polys})


def test_walk_weight():
    inst = build({"polygons": [req("A", square(0, 0, 2))]})
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert inst.walk_weight(pts) == pytest.approx(8.0)
    assert inst.walk_weight([Point(0, 0)]) == 0.0


@pytest.mark.parametrize("document", [
    {"polygons": [req("A", [[True, False], [2, 0], [2, 2], [0, 2]])]},
    {"polygons": [{**req("A", square(0, 0, 2)), "reference_point": [1, True]}]},
    {"scale": True, "polygons": [req("A", square(0, 0, 2))]},
    {"point_epsilon": True, "points": [{"kind": "required", "at": [0, 0]}]},
    {"points": [{"kind": "required", "at": [0, True]}]},
    {"graph": {"vertices": [[0, 0], [6, 0], [True, 6]],
               "edges": [[0, 1, 2], [1, 2, 3], [2, 0, 4]]}},
    {"graph": {"vertices": [[0, 0], [6, 0], [0, 6]],
               "edges": [[0, True, 2], [1, 2, 3], [2, 0, 4]]}},
    {"point_epsilon": True, "polygons": [req("A", square(0, 0, 2))]},
], ids=["vertex", "reference-point", "scale", "point-epsilon", "point-at",
        "graph-vertex", "graph-endpoint", "point-epsilon-without-points"])
def test_booleans_are_not_numbers(document):
    # Python's bool subclasses int; JSON true and false are not numbers.
    with pytest.raises(SchemaError):
        parse_instance(document)
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(document))


@pytest.mark.parametrize(
    "eps", [-3, 0, 2.5, "abc", None],
    ids=["negative", "zero", "fraction", "string", "null"])
def test_point_epsilon_must_be_a_positive_integer(eps):
    # Checked whenever it is present, as scale is, also where there is no
    # point object for it to size; a null is present, not absent.
    for extra in ({}, {"points": [{"kind": "required", "at": [5, 5]}]}):
        with pytest.raises(SchemaError, match="point_epsilon"):
            parse_instance({"point_epsilon": eps, **extra,
                            "polygons": [req("A", square(0, 0, 2))]})


@pytest.mark.parametrize("flag", ["no", 1, 0, None, [], {}],
                         ids=["string", "one", "zero", "null", "list", "object"])
def test_unbounded_must_be_a_boolean(flag):
    polygon = {**opt("B", square(0, 0, 2), 1), "unbounded": flag}
    with pytest.raises(SchemaError, match="unbounded"):
        parse_instance({"mode": "invert", "polygons": [polygon]})
    polygon["unbounded"] = False
    assert not parse_instance({"polygons": [polygon]}).polygons[0].unbounded


def test_gapped_squeezed_edge_rejected():
    # Two pairs of long rectangles, one above and one below y = 0, with a
    # one-unit gap at x = 10^9: the squeezed edge along y = 0 runs over the
    # gap, where no polygon edge lies, so it is not tiled by polygon edges.
    # Its pieces' lengths sum to within a relative 5e-10 of its length.
    big = 10 ** 9
    doc = {"polygons": [
        req("A1", [[0, 0], [big, 0], [big, 1], [0, 1]]),
        req("A2", [[big + 1, 0], [2 * big, 0], [2 * big, 1], [big + 1, 1]]),
        opt("B1", [[0, -1], [big, -1], [big, 0], [0, 0]], 1),
        opt("B2", [[big + 1, -1], [2 * big, -1], [2 * big, 0], [big + 1, 0]], 1)],
        "squeezed_edges": [{"a": [0, 0], "b": [2 * big, 0], "weight": 5}]}
    with pytest.raises(SchemaError, match="does not coincide"):
        build(doc)
    # The squeezed edge between A1 and B1 alone is a polygon edge.
    doc["squeezed_edges"][0]["b"] = [big, 0]
    assert build(doc).squeezed == {
        frozenset((Point(0, 0), Point(big, 0))): 5.0}


@pytest.mark.parametrize("field,value", [
    ("polygons", [opt("B", square(50, 50, 2), 1)]),
    ("points", [{"kind": "required", "at": [50, 50]}]),
    ("squeezed_edges", [{"a": [0, 0], "b": [6, 0], "weight": 1}]),
    ("scale", 7),
    ("point_epsilon", 1),
], ids=["polygons", "points", "squeezed_edges", "scale", "point_epsilon"])
def test_graph_document_carries_no_other_fields(field, value):
    # The graph alone defines the instance; a field beside it is an error,
    # not silently dropped.
    document = {**_graph_document(3), field: value}
    with pytest.raises(SchemaError, match=field):
        parse_instance(document)
    assert parse_instance({**_graph_document(3), "mode": "invert"}).mode == "invert"
