import pytest

from enclosure import Point, parse_instance
from enclosure.errors import EmbeddingError, SchemaError, TagError
from enclosure.geometry import signed_area2
from enclosure.planegraph import extract_faces, graph_to_instance, parse_plane_graph


def grid_graph(cols, rows, step=2, weight=1):
    """Grid of cols x rows vertices with unit-weight axis edges."""
    verts = [[step * x, step * y] for y in range(rows) for x in range(cols)]
    idx = lambda x, y: y * cols + x
    edges = []
    for y in range(rows):
        for x in range(cols):
            if x + 1 < cols:
                edges.append([idx(x, y), idx(x + 1, y), weight])
            if y + 1 < rows:
                edges.append([idx(x, y), idx(x, y + 1), weight])
    return {"vertices": verts, "edges": edges}


def test_triangle_graph():
    g = parse_plane_graph({
        "vertices": [[0, 0], [6, 0], [0, 6]],
        "edges": [[0, 1, 2], [1, 2, 3], [2, 0, 4]],
        "faces": [{"point": [1, 1], "kind": "required"}],
    })
    inst = graph_to_instance(g)
    assert inst.k == 1
    assert len(inst.squeezed) == 3
    assert sorted(inst.squeezed.values()) == [2.0, 3.0, 4.0]
    # One bounded face plus the unbounded outer polygon.
    assert len(inst.polygons) == 2
    assert inst.polygons[-1].unbounded


def test_2x2_grid_faces_and_edges():
    g = parse_plane_graph(grid_graph(3, 3))
    inst = graph_to_instance(g)
    bounded = [p for p in inst.polygons if not p.unbounded]
    assert len(bounded) == 4
    assert len(inst.squeezed) == 12
    # Euler's formula: bounded faces = E - V + 1.
    assert len(bounded) == 12 - 9 + 1


def test_faces_orientation():
    faces = extract_faces(parse_plane_graph(grid_graph(3, 3)))
    areas = sorted(signed_area2(f) for f in faces)
    assert sum(1 for a in areas if a <= 0) == 1  # exactly one outer face
    assert areas[0] == -sum(areas[1:])


def test_bridge_edge():
    # Two triangles joined by a bridge: one bounded... no — two bounded faces
    # and a bridge traversed twice by the outer face walk.
    g = parse_plane_graph({
        "vertices": [[0, 0], [4, 0], [2, 3], [10, 0], [14, 0], [12, 3]],
        "edges": [[0, 1, 1], [1, 2, 1], [2, 0, 1],
                  [3, 4, 1], [4, 5, 1], [5, 3, 1],
                  [1, 3, 5]],  # the bridge
    })
    faces = extract_faces(g)
    outer = [f for f in faces if signed_area2(f) <= 0]
    assert len(outer) == 1
    # The bridge appears twice in the outer walk (once per direction).
    ow = outer[0]
    bridge_uses = sum(1 for i in range(len(ow))
                      if {ow[i], ow[(i + 1) % len(ow)]} == {Point(4, 0), Point(10, 0)})
    assert bridge_uses == 2
    inst = graph_to_instance(g)
    bounded = [p for p in inst.polygons if not p.unbounded]
    assert len(bounded) == 7 - 6 + 1 == 2
    assert frozenset((Point(4, 0), Point(10, 0))) in inst.squeezed


def test_crossing_edges_rejected():
    with pytest.raises(EmbeddingError):
        graph_to_instance(parse_plane_graph({
            "vertices": [[0, 0], [4, 4], [0, 4], [4, 0]],
            "edges": [[0, 1, 1], [2, 3, 1]],
        }))


def test_tag_errors():
    base = grid_graph(3, 3)
    with pytest.raises(TagError):  # tag on an edge
        graph_to_instance(parse_plane_graph(
            {**base, "faces": [{"point": [2, 1], "kind": "required"}]}))
    with pytest.raises(TagError):  # required tag in the outer face
        graph_to_instance(parse_plane_graph(
            {**base, "faces": [{"point": [99, 99], "kind": "required"}]}))
    with pytest.raises(TagError, match="tagged twice"):  # two tags, one face
        graph_to_instance(parse_plane_graph(
            {**base, "faces": [{"point": [1, 1], "kind": "required"},
                               {"point": [1, 1], "kind": "optional"}]}))
    inst = graph_to_instance(parse_plane_graph(
        {**base, "faces": [{"point": [99, 99], "kind": "optional", "penalty": 7}]}))
    assert inst.polygons[-1].unbounded and inst.polygons[-1].penalty == 7.0


def test_untagged_faces_default_optional_zero():
    inst = graph_to_instance(parse_plane_graph(
        {**grid_graph(3, 3), "faces": [{"point": [1, 1], "kind": "required"}]}))
    bounded = [p for p in inst.polygons if not p.unbounded]
    assert sum(1 for p in bounded if p.kind == "required") == 1
    assert all(p.penalty == 0.0 for p in bounded if p.kind == "optional")


def test_graph_schema_checks():
    with pytest.raises(SchemaError):  # zero weight
        parse_plane_graph({"vertices": [[0, 0], [1, 0]], "edges": [[0, 1, 0]]})
    with pytest.raises(SchemaError):  # duplicate edge
        parse_plane_graph({"vertices": [[0, 0], [1, 0]],
                           "edges": [[0, 1, 1], [1, 0, 2]]})
    with pytest.raises(SchemaError):  # disconnected
        graph_to_instance(parse_plane_graph({
            "vertices": [[0, 0], [1, 0], [5, 5], [6, 5]],
            "edges": [[0, 1, 1], [2, 3, 1]]}))
    with pytest.raises(SchemaError):  # no edges
        graph_to_instance(parse_plane_graph({"vertices": [[0, 0]]}))


def test_parse_instance_graph_route():
    inst = parse_instance({"graph": {**grid_graph(3, 3),
                                     "faces": [{"point": [1, 1], "kind": "required"}]},
                           "mode": "enclose"})
    assert inst.k == 1 and len(inst.squeezed) == 12
