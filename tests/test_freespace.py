import pytest

from enclosure import Point, compute_free_space_edges, segment_in_free_space
from enclosure.errors import DegenerateTriangle, SchemaError
from enclosure.instance import parse_instance
from enclosure.geometry import in_open_segment
from conftest import (
    build, opt, point_in_triangle_halfopen, req, square, tangent_at_both_ends)


def test_segment_in_free_space_basics():
    inst = build({"polygons": [req("A", square(0, 0, 2))]})
    assert segment_in_free_space(Point(0, 0), Point(2, 0), inst)  # boundary edge
    assert not segment_in_free_space(Point(0, 0), Point(2, 2), inst)  # diagonal
    inst2 = build({"polygons": [req("A", square(0, 0, 2)),
                                opt("B", square(4, 0, 2), 1)]})
    assert segment_in_free_space(Point(3, -5), Point(3, 5), inst2)  # through the gap
    assert segment_in_free_space(Point(2, 0), Point(4, 2), inst2)


def test_segment_in_free_space_rejects_zero_length():
    inst = build({"polygons": [req("A", square(0, 0, 2))]})
    with pytest.raises(SchemaError):
        segment_in_free_space(Point(5, 5), Point(5, 5), inst)


def test_unvalidated_instance_rejected():
    inst = parse_instance({"polygons": [req("A", square(0, 0, 2))]})
    with pytest.raises(SchemaError):
        compute_free_space_edges(inst)


def test_single_triangle_exact_edges():
    inst = build({"polygons": [req("T", [[0, 0], [4, 0], [0, 4]])]})
    fsg = compute_free_space_edges(inst)
    assert len(fsg.edges) == 3
    got = {frozenset((fsg.vertices[e.a], fsg.vertices[e.b])) for e in fsg.edges}
    assert got == {frozenset((Point(0, 0), Point(4, 0))),
                   frozenset((Point(4, 0), Point(0, 4))),
                   frozenset((Point(0, 4), Point(0, 0)))}


def test_shared_squeezed_edge_weight():
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               opt("B", square(2, 0, 2), 1)],
                  "squeezed_edges": [{"a": [2, 0], "b": [2, 2], "weight": 9}]})
    fsg = compute_free_space_edges(inst)
    i, j = fsg.vertices.index(Point(2, 0)), fsg.vertices.index(Point(2, 2))
    assert fsg.adjacency[i][j] == fsg.adjacency[j][i] == 9.0
    e = next(e for e in fsg.edges if {e.a, e.b} == {i, j})
    assert e.squeezed


def test_two_squares_bitangents():
    inst = build({"polygons": [req("A", square(0, 0, 1)),
                               req("B", square(3, 0, 1))]})
    fsg = compute_free_space_edges(inst)
    # 8 boundary edges plus 4 bitangent visibility edges between the gap-
    # facing and outer corners.
    assert len(fsg.edges) == 12
    bitangents = [e for e in fsg.edges
                  if abs(fsg.vertices[e.a].x - fsg.vertices[e.b].x) >= 2]
    assert len(bitangents) == 4


def test_omitted_pairs_fail_a_condition():
    # A pair is an edge iff its segment is free, passes through no vertex
    # and is tangent at both ends.  (2, 0)-(5, 1) is free and unblocked, but
    # B's neighbours (7, 1) and (5, 3) of (5, 1) lie on both sides of it.
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               opt("B", square(5, 1, 2), 1)]})
    fsg = compute_free_space_edges(inst)
    present = {frozenset((e.a, e.b)) for e in fsg.edges}
    n = fsg.n
    for i in range(n):
        for j in range(i + 1, n):
            a, b = fsg.vertices[i], fsg.vertices[j]
            ok = segment_in_free_space(a, b, inst) and \
                not any(in_open_segment(v, a, b) for v in fsg.vertices) and \
                tangent_at_both_ends(inst, a, b)
            assert ok == (frozenset((i, j)) in present)
    assert segment_in_free_space(Point(2, 0), Point(5, 1), inst)
    index = fsg.vertices.index
    assert index(Point(5, 1)) not in fsg.adjacency[index(Point(2, 0))]


def test_weights_symmetric_and_euclidean():
    inst = build({"polygons": [req("A", square(0, 0, 3))]})
    fsg = compute_free_space_edges(inst)
    for e in fsg.edges:
        assert fsg.adjacency[e.a][e.b] == fsg.adjacency[e.b][e.a]
        assert fsg.adjacency[e.a][e.b] == pytest.approx(3.0)


def _content_fsg():
    # Required square on the left, two optional squares with penalties 2.5
    # and 1.0 stacked to the right; a far triangle supplies extra vertices.
    return compute_free_space_edges(build({"polygons": [
        req("R", square(0, 0, 2)),
        opt("O1", square(6, 0, 2), 2.5),
        opt("O2", square(6, 6, 2), 1.0),
        opt("far", [[20, -8], [24, -8], [20, -4]], 0),
    ]}))


def test_triangle_content_masks_and_penalties():
    fsg = _content_fsg()
    lo = fsg.vertices.index(Point(20, -8))
    hi = fsg.vertices.index(Point(20, -4))
    far_right = fsg.vertices.index(Point(24, -8))
    top = fsg.vertices.index(Point(6, 8))
    # Huge ccw triangle containing only the required reference point.
    p, r, q = fsg.vertices.index(Point(0, 2)), fsg.vertices.index(Point(0, 0)), lo
    mask, pen = fsg.triangle_content(p, r, q)
    assert mask == 1 and pen == 0.0
    # Triangle containing both optional references, no required.
    mask2, pen2 = fsg.triangle_content(top, fsg.vertices.index(Point(6, 0)), far_right)
    assert mask2 == 0 and pen2 == pytest.approx(3.5)
    # Degenerate (clockwise) triangles are rejected.
    with pytest.raises(DegenerateTriangle):
        fsg.triangle_content(q, r, p)


def test_triangle_additivity_split():
    # The decomposition the solver performs when it splits a mouth pq first
    # at s and then spans the sub-mouths at r:
    #   content(p,r,q) = content(p,s,q) + content(p,r,s) + content(s,r,q)
    # as a disjoint union of masks, with penalties adding.  Reference points
    # are in general position, so none lies on the internal chords.
    import itertools

    from enclosure.geometry import orient

    fsg = _content_fsg()
    verts = fsg.vertices
    checked = 0
    for p, r, q, s in itertools.permutations(range(len(verts)), 4):
        if orient(verts[p], verts[r], verts[q]) <= 0:
            continue
        if not point_in_triangle_halfopen(verts[s], verts[p], verts[r], verts[q]):
            continue
        if orient(verts[p], verts[r], verts[s]) <= 0 \
                or orient(verts[s], verts[r], verts[q]) <= 0 \
                or orient(verts[p], verts[s], verts[q]) <= 0:
            continue
        whole = fsg.triangle_content(p, r, q)
        parts = [fsg.triangle_content(p, s, q),
                 fsg.triangle_content(p, r, s),
                 fsg.triangle_content(s, r, q)]
        assert parts[0][0] & parts[1][0] == 0
        assert (parts[0][0] | parts[1][0]) & parts[2][0] == 0
        assert whole[0] == parts[0][0] | parts[1][0] | parts[2][0]
        assert whole[1] == pytest.approx(sum(c[1] for c in parts))
        checked += 1
        if checked >= 25:
            break
    assert checked > 0


def test_content_memo_consistency():
    fsg = _content_fsg()
    # The first query resolves the three chord masks it ANDs, the second
    # reads them memoized, and both return identical results.
    p, r, q = fsg.vertices.index(Point(0, 2)), fsg.vertices.index(Point(0, 0)), \
        fsg.vertices.index(Point(20, -8))
    first = fsg.triangle_content(p, r, q)
    assert all(fsg._chords[i * fsg.n + j] is not None
               for i, j in ((p, r), (r, q), (q, p)))
    assert fsg.triangle_content(p, r, q) == first


def test_debug_json_dump():
    fsg = _content_fsg()
    d = fsg.to_json_dict()
    assert len(d["vertices"]) == fsg.n
    assert len(d["edges"]) == len(fsg.edges)
    assert all(set(e) == {"a", "b", "weight", "squeezed"} for e in d["edges"])
