"""Plane-graph input: face extraction from a straight-line embedding and
the reduction to a geometric instance where the free space is the edges.

Faces are traced from the rotation system induced by the coordinates
(neighbors sorted by angle around each vertex); the next dart of a face is
the clockwise successor of the reversed dart, which makes bounded faces come
out counterclockwise and the outer face clockwise.  Every graph edge becomes
a squeezed edge carrying the given weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import EmbeddingError, SchemaError, TagError
from .geometry import (
    Point,
    Segment,
    angular_key,
    crossing_pairs,
    in_open_segment,
    on_segment,
    signed_area2,
    winding_number,
)
from .instance import (OPTIONAL, REQUIRED, InputPolygon, Instance, _entries, _is_int,
                       _parse_kind, _parse_point, _parse_weight)


@dataclass(frozen=True)
class FaceTag:
    point: Point
    kind: str
    penalty: float


@dataclass(frozen=True)
class PlaneGraphInput:
    vertices: Tuple[Point, ...]
    edges: Tuple[Tuple[int, int, float], ...]
    face_tags: Tuple[FaceTag, ...]


def parse_plane_graph(data) -> PlaneGraphInput:
    if not isinstance(data, dict):
        raise SchemaError("graph: expected an object")
    verts_raw = data.get("vertices")
    if not isinstance(verts_raw, list) or len(verts_raw) < 1:
        raise SchemaError("graph.vertices: expected a nonempty list")
    vertices = tuple(_parse_point(v, f"graph.vertices[{i}]")
                     for i, v in enumerate(verts_raw))
    if len(set(vertices)) != len(vertices):
        raise SchemaError("graph.vertices: duplicate coordinates")
    edges: List[Tuple[int, int, float]] = []
    seen = set()
    for _, where, e in _entries(data, "edges", "graph.", (list, tuple)):
        if len(e) != 3:
            raise SchemaError(f"{where}: expected [i, j, weight]")
        u, v, w = e
        if not all(_is_int(x) and 0 <= x < len(vertices) for x in (u, v)) or u == v:
            raise SchemaError(f"{where}: invalid endpoints {u}, {v}")
        w = _parse_weight(w, where)
        key = frozenset((u, v))
        if key in seen:
            raise SchemaError(f"{where}: duplicate edge {u}-{v}")
        seen.add(key)
        edges.append((u, v, w))
    tags = [FaceTag(_parse_point(t.get("point"), f"{where}.point"), *_parse_kind(t, where))
            for _, where, t in _entries(data, "faces", "graph.")]
    return PlaneGraphInput(vertices, tuple(edges), tuple(tags))


def _check_embedding(g: PlaneGraphInput) -> None:
    segs = [Segment(g.vertices[u], g.vertices[v]) for u, v, _ in g.edges]
    for i, j in crossing_pairs(segs):
        raise EmbeddingError(f"edges {g.edges[i][:2]} and {g.edges[j][:2]} cross")
    for s in segs:
        for v in g.vertices:
            if in_open_segment(v, s.a, s.b):
                raise EmbeddingError(f"vertex {v} lies inside edge {s.a}-{s.b}")


def extract_faces(g: PlaneGraphInput) -> List[Tuple[Point, ...]]:
    """All face boundary walks of the drawing; bounded faces are ccw, the
    outer face is cw (it is the one with nonpositive signed area)."""
    adj: Dict[Point, List[Point]] = {}
    for u, v, _ in g.edges:
        a, b = g.vertices[u], g.vertices[v]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    rot = {v: sorted(ns, key=angular_key(v)) for v, ns in adj.items()}
    index = {v: {w: i for i, w in enumerate(order)} for v, order in rot.items()}

    faces: List[Tuple[Point, ...]] = []
    visited = set()
    for start_u in sorted(adj):
        for start_v in rot[start_u]:
            if (start_u, start_v) in visited:
                continue
            walk: List[Point] = []
            u, v = start_u, start_v
            while (u, v) not in visited:
                visited.add((u, v))
                walk.append(u)
                order = rot[v]
                i = index[v][u]
                w = order[(i - 1) % len(order)]
                u, v = v, w
            faces.append(tuple(walk))
    return faces


def graph_to_instance(g: PlaneGraphInput) -> Instance:
    """Reduce a plane-graph problem to a geometric instance: bounded faces
    become (almost-simple) polygons, the outer face becomes the unbounded
    optional polygon, and every edge becomes a squeezed edge."""
    _check_embedding(g)
    if not g.edges:
        raise SchemaError("graph has no edges")
    faces = extract_faces(g)
    # Euler's formula: a connected plane graph has V - E + F = 2, and its F
    # faces are the walks traced above, one walk per face.  A walk follows
    # the edges of one component only, so over c components with edges and
    # i isolated vertices V - E + W = 2c + i: connected iff this is 2.
    if len(g.vertices) - len(g.edges) + len(faces) != 2:
        raise SchemaError("graph is not connected")
    outer = [f for f in faces if signed_area2(f) <= 0]
    bounded = [f for f in faces if signed_area2(f) > 0]
    if len(outer) != 1:
        raise EmbeddingError(f"expected exactly one outer face, found {len(outer)}")

    def locate(pt: Point) -> int:
        """Index into bounded faces, or -1 for the outer face.  A point on
        no edge lies on no face walk, so `winding_number` cannot raise."""
        for u, v, _ in g.edges:
            if on_segment(pt, g.vertices[u], g.vertices[v]):
                raise TagError(f"face tag point {pt} lies on an edge")
        hits = [i for i, f in enumerate(bounded) if winding_number(f, pt) != 0]
        if len(hits) > 1:
            raise TagError(f"face tag point {pt} is ambiguous")
        return hits[0] if hits else -1

    tag_of: Dict[int, FaceTag] = {}
    outer_tag = None
    for t in g.face_tags:
        i = locate(t.point)
        if i == -1:
            if t.kind == REQUIRED:
                raise TagError(f"face tag at {t.point} matches the outer face, "
                               f"which cannot be required")
            outer_tag = t
        else:
            if i in tag_of:
                raise TagError(f"face {i} tagged twice")
            tag_of[i] = t

    polygons: List[InputPolygon] = []
    for i, f in enumerate(bounded):
        t = tag_of.get(i)
        kind = t.kind if t else OPTIONAL
        penalty = t.penalty if t else 0.0
        polygons.append(InputPolygon(f"face{i}", f, kind, penalty))
    polygons.append(InputPolygon(
        "outer", outer[0], OPTIONAL,
        outer_tag.penalty if outer_tag else 0.0, unbounded=True))

    squeezed = {}
    for u, v, w in g.edges:
        squeezed[frozenset((g.vertices[u], g.vertices[v]))] = w
    return Instance(tuple(polygons), squeezed)
