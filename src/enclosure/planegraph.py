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
    in_open_segment,
    on_segment,
    segments_properly_cross,
    signed_area2,
    winding_number,
)
from .instance import (OPTIONAL, REQUIRED, InputPolygon, Instance, _parse_penalty,
                       _parse_point, _parse_weight)
from .errors import OnBoundary


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
    for i, e in enumerate(data.get("edges", [])):
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise SchemaError(f"graph.edges[{i}]: expected [i, j, weight]")
        u, v, w = e
        if not isinstance(u, int) or not isinstance(v, int) \
                or not (0 <= u < len(vertices)) or not (0 <= v < len(vertices)) or u == v:
            raise SchemaError(f"graph.edges[{i}]: invalid endpoints {u}, {v}")
        w = _parse_weight(w, f"graph.edges[{i}]")
        key = frozenset((u, v))
        if key in seen:
            raise SchemaError(f"graph.edges[{i}]: duplicate edge {u}-{v}")
        seen.add(key)
        edges.append((u, v, w))
    tags = []
    for i, t in enumerate(data.get("faces", [])):
        if not isinstance(t, dict):
            raise SchemaError(f"graph.faces[{i}]: expected an object")
        pt = _parse_point(t.get("point"), f"graph.faces[{i}].point")
        kind = t.get("kind")
        if kind not in (REQUIRED, OPTIONAL):
            raise SchemaError(f"graph.faces[{i}]: kind must be 'required' or 'optional'")
        penalty = 0.0
        if kind == OPTIONAL:
            penalty = _parse_penalty(t.get("penalty", 0), f"graph.faces[{i}]")
        elif "penalty" in t:
            raise SchemaError(f"graph.faces[{i}]: required faces carry no penalty")
        tags.append(FaceTag(pt, kind, penalty))
    return PlaneGraphInput(vertices, tuple(edges), tuple(tags))


def _check_embedding(g: PlaneGraphInput) -> None:
    segs = [Segment(g.vertices[u], g.vertices[v]) for u, v, _ in g.edges]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if segments_properly_cross(segs[i], segs[j]):
                raise EmbeddingError(
                    f"edges {g.edges[i][:2]} and {g.edges[j][:2]} cross")
    for s in segs:
        for v in g.vertices:
            if in_open_segment(v, s.a, s.b):
                raise EmbeddingError(f"vertex {v} lies inside edge {s.a}-{s.b}")
    # Connectivity.
    if g.edges or len(g.vertices) > 1:
        adj: Dict[int, List[int]] = {i: [] for i in range(len(g.vertices))}
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
        if len(seen) != len(g.vertices):
            raise SchemaError("graph is not connected")


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
    outer = [f for f in faces if signed_area2(f) <= 0]
    bounded = [f for f in faces if signed_area2(f) > 0]
    if len(outer) != 1:
        raise EmbeddingError(f"expected exactly one outer face, found {len(outer)}")

    def locate(pt: Point) -> int:
        """Index into bounded faces, or -1 for the outer face."""
        for u, v, _ in g.edges:
            if on_segment(pt, g.vertices[u], g.vertices[v]):
                raise TagError(f"face tag point {pt} lies on an edge")
        hits = []
        for i, f in enumerate(bounded):
            try:
                if winding_number(f, pt) != 0:
                    hits.append(i)
            except OnBoundary:
                raise TagError(f"face tag point {pt} lies on an edge")
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
