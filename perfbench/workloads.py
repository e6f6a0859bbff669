"""Seeded instance generators for the benchmark workloads.

Every generator returns a list of `(document, expected_cost)` pairs: the
document is the JSON text the solver receives, and `expected_cost` is a
known optimum or None.  The generators are self-contained on purpose: they
do not call `enclosure.random_instance`, which validates while it
generates and would hide `validate_and_subdivide` from the timed path.

The composition of each workload is fixed and only the geometry and the
penalties depend on the seed, so that the work in one run is nearly the
same for every seed and runs with different seeds can be compared.
"""

from __future__ import annotations

import json
import math
import random

# Optional objects on the ring of each `ring` instance; 22 + 4*m - 1
# vertices, so n = 45 and 53.  Larger rings (n = 101 needs ~14 s, n = 200
# ~110 s per instance) leave too few passes in one run.
RING_SIZES = (6, 8)
RING_COST = 22.0        # outer boundary of the row of ten unit squares

# The `pool` mix, as (instances, object kinds, required objects).  Fixed
# kinds fix n per class (7 and 11), so classes differ by seed only in
# placement, sizes and penalties.  The median lies in the middle of the
# three-object k = 1 class, where validation and free-space construction
# dominate; that class's times spread widely (about 25-45 ms with the DP),
# so it has 80 instances, enough that its median moves little from seed
# to seed.  The 90th percentile lies in the middle of the 30 k = 3
# instances, a search-bound class, likewise so that it moves little.
# k = 4 or more objects
# would take single instances past 0.5 s and make the sum depend on a few
# of them.
_TWO = ("square", "triangle")
_THREE = ("square", "rect", "triangle")
POOL_MIX = (
    (15, _TWO, 1), (15, _TWO, 2),
    (80, _THREE, 1), (10, _THREE, 2), (30, _THREE, 3),
)
GRID_CENTER_COST = 4.0  # 4x4 grid, only the center face required

# Three unit squares and three unit triangles, n = 21.  Ten such instances
# (about 0.5 s each on an undisturbed core) vary less in work from seed to
# seed than five of seven objects (1.7% against 3.3% in orient calls).
KNAPSACK_KINDS = ("square",) * 3 + ("triangle",) * 3
KNAPSACK_INSTANCES = 10

_PENALTIES = (0, 1, 2, 5, 10, "inf")
_GRID = 36      # objects lie in [0, _GRID) x [0, _GRID)


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _square(x, y, side=1):
    return [[x, y], [x + side, y], [x + side, y + side], [x, y + side]]


def ring_documents(seed: int):
    """A row of ten touching required unit squares whose shared walls are
    squeezed (weight 50), plus remote optional objects on a radius-600
    circle, rotated by a seeded angle and with seeded penalties."""
    rng = random.Random(f"ring:{seed}")
    out = []
    for m in RING_SIZES:
        polys = [{"id": f"r{i}", "kind": "required", "vertices": _square(i, 0)}
                 for i in range(10)]
        walls = [{"a": [i, 0], "b": [i, 1], "weight": 50} for i in range(1, 10)]
        turn = rng.random() * 2 * math.pi / m
        for i in range(m):
            ang = turn + 2 * math.pi * i / m
            x, y = round(600 * math.cos(ang)), round(600 * math.sin(ang))
            verts = [[x, y], [x + 1, y], [x, y + 1]] if i == m - 1 else _square(x, y)
            polys.append({"id": f"o{i}", "kind": "optional",
                          "penalty": rng.choice((0, 1, 2)), "vertices": verts})
        out.append((_dump({"polygons": polys, "squeezed_edges": walls}), RING_COST))
    return out


def _random_objects(rng: random.Random, kinds, max_side: int):
    """One disjoint axis-aligned object per entry of `kinds` ("square",
    "rect" or "triangle"), with bounding boxes at least one grid unit
    apart.  Fixing the kinds fixes the vertex count n."""
    def shape(kind):
        side = rng.randint(1, max_side)
        x = rng.randint(0, _GRID - side - 1)
        y = rng.randint(0, _GRID - side - 1)
        if kind == "square":
            return _square(x, y, side)
        if kind == "rect":
            h = rng.choice([v for v in range(1, max_side + 2) if v != side])
            return [[x, y], [x + side, y], [x + side, y + h], [x, y + h]]
        return [[x, y], [x + side, y], [x, y + side]]

    def box(verts):
        xs, ys = [v[0] for v in verts], [v[1] for v in verts]
        return min(xs), max(xs), min(ys), max(ys)

    placed, boxes = [], []
    for kind in kinds:
        while True:
            cand = shape(kind)
            x0, x1, y0, y1 = box(cand)
            if all(x0 - 1 > bx1 or bx0 > x1 + 1 or y0 - 1 > by1 or by0 > y1 + 1
                   for bx0, bx1, by0, by1 in boxes):
                break
        placed.append(cand)
        boxes.append((x0, x1, y0, y1))
    return placed


def _objects_document(rng: random.Random, kinds, k: int, mode: str,
                      max_side: int = 3) -> str:
    objects = _random_objects(rng, kinds, max_side)
    required = set(rng.sample(range(len(objects)), k))
    polys = []
    for i, verts in enumerate(objects):
        if i in required:
            polys.append({"id": f"obj{i}", "kind": "required", "vertices": verts})
        else:
            polys.append({"id": f"obj{i}", "kind": "optional",
                          "penalty": rng.choice(_PENALTIES), "vertices": verts})
    return _dump({"mode": mode, "polygons": polys})


def _grid_document(faces) -> str:
    """The 4x4 plane grid graph with unit edge weights and spacing 2;
    `faces` tags faces by their center point."""
    idx = lambda x, y: y * 4 + x
    edges = []
    for y in range(4):
        for x in range(4):
            if x + 1 < 4:
                edges.append([idx(x, y), idx(x + 1, y), 1])
            if y + 1 < 4:
                edges.append([idx(x, y), idx(x, y + 1), 1])
    verts = [[2 * x, 2 * y] for y in range(4) for x in range(4)]
    return _dump({"graph": {"vertices": verts, "edges": edges, "faces": faces}})


def _random_grid_document(rng: random.Random) -> str:
    centers = [[2 * x + 1, 2 * y + 1] for y in range(3) for x in range(3)]
    rng.shuffle(centers)
    k = rng.randint(1, 2)
    faces = [{"point": p, "kind": "required"} for p in centers[:k]]
    faces += [{"point": p, "kind": "optional", "penalty": rng.choice(_PENALTIES)}
              for p in centers[k:k + 3]]
    return _grid_document(faces)


def pool_documents(seed: int):
    """The criterion-1 family (2-3 disjoint objects on a 36-grid, k = 1-3)
    in the fixed POOL_MIX, then two 4x4 plane-graph grids, so that the
    plane-graph parser is on the path."""
    rng = random.Random(f"pool:{seed}")
    out = []
    for count, kinds, k in POOL_MIX:
        for _ in range(count):
            out.append((_objects_document(rng, kinds, k, "enclose"), None))
    out.append((_grid_document([{"point": [3, 3], "kind": "required"}]),
                GRID_CENTER_COST))
    out.append((_random_grid_document(rng), None))
    return out


def knapsack_documents(seed: int):
    """Inverted mode with nothing required: six unit-size objects on a
    36-grid with seeded placement and penalties."""
    rng = random.Random(f"knapsack:{seed}")
    return [(_objects_document(rng, KNAPSACK_KINDS, 0, "invert", max_side=1), None)
            for _ in range(KNAPSACK_INSTANCES)]


# workload name -> (generator, solver); `pool` and `pool_dp` share their
# generator, so they receive byte-identical documents.
WORKLOADS = {
    "ring": (ring_documents, "dijkstra"),
    "pool": (pool_documents, "dijkstra"),
    "pool_dp": (pool_documents, "dp"),
    "knapsack": (knapsack_documents, "inverted"),
}
