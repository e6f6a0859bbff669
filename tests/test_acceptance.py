"""End-to-end acceptance checks, one test per shipped claim.

Each test is self-contained: it builds its instances, runs the relevant
solvers, and checks the claim at the stated tolerance, so `pytest -v`
reports one pass/fail line per claim.
"""

import math
import time
import random

import pytest

from enclosure import (
    Point,
    brute_force,
    check_weak_simplicity,
    compute_free_space_edges,
    parse_instance,
    random_instance,
    solve_dijkstra,
    solve_dp,
    solve_inverted,
    subdivide_walk,
    uncross,
    evaluate_solution,
)
from enclosure.errors import GenerationFailure
from enclosure.geometry import winding_number
from enclosure.instance import validate_and_subdivide
from enclosure.verify import _weak_simplicity_conditions
from conftest import (
    build,
    opt,
    random_closed_walk,
    rel_close,
    req,
    sample_points_off,
    square,
)

INF = math.inf


def _instances(count, make):
    """First `count` instances from a seed scan, skipping placement failures."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        try:
            out.append((seed, make(seed)))
        except GenerationFailure:
            continue
    return out


# --------------------------------------------------------------------------
# 1. The table-based solver and the label-setting solver agree.


def test_criterion_1_solver_equivalence():
    t0 = time.perf_counter()
    pool = _instances(200, lambda s: random_instance(
        s, n_objects=2 + s % 5, k=1 + s % min(4, 2 + s % 5)))
    for seed, inst in pool:
        fsg = compute_free_space_edges(inst)
        assert fsg.n <= 24
        cd, _ = solve_dp(fsg)
        cl, _ = solve_dijkstra(fsg)
        assert rel_close(cd, cl), (seed, cd, cl)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 200 instances in {elapsed:.1f}s")
    assert elapsed < 300


# --------------------------------------------------------------------------
# 2. On small crafted instances the solver matches exhaustive enumeration.


def _tri(x, y, s=2):
    return [[x, y], [x + s, y], [x, y + s]]


def _crafted_small():
    """Deterministic crafted instances with at most 10 free-space vertices."""
    out = []
    pens = [0, 1, 2, 5, "inf", 3.5]
    # Required triangle + optional triangle at varying gap and penalty.
    for i, dx in enumerate((3, 4, 5, 6, 7, 8)):
        for j, pen in enumerate(pens):
            out.append({"polygons": [req("A", _tri(0, 0, 2)),
                                     opt("B", _tri(dx, (i + j) % 3, 2), pen)]})
    # Two required shapes (hull tours).
    for dx in (3, 4, 5, 6):
        out.append({"polygons": [req("A", square(0, 0, 1)),
                                 req("B", square(dx, 0, 1))]})
        out.append({"polygons": [req("A", _tri(0, 0, 2)),
                                 req("B", square(dx, 1, 2))]})
    # Three triangles: one required, two optional.
    for dx in (4, 5, 6):
        for pen in (0, 2, "inf"):
            out.append({"polygons": [req("A", _tri(0, 0, 2)),
                                     opt("B", _tri(dx, 0, 2), pen),
                                     opt("C", _tri(0, dx, 2), 1)]})
    # Touching squares with a squeezed shared wall.
    for w in (1, 3, 25):
        out.append({"polygons": [req("A", square(0, 0, 2)),
                                 opt("B", square(2, 0, 2), 4)],
                    "squeezed_edges": [{"a": [2, 0], "b": [2, 2], "weight": w}]})
    return out


def test_criterion_2_oracle_optimality():
    cases = _crafted_small()
    checked = 0
    for i, data in enumerate(cases):
        inst = build(data)
        fsg = compute_free_space_edges(inst)
        if fsg.n > 10:
            continue
        res = brute_force(inst, fsg, max_edges=10)
        assert res.exhausted
        cost, _ = solve_dijkstra(fsg)
        assert rel_close(cost, res.best_cost), (i, cost, res.best_cost)
        checked += 1
    assert checked >= 50, checked


# --------------------------------------------------------------------------
# 3. Structural invariants of every solver run.


def test_criterion_3_solution_invariants():
    rng = random.Random(33)
    pool = _instances(20, lambda s: random_instance(
        s * 13 + 1, n_objects=2 + s % 4, k=1 + s % 2))
    for seed, inst in pool:
        fsg = compute_free_space_edges(inst)
        cost, walk = solve_dp(fsg)
        assert walk is not None
        for poly in inst.required:
            assert winding_number(walk.points, poly.reference_point) == 1, seed
        for x in sample_points_off([walk], rng, 30, grid=40):
            assert winding_number(walk.points, x) >= 0, (seed, x)
        out, report = uncross(inst, walk)
        assert check_weak_simplicity(out), seed
        windings = _weak_simplicity_conditions(out)["face_windings"]
        assert all(w in (0, 1) for w in windings), seed
        sol = evaluate_solution(inst, out)
        assert sol.feasible, seed
        assert rel_close(sol.cost, cost), (seed, sol.cost, cost)


# --------------------------------------------------------------------------
# 4. Point objects in convex position: cost equals the hull perimeter.


def _hull_perimeter(pts):
    return sum(math.dist(pts[i], pts[(i + 1) % len(pts)])
               for i in range(len(pts)))


def test_criterion_4_convex_hull_sanity():
    cases = [
        [(0, 0), (10000, 0), (10000, 10000), (0, 10000)],   # unit square x1e4
        [(0, 0), (8000, 2000), (11000, 9000), (5000, 14000), (-2000, 7000)],
    ]
    for pts in cases:
        inst = validate_and_subdivide(parse_instance({
            "scale": 10000,
            "polygons": [],
            "points": [{"id": f"p{i}", "kind": "required", "at": list(p)}
                       for i, p in enumerate(pts)],
        }))
        fsg = compute_free_space_edges(inst)
        cost, _ = solve_dijkstra(fsg)
        hull = _hull_perimeter(pts)
        assert abs(cost - hull) <= 1e-3 * hull, (pts, cost, hull)


# --------------------------------------------------------------------------
# 5. Plane-graph mode on a 3x3-face grid, checked against independent
#    simple-cycle enumeration of the same grid.


def _grid_graph_data(faces):
    verts = [[2 * x, 2 * y] for y in range(4) for x in range(4)]
    idx = lambda x, y: y * 4 + x
    edges = []
    for y in range(4):
        for x in range(4):
            if x + 1 < 4:
                edges.append([idx(x, y), idx(x + 1, y), 1])
            if y + 1 < 4:
                edges.append([idx(x, y), idx(x, y + 1), 1])
    return {"vertices": verts, "edges": edges, "faces": faces}


def _enumerate_grid_cycles():
    """All simple cycles of the 4x4 grid, as Point sequences."""
    pts = [Point(2 * x, 2 * y) for y in range(4) for x in range(4)]
    adj = {i: [] for i in range(16)}
    for i in range(16):
        for j in range(16):
            if i != j and abs(pts[i].x - pts[j].x) + abs(pts[i].y - pts[j].y) == 2:
                adj[i].append(j)
    cycles = []
    for s in range(16):
        path = [s]
        on_path = {s}

        def dfs():
            u = path[-1]
            for v in adj[u]:
                if v == s and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(pts[i] for i in path))
                elif v > s and v not in on_path:
                    path.append(v)
                    on_path.add(v)
                    dfs()
                    path.pop()
                    on_path.remove(v)

        dfs()
    return cycles


def _cycle_min(faces):
    tags = {Point(*f["point"]): f for f in faces}
    best = INF
    for cyc in _enumerate_grid_cycles():
        w_req = [winding_number(cyc, p) for p, f in tags.items()
                 if f["kind"] == "required"]
        if any(abs(w) != 1 for w in w_req) or len(set(w_req)) != 1:
            continue
        sign = w_req[0]
        cost = float(len(cyc))  # unit edge weights
        for p, f in tags.items():
            if f["kind"] == "optional" and winding_number(cyc, p) == sign:
                pen = f.get("penalty", 0)
                cost += INF if pen == "inf" else float(pen)
        best = min(best, cost)
    return best


def test_criterion_5_grid_graph_mode():
    center = {"point": [3, 3], "kind": "required"}
    base_faces = [center]
    inst = validate_and_subdivide(parse_instance(
        {"graph": _grid_graph_data(base_faces)}))
    cost, _ = solve_dijkstra(compute_free_space_edges(inst))
    assert cost == pytest.approx(4.0)
    assert _cycle_min(base_faces) == pytest.approx(4.0)

    # Four edge-adjacent faces at infinite penalty: the cheapest enclosure
    # of the center face alone still wins, per independent enumeration.
    inf_faces = [center] + [
        {"point": p, "kind": "optional", "penalty": "inf"}
        for p in ([3, 1], [1, 3], [5, 3], [3, 5])]
    inst2 = validate_and_subdivide(parse_instance(
        {"graph": _grid_graph_data(inf_faces)}))
    cost2, _ = solve_dijkstra(compute_free_space_edges(inst2))
    enum2 = _cycle_min(inf_faces)
    assert rel_close(cost2, enum2), (cost2, enum2)


# --------------------------------------------------------------------------
# 6. Inverted (knapsack) mode.


def test_criterion_6_inverted_knapsack():
    for s in (2, 5):
        # Penalty 10s: enclosing (perimeter 4s) is cheaper.
        inst = build({"polygons": [opt("B", square(0, 0, s), 10 * s)],
                      "mode": "invert"})
        cost, _ = solve_inverted(inst, compute_free_space_edges(inst))
        assert cost == pytest.approx(4.0 * s)
        # Penalty 3s: paying the penalty is cheaper.
        inst = build({"polygons": [opt("B", square(0, 0, s), 3 * s)],
                      "mode": "invert"})
        cost, _ = solve_inverted(inst, compute_free_space_edges(inst))
        assert cost == pytest.approx(3.0 * s)

    inst = build({"polygons": [opt("A", square(0, 0, 2), 0),
                               opt("B", _tri(5, 0, 2), 0)], "mode": "invert"})
    cost, _ = solve_inverted(inst, compute_free_space_edges(inst))
    assert cost == 0.0

    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        try:
            inst = random_instance(seed, n_objects=2 + seed % 3, k=0,
                                   mode="invert", max_side=2)
        except GenerationFailure:
            continue
        fsg = compute_free_space_edges(inst)
        if fsg.n > 10:
            continue
        cost, _ = solve_inverted(inst, fsg)
        res = brute_force(inst, fsg)
        assert res.exhausted
        assert rel_close(cost, res.best_cost), (seed, cost, res.best_cost)
        checked += 1


# --------------------------------------------------------------------------
# 7. Uncrossing: weak simplicity, parity preservation, no weight increase.


def test_criterion_7_uncrossing_fuzz():
    from conftest import EMPTY_INSTANCE
    rng = random.Random(2024)
    for i in range(100):
        w = random_closed_walk(rng, n_points=5 + i % 8)
        out, _report = uncross(EMPTY_INSTANCE, w)
        assert check_weak_simplicity(out), i
        assert out.weight <= w.weight + 1e-9, i
        samples = sample_points_off([w, out], rng, 100)
        assert len(samples) >= 100
        for x in samples:
            assert winding_number(w.points, x) % 2 == \
                winding_number(out.points, x) % 2, (i, x)

    # Solver-produced walks have no interior crossings at all.
    pool = _instances(10, lambda s: random_instance(
        s * 7 + 3, n_objects=2 + s % 3, k=1 + s % 2))
    for seed, inst in pool:
        fsg = compute_free_space_edges(inst)
        _cost, walk = solve_dp(fsg)
        _g, report = subdivide_walk(walk)
        assert report.s == 0, seed


# --------------------------------------------------------------------------
# 8. Performance at n = 200 vertices, k = 10.


def _row_and_ring_instance(n_ring):
    """Ten required unit squares in a touching row, plus n_ring remote
    optional objects on a radius-600 circle."""
    polys = [req(f"r{i}", square(i, 0, 1)) for i in range(10)]
    walls = [{"a": [i, 0], "b": [i, 1], "weight": 50} for i in range(1, 10)]
    n_tri = 2 if n_ring > 40 else 1
    for i in range(n_ring):
        ang = 2 * math.pi * i / n_ring
        x = round(600 * math.cos(ang))
        y = round(600 * math.sin(ang))
        if i >= n_ring - n_tri:
            polys.append(opt(f"o{i}", [[x, y], [x + 1, y], [x, y + 1]], i % 3))
        else:
            polys.append(opt(f"o{i}", square(x, y, 1), i % 3))
    return build({"polygons": polys, "squeezed_edges": walls})


def _timed_solve(inst):
    fsg = compute_free_space_edges(inst)
    t0 = time.perf_counter()
    cost, walk = solve_dijkstra(fsg)
    return fsg, cost, time.perf_counter() - t0


def test_criterion_8_performance():
    inst = _row_and_ring_instance(45)       # 22 + 45*4 - 2 = 200 vertices
    fsg, cost, big_t = _timed_solve(inst)
    assert fsg.n == 200
    assert sum(1 for p in inst.polygons if p.kind == "required") == 10
    assert cost == pytest.approx(22.0)      # the row's outer boundary
    assert big_t < 600

    # Half-size run at the same k for a scaling data point (logged only).
    half = _row_and_ring_instance(20)       # 22 + 20*4 - 1 = 101 vertices
    hfsg, hcost, half_t = _timed_solve(half)
    assert hfsg.n == 101
    assert hcost == pytest.approx(22.0)
    ratio = big_t / half_t if half_t > 0 else float("nan")
    print(f"criterion 8: n=200 solve {big_t:.2f}s, n=101 solve {half_t:.2f}s, "
          f"ratio {ratio:.1f}x (cubic growth predicts ~8x)")
