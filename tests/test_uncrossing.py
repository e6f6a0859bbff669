import random

import pytest

from enclosure import (
    Point,
    PlaneMultigraph,
    check_weak_simplicity,
    compute_free_space_edges,
    make_walk,
    non_crossing_euler_tour,
    reduce_multiplicities,
    solve_dijkstra,
    subdivide_walk,
    uncross,
)
from enclosure.errors import NotConnected, NotEulerian
from enclosure.geometry import signed_area2, winding_number
from conftest import (
    EMPTY_INSTANCE,
    build,
    random_closed_walk,
    req,
    sample_points_off,
    square,
)


def _walk(pts):
    return make_walk(EMPTY_INSTANCE, [Point(*p) for p in pts])


def test_simple_square_unchanged():
    w = _walk([(0, 0), (4, 0), (4, 4), (0, 4)])
    out, report = uncross(EMPTY_INSTANCE, w)
    assert report.s == 0 and report.forks == 0 and report.discarded == 0
    assert set(out.points) == set(w.points) and out.num_edges == 4
    assert out.weight == pytest.approx(w.weight)
    # A walk that repeats its first point at the end is the same square.
    closed = _walk([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)])
    again, report = uncross(EMPTY_INSTANCE, closed)
    assert again == out and report.t == 4


def test_bowtie_crossing_subdivided():
    w = _walk([(0, 0), (4, 4), (4, 0), (0, 4)])
    g, report = subdivide_walk(w)
    assert report.s == 1
    assert sum(m for key, m in g.multiplicity.items() if Point(2, 2) in key) == 4
    out, rep = uncross(EMPTY_INSTANCE, w)
    assert check_weak_simplicity(out)
    assert out.weight == pytest.approx(w.weight)


def test_fork_subdivision():
    # Edge (0,0)-(6,0) passes through walk vertex (3,0), reached later by
    # two non-collinear edges.
    w = _walk([(0, 0), (6, 0), (6, -3), (3, 0), (0, -3)])
    g, report = subdivide_walk(w)
    assert report.s == 0
    assert report.forks == 1
    assert g.multiplicity[(Point(0, 0), Point(3, 0))] == 1
    assert g.multiplicity[(Point(3, 0), Point(6, 0))] == 1


def test_reduce_multiplicities():
    seg = (Point(0, 0), Point(1, 0))
    for m, keep, pairs in ((4, 2, 1), (3, 1, 1), (2, 2, 0), (5, 1, 2), (1, 1, 0)):
        g = PlaneMultigraph({seg: m})
        red, discarded = reduce_multiplicities(g)
        assert red.multiplicity[seg] == keep
        assert discarded == pairs


def test_doubled_path_tour():
    a, b, c = Point(0, 0), Point(2, 1), Point(4, 0)
    g = PlaneMultigraph({(a, b): 2, (b, c): 2})
    tour = non_crossing_euler_tour(g)
    assert len(tour) == 4
    assert sorted(tour.count(v) for v in (a, b, c)) == [1, 1, 2]


def test_euler_tour_errors():
    a, b, c = Point(0, 0), Point(2, 1), Point(4, 0)
    with pytest.raises(NotEulerian):
        non_crossing_euler_tour(PlaneMultigraph({(a, b): 1}))
    with pytest.raises(NotEulerian):
        non_crossing_euler_tour(PlaneMultigraph({}))
    d, e = Point(10, 10), Point(12, 10)
    with pytest.raises(NotConnected):
        non_crossing_euler_tour(PlaneMultigraph({(a, b): 2, (d, e): 2}))
    # Both faults at once: the degrees are checked before the trails are
    # merged, so the odd degrees at d and e are what is reported.
    with pytest.raises(NotEulerian):
        non_crossing_euler_tour(PlaneMultigraph({(a, b): 2, (d, e): 1}))
    # Copy 0, the least edge, lies in the larger component: its trail
    # covers that component and stops short of the doubled edge de, so the
    # tour's length check is what fires.
    with pytest.raises(NotConnected, match="did not merge"):
        non_crossing_euler_tour(PlaneMultigraph(
            {(a, b): 1, (b, c): 1, (a, c): 1, (d, e): 2}))


def test_two_triangles_sharing_vertex():
    w = _walk([(0, 0), (4, 0), (0, 4), (0, 0), (-4, 0), (0, -4)])
    out, report = uncross(EMPTY_INSTANCE, w)
    assert check_weak_simplicity(out)
    assert out.num_edges == 6
    assert out.weight == pytest.approx(w.weight)


def test_figure_eight():
    w = _walk([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0), (0, -4), (-4, -4), (-4, 0)])
    out, _ = uncross(EMPTY_INSTANCE, w)
    assert check_weak_simplicity(out)
    assert signed_area2(out.points) >= 0


def test_square_traversed_twice_kept():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4)]
    w = _walk(pts + pts)
    out, report = uncross(EMPTY_INSTANCE, w)
    assert report.discarded == 0  # multiplicity 2 is retained, not dropped
    assert out.weight == pytest.approx(w.weight)
    assert out.num_edges == 8
    assert check_weak_simplicity(out)


def test_triple_traversal_discards_one_pair():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4)]
    w = _walk(pts * 3)
    out, report = uncross(EMPTY_INSTANCE, w)
    assert report.discarded == 4  # one pair per side
    assert out.num_edges == 4
    assert out.weight == pytest.approx(w.weight / 3)


def test_output_ccw():
    w = _walk([(0, 0), (0, 4), (4, 4), (4, 0)])  # clockwise square
    out, _ = uncross(EMPTY_INSTANCE, w)
    assert signed_area2(out.points) > 0


def test_collinear_overlap_split_to_atoms():
    # The long bottom edge overlaps the short return pass; atoms emerge.
    w = _walk([(0, 0), (6, 0), (6, 3), (3, 3), (3, 0), (1, 0), (1, 2), (0, 2)])
    out, report = uncross(EMPTY_INSTANCE, w)
    assert check_weak_simplicity(out)
    assert out.weight <= w.weight + 1e-9


def test_fuzz_small():
    rng = random.Random(42)
    for i in range(25):
        w = random_closed_walk(rng, n_points=5 + i % 5)
        out, _report = uncross(EMPTY_INSTANCE, w)
        assert check_weak_simplicity(out), i
        assert out.weight <= w.weight + 1e-9
        for x in sample_points_off([w, out], rng, 20):
            assert winding_number(w.points, x) % 2 == \
                winding_number(out.points, x) % 2, (i, x)


def test_solver_walks_have_no_interior_crossings():
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               req("B", square(6, 3, 2)),
                               req("C", square(1, 7, 2))]})
    fsg = compute_free_space_edges(inst)
    cost, walk = solve_dijkstra(fsg)
    out, report = uncross(inst, walk)
    assert report.s == 0
    assert check_weak_simplicity(out)
    assert out.weight <= walk.weight + 1e-9
