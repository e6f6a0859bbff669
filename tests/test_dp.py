import math

import pytest

from enclosure import (
    Point,
    Walk,
    compute_free_space_edges,
    make_walk,
    random_instance,
    solve_dp,
    winding_cost,
)
from enclosure.dp import _fill
from enclosure.errors import ReferenceOnWalk
from enclosure.geometry import homogeneous_winding, winding_number
from enclosure.recursion import FutureCost, closed_walk, hull_bound
from conftest import (
    as_point, build, dp_cell_C, dp_cell_M, every_push_tables, opt, rel_close, req,
    square, stairs_by_state)
from test_recursion import INSTANCES as RECURSION_INSTANCES

INF = math.inf


def test_single_square_boundary():
    inst = build({"polygons": [req("A", square(0, 0, 3))]})
    cost, walk = solve_dp(compute_free_space_edges(inst))
    assert cost == pytest.approx(12.0)
    assert set(walk.points) == {Point(0, 0), Point(3, 0), Point(3, 3), Point(0, 3)}
    assert walk.num_edges == 4


def test_empty_mask_is_zero():
    inst = build({"polygons": [req("A", square(0, 0, 3))]})
    fsg = compute_free_space_edges(inst)
    tables = every_push_tables(fsg)
    for p in range(fsg.n):
        for t in (0, 1, 5, tables.t_max):
            assert tables.value_C(p, t, 0) == 0.0
            assert dp_cell_C(tables, p, t, 0) == 0.0


def test_two_squares_hull_tour():
    inst = build({"polygons": [req("A", square(0, 0, 1)),
                               req("B", square(3, 0, 1))]})
    cost, walk = solve_dp(compute_free_space_edges(inst))
    assert cost == pytest.approx(10.0)
    for poly in inst.polygons:
        assert homogeneous_winding(walk.points, poly.reference_point) == 1


def test_base_case_infinite():
    inst = build({"polygons": [req("A", square(0, 0, 3))]})
    fsg = compute_free_space_edges(inst)
    tables = every_push_tables(fsg)
    for p in range(fsg.n):
        assert tables.value_C(p, 0, 1) == INF
        assert tables.value_C(p, 1, 1) == INF
        assert dp_cell_C(tables, p, 1, 1) == INF


def _cross_instance():
    return build({"polygons": [
        req("T", [[0, 0], [2, 0], [0, 2]]),
        req("S", square(5, 0, 2)),
        opt("O", square(2, 5, 2), 1.5),
    ]})


def test_staircase_matches_direct_recursion():
    fsg = compute_free_space_edges(_cross_instance())
    tables = every_push_tables(fsg)
    n = fsg.n
    ts = [0, 1, 2, 3, 5, 8, 13, tables.t_max]
    for p in range(n):
        for mask in range(1 << 2):
            for t in ts:
                assert tables.value_C(p, t, mask) == \
                    pytest.approx(dp_cell_C(tables, p, t, mask), abs=1e-12), \
                    (p, t, mask)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            for mask in range(1 << 2):
                for t in (1, 3, 6, tables.t_max):
                    assert tables.value_M(p, q, t, mask) == \
                        pytest.approx(dp_cell_M(tables, p, q, t, mask), abs=1e-12), \
                        (p, q, t, mask)


def test_monotone_in_budget():
    fsg = compute_free_space_edges(_cross_instance())
    tables = every_push_tables(fsg)
    for p in range(fsg.n):
        for mask in range(4):
            prev = INF
            for t in range(tables.t_max + 1):
                v = tables.value_C(p, t, mask)
                assert v <= prev
                prev = v


def test_stabilization_at_6n():
    fsg = compute_free_space_edges(_cross_instance())
    t6n = 6 * fsg.n
    tables = every_push_tables(fsg, t_max=t6n + 5)
    full = fsg.full_mask
    for p in range(fsg.n):
        for mask in range(full + 1):
            assert tables.value_C(p, t6n, mask) == tables.value_C(p, t6n + 5, mask)


def test_extract_walk_reevaluates_to_cell_value():
    inst = _cross_instance()
    fsg = compute_free_space_edges(inst)
    tables = every_push_tables(fsg)
    for p in range(fsg.n):
        for mask in (1, 2, 3):
            value, bp = tables.best(p, mask)
            if bp is None or value == INF:
                continue
            walk = closed_walk(fsg, bp)
            c = winding_cost(inst, walk)
            # The DP value counts only penalties inside its triangulated
            # region; for mask-complete roots it equals the winding cost.
            if mask == fsg.full_mask:
                assert rel_close(c, value)


def test_required_windings_one_and_samples_nonnegative():
    inst = _cross_instance()
    fsg = compute_free_space_edges(inst)
    cost, walk = solve_dp(fsg)
    assert cost < INF
    for poly in inst.polygons:
        if poly.kind == "required":
            assert homogeneous_winding(walk.points, poly.reference_point) == 1
    import random

    from conftest import sample_points_off
    for x in sample_points_off([walk], random.Random(5), 60, grid=12):
        assert winding_number(walk.points, x) >= 0


def test_c2_upper_bound():
    # Two far-apart required squares: the composed cost never exceeds the
    # sum of the two singleton tours through a shared reachable vertex.
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               req("B", square(10, 0, 2))]})
    fsg = compute_free_space_edges(inst)
    tables = every_push_tables(fsg)
    p = fsg.vertices.index(Point(2, 0))
    t = tables.t_max
    vA = tables.value_C(p, t, 1)
    vB = tables.value_C(p, t, 2)
    both = tables.value_C(p, t, 3)
    assert both <= vA + vB + 1e-9


def test_k_zero_point_walk():
    inst = build({"polygons": [opt("B", square(0, 0, 2), 7)]})
    cost, walk = solve_dp(compute_free_space_edges(inst))
    assert cost == 0.0
    assert len(walk.points) == 1


def test_winding_cost_examples():
    inst = build({"polygons": [opt("B", square(1, 1, 2), 5)]})
    ring = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
    w = make_walk(inst, ring)
    assert winding_cost(inst, w) == pytest.approx(16.0 + 5.0)
    w2 = make_walk(inst, ring * 2)  # traversed twice
    assert winding_cost(inst, w2) == pytest.approx(32.0 + 2 * 5.0)
    away = make_walk(inst, [Point(10, 0), Point(12, 0), Point(10, 2)])
    assert winding_cost(inst, away) == pytest.approx(away.weight)


def test_winding_cost_inf_and_on_walk():
    inst = build({"polygons": [opt("B", square(1, 1, 2), "inf")]})
    ring = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
    assert winding_cost(inst, make_walk(inst, ring)) == INF
    away = make_walk(inst, [Point(10, 0), Point(12, 0), Point(10, 2)])
    assert winding_cost(inst, away) == pytest.approx(away.weight)
    ref = as_point(inst.polygons[0].reference_point)
    through = make_walk(inst, [Point(0, ref.y), Point(8, ref.y), Point(0, 8)])
    with pytest.raises(ReferenceOnWalk):
        winding_cost(inst, through)


def test_winding_cost_lets_other_errors_through():
    # Only a reference point on the walk becomes ReferenceOnWalk.
    inst = build({"polygons": [opt("B", square(1, 1, 2), 5)]})
    bad = Walk((Point(0, 0), Point(4, None), Point(0, 4)), 0.0)
    with pytest.raises(TypeError):
        winding_cost(inst, bad)


def test_optional_penalty_steering():
    # A cheap shortcut would enclose the optional object; with a large
    # penalty the solver pays for the detour instead.
    def run(penalty):
        inst = build({"polygons": [
            req("A", square(0, 0, 2)),
            req("B", square(10, 0, 2)),
            opt("M", [[5, 0], [7, 0], [6, 1]], penalty)]})
        return solve_dp(compute_free_space_edges(inst))[0]

    cheap = run(0)
    dear = run(1000)
    assert cheap < dear < cheap + 1000
    assert run(0.01) == pytest.approx(cheap + 0.01)


# --------------------------------------------------------------------------
# The bounded fill of solve_dp against the full tables


def _check_bounded_fill(fsg):
    full = every_push_tables(fsg)
    answer, answer_label = INF, None
    for p in range(fsg.n):
        value, label = full.best(p, fsg.full_mask)
        if value < answer:
            answer, answer_label = value, label
    stats = {}
    cost, walk = solve_dp(fsg, stats=stats)
    assert cost == answer
    if answer_label is None:
        assert walk is None
    else:
        assert walk.points == closed_walk(fsg, answer_label).points
    # Every label whose f = value + h is no larger than the answer is
    # stored, the same, in the same place of its staircase; the bounded
    # fill stores nothing else that cheap.  h is the fill's own, charging
    # every required reference.  This holds for the fill that starts its
    # bound at INF and for the one `solve_dp` runs, seeded with the
    # convex-hull walk's cost, which may only store and push less.
    h = FutureCost(fsg, fsg.h_scale, fsg.full_mask)

    def f(lab):
        return lab.value + h(lab.key[0], lab.key[-1], lab.mask)

    incumbent = hull_bound(fsg)
    assert incumbent >= answer
    counts = []
    for bound in (INF, incumbent):
        fill_stats = {}
        filled, settled = _fill(fsg, bound, fill_stats)
        bounded = stairs_by_state(settled)
        # relax's partner scans stop at their first join over the bound, so
        # every group of the index must be in nondecreasing value.
        for group in [*settled.closed, *(labs for ends in settled.open_from
                                         + settled.open_to for labs in ends.values())]:
            assert all(a.value <= b.value for a, b in zip(group, group[1:]))
        # The fill's answer is the full tables' answer, the same walk, and
        # the last label stored for its state.
        if answer_label is None:
            assert filled is None
        else:
            assert filled.value == answer
            assert closed_walk(fsg, filled).points == walk.points
            assert bounded[filled.key + (filled.mask,)][-1] is filled
        for state in full.stairs.keys() | bounded.keys():
            cheap = [[lab for lab in stairs.get(state, []) if f(lab) <= answer]
                     for stairs in (full.stairs, bounded)]
            assert cheap[0] == cheap[1], state
        stored = sum(map(len, bounded.values()))
        assert fill_stats["finalized"] == stored <= \
            sum(map(len, full.stairs.values()))
        assert fill_stats["pushed"] >= stored
        counts.append((stored, fill_stats["pushed"]))
    assert counts[1] == (stats["finalized"], stats["pushed"])
    assert counts[1][0] <= counts[0][0] and counts[1][1] <= counts[0][1]


@pytest.mark.parametrize("name", sorted(RECURSION_INSTANCES))
def test_bounded_fill_matches_full_tables_on_recursion_instances(name):
    _check_bounded_fill(compute_free_space_edges(RECURSION_INSTANCES[name]()))


@pytest.mark.parametrize("seed", range(25))
def test_bounded_fill_matches_full_tables_on_random_instances(seed):
    for k in (1, 2, 3):
        _check_bounded_fill(compute_free_space_edges(
            random_instance(seed, n_objects=5, k=k)))


@pytest.mark.parametrize("k", (2, 3))
def test_bounded_fill_matches_full_tables_on_k_scaling_family(k):
    _check_bounded_fill(compute_free_space_edges(random_instance(
        11, n_objects=9, k=k, grid=30, penalty_pool=(1, 2, 5))))
