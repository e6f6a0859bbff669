import math
import random

import pytest

from enclosure import (
    Point,
    brute_force,
    compute_free_space_edges,
    evaluate_solution,
    random_instance,
    solve_inverted,
)
from enclosure.geometry import homogeneous_winding
from enclosure.recursion import FutureCost, open_ids
from conftest import (
    build, by_state, mouth_fixed_point, opt, rel_close, req, settled_labels,
    square)

INF = math.inf


def _fsg(data):
    inst = build(data)
    return inst, compute_free_space_edges(inst)


def test_knapsack_square_worth_enclosing():
    inst, fsg = _fsg({"polygons": [opt("B", square(0, 0, 4), 40)],
                      "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == pytest.approx(16.0)  # boundary beats the 40 penalty
    assert set(walk.points) == {Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)}
    sol = evaluate_solution(inst, walk)
    assert sol.feasible and rel_close(sol.cost, cost)


def test_knapsack_square_not_worth_enclosing():
    inst, fsg = _fsg({"polygons": [opt("B", square(0, 0, 4), 12)],
                      "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == pytest.approx(12.0)  # pay the penalty, enclose nothing
    assert len(walk.points) == 1


def test_all_penalties_zero():
    inst, fsg = _fsg({"polygons": [opt("A", square(0, 0, 2), 0),
                                   opt("B", square(5, 0, 2), 0)],
                      "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == 0.0


def test_empty_instance():
    inst = build({"polygons": [], "mode": "invert"})
    cost, walk = solve_inverted(inst, compute_free_space_edges(inst))
    assert cost == 0.0 and walk.points == ()


def test_required_stays_outside():
    # The required square sits left of a heavily penalized optional square;
    # the best curve encloses the optional object only.
    inst, fsg = _fsg({"polygons": [req("R", square(0, 0, 2)),
                                   opt("B", square(6, 0, 2), 50)],
                      "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == pytest.approx(8.0)
    assert homogeneous_winding(walk.points, inst.polygons[0].reference_point) == 0
    ores = brute_force(inst, fsg)
    assert rel_close(ores.best_cost, cost)


def test_required_between_optionals():
    # Required in the middle; each optional must be enclosed by its own loop
    # or paid for.  A single curve cannot enclose both without the required
    # one, so the solver encloses the more expensive side only.
    inst, fsg = _fsg({"polygons": [
        opt("L", [[0, 0], [2, 0], [0, 2]], 30),
        req("R", [[6, 0], [8, 0], [6, 2]]),
        opt("Q", [[12, 0], [14, 0], [12, 2]], 5)],
        "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    ores = brute_force(inst, fsg)
    assert rel_close(cost, ores.best_cost)
    assert cost == pytest.approx(4.0 + 2 * math.sqrt(2) + 5.0)


def test_plank_join_scans_past_the_first_disjoint_mouth():
    # Two heavy optional triangles meet at (0, 8) and open a wedge to the
    # right, with the required triangle R inside it.  The optimum encloses
    # both and dips into the wedge around R's left side, so R sits in the
    # pocket of a mouth from (16, 10) to (16, 6).  The U label that reaches
    # that chord settles after its mouths, and the chord's first mouth,
    # the bare edge, leaves R out: a join that stopped at a group's first
    # disjoint label would lose the dip and pay a penalty of 1000.
    inst, fsg = _fsg({"polygons": [
        opt("O1", [[0, 8], [16, 10], [0, 18]], 1000),
        opt("O2", [[0, 8], [0, -2], [16, 6]], 1000),
        req("R", [[10, 7], [12, 7], [11, 9]])], "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert rel_close(cost, 20 + math.sqrt(37) + math.sqrt(26) + 17 * math.sqrt(5))
    assert rel_close(brute_force(inst, fsg).best_cost, cost)
    assert Point(10, 7) in walk.points and Point(11, 9) in walk.points
    (required,) = inst.required
    assert homogeneous_winding(walk.points, required.reference_point) == 0


def test_infinite_outside_penalty_infeasible():
    # An unbounded optional region with infinite penalty is always outside
    # any bounded curve: no finite solution exists.
    inst, fsg = _fsg({"polygons": [
        opt("B", [[0, 0], [2, 0], [0, 2]], 1),
        {"id": "out", "kind": "optional", "penalty": "inf", "unbounded": True,
         "vertices": [[-10, -10], [20, -10], [20, 20], [-10, 20]]}],
        "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == INF and walk is None
    ores = brute_force(inst, fsg, max_edges=5)
    assert ores.best_cost == INF


def _halfplanes(fsg, v):
    """(left, right) contents of the vertical half-planes through vertex v;
    points on the line belong to the left one."""
    left = fsg.x_at_most(fsg.vertices[v].x)
    return fsg.split_content(left), fsg.split_content(fsg._all & ~left)


def test_halfplane_contents():
    inst, fsg = _fsg({"polygons": [req("A", square(0, 0, 2)),
                                   opt("B", square(10, 0, 2), 3)],
                      "mode": "invert"})
    (left_mask, left_pen), (right_mask, right_pen) = \
        _halfplanes(fsg, fsg.vertices.index(Point(2, 0)))
    assert left_mask == 1 and left_pen == 0.0
    assert right_mask == 0 and right_pen == pytest.approx(3.0)
    # Together the two half-planes cover every reference point exactly once.
    assert (left_mask | right_mask) == fsg.full_mask
    assert left_pen + right_pen == pytest.approx(3.0)


def test_plank_contents():
    inst, fsg = _fsg({"polygons": [req("A", square(0, 0, 2)),
                                   opt("B", square(0, 6, 2), 3)],
                      "mode": "invert"})
    # The chord from A's top-left corner to B's bottom-right one.
    a, b = fsg.vertices.index(Point(0, 2)), fsg.vertices.index(Point(2, 6))
    for i, j in ((a, b), (b, a)):
        up_mask, up_pen = fsg.plank(i, j, True)
        down_mask, down_pen = fsg.plank(i, j, False)
        assert up_pen == pytest.approx(3.0) and up_mask == 0
        assert down_mask == 1 and down_pen == 0.0
    # Vertical chords span empty planks.
    assert fsg.plank(fsg.vertices.index(Point(0, 0)), a, True) == (0, 0.0)


def test_tiling_partition():
    # Left half-plane + up plank + down plank + right half-plane counts each
    # reference point exactly once for every non-vertical vertex chord.
    # Reference points are in general position, so none lies on a chord.
    inst, fsg = _fsg({"polygons": [
        req("A", square(0, 0, 2)), req("B", square(7, 3, 2)),
        opt("C", square(3, 8, 2), 1), opt("D", square(9, 9, 3), 2),
        opt("E", [[14, 0], [17, 0], [14, 3]], 4)],
        "mode": "invert"})
    total_pen = sum(fsg._penalties)
    rng = random.Random(9)
    pairs = [(i, j) for i in range(fsg.n) for j in range(fsg.n)
             if fsg.vertices[i].x < fsg.vertices[j].x]
    for a, b in rng.sample(pairs, 40):
        contents = [_halfplanes(fsg, a)[0], _halfplanes(fsg, b)[1],
                    fsg.plank(a, b, True), fsg.plank(a, b, False)]
        combined = 0
        for m, _pen in contents:
            assert combined & m == 0, (a, b)
            combined |= m
        assert combined == fsg.full_mask
        assert sum(pen for _m, pen in contents) == pytest.approx(total_pen), (a, b)


def test_random_knapsack_matches_oracle():
    # k=1 keeps one required object outside, so the finish label's
    # covering test is checked against the oracle too.
    for k in (0, 1):
        checked = 0
        seed = 0
        while checked < 8:
            seed += 1
            try:
                inst = random_instance(seed, n_objects=2 + seed % 2, k=k,
                                       mode="invert", max_side=2)
            except Exception:
                continue
            fsg = compute_free_space_edges(inst)
            if fsg.n > 10:
                continue
            cost, walk = solve_inverted(inst, fsg)
            ores = brute_force(inst, fsg)
            assert rel_close(cost, ores.best_cost), (k, seed, cost, ores.best_cost)
            if cost < INF and walk is not None and len(walk.points) > 1:
                sol = evaluate_solution(inst, walk, check_simple=False)
                assert sol.feasible and rel_close(sol.cost, cost)
            checked += 1


def _recording(monkeypatch):
    """Make solve_inverted record each `label_setting` run it makes: a
    list with one (counters, settled labels) pair per run."""
    from enclosure import inverted, recursion
    runs = []

    def recorded(fsg, seeds, expand, h, bound, early_stop, stats=None):
        own, settled = {}, []

        def record(label, *args):
            settled.append(label)
            expand(label, *args)
        runs.append((own, settled))
        answer = recursion.label_setting(fsg, seeds, record, h, bound,
                                         early_stop, own)
        if stats is not None:
            stats.update(own)
        return answer

    monkeypatch.setattr(inverted, "label_setting", recorded)
    return runs


def test_stats_count_the_one_search(monkeypatch):
    # solve_inverted settles its mouths and its U labels in one
    # label-setting run and reports that run's counters.
    runs = _recording(monkeypatch)
    inst, fsg = _fsg({"polygons": [opt("A", square(0, 0, 2), 10),
                                   opt("B", square(5, 1, 2), 3)],
                      "mode": "invert"})
    stats = {}
    solve_inverted(inst, fsg, stats=stats)
    ((counters, settled),) = runs
    assert stats == counters and set(stats) == {"pushed", "finalized"}
    # The answer settles but is not expanded.
    assert stats["finalized"] == len(settled) + 1
    assert {lab.kind for lab in settled} == {"M", "U"}


def test_every_settled_label_rebuilds_its_walk(monkeypatch):
    # open_ids rebuilds a down or up label like an M2 label, from its two
    # operands in walk order.  Check it on every U label and every mouth
    # the search settles, not only on those of the answer's walk.
    runs = _recording(monkeypatch)
    rules = {"M": set(), "U": set()}
    for seed in range(5):
        for k in range(3):
            inst = random_instance(seed, n_objects=4, k=k, mode="invert")
            fsg = compute_free_space_edges(inst)
            runs.clear()
            solve_inverted(inst, fsg)
            ((_counters, settled),) = runs
            for lab in settled:
                ids = open_ids(lab)
                assert (ids[0], ids[-1]) == lab.key and len(ids) == lab.t + 1
                assert all(b in fsg.adjacency[a] for a, b in zip(ids, ids[1:]))
                if lab.rule in ("down", "up", "M2"):
                    left, right = lab.ops
                    assert left.key[1] == right.key[0]
                rules[lab.kind].add(lab.rule)
    assert rules == {"M": {"M1", "M2"}, "U": {"base", "down", "up"}}


def test_bounded_mouths_are_exact(monkeypatch):
    # The answer's bound cuts the mouths: each one the single queue
    # settles has its value in the whole unbounded mouth fixed point, and
    # its f = value + h is at most the answer's cost.
    runs = _recording(monkeypatch)
    checked = 0
    for seed in range(20):
        for k in range(3):
            inst = random_instance(seed, n_objects=4, k=k, mode="invert")
            fsg = compute_free_space_edges(inst)
            runs.clear()
            cost, _walk = solve_inverted(inst, fsg)
            ((_counters, settled),) = runs
            fixed = by_state(settled_labels(mouth_fixed_point(fsg)), "M")
            h = FutureCost(fsg, fsg.h_scale, 0)
            for lab in settled:
                if lab.kind == "M":
                    p, q = lab.key
                    assert lab.value == fixed[lab.key + (lab.mask,)].value
                    assert lab.value + h[p][q] <= cost
                    checked += 1
    assert checked


def test_equal_cost_tie_keeps_first_settled_finish():
    # Enclosing either unit square saves its penalty 5 for a boundary of 4;
    # both optima cost 9.  Finishes of equal value settle in push order,
    # so the left square's walk wins.
    inst, fsg = _fsg({"polygons": [opt("A", square(0, 0, 1), 5),
                                   opt("B", square(10, 0, 1), 5)],
                      "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == 9.0
    assert walk.points == (Point(1, 0), Point(0, 0), Point(0, 1), Point(1, 1))


def test_required_in_notch_stays_outside():
    # The hull of the notched optional object (boundary 40) would also
    # enclose the required square in its notch.  The finish test must
    # reject that curve; the optimum dips into the notch around the
    # square's bottom edge instead.
    notched = [[0, 0], [10, 0], [10, 10], [7, 10], [7, 3], [3, 3], [3, 10], [0, 10]]
    inst, fsg = _fsg({"polygons": [opt("U", notched, 100), req("R", square(4, 5, 2))],
                      "mode": "invert"})
    cost, walk = solve_inverted(inst, fsg)
    assert cost == pytest.approx(38.0 + 2 * math.sqrt(26))
    assert homogeneous_winding(walk.points, inst.polygons[1].reference_point) == 0
    sol = evaluate_solution(inst, walk, check_simple=False)
    assert sol.feasible and rel_close(sol.cost, cost)


def test_knapsack_skips_joins_the_queue_would_drop():
    # A k = 0 instance of three unit squares and three unit triangles.  The
    # mouths' M2 scans ask the queue before a triangle's content is
    # computed; a join whose target is settled or pending no dearer is
    # never built.  The counters are those of a search that derives every
    # join and drops, at the push, each that does not beat its state's
    # pending label; such a search resolves 54 directed chord masks here,
    # against 48 (masks are resolved in pairs, i -> j with j -> i).  The
    # answer's bound keeps the mouths few: the unbounded mouth fixed point
    # resolves all 420.
    inst, fsg = _fsg({"polygons": [
        opt("A", square(10, 4), 1), opt("B", square(29, 34), "inf"),
        opt("C", square(29, 13), 2), opt("D", [[21, 1], [22, 1], [21, 2]], 0),
        opt("E", [[10, 30], [11, 30], [10, 31]], 0),
        opt("F", [[13, 20], [14, 20], [13, 21]], 10)], "mode": "invert"})
    stats = {}
    cost, walk = solve_inverted(inst, fsg, stats=stats)
    assert cost == 17.0 and len(walk.points) == 4
    assert stats == {"pushed": 246, "finalized": 118}
    assert sum(m is not None for m in fsg._chords) == 48
