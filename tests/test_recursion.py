"""The shared recursion kernel (`recursion.relax`) as all three of its
drivers run it: the budgeted DP, the label-setting search and the
closure-free mouths of the inverted solver."""

import inspect
import math

import pytest
from hypothesis import assume, given

from enclosure import (
    brute_force,
    compute_free_space_edges,
    evaluate_solution,
    random_instance,
    solve_dijkstra,
    solve_dp,
    solve_inverted,
)
from enclosure import dijkstra, dp, inverted, oracle
from enclosure.dp import _fill
from enclosure.errors import GenerationFailure, InternalError, OverlapError
from enclosure.geometry import orient
from enclosure.recursion import (
    INF, FutureCost, Label, Settled, closed_ids, hull_bound, open_ids, relax)
from conftest import (
    build, compute_all_labels, dp_cell_C, dp_cell_M, every_push_tables,
    fixed_point, mouth_fixed_point, opt, rel_close, req, settled_labels,
    square, stairs_by_state)
from test_dijkstra import _m_right_hand_side, m2_join
from test_front_end import SETTINGS, _small_documents
from test_planegraph import grid_graph

INSTANCES = {
    "cross": lambda: build({"polygons": [
        req("T", [[0, 0], [2, 0], [0, 2]]),
        req("S", square(5, 0, 2)),
        opt("O", square(2, 5, 2), 1.5),
    ]}),
    # Required squares touching at a corner, optional squares in the other
    # two quadrants: the optimum is a figure eight, so it needs rule C2.
    "pinched": lambda: build({"polygons": [
        req("A", square(0, 0, 2)), req("B", square(2, 2, 2)),
        opt("X", square(2, 0, 2), 10), opt("Y", square(0, 2, 2), 10),
    ]}),
    "random3": lambda: random_instance(3, n_objects=3, k=2),
    "random5": lambda: random_instance(5, n_objects=3, k=1),
    "random8": lambda: random_instance(8, n_objects=3, k=2),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def fsg(request):
    return compute_free_space_edges(INSTANCES[request.param]())


def _bounded_fill(fsg):
    """The `Settled` index of `solve_dp`'s fill with no starting
    incumbent."""
    return _fill(fsg, INF)[1]


def test_dp_best_matches_label_setting_fixed_point(fsg):
    # Per state, not only per answer: the full DP fill's cheapest
    # C(p, t_max, B) is the value the label-setting fixed point settles for
    # C(p, B).
    tables = every_push_tables(fsg)
    fin_C, _fin_M = compute_all_labels(fsg)
    for p in range(fsg.n):
        for mask in range(fsg.full_mask + 1):
            value, _label = tables.best(p, mask)
            label = fin_C.get((p, mask))
            expected = math.inf if label is None else label.value
            assert rel_close(value, expected), (p, mask, value, expected)


def _check_edge_counts(labels):
    checked = 0
    for lab in labels:
        if lab.kind == "C":
            if lab.t > 0:
                assert lab.t == len(closed_ids(lab)), lab.key
                checked += 1
            else:
                assert lab.rule == "base"
        else:
            assert lab.t == len(open_ids(lab)) - 1, lab.key
            checked += 1
    return checked


def test_label_edge_count_matches_rebuilt_walk(fsg):
    fin_C, fin_M = compute_all_labels(fsg)
    assert _check_edge_counts([*fin_C.values(), *fin_M.values()])
    assert _check_edge_counts(settled_labels(mouth_fixed_point(fsg)))
    # The reference full fill and solve_dp's bounded fill.
    for stairs in (every_push_tables(fsg).stairs,
                   stairs_by_state(_bounded_fill(fsg))):
        stored = [lab for stair in stairs.values() for lab in stair]
        assert _check_edge_counts(stored)
        # A staircase stores strictly fewer edges for strictly more value.
        for stair in stairs.values():
            for lo, hi in zip(stair, stair[1:]):
                assert lo.t < hi.t and lo.value > hi.value


def test_settled_index_holds_every_finalized_label(fsg):
    stats = {}
    settled = fixed_point(fsg, stats)
    closed = [lab for labels in settled.closed for lab in labels]
    by_start = [lab for ends in settled.open_from for labs in ends.values()
                for lab in labs]
    by_end = [lab for starts in settled.open_to for labs in starts.values()
              for lab in labs]
    # Each finalized label once: one per state, as many as finalized.
    states = {lab.key + (lab.mask,) for lab in closed + by_start}
    assert len(closed + by_start) == len(states) == stats["finalized"]
    assert sorted(map(id, by_start)) == sorted(map(id, by_end))
    for p, labs in enumerate(settled.closed):
        assert all(lab.key == (p,) for lab in labs)
    for p, ends in enumerate(settled.open_from):
        for q, labs in ends.items():
            assert all(lab.key == (p, q) for lab in labs)


def test_reference_enumerations_stay_independent_of_the_kernel():
    # The direct cell evaluations, the M right-hand side of the soundness
    # tests and the brute-force oracle check `relax`; none may call it.
    for fn in (dp_cell_C, dp_cell_M, _m_right_hand_side, brute_force):
        assert "relax" not in inspect.getsource(fn), fn.__name__
    assert "relax" not in inspect.getsource(oracle)


def _answers_at_scale(inst, scale):
    """(cost, walk, finalized) of every solver of the instance's
    mode, with the future cost's scale c set to `scale`, or left as built
    when None."""
    fsg = compute_free_space_edges(inst)
    if scale is not None:
        fsg.h_scale = scale
    if inst.mode == "invert":
        solvers = (lambda g, stats: solve_inverted(inst, g, stats=stats),)
    else:
        solvers = (solve_dijkstra, solve_dp)
    out = []
    for solve in solvers:
        stats = {}
        cost, walk = solve(fsg, stats=stats)
        out.append((cost, walk, stats.get("finalized", 0)))
    return out


def _check_future_cost_changes_no_answer(inst):
    # h is consistent, and its (1 - 1e-9) shave keeps the float order the
    # proof needs, so every solver returns the cost of plain value order
    # (c = 0) and settles no more labels.  Under the tie rule of
    # `recursion.py` its walk may be another one of equal cost, so the walk
    # is checked on its own: feasible, at the cost the solver reports.
    plain, guided = _answers_at_scale(inst, 0.0), _answers_at_scale(inst, None)
    for (cost0, _walk0, fin0), (cost, walk, fin) in zip(plain, guided):
        assert cost == cost0
        assert fin <= fin0
        if cost < math.inf and len(walk.points) > 1:
            sol = evaluate_solution(inst, walk, check_simple=False)
            assert sol.feasible and rel_close(sol.cost, cost)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_future_cost_keeps_answers_on_recursion_instances(name):
    _check_future_cost_changes_no_answer(INSTANCES[name]())


@pytest.mark.parametrize("seed", range(25))
def test_future_cost_keeps_answers_on_random_instances(seed):
    for mode in ("enclose", "invert"):
        for k in range(4):
            _check_future_cost_changes_no_answer(
                random_instance(seed, n_objects=5, k=k, mode=mode))


@pytest.mark.parametrize("k", (3, 4))
def test_future_cost_keeps_answers_on_k_scaling_family(k):
    _check_future_cost_changes_no_answer(random_instance(
        11, n_objects=9, k=k, grid=30, penalty_pool=(1, 2, 5)))


def _shifted(d):
    """Three required shapes and an optional square, moved by (d, d)."""
    def move(verts):
        return [[x + d, y + d] for x, y in verts]
    return build({"polygons": [
        req("A", move(square(0, 0, 2))), req("B", move(square(5, 1, 2))),
        opt("O", move(square(2, 4, 2)), 1.5),
        req("T", move([[0, 5], [2, 7], [0, 9]]))]})


def test_future_cost_charges_only_its_charged_references(fsg):
    # Charging nothing, h is c·|pq| whatever the mask, as the inverted
    # solver reads it; charging everything, it is c·|pq| at a full mask
    # and no less below it.  At scale 0 it is 0 everywhere, charged or not.
    full, c = fsg.full_mask, fsg.h_scale
    blind = FutureCost(fsg, c, 0)
    aware = FutureCost(fsg, c, full)
    zeros = [FutureCost(fsg, 0.0, charged) for charged in (0, full)]
    for p in range(fsg.n):
        for q in range(fsg.n):
            assert aware(p, q, full) == aware[p][q] == blind[p][q]
            for mask in range(full + 1):
                assert blind(p, q, mask) == blind[p][q]
                assert aware(p, q, mask) >= aware[p][q]
                assert all(h(p, q, mask) == h[p][q] == 0.0 for h in zeros)


@pytest.mark.parametrize("j", (120, 122, 126, 127))
def test_future_cost_is_exact_far_from_the_origin(j):
    # Every length h reads is the hypotenuse of exact coordinate
    # differences, so moving the instance by an integer offset changes no
    # entry of h and no answer.  Near 2**60 floats are 256 apart: an h
    # that rounded the coordinates before subtracting them would be off by
    # hundreds there, and the search would settle a dearer walk.
    plain = compute_free_space_edges(_shifted(0))
    far = compute_free_space_edges(_shifted(2 ** 60 + j))
    h0 = FutureCost(plain, plain.h_scale, plain.full_mask)
    h = FutureCost(far, far.h_scale, far.full_mask)
    assert h.reach == h0.reach
    assert all(h[p] == h0[p] for p in range(far.n))
    for solve in (solve_dijkstra, solve_dp):
        assert solve(far)[0] == solve(plain)[0]


def _scan_setup():
    """Two required squares (bits 0 and 1), the search's mask-aware h, and
    a spy push with the (key, mask, ops) of each join of `rule` pushed."""
    fsg = compute_free_space_edges(build({"polygons": [
        req("A", square(0, 0, 2)), req("B", square(8, 5, 2))]}))
    pushed = []

    def push(kind, key, mask, value, t, rule, ops):
        pushed.append((rule, key, mask, ops))

    def joins(rule):
        return [entry[1:] for entry in pushed if entry[0] == rule]
    return fsg, FutureCost(fsg, fsg.h_scale, fsg.full_mask), push, joins


def test_m2_partner_scan_reaches_past_a_dearer_label_of_larger_mask():
    # A partner group settles in f order, not value order, once h reads
    # the mask: here P1 = M(b, q, {A, B}) settles before the cheaper
    # P2 = M(b, q, {B}), as P2 still has A to enclose.  The join of
    # M(a, b, {A}) with P2 fits under the bound although P1's join does
    # not, so neither the group's lower bound nor the scan may stop at P1:
    # the search's index must hold the group in value order.
    fsg, h, push, joins = _scan_setup()
    n = fsg.n
    for a, b, q in ((a, b, q) for a in range(n) for b in range(n)
                    for q in range(n)):
        if a != b and fsg.left_vertices(a, b) >> q & 1 \
                and fsg.triangle_content(a, b, q) == (0, 0.0) \
                and h(b, q, 0b10) - h[b][q] > 0.5:
            break
    gap = h(b, q, 0b10) - h[b][q]
    label = Label("M", (a, b), 0b01, 1.0, "M1", (), 1)
    v2 = 100.0
    p2 = Label("M", (b, q), 0b10, v2, "M1", (), 1)
    p1 = Label("M", (b, q), 0b11, v2 + gap / 2, "M1", (), 1)
    # P0 overlaps the label's mask; it keeps the group's lower bound low.
    p0 = Label("M", (b, q), 0b01, min(v2, p1.value + h[b][q] - h(b, q, 0b01)) - 1,
               "M1", (), 1)
    bound = h[a][q] + label.value + v2 + gap / 4
    for group in ((p0, p1, p2), (p1, p2)):
        f = [lab.value + h(b, q, lab.mask) for lab in group]
        assert f == sorted(f) and p2.value < p1.value
        settled = Settled(n)
        for lab in group:
            settled.add_by_value(lab)
        relax(fsg, label, settled, push, True, bound, {}, h)
    assert joins("M2") == [((a, q), 0b11, (label, p2))] * 2


def test_c2_partner_scan_reaches_past_a_dearer_label_of_larger_mask():
    # The same for the closed labels at p: C(p, {A, B}) settles before the
    # cheaper C(p, {B}), whose join with C(p, {A}) fits under the bound.
    fsg, h, push, joins = _scan_setup()
    p = max(range(fsg.n), key=lambda v: h(v, v, 0b10))
    gap = h(p, p, 0b10)
    label = Label("C", (p,), 0b01, 1.0, "base")
    v2 = 100.0
    p1 = Label("C", (p,), 0b11, v2 + gap / 2, "base")
    p2 = Label("C", (p,), 0b10, v2, "base")
    assert p1.value + h(p, p, 0b11) <= p2.value + h(p, p, 0b10)
    settled = Settled(fsg.n)
    settled.add_by_value(p1)
    settled.add_by_value(p2)
    relax(fsg, label, settled, push, True, label.value + v2 + gap / 4, {}, h)
    assert joins("C2") == [((p,), 0b11, (label, p2))]


def _inverted_mouths(inst, fsg):
    """Every mouth `solve_inverted` settles: each label its expand step
    hands to `relax`."""
    mouths = []

    def spy(graph, label, *args):
        mouths.append(label)
        relax(graph, label, *args)

    inverted.relax = spy
    try:
        solve_inverted(inst, fsg)
    finally:
        inverted.relax = relax
    return mouths


def _check_m2_labels(inst, fsg):
    """Each settled M2 label of the instance's solvers joins M(p, r) and
    M(r, q) through a strictly ccw triangle prq, and its mask and value
    are those of `m2_join`, whose triangle content is `triangle_content`'s:
    the reference for the content `relax` computes inline.  The value
    matches exactly.  Returns the number checked."""
    if inst.mode == "invert":
        labels = _inverted_mouths(inst, fsg)
    else:
        labels = settled_labels(fixed_point(fsg)) + \
            settled_labels(_bounded_fill(fsg))
    verts, checked = fsg.vertices, 0
    for lab in labels:
        if lab.rule != "M2":
            continue
        left, right = lab.ops
        (p, r), (r_right, q) = left.key, right.key
        assert r_right == r and lab.key == (p, q)
        assert orient(verts[p], verts[r], verts[q]) > 0
        join = m2_join(fsg, p, r, q, left.mask, right.mask)
        assert join is not None
        assert lab.mask == join[0]
        assert lab.value == left.value + right.value + join[1]
        assert lab.t == left.t + right.t
        checked += 1
    return checked


@SETTINGS
@given(doc=_small_documents())
def test_m2_labels_match_triangle_content_on_degenerate_scenes(doc):
    try:
        inst = build(doc)
    except OverlapError:
        assume(False)
    _check_m2_labels(inst, compute_free_space_edges(inst))


@pytest.mark.parametrize("seed", range(4))
def test_m2_labels_match_triangle_content_on_random_instances(seed):
    checked = 0
    for mode in ("enclose", "invert"):
        for k in range(3):
            inst = random_instance(seed, n_objects=4, k=k, mode=mode)
            checked += _check_m2_labels(inst, compute_free_space_edges(inst))
    assert checked


# --------------------------------------------------------------------------
# The incumbent both solvers start their bound at: the convex-hull walk of
# the required objects (`hull_bound`)


@pytest.mark.parametrize("seed", range(12))
def test_hull_bound_is_the_optimum_when_everything_is_required(seed):
    # With no optional object and no squeezed edge nothing blocks the
    # hull's sides, and the shortest curve around the required objects is
    # their convex hull: the incumbent is the optimum, up to its slack.
    m = 2 + seed % 4
    fsg = compute_free_space_edges(random_instance(seed, n_objects=m, k=m))
    cost = solve_dijkstra(fsg)[0]
    assert cost <= hull_bound(fsg) <= cost * (1 + 2e-9)


def test_hull_bound_is_no_less_than_the_brute_force_optimum():
    # With optional objects the hull walk is one feasible walk among many.
    checked = finite = 0
    seed = 0
    while checked < 20:
        seed += 1
        try:
            inst = random_instance(seed, n_objects=2 + seed % 2,
                                   k=1 + seed % 2, max_side=2)
        except GenerationFailure:
            continue
        fsg = compute_free_space_edges(inst)
        if fsg.n > 10:
            continue
        res = brute_force(inst, fsg)
        assert res.exhausted
        bound = hull_bound(fsg)
        assert bound >= res.best_cost, seed
        checked += 1
        finite += bound < INF
    assert finite


def test_hull_bound_is_infinite_where_the_hull_walk_is_no_answer():
    three = [req("A", square(0, 0, 2)), req("B", square(10, 0, 2)),
             req("C", square(0, 10, 2))]
    scenes = {
        # An infinite penalty inside the hull.
        "inf inside": build({"polygons": three + [
            opt("X", square(4, 3, 1), "inf")]}),
        # An optional triangle across the hull's bottom side.
        "side crossed": build({"polygons": three + [
            opt("M", [[5, -1], [7, -1], [6, 1]], 1)]}),
        # Two required faces of a plane grid that meet at a corner: the
        # hull's diagonal sides are not graph edges.
        "plane graph": build({"graph": {**grid_graph(3, 3), "faces": [
            {"point": [1, 1], "kind": "required"},
            {"point": [3, 3], "kind": "required"}]}}),
    }
    for name, inst in scenes.items():
        fsg = compute_free_space_edges(inst)
        assert hull_bound(fsg) == INF, name
        cost = solve_dijkstra(fsg)[0]
        assert cost < INF and solve_dp(fsg)[0] == cost, name
    # Without the triangle the same hull walk is feasible.
    assert hull_bound(compute_free_space_edges(build({"polygons": three}))) < INF


def test_an_incumbent_below_the_optimum_raises(monkeypatch):
    # The hull walk is feasible, so a seeded solver that finds no answer
    # has broken an invariant; it must not report the instance infeasible.
    fsg = compute_free_space_edges(INSTANCES["cross"]())
    cost = solve_dijkstra(fsg)[0]
    assert solve_dp(fsg)[0] == cost < INF
    for module in (dijkstra, dp):
        monkeypatch.setattr(module, "hull_bound", lambda _fsg: cost * (1 - 1e-6))
    for solve in (solve_dijkstra, solve_dp):
        with pytest.raises(InternalError):
            solve(fsg)
