import math
from dataclasses import replace

import pytest

from enclosure import (
    Walk,
    compute_free_space_edges,
    make_walk,
    random_instance,
    solve_dijkstra,
    solve_dp,
)
from enclosure.dijkstra import _search
from enclosure.errors import InternalError, NonpositiveWeight
from enclosure.inverted import solve_inverted
from enclosure.recursion import (
    INF, RANK, FutureCost, Label, check_solvable, closed_ids, open_ids)
from conftest import (
    EMPTY_INSTANCE, build, by_state, compute_all_labels, mouth_fixed_point, opt,
    rel_close, req, settled_labels, square)


def test_single_square_perimeter():
    fsg = compute_free_space_edges(build({"polygons": [req("A", square(0, 0, 3))]}))
    cost, walk = solve_dijkstra(fsg)
    assert cost == pytest.approx(12.0)
    assert walk.num_edges == 4


def test_k_zero_point_walk():
    # With nothing required, each point walk C(p, {}) is a full-mask label:
    # the search settles C(0, {}) first of its n seeds and stops, and the
    # DP stores all n seeds, whose bound 0 then drops every M1 push.  Both
    # answer with the point walk at the first vertex, and count their work.
    inst = build({"polygons": [opt("B", square(0, 0, 2), 5),
                               opt("C", square(4, 1, 1), 2)]})
    fsg = compute_free_space_edges(inst)
    point = make_walk(inst, [fsg.vertices[0]])
    counts = {solve_dijkstra: (fsg.n, 1), solve_dp: (fsg.n, fsg.n)}
    for solve, (pushed, finalized) in counts.items():
        stats = {}
        assert solve(fsg, stats=stats) == (0.0, point)
        assert (stats["pushed"], stats["finalized"]) == (pushed, finalized)


def test_empty_instance_is_the_empty_walk():
    # Nothing is required and there is no vertex for a point walk.
    fsg = compute_free_space_edges(EMPTY_INSTANCE)
    assert solve_dijkstra(fsg) == solve_dp(fsg) == (0.0, Walk((), 0.0))


def test_matches_dp_on_random_instances():
    for seed in range(12):
        inst = random_instance(seed, n_objects=2 + seed % 3, k=1 + seed % 2)
        fsg = compute_free_space_edges(inst)
        cd, wd = solve_dp(fsg)
        cl, wl = solve_dijkstra(fsg)
        assert rel_close(cd, cl), (seed, cd, cl)


def test_superiority_rejects_nonpositive_weight():
    # The parser rejects a weight that is not positive, so the squeezed
    # wall's weight is put into the validated instance directly.  Every
    # solver entry runs the same check, also when nothing is required.
    def solvers(inst):
        return {"dijkstra": solve_dijkstra, "dp": solve_dp,
                "inverted": lambda fsg: solve_inverted(inst, fsg)}

    for first in (req("A", square(0, 0, 2)), opt("A", square(0, 0, 2), 3)):
        data = {"polygons": [first, opt("B", square(2, 0, 2), 1)],
                "squeezed_edges": [{"a": [2, 0], "b": [2, 2], "weight": 1}]}
        inst = build(data)
        for weight in (0.0, -5.0):
            bad = replace(inst, squeezed={key: weight for key in inst.squeezed})
            fsg = compute_free_space_edges(bad)
            assert any(e.weight == weight for e in fsg.edges)
            for name, solve in solvers(bad).items():
                with pytest.raises(NonpositiveWeight):
                    solve(fsg)
                    pytest.fail(f"{name} accepted weight {weight}")
        data["squeezed_edges"][0]["weight"] = 1e-12  # positive, however tiny
        inst2 = build(data)
        fsg2 = compute_free_space_edges(inst2)
        check_solvable(fsg2)
        for solve in solvers(inst2).values():
            cost, _ = solve(fsg2)
            assert cost < math.inf


def test_finalization_bound_and_stats():
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               req("B", square(6, 0, 2))]})
    fsg = compute_free_space_edges(inst)
    stats = {}
    cost, _ = solve_dijkstra(fsg, stats=stats)
    k = 2
    n = fsg.n
    assert stats["finalized"] <= (1 << k) * (n + n * n)
    assert stats["pushed"] >= stats["finalized"]


def test_full_fixed_point_is_superset():
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               opt("B", square(5, 0, 2), 2)]})
    fsg = compute_free_space_edges(inst)
    fin_C, fin_M = compute_all_labels(fsg)
    # Every vertex has its trivial closed-walk label, value 0.
    for p in range(fsg.n):
        assert fin_C[(p, 0)].value == 0.0
    # The optimum appears among the full-mask labels.
    cost, _ = solve_dijkstra(fsg)
    assert rel_close(min(l.value for (p, m), l in fin_C.items() if m == 1), cost)


def test_bound_pruned_search_settles_fixed_point_labels():
    # The early-stop search settles by f = value + h with a consistent h,
    # drops dominated pushes and pushes with f over the bound, and cuts its
    # partner scans at bound - h.  No derived label has f below an
    # operand's, so the search must settle exactly the full fixed point's
    # states up to the answer in (f, value, rank, kind, key, mask) order,
    # ties included, each with the fixed point's label.  h is the search's
    # own, charging every required reference.
    def order(lab):
        f = lab.value + h(lab.key[0], lab.key[-1], lab.mask)
        return f, lab.value, RANK[lab.rule], lab.kind, lab.key, lab.mask

    instances = [build({"polygons": [req("A", square(0, 0, 2)),
                                     req("B", square(4, 0, 2))]})]
    instances += [random_instance(seed, n_objects=4, k=k)
                  for seed, k in ((1, 1), (2, 2), (4, 3), (6, 2), (9, 3))]
    for inst in instances:
        fsg = compute_free_space_edges(inst)
        h = FutureCost(fsg, fsg.h_scale, fsg.full_mask)
        fin_C, fin_M = compute_all_labels(fsg)
        fixed = {**fin_C, **fin_M}
        answer, settled = _search(fsg, True)
        # The early-stopped search settles its answer without expanding it.
        fin = by_state(settled_labels(settled) + [answer])
        assert set(fin) == {s for s, lab in fixed.items()
                            if order(lab) <= order(answer)}
        for state, lab in fin.items():
            ref = fixed[state]
            assert (lab.value, lab.rule, lab.t) == (ref.value, ref.rule, ref.t), state
        assert len(fin) < len(fixed)


def test_k_scaling_instance_push_budget():
    # The k = 3 member of the k-scaling family (n = 33; 152 free-space
    # edges, of the 242 in the full visibility graph).  In value order
    # (h = 0) the search settles 6,138 labels and pushes 11,373 for the
    # same answer, and with h = c·|pq|, blind to the mask, 3,925 and
    # 8,060; on the full graph it settled 6,284 in value order, and without
    # push pruning it pushed 148,596 there.  `pushed` is exact: a check in
    # `relax` that skipped a push the queue would keep would change it.
    # The bound starts at the convex-hull walk's cost, here the optimum:
    # the same 1,036 labels settle, and pushes fall from 3,416 (bound INF
    # until the first complete walk is pushed) to 1,179.
    inst = random_instance(11, n_objects=9, k=3, grid=30, penalty_pool=(1, 2, 5))
    stats = {}
    cost, _walk = solve_dijkstra(compute_free_space_edges(inst), stats=stats)
    assert cost == 58.46560917300654
    assert stats["finalized"] == 1036
    assert stats["pushed"] == 1179


@pytest.mark.parametrize("k, cost, search, fill", [
    (4, 62.39692745614887, (2052, 2590), (2261, 3855)),
    (5, 75.13217291511964, (4470, 9879), (7694, 21599)),
    (2, 42.82386522543601, (317, 323), (322, 368)),
    (3, 58.46560917300654, (1036, 1179), (1100, 1631)),
])
def test_k_scaling_solvers_agree_at_larger_k(k, cost, search, fill):
    # The search and the bounded DP agree on the k = 2 to 5 members of
    # the k-scaling family.  Their counters, (finalized, pushed) of the
    # search and (stored, pushed) of the fill, are pinned: with h = c·|pq|,
    # blind to the mask, they were (7,884, 18,993) and (13,420, 69,907) at
    # k = 4, and (18,092, 50,322) and (35,320, 213,933) at k = 5.  With the
    # mask-aware h and the bound INF until the first complete walk is
    # pushed, they were (2,052, 9,289) and (6,131, 55,346) at k = 4, and
    # (4,470, 28,722) and (14,797, 142,963) at k = 5.  Both solvers now
    # start their bound at the convex-hull walk's cost (the optimum at
    # k = 4, 6.3% over it at k = 5): the search settles the same labels.
    fsg = compute_free_space_edges(random_instance(
        11, n_objects=9, k=k, grid=30, penalty_pool=(1, 2, 5)))
    for solve, counts in ((solve_dijkstra, search), (solve_dp, fill)):
        stats = {}
        assert solve(fsg, stats=stats)[0] == cost
        assert (stats["finalized"], stats["pushed"]) == counts


def test_finalized_labels_stable_under_reevaluation():
    # Label-setting soundness: a finalized C1/M1 label's value equals the
    # recomputed right-hand side over the final fixed point.
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               opt("B", square(5, 1, 2), 3)]})
    fsg = compute_free_space_edges(inst)
    fin_C, fin_M = compute_all_labels(fsg)
    for (p, mask), lab in fin_C.items():
        if mask == 0:
            continue
        best = math.inf
        for q, w in fsg.adjacency[p].items():
            m = fin_M.get((q, p, mask))
            if m is not None:
                best = min(best, w + m.value)
        for m1 in range(1, mask):
            if (m1 & mask) == m1 and (p, m1) in fin_C and (p, mask ^ m1) in fin_C:
                best = min(best, fin_C[(p, m1)].value + fin_C[(p, mask ^ m1)].value)
        assert rel_close(best, lab.value), (p, mask)


def m2_join(fsg, p, r, q, left_mask, right_mask):
    """(required mask, triangle penalty) of the M2 join of mouths M(p, r)
    and M(r, q) with the given masks, or None when the join is not allowed:
    the triangle holds an infinite penalty, or the three required sets are
    not pairwise disjoint.  An independent restatement of the join test
    `relax` runs inline; prq must be strictly ccw."""
    cmask, cpen = fsg.triangle_content(p, r, q)
    if cpen == INF or (cmask & left_mask) or (cmask & right_mask) \
            or (left_mask & right_mask):
        return None
    return left_mask | right_mask | cmask, cpen


def _m_right_hand_side(fsg, fin_C, fin_M, p, q, mask):
    """Min over the M1 and M2 rules for state (p, q, mask), read from the
    finalized labels."""
    best = math.inf
    c, w = fin_C.get((p, mask)), fsg.adjacency[p].get(q)
    if c is not None and w is not None:
        best = c.value + w
    for (a, r, m1), left in fin_M.items():
        if a != p:
            continue
        for (r2, q2, m2), right in fin_M.items():
            if r2 != r or q2 != q or not fsg.left_vertices(q, p) >> r & 1:
                continue
            join = m2_join(fsg, p, r, q, m1, m2)
            if join is not None and join[0] == mask:
                best = min(best, left.value + right.value + join[1])
    return best


def test_finalized_m_labels_stable_under_reevaluation():
    # The same soundness check for M labels, over the full fixed point and
    # over the closure-free mouths the inverted solver uses.
    inst = build({"polygons": [req("A", square(0, 0, 2)),
                               opt("B", square(5, 1, 2), 3)]})
    fsg = compute_free_space_edges(inst)
    fin_C, fin_M = compute_all_labels(fsg)
    labels = settled_labels(mouth_fixed_point(fsg))
    base_C, mouths = by_state(labels, "C"), by_state(labels, "M")
    assert all(lab.rule == "base" for lab in base_C.values())
    for labels_C, labels_M in ((fin_C, fin_M), (base_C, mouths)):
        assert labels_M
        for (p, q, mask), lab in labels_M.items():
            best = _m_right_hand_side(fsg, labels_C, labels_M, p, q, mask)
            assert rel_close(best, lab.value), (p, q, mask)
    # Pockets carry no closed loop: every M1 mouth sits on a point walk.
    for lab in mouths.values():
        if lab.rule == "M1":
            (base,) = lab.ops
            assert base.rule == "base" and base.mask == 0 and lab.mask == 0
            assert open_ids(lab) == list(lab.key)


def test_walk_rebuild_rejects_unknown_rule():
    bad = Label("C", (0,), 1, 1.0, "M2", (None, None))
    with pytest.raises(InternalError):
        closed_ids(bad)
    with pytest.raises(InternalError):
        open_ids(Label("M", (0, 1), 0, 1.0, "C1", (bad,)))


def test_deterministic_walks():
    inst = random_instance(4, n_objects=3, k=2)
    fsg1 = compute_free_space_edges(inst)
    fsg2 = compute_free_space_edges(inst)
    c1, w1 = solve_dijkstra(fsg1)
    c2, w2 = solve_dijkstra(fsg2)
    assert c1 == c2 and w1.points == w2.points
