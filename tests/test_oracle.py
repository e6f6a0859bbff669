import pytest

from enclosure import (
    brute_force,
    compute_free_space_edges,
    evaluate_solution,
    random_instance,
    solve_dijkstra,
)
from enclosure.errors import GenerationFailure, SearchSpaceTooLarge
from conftest import build, opt, rel_close, req, square


def _fsg(data):
    inst = build(data)
    return inst, compute_free_space_edges(inst)


def test_single_square():
    inst, fsg = _fsg({"polygons": [req("A", square(0, 0, 3))]})
    res = brute_force(inst, fsg)
    assert res.best_cost == pytest.approx(12.0)
    assert res.exhausted
    assert res.best_walk.num_edges == 4
    assert res.walks_examined >= 1


def test_two_squares_hull():
    inst, fsg = _fsg({"polygons": [req("A", square(0, 0, 1)),
                                   req("B", square(3, 0, 1))]})
    res = brute_force(inst, fsg)
    assert res.best_cost == pytest.approx(10.0)
    sol = evaluate_solution(inst, res.best_walk, check_simple=False)
    assert sol.feasible and rel_close(sol.cost, res.best_cost)


def test_optional_avoidance_matches_solver():
    inst, fsg = _fsg({"polygons": [req("A", square(0, 0, 2)),
                                   opt("B", square(4, 0, 2), "inf")]})
    res = brute_force(inst, fsg)
    cost, _ = solve_dijkstra(fsg)
    assert rel_close(res.best_cost, cost)
    assert res.best_cost == pytest.approx(8.0)


def test_point_walk_when_nothing_required():
    inst, fsg = _fsg({"polygons": [opt("B", square(0, 0, 2), 7)]})
    res = brute_force(inst, fsg)
    assert res.best_cost == 0.0 and len(res.best_walk.points) == 1


def test_empty_instance_modes():
    inst, fsg = _fsg({"polygons": []})
    res = brute_force(inst, fsg)
    assert res.best_cost == 0.0 and res.best_walk.points == ()


def test_search_space_caps():
    inst, fsg = _fsg({"polygons": [req("A", square(0, 0, 1)),
                                   req("B", square(3, 0, 1)),
                                   req("C", square(6, 0, 1))]})
    assert fsg.n == 12
    with pytest.raises(SearchSpaceTooLarge):
        brute_force(inst, fsg)
    inst2, fsg2 = _fsg({"polygons": [req("A", square(0, 0, 1))]})
    with pytest.raises(SearchSpaceTooLarge):
        brute_force(inst2, fsg2, max_edges=13)


def test_generator_determinism():
    a = random_instance(7, n_objects=3, k=1)
    b = random_instance(7, n_objects=3, k=1)
    assert [p.vertices for p in a.polygons] == [p.vertices for p in b.polygons]
    assert [p.kind for p in a.polygons] == [p.kind for p in b.polygons]
    c = random_instance(8, n_objects=3, k=1)
    assert [p.vertices for p in a.polygons] != [p.vertices for p in c.polygons]


def test_generator_shape():
    inst = random_instance(3, n_objects=4, k=2)
    assert sum(1 for p in inst.polygons if p.kind == "required") == 2
    assert all(p.penalty >= 0 for p in inst.optional)
    assert inst.validated


def test_generator_rejects_bad_k():
    # A negative k once slipped through: indices[:-1] made every object
    # but one required.
    for n_objects, k in ((2, 3), (4, -1), (0, -1), (-1, 0), (-1, -2)):
        with pytest.raises(GenerationFailure):
            random_instance(1, n_objects=n_objects, k=k)


def test_generator_failure_when_grid_too_small():
    with pytest.raises(GenerationFailure):
        random_instance(1, n_objects=12, k=1, grid=6, retries=50)


def test_oracle_agrees_with_solver_on_small_instances():
    checked = 0
    seed = 0
    while checked < 6:
        seed += 1
        try:
            inst = random_instance(seed, n_objects=2, k=1, grid=12, max_side=2)
        except GenerationFailure:
            continue
        fsg = compute_free_space_edges(inst)
        if fsg.n > 10:
            continue
        cost, walk = solve_dijkstra(fsg)
        res = brute_force(inst, fsg)
        assert rel_close(cost, res.best_cost), (seed, cost, res.best_cost)
        checked += 1


def test_oracle_invert_point_walk_candidate():
    inst, fsg = _fsg({"polygons": [opt("B", square(0, 0, 1), 2)],
                      "mode": "invert"})
    res = brute_force(inst, fsg)
    # Paying the penalty (2) beats the perimeter (4).
    assert res.best_cost == pytest.approx(2.0)
    assert len(res.best_walk.points) == 1
