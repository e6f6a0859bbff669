import math
import random
from fractions import Fraction

import pytest

from enclosure import (
    Point,
    check_weak_simplicity,
    evaluate_solution,
    make_walk,
    signed_area2,
    uncross,
    winding_cost,
    winding_number,
)
from enclosure.errors import FreeSpaceViolation, ReferenceOnWalk
from enclosure.uncrossing import subdivide_walk
from enclosure.verify import _fmt_cost, _weak_simplicity_conditions
from enclosure.walks import reference_windings
from conftest import (
    EMPTY_INSTANCE, as_point, build, opt, random_closed_walk, req, square)


def _walk(inst, pts):
    return make_walk(inst, [Point(*p) for p in pts])


def test_simple_square_accepted():
    assert check_weak_simplicity(_walk(EMPTY_INSTANCE, [(0, 0), (4, 0), (4, 4), (0, 4)]))


def test_bowtie_rejected():
    walk = _walk(EMPTY_INSTANCE, [(0, 0), (4, 4), (4, 0), (0, 4)])
    assert not check_weak_simplicity(walk)
    assert _weak_simplicity_conditions(walk)["crossings"] is False


def test_crossing_through_an_edge_interior_rejected():
    # The walk runs down through (2, 0), which lies inside its edge
    # (0, 0)-(4, 0): no two edges cross properly, but at that point the
    # transition north -> south crosses the edge's own west -> east pass.
    walk = _walk(EMPTY_INSTANCE, [(0, 0), (4, 0), (2, 2), (2, 0), (2, -2)])
    assert not check_weak_simplicity(walk)
    diag = _weak_simplicity_conditions(walk)
    assert diag["crossings"] is True and diag["multiplicity"] is True
    assert diag["pairing"] is False


def test_digon_accepted():
    assert check_weak_simplicity(_walk(EMPTY_INSTANCE, [(0, 0), (3, 1)]))
    assert check_weak_simplicity(make_walk(EMPTY_INSTANCE, [Point(2, 2)]))


def test_triple_multiplicity_rejected():
    walk = _walk(EMPTY_INSTANCE, [(0, 0), (4, 0), (4, 4), (0, 4)] * 3)
    assert not check_weak_simplicity(walk)
    assert _weak_simplicity_conditions(walk)["multiplicity"] is False


@pytest.mark.parametrize("pts", [
    # The bottom edge walked three times, and a spike walked out and back
    # twice: every face winds 0 or 1 and the transitions pair up without
    # crossing, so the multiplicity condition alone rejects the walk.
    [(0, 0), (4, 0), (0, 0), (4, 0), (4, 4), (0, 4)],
    [(0, 0), (4, 0), (4, 4), (6, 6), (4, 4), (6, 6), (4, 4), (0, 4)],
])
def test_multiplicity_alone_rejects(pts):
    walk = _walk(EMPTY_INSTANCE, pts)
    assert not check_weak_simplicity(walk)
    assert _weak_simplicity_conditions(walk) == {
        "crossings": True, "multiplicity": False, "winding": True,
        "face_windings": [0, 1], "pairing": True}


def test_double_wound_square_rejected():
    walk = _walk(EMPTY_INSTANCE, [(0, 0), (4, 0), (4, 4), (0, 4)] * 2)
    assert not check_weak_simplicity(walk)
    diag = _weak_simplicity_conditions(walk)
    # Atom multiplicity 2 is fine; the interior winding number 2 is not.
    assert diag["multiplicity"] is True
    assert diag["winding"] is False


def test_mixed_orientation_theta_rejected():
    # Two lobes of opposite orientation joined by a doubled corridor: every
    # atom has multiplicity <= 2 and no edges cross, but windings are -1/+1.
    pts = [(0, 0), (0, 2), (1, 2), (1, 0), (3, 0), (6, 0), (6, 3), (3, 3),
           (3, 0), (1, 0)]
    walk = _walk(EMPTY_INSTANCE, pts)
    assert not check_weak_simplicity(walk)
    diag = _weak_simplicity_conditions(walk)
    assert diag["winding"] is False
    assert diag["face_windings"] == [-1, 0, 1]


def test_clockwise_dumbbell_accepted():
    # Both lobes clockwise, joined by a doubled corridor: windings 0/-1, a
    # weakly simple clockwise curve, judged by its counterclockwise reversal.
    pts = [(0, 0), (0, 2), (1, 2), (1, 0), (3, 0), (3, 3), (6, 3), (6, 0),
           (3, 0), (1, 0)]
    walk = _walk(EMPTY_INSTANCE, pts)
    assert check_weak_simplicity(walk)
    assert _weak_simplicity_conditions(walk)["face_windings"] == [0, 1]
    assert check_weak_simplicity(_walk(EMPTY_INSTANCE, pts[::-1]))


def _offset_windings(walk):
    """Windings of an integer walk at M +- (d, 0), or M +- (0, d) for a
    horizontal atom, around the midpoint M of every atom, d = 1/(4G) for the
    walk's coordinate span G.  Another atom's line runs through two grid
    points of that span, so along either axis it is at least 1/(2G) from M,
    or passes through M with the atom itself at least 1/2 away: the offset
    point lies in a face next to the atom.  Oriented as the check orients
    the walk."""
    pts = walk.points if signed_area2(walk.points) >= 0 else walk.points[::-1]
    span = max(max(c) - min(c) for c in zip(*pts))
    d = Fraction(1, 4 * span)
    out = set()
    for a, b in subdivide_walk(walk)[0].multiplicity:
        mx, my = Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2)
        dx, dy = (0, d) if a.y == b.y else (d, 0)
        out.update(winding_number(pts, Point(mx + s * dx, my + s * dy)) for s in (1, -1))
    return out


def _face_windings(walk):
    diag = _weak_simplicity_conditions(walk)
    return set(diag["face_windings"]) if "face_windings" in diag else None


def _scaled_to_integers(walk):
    scale = math.lcm(*(Fraction(c).denominator for p in walk.points for c in p))
    return make_walk(EMPTY_INSTANCE, [Point(int(p.x * scale), int(p.y * scale))
                                      for p in walk.points])


def test_face_windings_match_offset_oracle():
    # Random integer walks with no proper crossing on grids of span 3 to 6;
    # the crossing ones go through `uncross` and are checked, with rational
    # vertices, against the oracle on an integer-scaled copy.
    rng = random.Random(8)
    plain = uncrossed = 0
    for i in range(1200):
        walk = random_closed_walk(rng, n_points=3 + i % 4, grid=3 + (i // 4) % 4)
        windings = _face_windings(walk)
        if windings is not None:
            assert windings == _offset_windings(walk), walk.points
            plain += 1
        elif uncrossed < 150:
            out, _report = uncross(EMPTY_INSTANCE, walk)
            windings = _face_windings(out)
            if windings is not None:
                assert windings == _offset_windings(_scaled_to_integers(out))
                uncrossed += 1
    assert plain > 300 and uncrossed == 150


def test_face_windings_of_an_uncrossed_rational_walk():
    # The edges (0, 0)-(5, 2) and (5, 0)-(1, 3) cross at (75/23, 30/23).
    walk = make_walk(EMPTY_INSTANCE, [Point(0, 0), Point(5, 2), Point(5, 0), Point(1, 3)])
    assert _face_windings(walk) is None
    out, report = uncross(EMPTY_INSTANCE, walk)
    assert report.s == 1
    assert Point(Fraction(75, 23), Fraction(30, 23)) in out.points
    assert _face_windings(out) == {0, 1}
    assert _face_windings(out) == _offset_windings(_scaled_to_integers(out))


def test_evaluate_required_square():
    inst = build({"polygons": [req("A", square(0, 0, 1))]})
    sol = evaluate_solution(inst, _walk(inst, [(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert sol.feasible and sol.cost == pytest.approx(4.0)
    assert sol.enclosed_optional == []
    assert sol.checks["weakly_simple"]


def test_evaluate_with_optional_penalty():
    inst = build({"polygons": [req("A", square(0, 0, 1)),
                               opt("B", square(2, 0, 1), 2.5)]})
    sol = evaluate_solution(inst, _walk(inst, [(0, 0), (3, 0), (3, 1), (0, 1)]))
    assert sol.feasible
    assert sol.cost == pytest.approx(8.0 + 2.5)
    assert sol.enclosed_optional == ["B"]


def test_free_space_violation():
    inst = build({"polygons": [req("A", square(0, 0, 2))]})
    with pytest.raises(FreeSpaceViolation):
        evaluate_solution(inst, _walk(inst, [(-1, -1), (3, 3), (-1, 3)]))


def test_reference_on_walk():
    # No walk through free space meets a reference point, which is strictly
    # interior, so evaluate_solution raises FreeSpaceViolation first; the
    # windings it reads raise ReferenceOnWalk for such a walk.
    inst = build({"polygons": [req("A", square(0, 0, 2))]})
    ref = as_point(inst.polygons[0].reference_point)
    through = [Point(ref.x - 5, ref.y), Point(ref.x + 5, ref.y),
               Point(ref.x, ref.y + 5)]
    with pytest.raises(ReferenceOnWalk):
        reference_windings(inst, through)
    with pytest.raises(FreeSpaceViolation):
        evaluate_solution(inst, make_walk(inst, through), check_simple=False)


def test_infeasible_when_required_missed():
    inst = build({"polygons": [req("A", square(0, 0, 1)),
                               req("B", square(5, 0, 1))]})
    sol = evaluate_solution(inst, _walk(inst, [(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert not sol.feasible


def test_invert_mode_costs():
    inst = build({"polygons": [opt("B", square(0, 0, 4), 12)], "mode": "invert"})
    point = make_walk(inst, [Point(0, 0)])
    sol = evaluate_solution(inst, point)
    assert sol.cost == pytest.approx(12.0) and sol.feasible
    ring = _walk(inst, [(0, 0), (4, 0), (4, 4), (0, 4)])
    sol2 = evaluate_solution(inst, ring)
    assert sol2.cost == pytest.approx(16.0)
    assert sol2.enclosed_optional == ["B"]
    # winding_cost applies the same rule in the instance's mode.
    assert (winding_cost(inst, point), winding_cost(inst, ring)) == (sol.cost, sol2.cost)


def test_invert_required_must_stay_outside():
    inst = build({"polygons": [req("A", square(1, 1, 2))], "mode": "invert"})
    sol = evaluate_solution(inst, _walk(inst, [(1, 1), (3, 1), (3, 3), (1, 3)]))
    assert not sol.feasible
    sol2 = evaluate_solution(inst, make_walk(inst, [Point(1, 1)]))
    assert sol2.feasible and sol2.cost == 0.0


def test_json_dict_and_cost_formatting():
    assert _fmt_cost(math.inf) == "inf"
    assert _fmt_cost(1.0000000000001) == 1.0
    assert _fmt_cost(10.25) == 10.25
    inst = build({"polygons": [req("A", square(0, 0, 1))]})
    sol = evaluate_solution(inst, _walk(inst, [(0, 0), (1, 0), (1, 1), (0, 1)]))
    d = sol.to_json_dict()
    assert d["cost"] == 4.0 and d["feasible"] is True
    assert d["walk"][0] == [0, 0] and len(d["walk"]) == 4
    assert isinstance(d["checks"], dict)
