"""Walks: closed vertex sequences with accumulated weight, and the
winding-number cost measure used to certify solver output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import OnBoundary, ReferenceOnWalk
from .geometry import Point, winding_number
from .instance import Instance


@dataclass(frozen=True)
class Walk:
    points: Tuple[Point, ...]
    weight: float

    @property
    def num_edges(self) -> int:
        return len(self.points) if len(self.points) >= 2 else 0

    def edges(self):
        pts = self.points
        if len(pts) >= 2:
            yield from zip(pts, pts[1:] + pts[:1])


def make_walk(inst: Instance, points: Sequence[Point]) -> Walk:
    pts = tuple(points)
    return Walk(pts, inst.walk_weight(pts))


def reference_windings(inst: Instance, points: Sequence[Point]) -> List[int]:
    """Winding number of the closed walk `points` around each polygon's
    reference point, in polygon order (all 0 for fewer than two points).
    Raises ReferenceOnWalk if a reference point lies on the walk."""
    if len(points) < 2:
        return [0] * len(inst.polygons)
    windings = []
    for poly in inst.polygons:
        try:
            windings.append(winding_number(points, poly.reference_point))
        except OnBoundary as e:
            raise ReferenceOnWalk(
                f"reference point of {poly.id!r} lies on the walk") from e
    return windings


def winding_rule(inst: Instance, weight: float, windings: Sequence[int],
                 mode: str) -> Tuple[float, List[str], bool]:
    """(cost, enclosed optional ids, feasible) of a closed walk of the given
    weight whose reference windings are `windings`, from the definition.

    Enclose mode: every required object has winding 1, and an optional
    object of winding w != 0 costs w times its penalty (an infinite penalty
    costs infinity, whatever w).  Invert mode: every required object has
    winding 0, and an optional object of winding 0 costs its penalty."""
    cost = weight
    enclosed: List[str] = []
    feasible = True
    invert = mode == "invert"
    for poly, w in zip(inst.polygons, windings):
        if poly.kind == "required":
            feasible = feasible and w == (0 if invert else 1)
            continue
        if w != 0:
            enclosed.append(poly.id)
            if not invert:
                cost += math.inf if math.isinf(poly.penalty) else w * poly.penalty
        elif invert:
            cost += poly.penalty
    return cost, enclosed, feasible


def winding_cost(inst: Instance, walk: Walk) -> float:
    """Weight plus winding-number-weighted penalties: the cost
    `winding_rule` gives in the instance's mode.  Raises ReferenceOnWalk if
    any reference point lies exactly on the walk."""
    windings = reference_windings(inst, walk.points)
    return winding_rule(inst, walk.weight, windings, inst.mode)[0]
