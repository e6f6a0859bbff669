"""Independent solution checking: weak-simplicity conditions, feasibility,
and cost evaluation straight from the definition (edge weights plus
winding-number-weighted penalties).

The weak-simplicity check certifies four necessary conditions that are
jointly sufficient for walks produced by the uncrossing pipeline:
no proper edge crossings, atom multiplicity at most 2, sampled winding
numbers in {0, 1}, and a non-crossing transition pairing at every vertex.
Adversarial walks may be over-rejected, never over-accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import FreeSpaceViolation, OnBoundary, ReferenceOnWalk
from .freespace import segment_in_free_space
from .geometry import (
    Point,
    Segment,
    angular_key,
    distance,
    signed_area2,
    winding_number,
)
from .instance import Instance
from .uncrossing import _clean_points, subdivide_walk
from .walks import Walk

INF = math.inf


@dataclass
class Solution:
    polygon: Walk
    cost: float
    enclosed_optional: List[str]
    feasible: bool
    mode: str
    checks: Dict[str, bool] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "cost": _fmt_cost(self.cost),
            "walk": [[_num(p.x), _num(p.y)] for p in self.polygon.points],
            "closed": self.polygon.closed,
            "weight": _fmt_cost(self.polygon.weight),
            "enclosed_optional": list(self.enclosed_optional),
            "feasible": self.feasible,
            "mode": self.mode,
            "checks": dict(self.checks),
        }


def _num(x):
    return float(x) if isinstance(x, Fraction) else x


def _fmt_cost(x: float):
    """Costs serialize as 12-significant-digit floats; infinity as "inf"."""
    if math.isinf(x):
        return "inf"
    return float(f"{x:.12g}")


def _point_seg_dist(x: Point, s: Segment) -> float:
    ax, ay = float(s.a.x), float(s.a.y)
    bx, by = float(s.b.x), float(s.b.y)
    px, py = float(x.x), float(x.y)
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    t = 0.0 if den == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / den))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _side_samples(walk_pts: List[Point], all_edges: List[Segment]) -> List[Point]:
    """One sample point on each side of each edge's midpoint, pushed off by
    less than half the distance to the nearest other edge so the sample
    lands in a face adjacent to the edge."""
    samples: List[Point] = []
    for seg in all_edges:
        a, b = seg
        mid = Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
        d = min((_point_seg_dist(mid, s2) for s2 in all_edges if s2 is not seg),
                default=1.0)
        if d <= 0:
            d = 1e-9
        length = distance(a, b)
        if length == 0:
            continue
        # Unit normal scaled to a small exact rational offset.
        eps = Fraction(max(min(d, length) / 4, 1e-12)).limit_denominator(10 ** 9)
        nx = Fraction(-(b.y - a.y)) / Fraction(length).limit_denominator(10 ** 9)
        ny = Fraction(b.x - a.x) / Fraction(length).limit_denominator(10 ** 9)
        for sign in (1, -1):
            candidate = Point(mid.x + sign * eps * nx, mid.y + sign * eps * ny)
            tries = 0
            while tries < 60:
                try:
                    winding_number(walk_pts, candidate)
                    break
                except OnBoundary:
                    eps2 = eps / (2 ** (tries + 1))
                    candidate = Point(mid.x + sign * eps2 * nx,
                                      mid.y + sign * eps2 * ny)
                    tries += 1
            else:
                continue
            samples.append(candidate)
    return samples


def check_weak_simplicity(walk: Walk, diagnostics: Optional[dict] = None) -> bool:
    """Necessary conditions for a closed walk to be perturbable into a
    simple polygon; see the module docstring.  A clockwise walk (negative
    signed area, as the inverted solver returns) is weakly simple exactly
    when its reversal is, so it is judged by its reversal."""
    diag = diagnostics if diagnostics is not None else {}
    if signed_area2(walk.points) < 0:
        walk = replace(walk, points=tuple(reversed(walk.points)))
    pts = _clean_points(walk)
    if len(pts) <= 2:
        diag.update(crossings=True, multiplicity=True, winding=True, pairing=True)
        return True

    g, report = subdivide_walk(walk)
    ok_cross = report.s == 0
    diag["crossings"] = ok_cross
    if not ok_cross:
        return False

    ok_mult = all(m <= 2 for m in g.multiplicity.values())
    diag["multiplicity"] = ok_mult

    atoms = [Segment(a, b) for a, b in g.multiplicity]
    samples = _side_samples(pts, atoms)
    windings = set()
    for x in samples:
        try:
            windings.add(winding_number(pts, x))
        except OnBoundary:  # pragma: no cover - samples avoid the walk
            continue
    ok_wind = windings <= {0, 1}
    diag["winding"] = ok_wind
    diag["sampled_windings"] = sorted(windings)

    ok_pair = _transitions_non_crossing(g.traversal)
    diag["pairing"] = ok_pair
    return ok_cross and ok_mult and ok_wind and ok_pair


def _transitions_non_crossing(seq: List[Point]) -> bool:
    """The walk's own transition chords at every subdivision vertex must be
    pairwise non-crossing in the rotation order (coincident directions share
    an angular group and never count as crossing).  `seq` is the subdivided
    traversal of the walk (`PlaneMultigraph.traversal`)."""
    n = len(seq)
    # Angular group index of each neighbor direction around each vertex.
    chords: Dict[Point, List[Tuple[Point, Point]]] = {}
    for i in range(n):
        prev_pt = seq[(i - 1) % n]
        next_pt = seq[(i + 1) % n]
        chords.setdefault(seq[i], []).append((prev_pt, next_pt))

    for v, pairs in chords.items():
        dirs = sorted({d for pair in pairs for d in pair}, key=angular_key(v))
        group = {d: gi for gi, d in enumerate(dirs)}
        k = len(dirs)
        labelled = [(group[a], group[b]) for a, b in pairs]
        for i in range(len(labelled)):
            for j in range(i + 1, len(labelled)):
                if _chords_cross(labelled[i], labelled[j], k):
                    return False
    return True


def _chords_cross(c1: Tuple[int, int], c2: Tuple[int, int], k: int) -> bool:
    a, b = c1
    c, d = c2
    if len({a, b, c, d}) < 4:
        return False  # shared angular group: ends can be ordered apart

    def between(x, lo, hi):
        return (lo < x < hi) if lo < hi else (x > lo or x < hi)

    return between(c, a, b) != between(d, a, b)


def evaluate_solution(inst: Instance, walk: Walk, mode: Optional[str] = None,
                      check_simple: bool = True) -> Solution:
    """Re-derive cost and feasibility of a closed walk from first principles."""
    mode = mode or inst.mode
    checks: Dict[str, bool] = {}
    pts = list(walk.points)
    for a, b in walk.edges():
        if a != b and not segment_in_free_space(a, b, inst):
            raise FreeSpaceViolation(f"edge {a}-{b} enters a polygon interior")
    checks["free_space"] = True

    if check_simple:
        checks["weakly_simple"] = check_weak_simplicity(walk)

    windings: Dict[str, int] = {}
    for poly in inst.polygons:
        try:
            windings[poly.id] = winding_number(pts, poly.reference_point) \
                if len(pts) >= 2 else 0
        except OnBoundary as e:
            raise ReferenceOnWalk(
                f"reference point of {poly.id!r} lies on the walk") from e

    cost = walk.weight
    enclosed: List[str] = []
    feasible = True
    if mode == "invert":
        for poly in inst.polygons:
            w = windings[poly.id]
            if poly.kind == "required":
                if w != 0:
                    feasible = False
            else:
                if w == 0:
                    cost += poly.penalty
                else:
                    enclosed.append(poly.id)
    else:
        for poly in inst.polygons:
            w = windings[poly.id]
            if poly.kind == "required":
                if w != 1:
                    feasible = False
            else:
                if w != 0:
                    enclosed.append(poly.id)
                    cost += w * poly.penalty if not math.isinf(poly.penalty) \
                        else INF
    checks["feasible"] = feasible
    return Solution(walk, cost, enclosed, feasible, mode, checks)
