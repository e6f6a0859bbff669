"""Independent solution checking: weak-simplicity conditions, feasibility,
and cost evaluation straight from the definition (edge weights plus
winding-number-weighted penalties).

The weak-simplicity check certifies four necessary conditions that are
jointly sufficient for walks produced by the uncrossing pipeline:
no proper edge crossings, atom multiplicity at most 2, exact face winding
numbers in {0, 1}, and a non-crossing transition pairing at every vertex.
Adversarial walks may be over-rejected, never over-accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from .errors import FreeSpaceViolation
from .freespace import segment_in_free_space
from .geometry import Point, angular_key, ray_crossing, signed_area2
from .instance import Instance
from .uncrossing import PlaneMultigraph, _clean_points, subdivide_walk
from .walks import Walk, reference_windings, winding_rule


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
            "closed": True,
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


def check_weak_simplicity(walk: Walk) -> bool:
    """Necessary conditions for a closed walk to be perturbable into a
    simple polygon; see the module docstring.  A clockwise walk (negative
    signed area, as the inverted solver returns) is weakly simple exactly
    when its reversal is, so it is judged by its reversal."""
    return all(ok for name, ok in _weak_simplicity_conditions(walk).items()
               if name != "face_windings")


def _weak_simplicity_conditions(walk: Walk) -> dict:
    """The conditions `check_weak_simplicity` joins, each read on its own:
    {} for a walk of at most two points, else "crossings" (no proper
    crossing) and, when that holds, "multiplicity" (no atom traversed more
    than twice), "winding" (every face winds 0 or 1), "face_windings" (the
    sorted face windings) and "pairing" (non-crossing transitions)."""
    if signed_area2(walk.points) < 0:
        walk = replace(walk, points=tuple(reversed(walk.points)))
    if len(_clean_points(walk)) <= 2:
        return {}
    g, report = subdivide_walk(walk)
    if report.s:
        return {"crossings": False}
    windings = _face_windings(g)
    return {"crossings": True,
            "multiplicity": all(m <= 2 for m in g.multiplicity.values()),
            "winding": windings <= {0, 1}, "face_windings": sorted(windings),
            "pairing": _transitions_non_crossing(g.traversal)}


def _face_windings(g: PlaneMultigraph) -> Set[int]:
    """Exact winding numbers of the faces of a subdivided closed walk with
    no proper crossing (`g` as `subdivide_walk` returns it).

    The +x ray from the midpoint M of an atom, given homogeneously with
    W = 2 so that it stays integral when the walk is, gives the winding of
    the face on the atom's +x side (above it, when it is horizontal): no
    other atom passes through M, and the atom's own darts count 0 since M
    lies on them.  Every face is on the +x side of some atom, because a
    generic leftward ray from inside it (from right of the walk, for the
    unbounded face) first meets the walk inside a non-horizontal atom."""
    pts = g.traversal
    darts = list(zip(pts, pts[1:] + pts[:1]))
    return {sum(ray_crossing(u, v, (a.x + b.x, a.y + b.y, 2)) for u, v in darts)
            for a, b in g.multiplicity}


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


def evaluate_solution(inst: Instance, walk: Walk,
                      check_simple: bool = True) -> Solution:
    """Re-derive cost and feasibility of a closed walk from first principles."""
    checks: Dict[str, bool] = {}
    for a, b in walk.edges():
        if a != b and not segment_in_free_space(a, b, inst):
            raise FreeSpaceViolation(f"edge {a}-{b} enters a polygon interior")
    checks["free_space"] = True

    if check_simple:
        checks["weakly_simple"] = check_weak_simplicity(walk)

    windings = reference_windings(inst, walk.points)
    cost, enclosed, feasible = winding_rule(inst, walk.weight, windings, inst.mode)
    checks["feasible"] = feasible
    return Solution(walk, cost, enclosed, feasible, inst.mode, checks)
