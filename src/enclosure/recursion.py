"""The enclosure recursion's shared pieces, used by all three solvers.

The budgeted DP (`dp.py`), the label-setting search (`dijkstra.py`) and the
inverted solver's mouths (`inverted.py`) evaluate one recursion over closed
walks C(p, B) and open walks ("mouths") M(pq, B):

  * C base:   C(p, {}) = 0 (the point walk);
  * C1:       close an open walk q -> p with the edge pq;
  * C2:       concatenate two closed walks at p over disjoint nonempty sets;
  * M1:       a single free-space edge pq on top of a closed walk at p;
  * M2:       join mouths M(p, r) and M(r, q) through a ccw triangle prq,
              paying the optional penalties inside the triangle and
              claiming the required references inside it.

This module holds what they share: the rule ranks, the label type, the
capacity guard, the answer on instances with nothing required, the M2 join
test, and the rebuild of a walk from a label's provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import CapacityError, InternalError
from .freespace import FreeSpaceGraph
from .instance import MAX_REQUIRED
from .walks import Walk, make_walk

INF = math.inf

# Rank of each rule for deterministic tie-breaking at equal value:
# single-edge extensions win over compositions.
RANK = {"base": 0, "C1": 1, "M1": 1, "C2": 2, "M2": 2}


@dataclass(frozen=True)
class Label:
    """A state value with enough provenance to rebuild the walk.

    ops by rule: base (); C1 (q, M label); C2 (C label, C label);
    M1 (C label,); M2 (r, left M label, right M label)."""
    kind: str             # "C" or "M"
    key: Tuple[int, ...]  # (p,) or (p, q)
    mask: int
    value: float
    rule: str
    ops: Tuple = ()


def check_capacity(fsg: FreeSpaceGraph) -> None:
    """Subset-indexed states need k <= MAX_REQUIRED required objects."""
    k = len(fsg._required_refs)
    if k > MAX_REQUIRED:
        raise CapacityError(f"{k} required objects exceeds the supported {MAX_REQUIRED}")


def trivial_answer(fsg: FreeSpaceGraph) -> Optional[Tuple[float, Walk]]:
    """With no required object the point walk (the empty walk when there is
    no vertex) is optimal at cost 0; None when something is required."""
    if fsg.full_mask:
        return None
    if fsg.n == 0:
        return 0.0, Walk((), True, 0.0)
    return 0.0, make_walk(fsg.instance, [fsg.vertices[0]], closed=True)


def m2_join(fsg: FreeSpaceGraph, p: int, r: int, q: int,
            left_mask: int, right_mask: int) -> Optional[Tuple[int, float]]:
    """(required mask, triangle penalty) of the M2 join of mouths M(p, r)
    and M(r, q) with the given masks, or None when the join is not allowed:
    prq is not strictly ccw, the triangle holds an infinite penalty, or the
    three required sets are not pairwise disjoint."""
    if not fsg.is_ccw(p, r, q):
        return None
    cmask, cpen = fsg.triangle_content(p, r, q)
    if cpen == INF or (cmask & left_mask) or (cmask & right_mask) \
            or (left_mask & right_mask):
        return None
    return left_mask | right_mask | cmask, cpen


def closed_ids(label: Label) -> List[int]:
    """Cyclic vertex-id list of the closed walk a C label stands for."""
    p = label.key[0]
    if label.rule == "base":
        return [p]
    if label.rule == "C1":
        _q, mouth = label.ops
        return [p] + open_ids(mouth)[:-1]
    if label.rule == "C2":
        first, second = label.ops
        return closed_ids(first) + closed_ids(second)
    raise InternalError(f"no closed-walk rule {label.rule!r}")


def open_ids(label: Label) -> List[int]:
    """Explicit vertex-id path of the open walk an M label stands for."""
    p, q = label.key
    if label.rule == "M1":
        (closed_label,) = label.ops
        closed = closed_ids(closed_label)
        return (closed + [closed[0], q]) if len(closed) > 1 else [p, q]
    if label.rule == "M2":
        _r, left, right = label.ops
        return open_ids(left) + open_ids(right)[1:]
    raise InternalError(f"no open-walk rule {label.rule!r}")


def closed_walk(fsg: FreeSpaceGraph, label: Label) -> Walk:
    """The closed walk a C label stands for."""
    pts = [fsg.vertices[i] for i in closed_ids(label)]
    return make_walk(fsg.instance, pts, closed=True)
