"""Label-setting solver: budget-free fixed point of the enclosure recursion.

Dropping the edge-budget index from the dynamic program leaves a system of
equations over states C(p, B) and M(pq, B) whose right-hand sides are
superior functions of their arguments: every combination rule adds a
strictly positive edge weight or a strictly positive partial value plus
nonnegative penalties, so a derived label is always strictly larger than at
least one operand and never smaller than any.  Under that condition the
generalized Dijkstra scheme applies, also with a consistent future cost h
(A*): repeatedly finalize the tentative label of least f = value + h; at
that moment its value is optimal.  The search stops as soon as a
closed-walk label covering all required objects is finalized — its h is 0,
and every label still in the queue has f at least its value.

Asymptotically this needs O(4^k n^3) time and O(2^k n^2) space for n
vertices and k required objects, against the budgeted program's extra factor
of n: the partner scans of `relax` try every pair of masks, where the
paper's O(3^k n^3) enumerates submasks (the ROADMAP item on cheaper
partner reads).

The future cost h, the incumbent the bound starts at, the queue, the rules
and the walk rebuild are those of `recursion.py` (see its module
docstring); this module only builds the settled-label index and expands
each settled label by `relax`.  `_search` builds h itself, as the DP's
fill does, and takes its incumbent from `early_stop`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .freespace import FreeSpaceGraph
from .recursion import (
    INF,
    FutureCost,
    Settled,
    check_solvable,
    closed_walk,
    hull_bound,
    label_setting,
    relax,
)
from .walks import Walk


def _search(fsg: FreeSpaceGraph, early_stop: bool,
            stats: Optional[dict] = None):
    """Run the label-setting search from the point walks C(p, {}) = 0.

    Returns (answer, settled): the first finalized closed-walk label
    covering every required object (None if the queue drains first), and
    the expanded labels as a `Settled` index, each list in value order; an
    early-stopped search does not expand its answer.  With early_stop=False
    the whole fixed point is computed.  An early-stopped search charges
    every required reference in its `FutureCost` and starts its bound at
    `hull_bound`; the full fixed point runs unbounded with h = 0.
    """
    h = FutureCost(fsg, fsg.h_scale if early_stop else 0.0, fsg.full_mask)
    bound = hull_bound(fsg) if early_stop else INF
    settled = Settled(fsg.n)

    def expand(label, push, bound, pending):
        settled.add_by_value(label)
        relax(fsg, label, settled, push, True, bound, pending, h)

    seeds = [("C", (p,), 0, 0.0, 0, "base", ()) for p in range(fsg.n)]
    return label_setting(fsg, seeds, expand, h, bound, early_stop,
                         stats), settled


def solve_dijkstra(fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    check_solvable(fsg)
    if fsg.n == 0:
        return 0.0, Walk((), 0.0)
    answer, _settled = _search(fsg, True, stats)
    if answer is None:
        return INF, None
    return answer.value, closed_walk(fsg, answer)
