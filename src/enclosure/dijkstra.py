"""Label-setting solver: budget-free fixed point of the enclosure recursion.

Dropping the edge-budget index from the dynamic program leaves a system of
equations over states C(p, B) and M(pq, B) whose right-hand sides are
superior functions of their arguments: every combination rule adds a
strictly positive edge weight or a strictly positive partial value plus
nonnegative penalties, so a derived label is always strictly larger than at
least one operand and never smaller than any.  Under that condition the
generalized Dijkstra scheme applies: repeatedly finalize the globally
cheapest tentative label; at that moment its value is optimal.  The search
stops as soon as a closed-walk label covering all required objects is
finalized — every label still in the queue is at least as expensive.

Asymptotically this needs O(4^k n^3) time and O(2^k n^2) space for n
vertices and k required objects, against the budgeted program's extra factor
of n: the partner scans of `relax` try every pair of masks, where the
paper's O(3^k n^3) enumerates submasks (ROADMAP item 1(b)).  In practice it
settles only labels cheaper than the optimum, and the queue drops pushes
that cannot beat their state's pending label or the cheapest complete walk.
`relax` now asks the queue's pending map before the M2 join itself: for a
full-mask label, an apex group whose one target state is settled or
pending at no more than the group's lower bound is skipped before its
triangle content is looked up, and any join that cannot beat its target's
pending label is skipped before its push is built.

With the closing rule C1 switched off the same search computes the inverted
solver's mouths.  The queue (`label_setting`: first settled label per state
wins, stop at the first settled closed label covering every required
object), the rules (`relax`, over the settled-label index `Settled`), the
rule ranks, the label type, the precondition check, the trivial answer and
the walk rebuild come from `recursion.py`; this module only builds the
index and expands each settled label by `relax`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .freespace import FreeSpaceGraph
from .recursion import (
    INF,
    Settled,
    check_solvable,
    closed_walk,
    label_setting,
    relax,
    trivial_answer,
)
from .walks import Walk


def _search(fsg: FreeSpaceGraph, early_stop: bool, closures: bool,
            stats: Optional[dict] = None):
    """Run the label-setting search from the point walks C(p, {}) = 0.

    Returns (answer, fin, settled): the first finalized closed-walk label
    covering every required object (None if the queue drains first); the
    finalized labels by state, (p, mask) for C and (p, q, mask) for M; and
    the same labels as a `Settled` index.  With early_stop=False the whole
    fixed point is computed.  With closures=False rule C1 is off: the only
    closed walks are point walks, and the M labels are the mouths.
    """
    settled = Settled(fsg.n)

    def expand(label, push, bound, pending):
        settled.add(label)
        relax(fsg, label, settled, push, closures, bound, pending)

    seeds = [("C", (p,), 0, 0.0, 0, "base", ()) for p in range(fsg.n)]
    answer, fin = label_setting(seeds, expand, fsg.full_mask, early_stop, stats)
    return answer, fin, settled


def solve_dijkstra(fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    check_solvable(fsg)
    trivial = trivial_answer(fsg)
    if trivial is not None:
        return trivial
    answer, _fin, _settled = _search(fsg, early_stop=True, closures=True,
                                     stats=stats)
    if answer is None:
        return INF, None
    return answer.value, closed_walk(fsg, answer)


def compute_all_labels(fsg: FreeSpaceGraph):
    """Finalize the entire fixed point; returns (fin_C, fin_M) keyed by
    (p, mask) and (p, q, mask)."""
    check_solvable(fsg)
    _answer, fin, _settled = _search(fsg, early_stop=False, closures=True)
    return ({s: lab for s, lab in fin.items() if lab.kind == "C"},
            {s: lab for s, lab in fin.items() if lab.kind == "M"})
