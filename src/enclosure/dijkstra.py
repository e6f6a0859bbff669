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
paper's O(3^k n^3) enumerates submasks (ROADMAP item 4).  In practice it
settles only labels whose f = value + h is below the optimum, in A* order
by a future cost that charges what the walk still has to enclose: with c
the least weight/length ratio of the free-space edges, shaved by
1 - 1e-9, an open label M(p, q, B) gets h = c·max(|pq|, max over the
required reference points r not in B of |pr| + |rq|), and a closed label
C(p, B) gets h = 2c·max over r not in B of |pr| (0 when B is full).  h is
consistent, so labels still settle at their optimal values; the proof,
its float margin, the partner scans' cutoffs under it and the tie order
(f, value, rank, kind, key, mask) are in `recursion.py`.  A label is not
queued if it cannot beat its state's pending label or if its f exceeds
the cheapest complete walk known: from the start, the convex-hull walk of
the required objects (`recursion.hull_bound`), where it is feasible, and
then each cheaper complete walk pushed.  That walk's cost is at least the
optimum, so the search settles the same labels as without it and pushes
fewer; a search seeded with it that settles no answer raises
InternalError.  `relax` asks the pending map before every push, and for a
full-mask label it skips an apex group whose one target state is settled
or pending at no more than the group's lower bound before the triangle
content is computed from the chord masks.

The inverted solver settles its mouths by the same rules with the closing
rule C1 switched off, in its own queue bounded by its own answer
(`inverted.py`).  The queue (`label_setting`: first settled label per
state wins, stop at the first settled closed label covering every required
object), the rules (`relax`, over the settled-label index `Settled`), the
rule ranks, the label type, the precondition check, the trivial answer,
the incumbent and the walk rebuild come from `recursion.py`; this module
only builds the index and expands each settled label by `relax`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .freespace import FreeSpaceGraph
from .recursion import (
    INF,
    EnclosureCost,
    Settled,
    check_solvable,
    closed_walk,
    hull_bound,
    label_setting,
    relax,
    trivial_answer,
)
from .walks import Walk


def _search(fsg: FreeSpaceGraph, early_stop: bool,
            stats: Optional[dict] = None):
    """Run the label-setting search from the point walks C(p, {}) = 0.

    Returns (answer, settled): the first finalized closed-walk label
    covering every required object (None if the queue drains first), and
    the expanded labels as a `Settled` index, each list in value order; an
    early-stopped search does not expand its answer.  With early_stop=False
    the whole fixed point is computed.  The future cost is `EnclosureCost`,
    and an early-stopped search starts its bound at `hull_bound`, the cost
    of the required objects' convex-hull walk: it settles the same labels
    and pushes fewer.
    """
    settled = Settled(fsg.n)

    def expand(label, push, bound, pending, h):
        settled.add_by_value(label)
        relax(fsg, label, settled, push, True, bound, pending, h)

    seeds = [("C", (p,), 0, 0.0, 0, "base", ()) for p in range(fsg.n)]
    answer = label_setting(fsg, seeds, expand, early_stop, stats,
                           EnclosureCost,
                           bound=hull_bound(fsg) if early_stop else INF)
    return answer, settled


def solve_dijkstra(fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    check_solvable(fsg)
    trivial = trivial_answer(fsg)
    if trivial is not None:
        return trivial
    answer, _settled = _search(fsg, early_stop=True, stats=stats)
    if answer is None:
        return INF, None
    return answer.value, closed_walk(fsg, answer)

