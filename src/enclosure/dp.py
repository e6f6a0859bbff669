"""Reference solver: budgeted dynamic program over free-space edges.

State: for every vertex p, edge budget t and subset B of required objects,
C(p, t, B) is the cheapest closed walk through p with at most t edges whose
interior triangulation covers exactly the required set B; M(pq, t, B) is the
analogous open-walk ("mouth") value for walks from p to q whose region
together with the chord qp covers B.  The rules C base, C1, C2, M1 and M2
are those of `recursion.py`, each adding the edge budgets it combines (plus
one per new edge).  The answer is min over p of C(p, 6n, all-required):
cheapest uncrossed solutions use at most 6n free-space edge traversals.

The stored labels of one (state, B) form a staircase, with strictly
increasing edge count t and strictly decreasing value, filled in a single
pass over a bucket queue ordered by t.  Only improvements are stored,
which keeps the tables sparse; combination rules always produce strictly
larger budgets, so each bucket is complete when it is processed.  The
fill reads only the last label of each state, through the pending map it
hands `relax`: each state's code (`recursion.py`) maps to that label's
value, so `relax` derives a label only if it is cheaper.  `Settled`
holds every stored label, each group in value order for the cutoffs of
`relax`; that order never decides which push wins a bucket, as the pushes
of one `relax` call to one state carry different edge counts.  A bucket
holds one entry per state: a later push replaces the entry only if it is
strictly cheaper, so the earliest push wins ties, the tie rule of
`recursion.py`.  The bucket is processed in (value, state code) order,
which is (value, kind, key, mask) order; the entries this drops would
have come after the kept one and failed its staircase test, so the stored
labels and their order are those of keeping every push.

The fill is bounded: it fills only what the answer can use.  It keeps
`bound`, the cost of the cheapest walk known so far, and drops every push
whose f = value + h exceeds it (strictly: an equal f is kept, since ties
decide the walk), and skips every bucket entry whose f exceeds it, as the
bound may have fallen since the entry was pushed.  h and the incumbent
`bound` starts at are the search's, `recursion.FutureCost` with every
required reference charged and `recursion.hull_bound` (The future cost
and The incumbent in the `recursion.py` module docstring): the fill
builds h, and `solve_dp` hands it the incumbent; h is looked up only
once the bound is finite.  The bucket is sorted by value, not f, so a
scan stops at the first entry whose value exceeds the bound and skips
the others whose f does.  Every value `bound` takes is the cost of a
walk that the fill derives at no more than that value, so the answer
costs at most `bound`; a seeded fill that stores no answer has broken
that, and raises InternalError.  This is exact for any starting bound no
less than the answer:

  * `check_solvable` makes every rule derive a value at least as large as
    each operand, and h is consistent (`recursion.py`): no rule derives a
    label whose f is below an operand's, with a margin far above float
    rounding.  So every label in the answer's derivation has f at most
    the answer's f, its value (h = 0), which is at most `bound`;
  * labels with f <= answer are never dropped, and their staircase tests
    and processing order come out the same: a label is rejected or
    displaced only by one of the same state, which shares its h, so a
    dropped label (f > answer) can neither reject nor displace one of
    them, and every label derived from it has f > answer too;
  * so the fill returns the same answer label as one that keeps every
    staircase up to t = 6n, hence the same cost and walk.  The tests
    keep that full fill as their reference.

The rules themselves (`relax`, over `Settled`), the label type with its
edge count t, the precondition check, the future cost, the
incumbent and the walk rebuild come from `recursion.py`; this module keeps
only the bucket queue, its bound and its pending map (a label is stored
only if it is cheaper than its state's last stored label).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import InternalError
from .freespace import FreeSpaceGraph
from .recursion import (
    INF,
    FutureCost,
    Label,
    Settled,
    check_solvable,
    closed_walk,
    hull_bound,
    relax,
)
from .walks import Walk


def _fill(fsg: FreeSpaceGraph, bound: float,
          stats: Optional[dict] = None) -> Tuple[Optional[Label], Settled]:
    """The bucket loop, up to t = 6n: pushes and entries whose
    f = value + h exceeds `bound` are dropped (module docstring).  `bound`
    starts at the cost of a feasible walk (`solve_dp` passes `hull_bound`),
    or INF, and falls to each cheaper full-mask C label pushed.  Returns
    (answer, settled): the cheapest full-mask C label stored, at the least
    vertex among equal values (None if there is none), and every stored
    label, each group of the index in value order.  A state's last stored
    label is its cheapest, so the answer is read from the first full-mask
    label of each vertex's closed group.  `stats` gets "pushed" (entries
    that reached a bucket) and "finalized" (labels stored)."""
    n, k, full = fsg.n, fsg._k, fsg.full_mask
    h = FutureCost(fsg, fsg.h_scale, full)
    t_max = 6 * n
    pending: Dict[int, float] = {}
    settled = Settled(n)
    buckets: List[Optional[dict]] = [{} for _ in range(t_max + 1)]
    pushed = stored = 0
    incumbent = bound

    def push(kind, key, mask, value, t, rule, ops):
        nonlocal pushed, bound
        if t > t_max or value == INF or value > bound or \
                bound < INF and value + h(key[0], key[-1], mask) > bound:
            return
        code = (key[0] if kind == "C" else n + key[0] * n + key[1]) << k | mask
        bucket = buckets[t]
        old = bucket.get(code)
        if old is not None and old[0] <= value:
            return
        bucket[code] = (value, code, kind, key, mask, rule, ops)
        pushed += 1
        if kind == "C" and mask == full:
            bound = value

    for p in range(n):
        push("C", (p,), 0, 0.0, 0, "base", ())

    for t in range(t_max + 1):
        # One entry per state: (value, code) never ties.
        entries = sorted(buckets[t].values())
        buckets[t] = None
        for value, code, kind, key, mask, rule, ops in entries:
            if value > bound:
                break  # the rest are dearer still
            if bound < INF and value + h(key[0], key[-1], mask) > bound:
                continue  # its f is over the bound
            if pending.get(code, INF) <= value:
                continue  # a label stored since the push is as cheap
            label = Label(kind, key, mask, value, rule, ops, t)
            pending[code] = value
            stored += 1
            settled.add_by_value(label)
            relax(fsg, label, settled, push, True, bound, pending, h)
    if stats is not None:
        stats["pushed"] = pushed
        stats["finalized"] = stored
    answer = None
    for group in settled.closed:
        first = next((label for label in group if label.mask == full), None)
        if first is not None and (answer is None or first.value < answer.value):
            answer = first
    if answer is None and incumbent < INF:
        raise InternalError(
            f"no answer filled below the incumbent walk's cost {incumbent!r}")
    return answer, settled


def solve_dp(fsg: FreeSpaceGraph,
             stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible).

    Only labels whose value plus future cost is no more than the cheapest
    complete walk known, from the convex-hull walk on, are filled; with a
    `stats` dict, its "pushed" and "finalized" count the bucket entries and
    the stored labels."""
    check_solvable(fsg)
    if fsg.n == 0:
        return 0.0, Walk((), 0.0)
    answer, _settled = _fill(fsg, hull_bound(fsg), stats)
    if answer is None:
        return INF, None
    return answer.value, closed_walk(fsg, answer)
