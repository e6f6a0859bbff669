"""Reference solver: budgeted dynamic program over free-space edges.

State: for every vertex p, edge budget t and subset B of required objects,
C(p, t, B) is the cheapest closed walk through p with at most t edges whose
interior triangulation covers exactly the required set B; M(pq, t, B) is the
analogous open-walk ("mouth") value for walks from p to q whose region
together with the chord qp covers B.  The rules C base, C1, C2, M1 and M2
are those of `recursion.py`, each adding the edge budgets it combines (plus
one per new edge).  The answer is min over p of C(p, 6n, all-required):
cheapest uncrossed solutions use at most 6n free-space edge traversals.

Tables are stored as staircases: per (state, B) a list of labels with
strictly increasing edge count t and strictly decreasing value, filled in a
single pass over a bucket queue ordered by t.  Only improvements are
stored, which keeps the tables sparse; combination rules always produce
strictly larger budgets, so each bucket is complete when it is processed.
A bucket holds one entry per state: a later push replaces the entry only
with a strictly smaller (value, rank), so the earliest push wins ties.  The
bucket is processed in (value, rank, kind, key, mask) order; the entries
this drops would have come after the kept one and failed its staircase
test, so the stored labels and their order are those of keeping every
push.

`compute_dp_tables` fills every staircase up to t_max.  `solve_dp` fills
only what the answer can use: it keeps `bound`, the value of the cheapest
full-mask C label pushed so far, and drops every push whose
f = value + h exceeds it (strictly: an equal f is kept, since ties
decide the walk), and skips every bucket entry whose f exceeds it, as the
bound may have fallen since the entry was pushed.  h is the label-setting
search's future cost (`recursion.FutureCost`): c·|pq| for M(p, q), 0 for a
closed label; it is looked up only once the bound is finite.  The bucket
is sorted by value, not f, so a scan stops at the first entry whose value
exceeds the bound and skips the others whose f does.  The bound's label
ends at or below `bound`, so the
answer costs at most `bound`.  This is exact:

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
  * so `solve_dp` returns the same answer label as the full fill, hence
    the same cost and walk.

The rules themselves (`relax`, over the settled-label index `Settled`,
which holds every stored label), the rule ranks, the label type with its
edge count t, the precondition check, the trivial answer and the walk rebuild
come from `recursion.py`; this module keeps only the bucket queue and its
acceptance test (a label is stored only if it improves its staircase).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .freespace import FreeSpaceGraph
from .recursion import (
    INF,
    RANK,
    FutureCost,
    Label,
    Settled,
    check_solvable,
    closed_walk,
    relax,
    trivial_answer,
)
from .walks import Walk


class DPTables:
    """Sparse budget-indexed tables C(p, t, B) and M(pq, t, B): one
    staircase of labels per state, keyed (p, B) and (p, q, B)."""

    def __init__(self, fsg: FreeSpaceGraph, t_max: int):
        self.fsg = fsg
        self.t_max = t_max
        self.stairs: Dict[Tuple[int, ...], List[Label]] = {}

    def value_C(self, p: int, t: int, mask: int) -> float:
        if mask == 0:
            return 0.0 if t >= 0 else INF
        return _stair_value(self.stairs.get((p, mask), []), t)

    def value_M(self, p: int, q: int, t: int, mask: int) -> float:
        return _stair_value(self.stairs.get((p, q, mask), []), t)

    def best(self, p: int, mask: int) -> Tuple[float, Optional[Label]]:
        if mask == 0:
            return 0.0, Label("C", (p,), 0, 0.0, "base")
        stair = self.stairs.get((p, mask))
        if not stair:
            return INF, None
        return stair[-1].value, stair[-1]


def _stair_value(stair: List[Label], t: int) -> float:
    """Cheapest value at budget <= t (staircases are non-increasing in t)."""
    i = bisect_right(stair, t, key=attrgetter("t"))
    return stair[i - 1].value if i else INF


def compute_dp_tables(fsg: FreeSpaceGraph, t_max: Optional[int] = None) -> DPTables:
    """Fill the staircase tables by increasing edge budget."""
    return _fill(fsg, t_max, bounded=False)


def _fill(fsg: FreeSpaceGraph, t_max: Optional[int], bounded: bool,
          stats: Optional[dict] = None) -> DPTables:
    """The bucket loop.  With `bounded`, pushes and entries whose
    f = value + h exceeds the cheapest full-mask C label pushed so far are
    dropped (module docstring); else every staircase is filled.  `stats`
    gets "pushed" (entries that reached a bucket) and "finalized" (labels
    stored)."""
    n, full = fsg.n, fsg.full_mask
    check_solvable(fsg)
    if t_max is None:
        t_max = 6 * n
    tables = DPTables(fsg, t_max)
    stairs = tables.stairs
    settled = Settled(n)
    buckets: List[Optional[dict]] = [{} for _ in range(t_max + 1)]
    pushed = 0
    bound = INF
    h = FutureCost(fsg, fsg.h_scale)

    def push(kind, key, mask, value, t, rule, ops):
        nonlocal pushed, bound
        if t > t_max or value == INF or value > bound or kind == "M" and \
                bound < INF and value + h[key[0]][key[1]] > bound:
            return
        state = key + (mask,)
        stair = stairs.get(state)
        if stair and stair[-1].value <= value:
            return
        bucket, rank = buckets[t], RANK[rule]
        old = bucket.get(state)
        if old is not None and old[:2] <= (value, rank):
            return
        bucket[state] = (value, rank, kind, key, mask, rule, ops)
        pushed += 1
        if bounded and kind == "C" and mask == full:
            bound = value

    for p in range(n):
        push("C", (p,), 0, 0.0, 0, "base", ())

    for t in range(t_max + 1):
        # One entry per state: (value, rank, kind, key, mask) never ties.
        entries = sorted(buckets[t].values())
        buckets[t] = None
        for value, _rank, kind, key, mask, rule, ops in entries:
            if value > bound:
                break  # the rest are dearer still
            if kind == "M" and bound < INF and \
                    value + h[key[0]][key[1]] > bound:
                continue  # its f is over the bound
            stair = stairs.setdefault(key + (mask,), [])
            if stair and stair[-1].value <= value:
                continue
            label = Label(kind, key, mask, value, rule, ops, t)
            stair.append(label)
            settled.add(label)
            relax(fsg, label, settled, push)
    if stats is not None:
        stats["pushed"] = pushed
        stats["finalized"] = sum(map(len, stairs.values()))
    return tables


def dp_cell_C(tables: DPTables, p: int, t: int, mask: int) -> float:
    """Direct evaluation of the C recursion from the stored tables.

    Used to cross-check the staircase fill: must agree with value_C."""
    fsg = tables.fsg
    if mask == 0:
        return 0.0 if t >= 0 else INF
    if t <= 1:
        return INF
    best = INF
    for q, w in fsg.adjacency[p]:
        best = min(best, w + tables.value_M(q, p, t - 1, mask))
    sub = (mask - 1) & mask
    while sub:
        rest = mask ^ sub
        if rest:
            for t1 in range(t + 1):
                v1 = tables.value_C(p, t1, sub)
                if v1 == INF:
                    continue
                best = min(best, v1 + tables.value_C(p, t - t1, rest))
        sub = (sub - 1) & mask
    return best


def dp_cell_M(tables: DPTables, p: int, q: int, t: int, mask: int) -> float:
    """Direct evaluation of the M recursion from the stored tables."""
    fsg = tables.fsg
    if t < 1:
        return INF
    best = INF
    if fsg.has_edge(p, q):
        v = tables.value_C(p, t - 1, mask)
        if v < INF:
            best = fsg.weight(p, q) + v
    for r in range(fsg.n):
        if not fsg.is_ccw(p, r, q):
            continue
        cmask, cpen = fsg.triangle_content(p, r, q)
        if (cmask & mask) != cmask or cpen == INF:
            continue
        rest = mask ^ cmask
        sub = rest
        while True:
            for t1 in range(1, t):
                v1 = tables.value_M(p, r, t1, sub)
                if v1 == INF:
                    continue
                v2 = tables.value_M(r, q, t - t1, rest ^ sub)
                if v2 < INF:
                    best = min(best, v1 + v2 + cpen)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return best


def solve_dp(fsg: FreeSpaceGraph,
             stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible).

    Only labels whose value plus future cost is no more than the cheapest
    complete walk are filled; with a `stats` dict, its "pushed" and
    "finalized" count the bucket entries and the stored labels."""
    trivial = trivial_answer(fsg)
    if trivial is not None:
        check_solvable(fsg)  # _fill runs it otherwise
        return trivial
    full = fsg.full_mask
    tables = _fill(fsg, None, bounded=True, stats=stats)
    best, best_bp = INF, None
    for p in range(fsg.n):
        v, bp = tables.best(p, full)
        if v < best:
            best, best_bp = v, bp
    if best_bp is None:
        return INF, None
    return best, closed_walk(fsg, best_bp)
