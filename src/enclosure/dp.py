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
    n = fsg.n
    check_solvable(fsg)
    if t_max is None:
        t_max = 6 * n
    tables = DPTables(fsg, t_max)
    stairs = tables.stairs
    settled = Settled(n)
    buckets: List[list] = [[] for _ in range(t_max + 1)]
    seq = 0

    def push(kind, key, mask, value, t, rule, ops):
        nonlocal seq
        if t > t_max or value == INF:
            return
        stair = stairs.get(key + (mask,))
        if stair and stair[-1].value <= value:
            return
        buckets[t].append((value, RANK[rule], kind, key, mask, seq, rule, ops))
        seq += 1

    for p in range(n):
        push("C", (p,), 0, 0.0, 0, "base", ())

    for t in range(t_max + 1):
        # Entries order by (value, rank, kind, key, mask, seq); seq is unique.
        for value, _rank, kind, key, mask, _seq, rule, ops in sorted(buckets[t]):
            stair = stairs.setdefault(key + (mask,), [])
            if stair and stair[-1].value <= value:
                continue
            label = Label(kind, key, mask, value, rule, ops, t)
            stair.append(label)
            settled.add(label)
            relax(fsg, label, settled, push)
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


def solve_dp(fsg: FreeSpaceGraph) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    trivial = trivial_answer(fsg)
    if trivial is not None:
        check_solvable(fsg)  # compute_dp_tables runs it otherwise
        return trivial
    full = fsg.full_mask
    tables = compute_dp_tables(fsg)
    best, best_bp = INF, None
    for p in range(fsg.n):
        v, bp = tables.best(p, full)
        if v < best:
            best, best_bp = v, bp
    if best_bp is None:
        return INF, None
    return best, closed_walk(fsg, best_bp)
