"""Reference solver: budgeted dynamic program over free-space edges.

State: for every vertex p, edge budget t and subset B of required objects,
C(p, t, B) is the cheapest closed walk through p with at most t edges whose
interior triangulation covers exactly the required set B; M(pq, t, B) is the
analogous open-walk ("mouth") value for walks from p to q whose region
together with the chord qp covers B.  The rules C base, C1, C2, M1 and M2
are those of `recursion.py`, each adding the edge budgets it combines (plus
one per new edge).  The answer is min over p of C(p, 6n, all-required):
cheapest uncrossed solutions use at most 6n free-space edge traversals.

Tables are stored as staircases: per (state, B) a list of breakpoints
(t, value) with strictly increasing t and strictly decreasing value, filled
in a single pass over a bucket queue ordered by t.  Only improvements are
stored, which keeps the tables sparse; combination rules always produce
strictly larger budgets, so each bucket is complete when it is processed.

The rule ranks, the label type, the capacity guard, the trivial answer,
the M2 join test and the walk rebuild come from `recursion.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .freespace import FreeSpaceGraph
from .recursion import (
    INF,
    RANK,
    Label,
    check_capacity,
    closed_walk,
    m2_join,
    trivial_answer,
)
from .walks import Walk


@dataclass(frozen=True)
class Breakpoint(Label):
    """One staircase corner: cheapest value first achieved at budget t."""
    t: int = 0


class DPTables:
    """Sparse budget-indexed tables C(p, t, B) and M(pq, t, B)."""

    def __init__(self, fsg: FreeSpaceGraph, t_max: int):
        self.fsg = fsg
        self.t_max = t_max
        self.C: Dict[int, Dict[int, List[Breakpoint]]] = {}
        self.M: Dict[Tuple[int, int], Dict[int, List[Breakpoint]]] = {}

    def _stair(self, kind: str, key, mask: int) -> List[Breakpoint]:
        table = self.C if kind == "C" else self.M
        return table.get(key, {}).get(mask, [])

    def value_C(self, p: int, t: int, mask: int) -> float:
        if mask == 0:
            return 0.0 if t >= 0 else INF
        return _stair_value(self._stair("C", p, mask), t)

    def value_M(self, p: int, q: int, t: int, mask: int) -> float:
        return _stair_value(self._stair("M", (p, q), mask), t)

    def best(self, p: int, mask: int) -> Tuple[float, Optional[Breakpoint]]:
        stair = self._stair("C", p, mask)
        if mask == 0:
            base = Breakpoint("C", (p,), 0, 0.0, "base")
            return 0.0, base
        if not stair:
            return INF, None
        bp = stair[-1]
        return bp.value, bp


def _stair_value(stair: List[Breakpoint], t: int) -> float:
    """Cheapest value at budget <= t (staircases are non-increasing in t)."""
    lo, hi = 0, len(stair)
    while lo < hi:
        mid = (lo + hi) // 2
        if stair[mid].t <= t:
            lo = mid + 1
        else:
            hi = mid
    return stair[lo - 1].value if lo else INF


def compute_dp_tables(fsg: FreeSpaceGraph, t_max: Optional[int] = None) -> DPTables:
    """Fill the staircase tables by increasing edge budget."""
    n = fsg.n
    check_capacity(fsg)
    if t_max is None:
        t_max = 6 * n
    tables = DPTables(fsg, t_max)
    if n == 0:
        return tables

    buckets: List[list] = [[] for _ in range(t_max + 1)]
    seq = 0

    def push(kind, key, mask, t, value, rule, ops):
        nonlocal seq
        if t > t_max or value == INF:
            return
        stair = tables._stair(kind, key, mask)
        if stair and stair[-1].value <= value:
            return
        buckets[t].append((value, RANK[rule], kind, key, mask, seq, rule, ops))
        seq += 1

    for p in range(n):
        push("C", p, 0, 0, 0.0, "base", ())

    for t in range(t_max + 1):
        # Entries order by (value, rank, kind, key, mask, seq); seq is unique.
        for value, _rank, kind, key, mask, _seq, rule, ops in sorted(buckets[t]):
            table = tables.C if kind == "C" else tables.M
            stair = table.setdefault(key, {}).setdefault(mask, [])
            if stair and stair[-1].value <= value:
                continue
            bp = Breakpoint(kind, key if kind == "M" else (key,),
                            mask, value, rule, ops, t)
            stair.append(bp)
            if kind == "C":
                _propagate_C(tables, push, key, bp)
            else:
                _propagate_M(tables, push, key, bp)
    return tables


def _propagate_C(tables: DPTables, push, p: int, bp: Breakpoint) -> None:
    fsg = tables.fsg
    # M1: append a free-space edge pq on top of the closed walk at p.
    for q, w in fsg.adjacency[p]:
        push("M", (p, q), bp.mask, bp.t + 1, bp.value + w, "M1", (bp,))
    # C2: concatenate with every disjoint nonempty closed walk at p.
    if bp.mask:
        for mask2, stair2 in tables.C.get(p, {}).items():
            if mask2 == 0 or (mask2 & bp.mask):
                continue
            for bp2 in stair2:
                push("C", p, bp.mask | mask2, bp.t + bp2.t,
                     bp.value + bp2.value, "C2", (bp, bp2))


def _propagate_M(tables: DPTables, push, key: Tuple[int, int],
                 bp: Breakpoint) -> None:
    fsg = tables.fsg
    a, b = key
    # C1: an open walk a -> b closes into a walk through b via the edge ba.
    if fsg.has_edge(b, a):
        push("C", b, bp.mask, bp.t + 1, bp.value + fsg.weight(b, a), "C1",
             (a, bp))
    # M2 with bp as the left part M(p, r): extend the mouth to every q with
    # triangle prq ccw, combining with right parts M(r, q).  The join test
    # runs once per q with the right mask left out; each right part's mask
    # is then checked against the joined mask `used`.
    p, r = a, b
    for q in range(fsg.n):
        partners = tables.M.get((r, q))
        join = partners and m2_join(fsg, p, r, q, bp.mask, 0)
        if not join:
            continue
        used, cpen = join
        for mask2, stair2 in partners.items():
            if not mask2 & used:
                for bp2 in stair2:
                    push("M", (p, q), used | mask2, bp.t + bp2.t,
                         bp.value + bp2.value + cpen, "M2", (r, bp, bp2))
    # M2 with bp as the right part M(r, q).
    r2, q2 = a, b
    for p2 in range(fsg.n):
        partners = tables.M.get((p2, r2))
        join = partners and m2_join(fsg, p2, r2, q2, 0, bp.mask)
        if not join:
            continue
        used, cpen = join
        for mask1, stair1 in partners.items():
            if not mask1 & used:
                for bp1 in stair1:
                    push("M", (p2, q2), used | mask1, bp1.t + bp.t,
                         bp1.value + bp.value + cpen, "M2", (r2, bp1, bp))


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
