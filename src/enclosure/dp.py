"""Reference solver: budgeted dynamic program over free-space edges.

State: for every vertex p, edge budget t and subset B of required objects,
C(p, t, B) is the cheapest closed walk through p with at most t edges whose
interior triangulation covers exactly the required set B; M(pq, t, B) is the
analogous open-walk ("mouth") value for walks from p to q whose region
together with the chord qp covers B.  The recursion:

  * C base:   C(p, 0, {}) = 0 (the point walk);
  * C1:       close an open walk q -> p with the edge pq;
  * C2:       concatenate two closed walks at p over disjoint nonempty sets;
  * M1:       a single free-space edge pq on top of a closed walk at p;
  * M2:       split the mouth pq at r with a ccw triangle prq, paying the
              optional penalties inside the triangle and claiming the
              required references inside it.

The answer is min over p of C(p, 6n, all-required): cheapest uncrossed
solutions use at most 6n free-space edge traversals.

Tables are stored as staircases: per (state, B) a list of breakpoints
(t, value) with strictly increasing t and strictly decreasing value, filled
in a single pass over a bucket queue ordered by t.  Only improvements are
stored, which keeps the tables sparse; combination rules always produce
strictly larger budgets, so each bucket is complete when it is processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import CapacityError
from .freespace import FreeSpaceGraph
from .instance import MAX_REQUIRED
from .walks import Walk, make_walk

INF = math.inf

# Rule ranks for deterministic tie-breaking inside a bucket: single-edge
# extensions win over compositions at equal value.
_RANK = {"base": 0, "C1": 1, "M1": 1, "C2": 2, "M2": 2}


@dataclass(frozen=True)
class Breakpoint:
    """One staircase corner: cheapest value first achieved at budget t."""
    kind: str            # "C" or "M"
    key: Tuple[int, ...]  # (p,) or (p, q)
    mask: int
    t: int
    value: float
    rule: str
    ops: Tuple = ()


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
            base = Breakpoint("C", (p,), 0, 0, 0.0, "base")
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
    k = len(fsg._required_refs)
    if k > MAX_REQUIRED:
        raise CapacityError(f"{k} required objects exceeds the supported {MAX_REQUIRED}")
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
        buckets[t].append((value, _RANK[rule], kind, key, mask, seq, rule, ops))
        seq += 1

    for p in range(n):
        push("C", p, 0, 0, 0.0, "base", ())

    for t in range(t_max + 1):
        for value, _rank, kind, key, mask, _seq, rule, ops in sorted(
                buckets[t],
                key=lambda e: (e[0], e[1], e[2], e[3] if e[2] == "M" else (e[3],),
                               e[4], e[5])):
            table = tables.C if kind == "C" else tables.M
            stair = table.setdefault(key, {}).setdefault(mask, [])
            if stair and stair[-1].value <= value:
                continue
            bp = Breakpoint(kind, key if kind == "M" else (key,),
                            mask, t, value, rule, ops)
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
    is_ccw = fsg.is_ccw
    a, b = key
    # C1: an open walk a -> b closes into a walk through b via the edge ba.
    if fsg.has_edge(b, a):
        push("C", b, bp.mask, bp.t + 1, bp.value + fsg.weight(b, a), "C1",
             (a, bp))
    # M2 with bp as the left part M(p, r): extend the mouth to every q with
    # triangle prq ccw, combining with right parts M(r, q).
    p, r = a, b
    for q in range(fsg.n):
        if not is_ccw(p, r, q):
            continue
        cmask, cpen = fsg.triangle_content(p, r, q)
        if cmask & bp.mask or cpen == INF:
            continue
        used = bp.mask | cmask
        for mask2, stair2 in tables.M.get((r, q), {}).items():
            if mask2 & used:
                continue
            for bp2 in stair2:
                push("M", (p, q), used | mask2, bp.t + bp2.t,
                     bp.value + bp2.value + cpen, "M2", (r, bp, bp2))
    # M2 with bp as the right part M(r, q).
    r2, q2 = a, b
    for p2 in range(fsg.n):
        if not is_ccw(p2, r2, q2):
            continue
        cmask, cpen = fsg.triangle_content(p2, r2, q2)
        if cmask & bp.mask or cpen == INF:
            continue
        used = bp.mask | cmask
        for mask1, stair1 in tables.M.get((p2, r2), {}).items():
            if mask1 & used:
                continue
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


def _closed_ids(bp: Breakpoint) -> List[int]:
    """Cyclic vertex-id list of the closed walk a C breakpoint stands for."""
    p = bp.key[0]
    if bp.rule == "base":
        return [p]
    if bp.rule == "C1":
        _q, mbp = bp.ops
        open_ids = _open_ids(mbp)
        return [p] + open_ids[:-1]
    if bp.rule == "C2":
        bp1, bp2 = bp.ops
        return _closed_ids(bp1) + _closed_ids(bp2)
    raise AssertionError(bp.rule)


def _open_ids(bp: Breakpoint) -> List[int]:
    """Explicit vertex-id path of the open walk an M breakpoint stands for."""
    p, q = bp.key
    if bp.rule == "M1":
        (cbp,) = bp.ops
        closed = _closed_ids(cbp)
        return (closed + [closed[0], q]) if len(closed) > 1 else [p, q]
    if bp.rule == "M2":
        _r, left, right = bp.ops
        return _open_ids(left) + _open_ids(right)[1:]
    raise AssertionError(bp.rule)


def extract_walk(tables: DPTables, bp: Breakpoint) -> Walk:
    ids = _closed_ids(bp)
    pts = [tables.fsg.vertices[i] for i in ids]
    return make_walk(tables.fsg.instance, pts, closed=True)


def solve_dp(fsg: FreeSpaceGraph) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    full = fsg.full_mask
    if full == 0:
        if fsg.n == 0:
            return 0.0, Walk((), True, 0.0)
        p = 0
        return 0.0, make_walk(fsg.instance, [fsg.vertices[p]], closed=True)
    tables = compute_dp_tables(fsg)
    best, best_bp = INF, None
    for p in range(fsg.n):
        v, bp = tables.best(p, full)
        if v < best:
            best, best_bp = v, bp
    if best_bp is None:
        return INF, None
    return best, extract_walk(tables, best_bp)
