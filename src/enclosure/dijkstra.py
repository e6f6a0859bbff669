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

Asymptotically this needs O(3^k n^3) time and O(2^k n^2) space for n
vertices and k required objects, against the budgeted program's extra factor
of n; in practice it visits only labels cheaper than the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .dp import _closed_ids
from .errors import CapacityError, NonpositiveWeight
from .freespace import FreeSpaceGraph
from .instance import MAX_REQUIRED
from .walks import Walk, make_walk

INF = math.inf

_RANK = {"base": 0, "C1": 1, "M1": 1, "C2": 2, "M2": 2}


@dataclass(frozen=True)
class Label:
    """A finalized state value with enough provenance to rebuild the walk."""
    kind: str             # "C" or "M"
    key: Tuple[int, ...]  # (p,) or (p, q)
    mask: int
    value: float
    rule: str
    ops: Tuple = ()


def assert_superiority(fsg: FreeSpaceGraph) -> None:
    """Label setting is only sound when every edge weight is strictly
    positive and every penalty nonnegative; fail loudly otherwise."""
    for e in fsg.edges:
        if not e.weight > 0:
            raise NonpositiveWeight(
                f"free-space edge {e.a}-{e.b} has weight {e.weight}")
    for penalty, _ref in fsg._optional_refs:
        if penalty < 0:
            raise NonpositiveWeight(f"negative penalty {penalty}")


def _search(fsg: FreeSpaceGraph, early_stop: bool, stats: Optional[dict] = None):
    """Run the label-setting loop.

    Returns (answer, fin_C, fin_M) where answer is the first finalized
    closed-walk label covering every required object (None if the queue
    drains first), and fin_C / fin_M map finalized states to labels.  With
    early_stop=False the whole fixed point is computed.
    """
    n = fsg.n
    full = fsg.full_mask

    fin_C: Dict[Tuple[int, int], Label] = {}
    fin_M: Dict[Tuple[int, int, int], Label] = {}
    fin_C_at: Dict[int, List[Label]] = {p: [] for p in range(n)}
    fin_M_from: Dict[int, List[Label]] = {p: [] for p in range(n)}
    fin_M_to: Dict[int, List[Label]] = {p: [] for p in range(n)}

    heap: list = []
    seq = 0
    popped = 0

    def push(kind, key, mask, value, rule, ops):
        nonlocal seq
        if value == INF:
            return
        if kind == "C":
            if (key[0], mask) in fin_C:
                return
        elif (key[0], key[1], mask) in fin_M:
            return
        heappush(heap, (value, _RANK[rule], kind, key, mask, seq,
                        Label(kind, key, mask, value, rule, ops)))
        seq += 1

    for p in range(n):
        push("C", (p,), 0, 0.0, "base", ())

    answer: Optional[Label] = None
    while heap:
        value, _rank, kind, key, mask, _s, label = heappop(heap)
        if kind == "C":
            state = (key[0], mask)
            if state in fin_C:
                continue
            fin_C[state] = label
            popped += 1
            if mask == full and answer is None:
                answer = label
                if early_stop:
                    break
            _relax_C(fsg, label, fin_C_at, push)
            fin_C_at[key[0]].append(label)
        else:
            state = (key[0], key[1], mask)
            if state in fin_M:
                continue
            fin_M[state] = label
            popped += 1
            _relax_M(fsg, label, fin_M_from, fin_M_to, push)
            fin_M_from[key[0]].append(label)
            fin_M_to[key[1]].append(label)

    if stats is not None:
        stats["finalized"] = popped
        stats["pushed"] = seq
    return answer, fin_C, fin_M


def solve_dijkstra(fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    k = len(fsg._required_refs)
    if k > MAX_REQUIRED:
        raise CapacityError(f"{k} required objects exceeds the supported {MAX_REQUIRED}")
    assert_superiority(fsg)
    if fsg.full_mask == 0:
        if fsg.n == 0:
            return 0.0, Walk((), True, 0.0)
        return 0.0, make_walk(fsg.instance, [fsg.vertices[0]], closed=True)
    answer, _fin_C, _fin_M = _search(fsg, early_stop=True, stats=stats)
    if answer is None:
        return INF, None
    ids = _closed_ids(answer)
    pts = [fsg.vertices[i] for i in ids]
    return answer.value, make_walk(fsg.instance, pts, closed=True)


def compute_all_labels(fsg: FreeSpaceGraph):
    """Finalize the entire fixed point; returns (fin_C, fin_M) keyed by
    (p, mask) and (p, q, mask)."""
    k = len(fsg._required_refs)
    if k > MAX_REQUIRED:
        raise CapacityError(f"{k} required objects exceeds the supported {MAX_REQUIRED}")
    assert_superiority(fsg)
    if fsg.n == 0:
        return {}, {}
    _answer, fin_C, fin_M = _search(fsg, early_stop=False)
    return fin_C, fin_M


def _relax_C(fsg: FreeSpaceGraph, label: Label, fin_C_at, push) -> None:
    p = label.key[0]
    for q, w in fsg.adjacency[p]:
        push("M", (p, q), label.mask, label.value + w, "M1", (label,))
    if label.mask:
        for other in fin_C_at[p]:
            if other.mask and not (other.mask & label.mask):
                push("C", (p,), label.mask | other.mask,
                     label.value + other.value, "C2", (label, other))


def _relax_M(fsg: FreeSpaceGraph, label: Label,
             fin_M_from, fin_M_to, push) -> None:
    a, b = label.key
    if fsg.has_edge(b, a):
        push("C", (b,), label.mask, label.value + fsg.weight(b, a), "C1",
             (a, label))
    is_ccw = fsg.is_ccw
    # As the left part M(p, r) of a triangle prq: partners start at r.
    for other in fin_M_from[b]:
        q = other.key[1]
        if not is_ccw(a, b, q):
            continue
        cmask, cpen = fsg.triangle_content(a, b, q)
        if cpen == INF or (cmask & label.mask) or (cmask & other.mask) \
                or (label.mask & other.mask):
            continue
        push("M", (a, q), label.mask | other.mask | cmask,
             label.value + other.value + cpen, "M2", (b, label, other))
    # As the right part M(r, q): partners end at r = a.
    for other in fin_M_to[a]:
        p = other.key[0]
        if not is_ccw(p, a, b):
            continue
        cmask, cpen = fsg.triangle_content(p, a, b)
        if cpen == INF or (cmask & label.mask) or (cmask & other.mask) \
                or (label.mask & other.mask):
            continue
        push("M", (p, b), label.mask | other.mask | cmask,
             label.value + other.value + cpen, "M2", (a, other, label))
