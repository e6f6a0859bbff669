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

With the closing rule C1 switched off the same loop computes the inverted
solver's mouths.  The rule ranks, the label type, the capacity guard, the
trivial answer, the M2 join test and the walk rebuild come from
`recursion.py`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .errors import NonpositiveWeight
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


def _search(fsg: FreeSpaceGraph, early_stop: bool, closures: bool,
            stats: Optional[dict] = None):
    """Run the label-setting loop.

    Returns (answer, fin, fin_M_from, fin_M_to): the first finalized
    closed-walk label covering every required object (None if the queue
    drains first); the finalized labels by state, (p, mask) for C and
    (p, q, mask) for M; and the finalized M labels by start and by end
    vertex, in finalization order.  With early_stop=False the whole fixed
    point is computed.  With closures=False rule C1 is off: the only
    closed walks are point walks, and the M labels are the mouths.
    """
    n = fsg.n
    full = fsg.full_mask

    fin: Dict[Tuple[int, ...], Label] = {}
    fin_C_at: Dict[int, List[Label]] = {p: [] for p in range(n)}
    fin_M_from: Dict[int, List[Label]] = {p: [] for p in range(n)}
    fin_M_to: Dict[int, List[Label]] = {p: [] for p in range(n)}

    heap: list = []
    seq = 0

    def push(kind, key, mask, value, rule, ops):
        nonlocal seq
        if value == INF or key + (mask,) in fin:
            return
        heappush(heap, (value, RANK[rule], kind, key, mask, seq,
                        Label(kind, key, mask, value, rule, ops)))
        seq += 1

    for p in range(n):
        push("C", (p,), 0, 0.0, "base", ())

    answer: Optional[Label] = None
    while heap:
        value, _rank, kind, key, mask, _s, label = heappop(heap)
        state = key + (mask,)
        if state in fin:
            continue
        fin[state] = label
        if kind == "C":
            if mask == full and answer is None:
                answer = label
                if early_stop:
                    break
            _relax_C(fsg, label, fin_C_at, push)
            fin_C_at[key[0]].append(label)
        else:
            _relax_M(fsg, label, fin_M_from, fin_M_to, push, closures)
            fin_M_from[key[0]].append(label)
            fin_M_to[key[1]].append(label)

    if stats is not None:
        stats["finalized"] = len(fin)
        stats["pushed"] = seq
    return answer, fin, fin_M_from, fin_M_to


def solve_dijkstra(fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum enclosure cost and an optimal closed walk (None if infeasible)."""
    check_capacity(fsg)
    assert_superiority(fsg)
    trivial = trivial_answer(fsg)
    if trivial is not None:
        return trivial
    answer, _fin, _from, _to = _search(fsg, early_stop=True, closures=True,
                                       stats=stats)
    if answer is None:
        return INF, None
    return answer.value, closed_walk(fsg, answer)


def compute_all_labels(fsg: FreeSpaceGraph):
    """Finalize the entire fixed point; returns (fin_C, fin_M) keyed by
    (p, mask) and (p, q, mask)."""
    check_capacity(fsg)
    assert_superiority(fsg)
    _answer, fin, _from, _to = _search(fsg, early_stop=False, closures=True)
    return ({s: lab for s, lab in fin.items() if lab.kind == "C"},
            {s: lab for s, lab in fin.items() if lab.kind == "M"})


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
             fin_M_from, fin_M_to, push, closures: bool) -> None:
    a, b = label.key
    if closures and fsg.has_edge(b, a):
        push("C", (b,), label.mask, label.value + fsg.weight(b, a), "C1",
             (a, label))
    # As the left part M(p, r) of a triangle prq: partners start at r.
    for other in fin_M_from[b]:
        q = other.key[1]
        join = m2_join(fsg, a, b, q, label.mask, other.mask)
        if join is not None:
            push("M", (a, q), join[0], label.value + other.value + join[1],
                 "M2", (b, label, other))
    # As the right part M(r, q): partners end at r = a.
    for other in fin_M_to[a]:
        p = other.key[0]
        join = m2_join(fsg, p, a, b, other.mask, label.mask)
        if join is not None:
            push("M", (p, b), join[0], label.value + other.value + join[1],
                 "M2", (a, other, label))
