"""The enclosure recursion's shared pieces, used by all three solvers.

The budgeted DP (`dp.py`), the label-setting search (`dijkstra.py`) and the
inverted solver's mouths (`inverted.py`) evaluate one recursion over closed
walks C(p, B) and open walks ("mouths") M(pq, B):

  * C base:   C(p, {}) = 0 (the point walk);
  * C1:       close an open walk q -> p with the edge pq;
  * C2:       concatenate two closed walks at p over disjoint nonempty sets;
  * M1:       a single free-space edge pq on top of a closed walk at p;
  * M2:       join mouths M(p, r) and M(r, q) through a ccw triangle prq,
              paying the optional penalties inside the triangle and
              claiming the required references inside it.

This module holds the recursion itself: `relax` enumerates the four rules
once, for every solver, reading the settled labels from one index
(`Settled`).  `label_setting` is the one label-setting queue (cheapest
first, the first label per state wins, pushes that cannot win dropped); the
enclosure search drives it with `relax`, the inverted U search with its
plank and finish rules, and both ask its pending map before they derive a
label that could only be dropped.  The DP keeps its bucket queue by edge
budget, where a label is kept only if it improves its state's staircase.
Also here: the rule ranks, the label type, the precondition check of every
solver entry, the answer on instances with nothing required, and the
rebuild of a walk from a label's provenance.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import CapacityError, InternalError, NonpositiveWeight
from .freespace import FreeSpaceGraph
from .instance import MAX_REQUIRED
from .walks import Walk, make_walk

INF = math.inf

# Rank of each rule for deterministic tie-breaking at equal value:
# single-edge extensions win over compositions.  The inverted rules all
# rank with "base".
RANK = {"base": 0, "C1": 1, "M1": 1, "C2": 2, "M2": 2,
        "down": 0, "up": 0, "finish": 0}

# The pending (value, rank) of a state nothing has been pushed to.
UNSEEN = (INF, 0)


class Label(NamedTuple):
    """A state value with enough provenance to rebuild the walk.

    ops by rule: base (); C1 (q, M label); C2 (C label, C label);
    M1 (C label,); M2 (r, left M label, right M label); and in the inverted
    solver down and up (M label, U label), finish (U label,).  A named
    tuple: the label-setting queue builds one per push."""
    kind: str             # "C", "M" or the inverted solver's "U"
    key: Tuple[int, ...]  # (p,), (p, q), or () for the inverted finish
    mask: int
    value: float
    rule: str
    ops: Tuple = ()
    t: int = 0            # free-space edges in the walk


def check_solvable(fsg: FreeSpaceGraph) -> None:
    """Every solver's preconditions: subset-indexed states need
    k <= MAX_REQUIRED required objects, and the recursion is only sound with
    strictly positive edge weights and nonnegative penalties."""
    k = len(fsg._required_refs)
    if k > MAX_REQUIRED:
        raise CapacityError(f"{k} required objects exceeds the supported {MAX_REQUIRED}")
    for e in fsg.edges:
        if not e.weight > 0:
            raise NonpositiveWeight(
                f"free-space edge {e.a}-{e.b} has weight {e.weight}")
    for penalty, _ref in fsg._optional_refs:
        if penalty < 0:
            raise NonpositiveWeight(f"negative penalty {penalty}")


def trivial_answer(fsg: FreeSpaceGraph) -> Optional[Tuple[float, Walk]]:
    """With no required object the point walk (the empty walk when there is
    no vertex) is optimal at cost 0; None when something is required."""
    if fsg.full_mask:
        return None
    if fsg.n == 0:
        return 0.0, Walk((), 0.0)
    return 0.0, make_walk(fsg.instance, [fsg.vertices[0]])


class Settled:
    """The settled labels, indexed the way `relax` reads them: closed labels
    by vertex, open labels by start then end vertex and by end then start
    vertex, each list in settling order."""

    def __init__(self, n: int):
        self.closed: List[List[Label]] = [[] for _ in range(n)]
        self.open_from: List[Dict[int, List[Label]]] = [{} for _ in range(n)]
        self.open_to: List[Dict[int, List[Label]]] = [{} for _ in range(n)]

    def add(self, label: Label) -> None:
        if label.kind == "C":
            self.closed[label.key[0]].append(label)
        else:
            p, q = label.key
            self.open_from[p].setdefault(q, []).append(label)
            self.open_to[q].setdefault(p, []).append(label)


def label_setting(seeds: Iterable[tuple], expand, full: int, early_stop: bool,
                  stats: Optional[dict] = None):
    """Settle pending labels cheapest first, keep the first settled label
    per state (key, mask), and hand it to expand(label, push, bound,
    pending), which derives new labels through
    push(kind, key, mask, value, t, rule, ops) as `relax` does; each seed is
    a tuple of push's arguments.  Ties break by (RANK[rule], kind, key,
    mask, push order).  Returns (answer, fin): the first settled "C" label
    with mask `full` (None if the queue drains) and the settled labels by
    state.  With early_stop the loop ends at the answer, else it computes
    the whole fixed point.

    Exact as long as no rule derives a label cheaper than the one it expands
    (`check_solvable`), so labels settle in nondecreasing value.  Pushes that
    cannot change a settled label are dropped: one whose state is settled or
    that does not beat its state's pending (value, rank), as it would lose
    on push order; and one dearer than `bound` (strictly), the cheapest
    full-mask "C" value pushed under early_stop (else INF), as the answer
    settles no later than that label.

    `pending` maps each state pushed so far to its (value, rank); a settled
    state holds (-INF, 0).  Its entries only fall, so expand may skip,
    without deriving it, any label whose (value, rank) is not below
    pending.get(state, UNSEEN): push would drop it.  A dropped push takes no
    sequence number, so skipping it changes nothing."""
    pending: Dict[Tuple[int, ...], Tuple[float, int]] = {}
    fin: Dict[Tuple[int, ...], Label] = {}
    heap: list = []
    seq = 0
    bound = INF

    def push(kind, key, mask, value, t, rule, ops):
        nonlocal seq, bound
        if value == INF or value > bound:
            return
        state, rank = key + (mask,), RANK[rule]
        if pending.get(state, UNSEEN) <= (value, rank):
            return
        pending[state] = (value, rank)
        if early_stop and kind == "C" and mask == full:
            bound = value
        heappush(heap, (value, rank, kind, key, mask, seq,
                        Label(kind, key, mask, value, rule, ops, t)))
        seq += 1

    for seed in seeds:
        push(*seed)

    answer: Optional[Label] = None
    while heap:
        _value, _rank, kind, key, mask, _s, label = heappop(heap)
        state = key + (mask,)
        if state in fin:
            continue
        fin[state] = label
        pending[state] = (-INF, 0)  # below every push
        if kind == "C" and mask == full and answer is None:
            answer = label
            if early_stop:
                break
        expand(label, push, bound, pending)

    if stats is not None:
        stats["finalized"] = len(fin)
        stats["pushed"] = seq
    return answer, fin


def relax(fsg: FreeSpaceGraph, label: Label, settled: Settled, push,
          closures: bool = True, bound: float = INF,
          pending: Optional[dict] = None) -> None:
    """Derive every label one rule builds from `label` and the settled
    labels, and hand each to push(kind, key, mask, value, t, rule, ops).

    A label never combines with itself, so it may be settled before or
    after this call.  With closures=False rule C1 is off.  In both M2 roles
    of M(a, b) the apex lies strictly left of a -> b.  A finite `bound` needs
    each `settled` list in nondecreasing value, as `label_setting` settles
    them: a partner scan stops at the first label dearer than `bound`.

    `pending` is `label_setting`'s map, and needs the same sorted lists.
    M2 consults it twice before it derives a label:
      * per apex group: when `mask` is already full (always when k = 0),
        every allowed join of the group lands on one state, the joined
        mouth's key with mask `full`, and costs at least
        value + partners[0].value, since penalties are nonnegative and the
        list is sorted; if that state's pending (value, rank) is no larger
        than (that lower bound, RANK["M2"]), the group is skipped before
        its triangle content is looked up;
      * per partner: a join whose exact (state, total) does not beat the
        state's pending entry is not pushed.
    Either way the skipped label is one push would drop: its value is at
    least the tested one and pending entries only fall.  The DP's lists
    are not sorted, and it keeps a dearer label at a smaller edge budget
    (a staircase per state, not one pending entry), so it passes neither
    `bound` nor `pending`."""
    value, mask, t = label.value, label.mask, label.t
    if label.kind == "C":
        p = label.key[0]
        # M1: a free-space edge pq on top of the closed walk at p.
        for q, w in fsg.adjacency[p]:
            push("M", (p, q), mask, value + w, t + 1, "M1", (label,))
        # C2: concatenate with a closed walk at p over a disjoint nonempty set.
        if mask:
            for other in settled.closed[p]:
                if value + other.value > bound:
                    break
                if other.mask and not other.mask & mask:
                    push("C", (p,), mask | other.mask, value + other.value,
                         t + other.t, "C2", (label, other))
        return
    a, b = label.key
    # C1: the open walk a -> b closes into a walk through b via the edge ba.
    if closures and fsg.has_edge(b, a):
        push("C", (b,), mask, value + fsg.weight(b, a), t + 1, "C1", (a, label))
    # M2 with the label as left part M(p, r) = M(a, b), right parts M(b, q);
    # then as right part M(r, q) = M(a, b), left parts M(p, a).  The join
    # test runs once per apex: the triangle holds no infinite penalty and
    # no required reference of `mask`; each partner's mask is then checked
    # against the joined mask `used`.
    left = fsg.left_vertices(a, b)
    memo = fsg._content_memo
    rank = RANK["M2"]
    whole = pending is not None and mask == fsg.full_mask
    for q, partners in settled.open_from[b].items():
        if not (left >> q) & 1:
            continue
        low = value + partners[0].value
        if low > bound or \
                whole and pending.get((a, q, mask), UNSEEN) <= (low, rank):
            continue
        cmask, cpen = memo.get((a, b, q)) or fsg.triangle_content(a, b, q)
        if cpen == INF or cmask & mask:
            continue
        used = mask | cmask
        for other in partners:
            total = value + other.value + cpen
            if total > bound:
                break
            joined = used | other.mask
            if other.mask & used or pending is not None and \
                    pending.get((a, q, joined), UNSEEN) <= (total, rank):
                continue
            push("M", (a, q), joined, total, t + other.t,
                 "M2", (b, label, other))
    for p, partners in settled.open_to[a].items():
        if not (left >> p) & 1:
            continue
        low = partners[0].value + value
        if low > bound or \
                whole and pending.get((p, b, mask), UNSEEN) <= (low, rank):
            continue
        cmask, cpen = memo.get((p, a, b)) or fsg.triangle_content(p, a, b)
        if cpen == INF or cmask & mask:
            continue
        used = mask | cmask
        for other in partners:
            total = other.value + value + cpen
            if total > bound:
                break
            joined = used | other.mask
            if other.mask & used or pending is not None and \
                    pending.get((p, b, joined), UNSEEN) <= (total, rank):
                continue
            push("M", (p, b), joined, total, other.t + t,
                 "M2", (a, other, label))


def closed_ids(label: Label) -> List[int]:
    """Cyclic vertex-id list of the closed walk a C label stands for."""
    p = label.key[0]
    if label.rule == "base":
        return [p]
    if label.rule == "C1":
        _q, mouth = label.ops
        return [p] + open_ids(mouth)[:-1]
    if label.rule == "C2":
        first, second = label.ops
        return closed_ids(first) + closed_ids(second)
    raise InternalError(f"no closed-walk rule {label.rule!r}")


def open_ids(label: Label) -> List[int]:
    """Explicit vertex-id path of the open walk an M label stands for."""
    p, q = label.key
    if label.rule == "M1":
        (closed_label,) = label.ops
        closed = closed_ids(closed_label)
        return (closed + [closed[0], q]) if len(closed) > 1 else [p, q]
    if label.rule == "M2":
        _r, left, right = label.ops
        return open_ids(left) + open_ids(right)[1:]
    raise InternalError(f"no open-walk rule {label.rule!r}")


def closed_walk(fsg: FreeSpaceGraph, label: Label) -> Walk:
    """The closed walk a C label stands for."""
    pts = [fsg.vertices[i] for i in closed_ids(label)]
    return make_walk(fsg.instance, pts)
