"""The enclosure recursion's shared pieces, used by all three solvers.

The budgeted DP (`dp.py`), the label-setting search (`dijkstra.py`) and the
inverted solver's mouths (`inverted.py`, without rule C1) evaluate one
recursion over closed walks C(p, B) and open walks ("mouths") M(pq, B):

  * C base:   C(p, {}) = 0 (the point walk);
  * C1:       close an open walk q -> p with the edge pq;
  * C2:       concatenate two closed walks at p over disjoint nonempty sets;
  * M1:       a single free-space edge pq on top of a closed walk at p;
  * M2:       join mouths M(p, r) and M(r, q) through a ccw triangle prq,
              paying the optional penalties inside the triangle and
              claiming the required references inside it.

This module holds the recursion itself: `relax` enumerates the four rules
once, for every solver, reading the settled labels from one index
(`Settled`).  `label_setting` is the one label-setting queue, an A* search:
it settles labels by f = value + h, where h is a lower bound on what a
label's walk still has to pay before it is a complete answer
(`FutureCost`, which each driver builds for itself); the
first label per state wins, and pushes that cannot win are dropped.  The
enclosure search drives it with `relax`; the inverted solver drives it
in one run with `relax` for its mouths and its plank and finish rules for
its U labels; both ask its pending map before they derive a label that
could only be dropped.  The
DP keeps its bucket queue by edge budget, where a label is kept only if
it improves its state's staircase, bounds it by the same f, and drives
`relax` with a pending map of each state's last stored value.  The search
and the DP start their bound at the same incumbent (`hull_bound`, see The
incumbent below), and both drivers return (answer, settled).  With
nothing required, the point walk C(p, {}) is already a full-mask label:
the search settles C(0, {}) first and the DP stores it first, so both
answer with the point walk at the first vertex.  Also here: the label
type, the precondition check of every solver entry, and the rebuild of a
walk from a label's provenance.

The future cost.  Let c = `FreeSpaceGraph.h_scale`, the least
weight/length ratio c' of the free-space edges (at most 1) shaved to
c = (1 - 1e-9)·c', and let r range over the required reference points.
The enclosure search and the DP give their labels (`FutureCost` with
every required reference charged)

  h(M(p, q, B)) = c·max(|pq|, max over r not in B of |pr| + |rq|),
  h(C(p, B))    = 2c·max over r not in B of |pr|, and 0 when B is full;

the second is the first at q = p.  A label's mask B is exactly the set of
required references its curve winds around, the curve of an open label
being its walk closed by the chord qp: every M2 triangle is strictly ccw,
no reference point lies on a chord (validation settles them so, and
`FreeSpaceGraph._chord` raises InternalError on one that does), and a
required reference inside a triangle is claimed once (a second claim
fails the disjointness test), so a reference in B has winding 1 and every
other one winding 0.  The walk must still wind around each r not in B,
which is what h charges for.  Two facts carry the proof:
  (a) every edge ab weighs at least c'·|ab|, so with nonnegative
      penalties a label's value is at least c' times its walk's length;
  (b) a closed curve through x and y that winds around r is at least
      |xr| + |ry| + |yx| long, the perimeter of the triangle xry inside
      its hull; so the walk of M(x, y, B) is at least |xr| + |ry| long
      for each r in B, and that of C(x, B) at least 2|xr|.
In exact arithmetic h is consistent: no rule derives a label whose f is
below the f of an operand it was derived from.  Rule by rule, each term
of the operand's h is covered by the added value plus a term of the new
label's h:
  * M1, C(p, B) + edge pq -> M(p, q, B): for r not in B,
    2|pr| <= |pq| + |qr| + |pr|, and the edge weighs at least c·|pq|.
  * C1, M(a, b, B) + edge ba -> C(b, B): the edge covers c·|ab|, and for
    r not in B, |ar| + |rb| <= |ab| + 2|br|.
  * C2, C(p, B1) + C(p, B2) -> C(p, B1 | B2): a term r of h(C(p, B1)) not
    in B2 is a term of the joined h; for r in B2 the closed walk of
    C(p, B2) runs around r through p, so its value is at least 2c·|pr|
    by (b).  Symmetrically for the second operand.
  * M2, M(p, r', B1) + M(r', q, B2) through the triangle p r' q with the
    required content T -> M(p, q, B1 | B2 | T), with value at least the
    sum: for the left operand, v(M(r', q)) >= c·|r'q| by (a) and
        |pr'| <= |pq| + |qr'|;
    for r not in the joined mask, a term of the new h covers it, as
        |pr| + |rr'| <= |pr| + |rq| + |qr'|;
    for r in B2, the other part's mask, v(M(r', q)) >= c·(|r'r| + |rq|)
    by (b), and |pr| <= |pq| + |qr|;
    for r in T, inside the triangle p r' q, v(M(r', q)) >= c·|r'q| and
        |pr| + |rr'| <= |pq| + |qr'|,
    as the convex path p r r' inside the triangle is no longer than the
    path p q r' around it.  The right operand is the mirror image.
The inverted solver charges no reference (its masks hold the references
outside its curve): its mouths and U labels get h = c·|pq|, and its
finish h = 0.  The rules above cover its mouths; its down and up planks
add a mouth M(far, p) (resp. M(q, far)) to U(p, q), so the triangle
inequality over |far p|, |far q| and |pq| covers the U operand, and the
mouth operand too, as a U label is a walk from p to q: v(U(p, q)) >=
c·|pq|, so f(U(far, q)) >= c·|pq| + v(M(far, p)) + c·|q far| >=
f(M(far, p)).  The finish takes U(s, s), whose h is 0.

Each inequality above bounds a length by the length of the edge or walk
the rule adds, which is worth c' times that length, not c: the shave
leaves a margin of at least 1e-9·c times that length.  Every length h
reads, |pq| and |pr| alike, is the hypotenuse of the exact coordinate
differences, each rounded once, as the edge weights are, so its rounding
error is relative to the length, whatever the size of the coordinates;
the margin is far above it and above the rounding of a float sum, so the
computed f keeps the order the proof needs: the first label settled for
a state is still its cheapest.  A* with a consistent h is Hart, Nilsson &
Raphael (1968); for the superior-function recursion here it is the
future-cost variant of generalized Dijkstra (Hougardy, Silvanus & Vygen,
"Dijkstra meets Steiner", Math. Prog. Comp. 2017), whose future cost
likewise depends on the terminals not yet connected.

The incumbent.  The search and the DP drop every label whose f exceeds a
bound, the cost of the cheapest complete walk known.  It starts at the
cost of a walk known before either runs, the ccw convex hull of the
required objects walked along free-space edges (`hull_bound`, INF where
that walk is not feasible), and falls to each cheaper full-mask C label
pushed.  As h is consistent, every label the answer is derived from has f
at most the answer's value, so a bound no less than the optimum drops
only labels that cannot lead to the answer: the search settles the same
labels, both return the same answer, and only the labels pushed (and the
DP's labels stored) fall.  A seeded run that finds no answer has lost a
feasible walk, and raises InternalError.

The partner scans.  All labels of one state share h, but the labels of
one partner group (settled open labels of one key (p, q), or settled
closed labels at one p) differ in mask, and so in h: they settle in f
order, and a dearer label of a larger mask may settle before a cheaper
one of a smaller mask; the DP stores its labels in edge-budget order,
which is no value order either.  The scans of `relax` stop at the first
join over their cut and bound a group by its first label, so they need
each group in value order: the enclosure search and the DP add their
labels by `Settled.add_by_value`, after the labels of equal value.  A cut
reads the target's h at a full mask, the least over its masks, so every
join past it has f over the bound.  The inverted solver's h ignores the
mask, so its groups settle in value order as they are.

Ties.  A state's pending entry is its value: a label is pushed only if
it is strictly cheaper, so at equal value the first push of a state wins,
whatever rule derived it, and labels are pushed as their operands settle.
So where two walks of one state cost the same, which of them a solver
keeps follows the order of the pushes, and with it h: another h may
return another optimal walk, never another cost.

States are coded as one int, code << k | mask for k required objects,
with code(C(p)) = p, code(M(p, q)) = n + p·n + q, code(U(p, q)) =
n + n² + p·n + q and code(C(())) = -1 for the inverted finish.  The code
is increasing in (kind, key, mask), so ties between states in the queue
order (f, value, state) break exactly as (f, value, kind, key, mask)
would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import CapacityError, InternalError, NonpositiveWeight
from .freespace import FreeSpaceGraph
from .geometry import orient, split_at
from .instance import MAX_REQUIRED
from .walks import Walk, make_walk

INF = math.inf


class Label(NamedTuple):
    """A state value with enough provenance to rebuild the walk.

    ops hold the operand labels in walk order: base (); C1 (M label,);
    C2 (C label, C label); M1 (C label,); M2 (left M label, right M
    label); and in the inverted solver down (M label, U label), up
    (U label, M label), finish (U label,).  A named tuple: the
    label-setting queue builds one per push."""
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
    if fsg._k > MAX_REQUIRED:
        raise CapacityError(
            f"{fsg._k} required objects exceeds the supported {MAX_REQUIRED}")
    for e in fsg.edges:
        if not e.weight > 0:
            raise NonpositiveWeight(
                f"free-space edge {e.a}-{e.b} has weight {e.weight}")
    for penalty in fsg._penalties:
        if penalty < 0:
            raise NonpositiveWeight(f"negative penalty {penalty}")


def hull_bound(fsg: FreeSpaceGraph) -> float:
    """The cost of the convex-hull walk of the required objects, an upper
    bound on the optimum known before any search: the ccw hull of the
    required polygons' vertices, each side walked along free-space edges.
    A side that is not an edge is split at the vertices in its relative
    interior, and every piece must be an edge; the walk then pays the
    penalties of the optional references strictly left of every side.
    INF when a piece is missing (a side crosses an object, or a plane
    graph has no such edge), when an infinite penalty lies inside, or when
    nothing is required.

    The walk is convex, so the recursion derives it (a triangulation of
    the hull), summing the same weights and penalties in another order;
    the factor 1 + 1e-9 is far above that rounding, so no solver's label
    for the walk is dearer than the bound.  A solver seeded with it must
    therefore find an answer."""
    if not fsg.full_mask:
        return INF
    pts, adjacency = fsg.vertices, fsg.adjacency
    # fsg.vertices is sorted, so the required vertices' indices, sorted,
    # are in the order the monotone chain needs.  A required polygon has
    # nonzero area, so the hull has at least three vertices.
    ids = sorted({bisect_left(pts, v) for poly in fsg.instance.required
                  for v in poly.vertices})
    hull: List[int] = []
    for chain in (ids, ids[::-1]):
        start = len(hull)
        for i in chain:
            while len(hull) >= start + 2 and \
                    orient(pts[hull[-2]], pts[hull[-1]], pts[i]) <= 0:
                hull.pop()
            hull.append(i)
        hull.pop()  # the chain's last point starts the other chain
    weight, inside = 0.0, fsg._all
    for a, b in zip(hull, hull[1:] + hull[:1]):
        w = adjacency[a].get(b)
        if w is None:
            cut = [bisect_left(pts, v) for v in split_at(pts[a], pts[b], pts)]
            w = 0.0
            for u, v in zip(cut, cut[1:]):
                piece = adjacency[u].get(v)
                if piece is None:
                    return INF
                w += piece
        weight += w
        inside &= fsg._chord(a, b)
    required, pen = fsg.split_content(inside)
    if required != fsg.full_mask:
        return INF
    return (weight + pen) * (1 + 1e-9)


class Settled:
    """The settled labels, indexed the way `relax` reads them: closed labels
    by vertex, open labels by start then end vertex and by end then start
    vertex.  `add` keeps each list in settling order, `add_by_value` in
    value order, labels of equal value in settling order."""

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

    def add_by_value(self, label: Label) -> None:
        if label.kind == "C":
            insort(self.closed[label.key[0]], label, key=_value)
        else:
            p, q = label.key
            insort(self.open_from[p].setdefault(q, []), label, key=_value)
            insort(self.open_to[q].setdefault(p, []), label, key=_value)


_value = itemgetter(3)  # Label.value


class FutureCost(dict):
    """The future cost h(p, q, mask) of a label M(p, q, mask) or
    U(p, q, mask), and of C(p, mask) at q = p, as the module docstring
    defines it, with c = `scale`; `charged` is the mask of the required
    references h charges while a label's mask lacks them: `fsg.full_mask`
    for the enclosure search and the DP, 0 for the inverted solver, whose
    masks hold the references left outside its curve.  At scale 0 it
    charges nothing and is 0 everywhere.

    self[p][q] = c·|pq| is h where no charged reference is missing: |pq|
    is the float distance the edge weights use, the hypotenuse of the exact
    coordinate differences; a row is built on first use, and self[p][q] ==
    self[q][p] exactly.  reach[p] is the row of c·|pr| over the required
    references, each the hypotenuse of the exact differences to the
    reference's homogeneous coordinates, rounded once as |pq| is; h takes
    the max over the set bits of `charged` & ~mask."""

    def __init__(self, fsg: FreeSpaceGraph, scale: float, charged: int):
        super().__init__()
        self.scale = scale
        self.points = [(v.x, v.y) for v in fsg.vertices]
        self.charged = charged if scale else 0
        refs, hypot = fsg._href[:fsg._k], math.hypot
        self.reach = [[scale * hypot((X - x * W) / W, (Y - y * W) / W)
                       for X, Y, W in refs]
                      for x, y in self.points] if self.charged else []

    def __missing__(self, p: int) -> List[float]:
        scale, (x, y), hypot = self.scale, self.points[p], math.hypot
        row = self[p] = [scale * hypot(u - x, v - y) for u, v in self.points] \
            if scale else [0.0] * len(self.points)
        return row

    def __call__(self, p: int, q: int, mask: int) -> float:
        h = self[p][q] if p != q else 0.0  # a C label needs no row
        missing = self.charged & ~mask
        if missing:
            rp, rq, i = self.reach[p], self.reach[q], 0
            while missing:
                if missing & 1 and rp[i] + rq[i] > h:
                    h = rp[i] + rq[i]
                missing >>= 1
                i += 1
        return h


def label_setting(fsg: FreeSpaceGraph, seeds: Iterable[tuple], expand,
                  h: FutureCost, bound: float, early_stop: bool,
                  stats: Optional[dict] = None):
    """Settle pending labels by f = value + h, keep the first settled label
    per state, and hand it to expand(label, push, bound, pending), which
    derives new labels through push(kind, key, mask, value, t, rule, ops)
    as `relax` does; each seed is a tuple of push's arguments, one per
    state.  Ties break by (value, kind, key, mask): the int state code
    orders like (kind, key, mask) (module docstring), and two entries of
    one state never tie, as a label is pushed only if it is cheaper than
    its state's pending value.  Returns the answer: the first
    settled "C" label with mask `fsg.full_mask` (None if the queue drains).
    With early_stop the loop ends at the answer, else it computes the
    whole fixed point.

    h is the caller's `FutureCost`, which its expand closes over too.
    Exact as long as no rule derives a label cheaper than the one it
    expands (`check_solvable`) and h is consistent: labels settle in
    nondecreasing f, and a state's first settled label is its cheapest.
    Pushes that cannot change a settled label are not queued: push drops
    one whose f exceeds `bound` (strictly).  `bound` starts at the caller's
    incumbent (the enclosure search passes `hull_bound`, INF when there is
    none) and falls under early_stop to each cheaper full-mask "C" value
    pushed (The incumbent, module docstring); a run with a finite incumbent
    that settles no answer raises InternalError.

    `pending` maps each state code pushed so far to its value; a settled
    state holds -INF.  Its entries only fall: each push is cheaper than
    its state's pending entry, so it pops first, and a state's first
    popped entry is its best; one popped once its state holds -INF is
    stale.  push does not read it: expand must skip every label whose
    value is not below pending.get(state, INF), as its state is settled
    or the pending label, pushed first, wins the tie.  It may also skip,
    without deriving it, any label whose value exceeds bound - h: push
    would drop it."""
    n, k, full = fsg.n, fsg._k, fsg.full_mask
    charged = h.charged
    pending: Dict[int, float] = {}
    heap: list = []
    pushed = finalized = 0
    incumbent = bound

    u_base = n + n * n
    new = tuple.__new__  # builds a Label without its Python-level __new__

    def push(kind, key, mask, value, t, rule, ops):
        nonlocal pushed, bound
        if kind == "C":
            p = key[0] if key else -1
            f = value + h(p, p, mask) if charged & ~mask else value
            state = p << k | mask
        else:
            p, q = key
            f = value + (h(p, q, mask) if charged & ~mask else h[p][q])
            state = ((n if kind == "M" else u_base) + p * n + q) << k | mask
        if value == INF or f > bound:
            return
        pending[state] = value
        if early_stop and kind == "C" and mask == full:
            bound = value
        heappush(heap, (f, value, state,
                        new(Label, (kind, key, mask, value, rule, ops, t))))
        pushed += 1

    for seed in seeds:
        push(*seed)

    answer: Optional[Label] = None
    while heap:
        state, label = heappop(heap)[2:]
        if pending[state] == -INF:
            continue
        pending[state] = -INF
        finalized += 1
        if label.kind == "C" and label.mask == full and answer is None:
            answer = label
            if early_stop:
                break
        expand(label, push, bound, pending)

    if stats is not None:
        stats["finalized"] = finalized
        stats["pushed"] = pushed
    if answer is None and incumbent < INF:
        raise InternalError(
            f"no answer settled below the incumbent walk's cost {incumbent!r}")
    return answer


def relax(fsg: FreeSpaceGraph, label: Label, settled: Settled, push,
          closures: bool, bound: float, pending: dict, h: FutureCost) -> None:
    """Derive every label one rule builds from `label` and the settled
    labels, and hand each to push(kind, key, mask, value, t, rule, ops).

    A label never combines with itself, so it may be settled before or
    after this call.  With closures=False rule C1 is off.  In both M2 roles
    of M(a, b) the apex lies strictly left of a -> b.

    `bound` is the caller's incumbent, `pending` maps a state code (module
    docstring) to the value a new label of that state must be cheaper
    than, and `h` is the caller's future cost.  Each partner group
    (settled open labels of one key, or settled closed labels at one
    vertex) is in nondecreasing value: the enclosure search and the DP
    add their labels by `Settled.add_by_value`, as the search settles in f
    order, with an h that reads the mask, and the DP stores in edge-budget
    order; the inverted solver's h ignores the mask, so its groups settle
    in value order.  The cutoffs below read h(target) at a full mask, the
    least h of the target's key.  Every push is checked first:
      * M1, C1 and each C2 or M2 join is pushed only if it is cheaper
        than its target state's pending value;
      * a C2 or M2 partner scan stops at the first join dearer than
        bound - h(target), where push would drop it and every later one;
      * per M2 apex group: when `mask` is already full (always when
        k = 0), every allowed join of the group lands on one state, the
        joined mouth's key with mask `full`, and costs at least
        value + partners[0].value, since penalties are nonnegative and the
        list is sorted; the group is skipped before its triangle content
        is computed if that lower bound exceeds bound - h(target) or does
        not beat the state's pending value.
    Each skipped label could not change a settled label: its value is at
    least the tested one and pending entries only fall.  The DP's entries
    are its states' last stored values.  With bound INF, an empty pending
    map and h = 0 every check is off."""
    value, mask, t = label.value, label.mask, label.t
    n, k = fsg.n, fsg._k
    if label.kind == "C":
        p = label.key[0]
        # M1: a free-space edge pq on top of the closed walk at p.
        row = n + p * n
        for q, w in fsg.adjacency[p].items():
            total = value + w
            if pending.get((row + q) << k | mask, INF) <= total:
                continue
            push("M", (p, q), mask, total, t + 1, "M1", (label,))
        # C2: concatenate with a closed walk at p over a disjoint nonempty set.
        if mask:
            for other in settled.closed[p]:
                total = value + other.value
                if total > bound:
                    break
                if other.mask and not other.mask & mask:
                    joined = mask | other.mask
                    if pending.get(p << k | joined, INF) <= total:
                        continue
                    push("C", (p,), joined, total, t + other.t, "C2",
                         (label, other))
        return
    a, b = label.key
    # C1: the open walk a -> b closes into a walk through b via the edge ba.
    w = fsg.adjacency[b].get(a) if closures else None
    if w is not None:
        total = value + w
        if pending.get(b << k | mask, INF) > total:
            push("C", (b,), mask, total, t + 1, "C1", (label,))
    # M2, with the label as left part M(a, b) of M(a, x) and right parts
    # M(b, x), then as right part M(a, b) of M(x, b) and left parts M(x, a).
    # A role is (partner groups by apex x, the target's end other than x,
    # the target's state code before the shift by k at x = 0, its step per
    # x); h(x, b) is read as h[b][x].  The apex filter `left` is the exact
    # strict-ccw test of the triangle a b x, so its reference mask is
    # L(a, b) & L(b, x) & L(x, a), as in `FreeSpaceGraph.triangle_content`,
    # ANDed here from the chord masks (each resolved on first use); its
    # penalty is read from the penalty memo.  The join test runs once per
    # apex: the triangle holds no required reference of `mask` and no
    # infinite penalty; each partner's mask is then checked against the
    # joined mask `used`.
    left = fsg.left_vertices(a, b)
    chords, penalties, full = fsg._chords, fsg._penalty_memo, fsg.full_mask
    l_ab = chords[a * n + b]
    whole = mask == full
    for groups, end, base, stride in (
            (settled.open_from[b], a, n + a * n, 1),
            (settled.open_to[a], b, n + b, n)):
        h_end = h[end]
        for x, partners in groups.items():
            if not (left >> x) & 1:
                continue
            code = (base + x * stride) << k
            low, cut = value + partners[0].value, bound - h_end[x]
            if low > cut or whole and pending.get(code | mask, INF) <= low:
                continue
            if l_ab is None:
                l_ab = fsg._chord(a, b)
            l_bx, l_xa = chords[b * n + x], chords[x * n + a]
            if l_bx is None:
                l_bx = fsg._chord(b, x)
            if l_xa is None:
                l_xa = fsg._chord(x, a)
            inside = l_ab & l_bx & l_xa
            if inside & mask:
                continue
            cpen = penalties.get(inside >> k)
            if cpen is None:
                cpen = fsg.split_content(inside)[1]
            if cpen == INF:
                continue
            used = mask | inside & full
            for other in partners:
                total = value + other.value + cpen
                if total > cut:
                    break
                if other.mask & used:
                    continue
                joined = used | other.mask
                if pending.get(code | joined, INF) <= total:
                    continue
                if end == a:
                    push("M", (a, x), joined, total, t + other.t,
                         "M2", (label, other))
                else:
                    push("M", (x, b), joined, total, t + other.t,
                         "M2", (other, label))


def closed_ids(label: Label) -> List[int]:
    """Cyclic vertex-id list of the closed walk a C label stands for."""
    p = label.key[0]
    if label.rule == "base":
        return [p]
    if label.rule == "C1":
        return [p] + open_ids(label.ops[0])[:-1]
    if label.rule == "C2":
        first, second = label.ops
        return closed_ids(first) + closed_ids(second)
    raise InternalError(f"no closed-walk rule {label.rule!r}")


def open_ids(label: Label) -> List[int]:
    """Explicit vertex-id path p ... q of the open walk an M label or an
    inverted U label U(p, q) stands for."""
    p, q = label.key
    if label.rule == "M1":
        closed = closed_ids(label.ops[0])
        return (closed + [closed[0], q]) if len(closed) > 1 else [p, q]
    if label.rule in ("M2", "down", "up"):
        left, right = label.ops
        return open_ids(left) + open_ids(right)[1:]
    if label.rule == "base":  # U(v, v), the point v
        return [p]
    raise InternalError(f"no open-walk rule {label.rule!r}")


def closed_walk(fsg: FreeSpaceGraph, label: Label) -> Walk:
    """The closed walk a C label stands for."""
    pts = [fsg.vertices[i] for i in closed_ids(label)]
    return make_walk(fsg.instance, pts)
