"""Inverted solver: cheapest clockwise closed curve leaving every required
object outside while paying penalties for optional objects left outside.
With no required objects this is a geometric knapsack: enclose objects whose
boundary cost is worth saving their penalty.

The outside region of the final curve is assembled outside-in from a
partition into a left half-plane, "planks" (strips bounded by a chord and
two vertical rays), pockets (mouth regions of the standard solver), and a
right half-plane.  A label U(p, q, B) is the cheapest partial assembly whose
region is bounded by a vertical ray down from p, a walk from p to q along
the (eventual) curve, and a vertical ray up from q, with exactly the
required references B inside the region and all optional penalties inside
it already paid.

Transitions, validated against the brute-force oracle:
  * base: U(v, v, B0) = penalties of the left half-plane {x <= v.x};
  * down-plank: prepend a chord p' -> p with p'.x >= p.x, paying the
    content of the strip strictly below the chord plus the standard mouth
    value M(p', p, .) for the actual walk spanning it (a bare edge is the
    M1 case, richer pockets come for free);
  * up-plank: append a chord q -> q' with q'.x >= q.x symmetrically, using
    the strip strictly above and M(q, q', .);
  * finish: U(s, s, B) plus the right half-plane {x > s.x}, provided the
    union covers every required object exactly once; it is a closed label
    C((), all required) whose only operand is the U label.

Contents are asked of the free-space graph by vertex index: a half-plane
through v is `x_at_most(v.x)` or its complement, a memoized reference
mask; a plank is `FreeSpaceGraph.plank` of its chord and side, asked
once and kept in the plank index below.

The mouths and the U labels settle in one run of the enclosure search's
label-setting queue (`recursion.label_setting`), in A* order by f = value +
h, and the answer's bound stops both.  Every rule adds a positive edge
weight or mouth value or a nonnegative penalty to its operands.  The mouths
are the open labels of the enclosure recursion with the closing rule C1
off, built from the single-edge mouths M1 on the point walks by `relax`
over their own settled-label index.  A mouth M(p, q) and a U label U(p, q)
get h = c·|pq| (c as in `recursion.py`), the finish h = 0: a `FutureCost`
that, unlike the enclosure search's, charges no required reference
(`charged` = 0), as here a mask holds references left outside the curve.
h is consistent: a walk that closes U(p, q) must still get from q back
to p, and each down or up plank adds a mouth worth at least c times the
length of its chord, so by the triangle inequality a plank from U(p, q)
to U(far, q) raises h by at most c·|far p|, no more than the mouth adds;
and v(U(p, q)) >= c·|pq|, so the plank's f is no less than the mouth's
(the proof for all rules is in `recursion.py`).  U labels are
`Label("U", (p, q), ...)` with their own state codes, so they settle by
(f, value, p, q, B), and within one state at equal value the first push
wins, as for every label (Ties, `recursion.py`); at equal f and value a
finish settles before any mouth or U label, and the first finish settled
is the answer.

A plank joins a mouth with a U label, whichever settles second: a settled
U label joins the settled mouths of the chords that reach its ends, a
settled mouth the settled U labels at the end its chord reaches.  The
plank index keeps both by that chord end: the U labels in a `Settled`
index of their own, and per chord its plank content, looked up once when
its first mouth settles, beside the chord key's list in the mouths'
`Settled` index, the one `relax` reads.  One group's labels are in
settling order and share their target's h, so a scan stops at the
queue's bound less that h; when the joining label's mask is
already full (always when k = 0) every join of a group lands on one
state, and only the group's first disjoint label can beat it.  Otherwise
the scan goes on past that label: a later one of another mask reaches
another state, and the optimum may need it, as when a required object
sits in a pocket whose chord's bare edge settled first.  Each join's
exact target is asked of the queue's pending map before its push, and so
is the finish's, as the queue requires; only labels that could not win are
skipped.

The precondition check, the label type, the settled-label index
(`Settled`), the rules that build the mouths (`relax`) and the rebuild of
a mouth's or a U label's walk (`open_ids`: a down or up label joins its
two operands' walks in walk order, like M2) come from `recursion.py`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import InternalError
from .freespace import FreeSpaceGraph
from .instance import Instance
from .recursion import (
    INF, FutureCost, Label, Settled, check_solvable, label_setting, open_ids,
    relax)
from .walks import Walk, make_walk


def solve_inverted(inst: Instance, fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum inverted cost and an optimal clockwise closed walk.

    A point walk (or the empty walk on empty instances) stands for
    enclosing nothing and paying every optional penalty."""
    check_solvable(fsg)
    full = fsg.full_mask

    if fsg.n == 0:
        # Nothing can be enclosed: everything is outside the empty curve.
        return (sum(fsg._penalties), Walk((), 0.0)) if full == 0 else (INF, None)

    verts = fsg.vertices
    xs = [v.x for v in verts]
    n, k = fsg.n, fsg._k
    u_base = n + n * n  # U(p, q) has state code u_base + p·n + q
    # The plank index by the chord end v a plank reaches: the settled U
    # labels, U(v, q) by q in us.open_from[v] and U(p, v) by p in
    # us.open_to[v]; and per chord the (inside, penalty, mouths) of the
    # mouths M(a, v), a.x >= v.x, by a (down) and M(v, b), b.x >= v.x, by b
    # (up), where mouths is the settled mouths' own list for that key.
    mouths, us = Settled(n), Settled(n)
    downs: list = [{} for _ in range(n)]
    ups: list = [{} for _ in range(n)]
    h = FutureCost(fsg, fsg.h_scale, 0)

    def expand(lab: Label, push, bound: float, pending: dict) -> None:
        s, e = lab.key
        if lab.kind == "U":
            us.add(lab)
            if s == e:
                right, pen = fsg.split_content(fsg._all & ~fsg.x_at_most(xs[s]))
                value = lab.value + pen
                if not (right & lab.mask) and (right | lab.mask) == full and \
                        pending.get(-1 << k | full, INF) > value:
                    push("C", (), full, value, lab.t, "finish", (lab,))
            if downs[s]:
                join(lab, downs[s], True, None, push, bound, pending)
            if ups[e]:
                join(lab, ups[e], False, None, push, bound, pending)
            return
        # A counterclockwise loop hanging off the curve would give its
        # interior winding +1, which no clockwise weakly simple curve has,
        # so pockets are mouths without closed-loop attachments: rule C1
        # is off.
        mouths.add(lab)
        relax(fsg, lab, mouths, push, False, bound, pending, h)
        for up, chords, far, near, partners, group in (
                (False, downs[e], s, e, us.open_from[e], mouths.open_to[e]),
                (True, ups[s], e, s, us.open_to[s], mouths.open_from[s])):
            if xs[far] < xs[near]:
                continue
            chord = chords.get(far)
            if chord is None:
                chord = chords[far] = (*fsg.plank(s, e, up), group[far])
            if partners and chord[1] != INF and not lab.mask & chord[0]:
                join(lab, partners, up, chord[:2], push, bound, pending)

    def join(lab: Label, groups: dict, before: bool, plank, push,
             bound: float, pending: dict) -> None:
        """Join `lab` across a plank with each settled label of the other
        kind in `groups`, a plank index entry keyed by the target's free
        end; with `before` the group's labels precede `lab` in walk order.
        `plank` is the (inside, penalty) of `lab` if it is a mouth, and
        each group a list of U labels from `us`; else each group is a
        chord's (inside, penalty, mouths), mouths being that chord's list
        in the mouths' `Settled` index."""
        mask, value, t = lab.mask, lab.value, lab.t
        whole = mask == full
        rule = "up" if before == (plank is not None) else "down"
        fixed = lab.key[1] if before else lab.key[0]
        h_end = h[fixed]
        base, stride = (u_base + fixed, n) if before else (u_base + fixed * n, 1)
        if plank is not None:
            inside, pen = plank
        for end, group in groups.items():
            if plank is None:
                inside, pen, group = group
                if pen == INF or mask & inside:
                    continue
            cut, used = bound - h_end[end], mask | inside
            code = (base + end * stride) << k
            for other in group:
                total = value + other.value + pen
                if total > cut:
                    break
                if used & other.mask:
                    continue
                joined = used | other.mask
                if pending.get(code | joined, INF) > total:
                    push("U", (end, fixed) if before else (fixed, end), joined,
                         total, t + other.t, rule,
                         (other, lab) if before else (lab, other))
                if whole:
                    break

    # The seeds: the single-edge mouths M1 on the point walks C(p, {}) = 0,
    # and the base labels U(v, v) of the left half-planes.  The point walks
    # themselves are not queued: with k = 0 their mask is full, and the
    # queue would take one for the answer.
    points = [Label("C", (p,), 0, 0.0, "base") for p in range(n)]
    seeds = [("M", (p, q), 0, w, 1, "M1", (points[p],))
             for p in range(n) for q, w in fsg.adjacency[p].items()]
    seeds += [("U", (v, v), *fsg.split_content(fsg.x_at_most(xs[v])), 0,
               "base", ()) for v in range(n)]
    answer = label_setting(fsg, seeds, expand, h, INF, True, stats)

    if answer is None:
        return INF, None
    ids = open_ids(answer.ops[0])
    if ids[0] != ids[-1]:
        raise InternalError(f"inverted walk does not close: {ids[0]} != {ids[-1]}")
    pts = [verts[i] for i in ids[:-1]] if len(ids) > 1 else [verts[ids[0]]]
    return answer.value, make_walk(inst, pts)
