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
through v is `x_at_most(v.x)` or its complement, a plank is
`FreeSpaceGraph.plank` of its chord; both are memoized reference masks.

Every rule adds a positive mouth value or a nonnegative penalty to its
operand, so the U search runs on the enclosure search's label-setting
queue (`recursion.label_setting`), in A* order by f = value + h.  A U label
U(p, q) gets h = c·|pq| (c as in `recursion.py`), the finish h = 0.  h is
consistent: a walk that closes U(p, q) must still get from q back to p, and
each down or up plank adds a mouth worth at least c times the length of
its chord, so by the triangle inequality a plank from U(p, q) to U(far, q)
raises h by at most c·|far p|, no more than the mouth adds; the finish
takes U(s, s), whose h is 0.  U labels are `Label("U", (p, q), ...)` and
all inverted rules rank with "base", so they settle by (f, value, p, q, B,
push order); at equal f and value a finish settles before any U label,
and the first finish settled is the answer.  Mouth lists are in settling
order and one group's targets share their h, so a plank scan stops at the
queue's bound less the target's h, and its group's first mouth gives a
lower bound on every plank through that chord.  Before it looks up a
plank's content, the scan asks the queue's pending map for the target
state: when the U label's mask is already full (always when k = 0) every
plank of the group lands on one state, and the group is skipped if that
state is settled or pending at no more than the lower bound; each mouth's
exact target is asked again before its push, and so is the finish's, as
the queue requires.  Either way only labels that could not win are
skipped.

The mouths are the open labels of the label-setting search of `dijkstra.py`
with the closing rule C1 off (a full fixed point, unbounded, so it runs
with h = 0), read from its settled-label index; the rules that build them
(`relax`), the precondition check, the label type and the rebuild of a
mouth's or a U label's walk (`open_ids`: a down or up label joins its two
operands' walks in walk order, like M2) come from `recursion.py`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .dijkstra import _search
from .errors import InternalError
from .freespace import FreeSpaceGraph
from .instance import Instance
from .recursion import (
    INF, UNSEEN, Label, check_solvable, label_setting, open_ids)
from .walks import Walk, make_walk


def solve_inverted(inst: Instance, fsg: FreeSpaceGraph,
                   stats: Optional[dict] = None) -> Tuple[float, Optional[Walk]]:
    """Minimum inverted cost and an optimal clockwise closed walk.

    A point walk (or the empty walk on empty instances) stands for
    enclosing nothing and paying every optional penalty."""
    check_solvable(fsg)
    full = fsg.full_mask

    all_pen = sum(p for p, _ in fsg._optional_refs)
    if fsg.n == 0:
        # Nothing can be enclosed: everything is outside the empty curve.
        return (all_pen, Walk((), 0.0)) if full == 0 else (INF, None)

    # A counterclockwise loop hanging off the curve would give its interior
    # winding +1, which no clockwise weakly simple curve has, so pockets are
    # mouths without closed-loop attachments: rule C1 is off.
    counts: dict = {}
    _answer, mouths = _search(fsg, early_stop=False, closures=False,
                              stats=counts)

    verts = fsg.vertices
    n, k = fsg.n, fsg._k

    def expand(lab: Label, push, bound: float, pending: dict, h) -> None:
        p, q = lab.key
        mask, value, t = lab.mask, lab.value, lab.t
        if p == q:  # a finish ranks 0, as every rule into its state does
            right, pen = fsg.split_content(fsg._all & ~fsg.x_at_most(verts[p].x))
            if not (right & mask) and (right | mask) == full and \
                    pending.get(-1 << k | full, UNSEEN)[0] > value + pen:
                push("C", (), full, value + pen, t, "finish", (lab,))
        # Down-plank: prepend a chord far -> p with far.x >= p.x; up-plank:
        # append a chord q -> far with far.x >= q.x.  The chord is the key of
        # every mouth in its group, and the group's target U(far, q) or
        # U(p, far) has one h, h(far, q) = h[q][far] or h(p, far) =
        # h[p][far], and one state code base (`recursion.py`: code << k,
        # with code n + p·n + q for U(p, q) and -1 for the finish).  With
        # `mask` full every allowed plank lands on (key, full), so that
        # state is asked before the plank.
        # Every rule into a U state ranks 0, so pending (value, rank) is no
        # larger than (total, 0) exactly when its value is <= total.
        for down, near, groups in ((True, p, mouths.open_to[p]),
                                   (False, q, mouths.open_from[q])):
            rule, h_near = ("down", h[q]) if down else ("up", h[p])
            for far, group in groups.items():
                if verts[far].x < verts[near].x:
                    continue
                low, cut = value + group[0].value, bound - h_near[far]
                code = (n + far * n + q if down else n + p * n + far) << k
                if low > cut or mask == full and pending.get(
                        code | full, UNSEEN)[0] <= low:
                    continue
                inside, pen = fsg.plank(*group[0].key, not down)
                if pen == INF or mask & inside:
                    continue
                used = mask | inside
                key = (far, q) if down else (p, far)
                for mouth in group:
                    total = value + mouth.value + pen
                    if total > cut:
                        break
                    joined = used | mouth.mask
                    if used & mouth.mask or pending.get(
                            code | joined, UNSEEN)[0] <= total:
                        continue
                    push("U", key, joined, total, t + mouth.t, rule,
                         (mouth, lab) if down else (lab, mouth))

    seeds = [("U", (v, v), *fsg.split_content(fsg.x_at_most(verts[v].x)), 0,
              "base", ()) for v in range(fsg.n)]
    answer = label_setting(fsg, seeds, expand, early_stop=True, stats=stats)
    if stats is not None:  # count the mouth search too
        stats.update({name: stats[name] + counts[name] for name in counts})

    if answer is None:
        return INF, None
    ids = open_ids(answer.ops[0])
    if ids[0] != ids[-1]:
        raise InternalError(f"inverted walk does not close: {ids[0]} != {ids[-1]}")
    pts = [verts[i] for i in ids[:-1]] if len(ids) > 1 else [verts[ids[0]]]
    return answer.value, make_walk(inst, pts)
