"""Uncrossing: turn an arbitrary closed walk into a weakly simple one of no
larger weight.

Three steps: (1) subdivide every edge at interior crossings and at vertices
lying in edge interiors (forks), splitting collinear overlaps into atoms so
that any two remaining segments are equal or internally disjoint; (2) reduce
each atom's multiplicity to 1 (odd) or 2 (even), discarding equal pairs,
which can only lower the weight and preserves winding parity everywhere;
(3) stitch a non-crossing Euler tour of the resulting plane multigraph:
pair edge-ends consecutively in the rotation order at each vertex (a
non-crossing chord matching), then merge the resulting closed trails into a
single tour in one pass over the vertices, rewiring two adjacent chords of
different trails at a shared vertex — the rewiring keeps the matching
non-crossing.  The pass merges every two trails that share a vertex, so it
is also the connectivity check: the trails end as one tour exactly when the
multigraph is connected, and `NotConnected` is raised otherwise.  The tour
is a weakly simple polygon; it is finally oriented counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import NotConnected, NotEulerian
from .geometry import (
    Point,
    Segment,
    angular_key,
    crossing_point,
    segments_properly_cross,
    signed_area2,
    split_at,
)
from .instance import Instance
from .walks import Walk, make_walk


@dataclass
class PlaneMultigraph:
    """Straight-line plane multigraph with edge multiplicities.

    Invariants: no two distinct segments properly cross or overlap, no
    vertex lies in a segment's interior, multiplicities are >= 1.
    `traversal` is the walk split at every vertex lying inside one of its
    edges, a closed vertex sequence in walk order (set by `subdivide_walk`,
    empty after reduction).
    """
    multiplicity: Dict[Tuple[Point, Point], int]
    traversal: List[Point] = field(default_factory=list)


@dataclass
class UncrossReport:
    t: int                       # input edge count
    s: int                       # interior crossing count
    forks: int                   # vertices found in edge interiors
    discarded: int               # equal-segment pairs dropped


def _clean_points(walk: Walk) -> List[Point]:
    pts: List[Point] = []
    for p in walk.points:
        if not pts or pts[-1] != p:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    return pts


def subdivide_walk(walk: Walk) -> Tuple[PlaneMultigraph, UncrossReport]:
    """Split every edge at interior crossings and at points of the walk's
    vertex/crossing set lying in its relative interior."""
    pts = _clean_points(walk)
    edges = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))] \
        if len(pts) > 1 else []
    segs = [Segment(a, b) for a, b in edges]

    crossings = set()
    s = 0
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if segments_properly_cross(segs[i], segs[j]):
                crossings.add(crossing_point(segs[i], segs[j]))
                s += 1
    cut_candidates = set(pts) | crossings

    multiplicity: Dict[Tuple[Point, Point], int] = {}
    traversal: List[Point] = []
    fork_points = set()
    for a, b in edges:
        chain = split_at(a, b, cut_candidates)
        fork_points.update(p for p in chain[1:-1] if p not in crossings)
        traversal += chain[:-1]
        for u, v in zip(chain, chain[1:]):
            key = (u, v) if u <= v else (v, u)
            multiplicity[key] = multiplicity.get(key, 0) + 1

    g = PlaneMultigraph(multiplicity, traversal)
    return g, UncrossReport(t=len(edges), s=s, forks=len(fork_points), discarded=0)


def reduce_multiplicities(g: PlaneMultigraph) -> Tuple[PlaneMultigraph, int]:
    """Drop equal-segment pairs down to multiplicity 2 (even) or 1 (odd);
    returns the reduced graph and the number of discarded pairs."""
    out: Dict[Tuple[Point, Point], int] = {}
    discarded = 0
    for key, m in g.multiplicity.items():
        keep = 1 if m % 2 else 2
        out[key] = keep
        discarded += (m - keep) // 2
    return PlaneMultigraph(out), discarded


def non_crossing_euler_tour(g: PlaneMultigraph) -> List[Point]:
    """Closed vertex sequence using every edge copy exactly once, with a
    non-crossing transition pairing at every vertex."""
    copies: List[Tuple[Point, Point]] = []
    for key in sorted(g.multiplicity):
        copies.extend([key] * g.multiplicity[key])
    if not copies:
        raise NotEulerian("no edges")

    # Edge-ends per vertex in ccw rotation order (parallel copies adjacent).
    ends_at: Dict[Point, List[Tuple[Point, int]]] = {}
    for cid, (a, b) in enumerate(copies):
        ends_at.setdefault(a, []).append((b, cid))
        ends_at.setdefault(b, []).append((a, cid))
    for v, ends in ends_at.items():
        if len(ends) % 2:
            raise NotEulerian(f"odd degree at {v}")
        keyf = angular_key(v)
        # Parallel copies of one atom run on separate tracks; a planar
        # realization lists the tracks in opposite order at the two
        # endpoints, so mirror the copy order at the larger endpoint.
        ends.sort(key=lambda e, v=v: (
            keyf(e[0]),
            e[1] if v <= e[0] else -e[1]))

    # partner[(v, slot)] = slot of the matched end at v.  The closed trails
    # are union-find classes of copy ids, joined by each matched pair.
    partner: Dict[Tuple[Point, int], int] = {}
    slot_of: Dict[Tuple[int, Point], int] = {}
    trail = list(range(len(copies)))

    def find(cid: int) -> int:
        while trail[cid] != cid:
            trail[cid] = trail[trail[cid]]
            cid = trail[cid]
        return cid

    for v, ends in ends_at.items():
        for i, (_other, cid) in enumerate(ends):
            slot_of[(cid, v)] = i
        for i in range(0, len(ends), 2):
            partner[(v, i)] = i + 1
            partner[(v, i + 1)] = i
            trail[find(ends[i][1])] = find(ends[i + 1][1])

    def trail_from(start: int) -> List[Tuple[int, Point]]:
        """(copy id, entry vertex) along the closed trail through copy
        start under the current pairing, entering start at its first end."""
        steps: List[Tuple[int, Point]] = []
        cid, enter = start, copies[start][0]
        while not steps or cid != start:
            steps.append((cid, enter))
            a, b = copies[cid]
            out = b if enter == a else a
            cid, enter = ends_at[out][partner[(out, slot_of[(cid, out)])]][1], out
        return steps

    # One pass merges the trails: trails only merge, so a pair of adjacent
    # ends that lie on one trail never becomes a candidate again.
    for v in sorted(ends_at):
        ends = ends_at[v]
        d = len(ends)
        for i in range(d):
            j = (i + 1) % d
            ti, tj = find(ends[i][1]), find(ends[j][1])
            if ti == tj:
                continue
            # Rewire chords (pi, i) and (j, pj) into (i, j) and (pi, pj):
            # the new chords stay non-crossing and the two trails merge.
            pi, pj = partner[(v, i)], partner[(v, j)]
            partner[(v, i)], partner[(v, j)] = j, i
            partner[(v, pi)], partner[(v, pj)] = pj, pi
            trail[ti] = tj

    # Walk the single trail starting from copy 0 out of its smaller endpoint;
    # trails in different components never merge, so on a disconnected
    # multigraph it is shorter.
    tour = trail_from(0)
    if len(tour) != len(copies):
        raise NotConnected("the trails did not merge into one tour")
    return [enter for _cid, enter in tour]


def uncross(inst: Instance, walk: Walk) -> Tuple[Walk, UncrossReport]:
    """Weakly simple closed walk of no larger weight, oriented ccw."""
    g, report = subdivide_walk(walk)
    if not g.multiplicity:
        return make_walk(inst, _clean_points(walk)[:1]), report
    g, discarded = reduce_multiplicities(g)
    report.discarded = discarded
    tour = non_crossing_euler_tour(g)
    if signed_area2(tour) < 0:
        tour = list(reversed(tour))
    return make_walk(inst, tour), report
