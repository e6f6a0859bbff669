"""Brute-force ground truth for toy instances, plus a seeded random
instance generator.

The oracle enumerates closed walks over the free-space graph up to an edge
budget, canonicalized up to rotation, reflection and start vertex, and
scores each raw candidate by its reference windings under the verifier's
rule (`walks.winding_rule`), skipping walks whose windings, up to a global
sign, leave {0, 1}; only the best walk is uncrossed and re-checked by
`evaluate_solution`, as solver output is (no solver logic is shared).
Pruning is admissible — a partial walk is abandoned only when its
accumulated weight alone already reaches the best known cost, or when it
provably cannot return to its start within the remaining budget — so a
completed run is equivalent to full enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import List, Optional, Tuple

from .errors import GenerationFailure, InternalError, ReferenceOnWalk, SearchSpaceTooLarge
from .freespace import FreeSpaceGraph
from .geometry import boxes_meet
from .instance import Instance, parse_instance, validate_and_subdivide
from .uncrossing import uncross
from .verify import evaluate_solution
from .walks import Walk, make_walk, reference_windings, winding_rule

INF = math.inf

MAX_ORACLE_VERTICES = 10
MAX_ORACLE_EDGES = 12


@dataclass
class OracleResult:
    best_cost: float
    best_walk: Optional[Walk]
    walks_examined: int
    exhausted: bool


def _hop_distances(fsg: FreeSpaceGraph, s: int) -> List[int]:
    dist = [len(fsg.vertices) + 1] * len(fsg.vertices)
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in fsg.adjacency[u]:
                if dist[v] > dist[u] + 1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _canonical(ids: Tuple[int, ...]) -> Tuple[int, ...]:
    """Lexicographically minimal rotation of the cycle or its reversal."""
    best = None
    m = len(ids)
    for seq in (ids, ids[::-1]):
        for i in range(m):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def brute_force(inst: Instance, fsg: FreeSpaceGraph,
                max_edges: int = 10) -> OracleResult:
    """Exhaustive minimum over closed walks of at most max_edges free-space
    edges (plus point walks); see the module docstring for the contract."""
    if fsg.n > MAX_ORACLE_VERTICES:
        raise SearchSpaceTooLarge(
            f"{fsg.n} free-space vertices exceed the oracle cap of "
            f"{MAX_ORACLE_VERTICES}")
    if max_edges > MAX_ORACLE_EDGES:
        raise SearchSpaceTooLarge(
            f"max_edges={max_edges} exceeds the oracle cap of {MAX_ORACLE_EDGES}")

    mode = inst.mode
    # A free-space walk keeps out of the unbounded polygon's interior, so
    # it winds 0 around that polygon's reference point: in invert mode
    # every curve, the point walk too, pays its penalty.
    if mode == "invert" and any(p.unbounded and math.isinf(p.penalty)
                                for p in inst.optional):
        return OracleResult(INF, None, 0, True)
    best_cost = INF
    best_walk: Optional[Walk] = None
    examined = 0
    seen: set = set()

    def consider(points) -> None:
        """Score a raw enumerated walk by the winding-number cost.

        Walks whose reference windings leave {0, 1} (up to a global sign)
        are skipped: their uncrossed versions keep the winding parity and a
        weight no larger, and live on the same vertex set, so an equivalent
        walk is enumerated separately.  For the surviving walks the raw
        cost equals the cost of their uncrossing, which keeps the minimum
        exact without uncrossing every candidate.
        """
        nonlocal best_cost, best_walk, examined
        examined += 1
        walk = make_walk(inst, points)
        try:
            winds = reference_windings(inst, walk.points)
        except ReferenceOnWalk:
            return
        if any(w < 0 for w in winds):
            winds = [-w for w in winds]
        if any(w not in (0, 1) for w in winds):
            return
        cost, _enclosed, feasible = winding_rule(inst, walk.weight, winds, mode)
        if feasible and cost < best_cost:
            best_cost = cost
            best_walk = walk

    # Point walks: enclose nothing (always feasible in invert mode, and in
    # enclose mode only when nothing is required).
    if fsg.n == 0:
        if not inst.required:
            pen = sum(p.penalty for p in inst.optional) if mode == "invert" else 0.0
            return OracleResult(pen, Walk((), 0.0), 1, True)
        return OracleResult(INF, None, 0, True)
    consider([fsg.vertices[0]])

    for s in range(fsg.n):
        dist = _hop_distances(fsg, s)
        path = [s]

        def dfs(weight: float) -> None:
            nonlocal best_cost
            u = path[-1]
            for v, w in sorted(fsg.adjacency[u].items()):
                if v < s:
                    continue  # the minimal vertex of the cycle is the start
                nw = weight + w
                if nw >= best_cost:
                    continue
                if v == s and len(path) >= 2:
                    key = _canonical(tuple(path))
                    if key not in seen:
                        seen.add(key)
                        consider([fsg.vertices[i] for i in path])
                if len(path) < max_edges and nw < best_cost \
                        and dist[v] <= max_edges - len(path):
                    path.append(v)
                    dfs(nw)
                    path.pop()

        dfs(0.0)

    if best_walk is not None and len(best_walk.points) > 1:
        candidate, _report = uncross(inst, best_walk)
        sol = evaluate_solution(inst, candidate, check_simple=False)
        if not (sol.feasible
                and abs(sol.cost - best_cost) <= 1e-9 * max(1.0, abs(best_cost))):
            raise InternalError("uncrossed best walk must reproduce the enumerated cost")
        best_walk = candidate
    return OracleResult(best_cost, best_walk, examined, True)


_SHAPES = ("square", "triangle", "rect")


def random_instance(seed: int, n_objects: int, k: int,
                    grid: int = 36, mode: str = "enclose",
                    penalty_pool: Tuple = (0, 1, 2, 5, 10, "inf"),
                    max_side: int = 3, retries: int = 400) -> Instance:
    """Reproducible random instance: disjoint axis-aligned squares,
    rectangles and right triangles on a bounded grid, k of them required."""
    if n_objects < 0 or k < 0:
        raise GenerationFailure(f"n_objects={n_objects} and k={k} must be nonnegative")
    if k > n_objects:
        raise GenerationFailure(f"k={k} exceeds n_objects={n_objects}")
    rng = Random(seed)

    def candidate_shape():
        side = rng.randint(1, max_side)
        x = rng.randint(0, grid - side - 1)
        y = rng.randint(0, grid - side - 1)
        shape = rng.choice(_SHAPES)
        if shape == "square":
            return [(x, y), (x + side, y), (x + side, y + side), (x, y + side)]
        if shape == "rect":
            h = rng.randint(1, max_side)
            return [(x, y), (x + side, y), (x + side, y + h), (x, y + h)]
        return [(x, y), (x + side, y), (x, y + side)]

    def box(verts, grow=0):
        xs, ys = [p[0] for p in verts], [p[1] for p in verts]
        return min(xs) - grow, min(ys) - grow, max(xs) + grow, max(ys) + grow

    placed: List[list] = []
    attempts = 0
    while len(placed) < n_objects:
        attempts += 1
        if attempts > retries:
            raise GenerationFailure(
                f"could not place {n_objects} disjoint objects in {retries} tries")
        cand = candidate_shape()
        # Keep every two boxes more than one unit apart.
        if not any(boxes_meet(box(cand, 1), box(other)) for other in placed):
            placed.append(cand)

    indices = list(range(n_objects))
    rng.shuffle(indices)
    required_set = set(indices[:k])
    polys = []
    for i, verts in enumerate(placed):
        if i in required_set:
            polys.append({"id": f"obj{i}", "kind": "required",
                          "vertices": [list(v) for v in verts]})
        else:
            polys.append({"id": f"obj{i}", "kind": "optional",
                          "penalty": rng.choice(penalty_pool),
                          "vertices": [list(v) for v in verts]})
    inst = parse_instance({"polygons": polys, "mode": mode})
    return validate_and_subdivide(inst)
