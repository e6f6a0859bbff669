"""One instance document through the library pipeline the CLI runs, the
benchmark's correctness gate, and span tracing at the layer boundaries.

The pipeline is parse_instance -> validate_and_subdivide ->
compute_free_space_edges -> solver -> uncross (enclose mode) ->
evaluate_solution.  Every layer is entered through a probe: `Direct` just
calls it, `Tracer` records a span around the call.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

REL_TOL = 1e-9  # the cost rule `enclosure --verify` applies


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Direct:
    """Calls each layer without recording anything (the timed run)."""
    tracing = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span
    instance: int           # shared by every span of one instance


class Tracer:
    """Keeps one span per layer call, and per-layer counts, in memory."""
    tracing = True

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = {}
        self.instance = -1
        self._open: List[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.instance)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: Dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s._asdict() for s in self.spans],
                       "counts": self.counts}, fh)


def _takes_stats(fn) -> bool:
    return "stats" in inspect.signature(fn).parameters


def _verify(E, inst, walk):
    """evaluate_solution(check_simple=True), the check `enclosure --verify`
    runs.  Its weak-simplicity test expects a counterclockwise walk (sampled
    windings in {0, 1}), while the inverted solver returns a clockwise one;
    such a walk is weakly simple exactly when its reversal is, so the
    reversal is the walk that test receives."""
    if E.signed_area2(walk.points) >= 0:
        return E.evaluate_solution(inst, walk, check_simple=True)
    sol = E.evaluate_solution(inst, walk, check_simple=False)
    ccw = dataclasses.replace(walk, points=tuple(reversed(walk.points)))
    sol.checks["weakly_simple"] = E.check_weak_simplicity(ccw)
    return sol


def solve_document(E, doc: str, solver: str, probe, expected=None):
    """Solve one document and gate the result.

    Returns (cost, problem); problem is None when the solution passed every
    check: the verifier finds it feasible with every boolean check true, its
    re-derived cost matches the solver's within REL_TOL, and the cost equals
    `expected` when a known answer is given."""
    inst = probe.call("instance.parse", E.parse_instance, doc)
    inst = probe.call("instance.validate", E.validate_and_subdivide, inst)
    fsg = probe.call("freespace.build", E.compute_free_space_edges, inst)
    if probe.tracing:
        probe.count("instance.vertices", fsg.n)
        probe.count("instance.rational_refs", sum(
            1 for poly in inst.polygons
            if any(getattr(c, "denominator", 1) != 1 for c in poly.reference_point)))
        probe.count("freespace.edges", len(fsg.edges))
        probe.count("freespace.pairs", fsg.n * (fsg.n - 1) // 2)

    fn, args = {"dijkstra": (E.solve_dijkstra, (fsg,)),
                "dp": (E.solve_dp, (fsg,)),
                "inverted": (E.solve_inverted, (inst, fsg))}[solver]
    stats = {} if probe.tracing and _takes_stats(fn) else None
    kwargs = {} if stats is None else {"stats": stats}
    cost, walk = probe.call(f"{solver}.solve", fn, *args, **kwargs)
    if stats:
        probe.count(f"{solver}.pushed", stats["pushed"])
        probe.count(f"{solver}.finalized", stats["finalized"])
    if walk is None or math.isinf(cost):
        return cost, "no finite-cost solution"

    if inst.mode == "enclose":
        walk, report = probe.call("uncrossing.uncross", E.uncross, inst, walk)
        probe.count("uncrossing.forks", report.forks)
        probe.count("uncrossing.discarded", report.discarded)
    sol = probe.call("verify.evaluate", _verify, E, inst, walk)

    failed = [name for name, ok in sol.checks.items()
              if isinstance(ok, bool) and not ok]
    if not sol.feasible or failed:
        return cost, f"verifier rejected the solution: {failed or 'infeasible'}"
    if not rel_close(sol.cost, cost):
        return cost, f"verified cost {sol.cost} != solver cost {cost}"
    if expected is not None and not rel_close(cost, expected):
        return cost, f"cost {cost} != known optimum {expected}"
    return cost, None
