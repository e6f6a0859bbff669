"""Command-line entry point.

Loads an instance (or generates one), runs the selected solver, optionally
verifies the result and cross-checks it against the brute-force oracle, and
writes JSON results plus an SVG rendering.

Exit codes: 0 feasible solve, 2 infeasible (cost "inf"), 1 error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .dijkstra import solve_dijkstra
from .dp import solve_dp
from .errors import EnclosureError
from .freespace import compute_free_space_edges
from .instance import parse_instance, validate_and_subdivide
from .inverted import solve_inverted
from .oracle import brute_force, random_instance
from .svg import render_svg
from .uncrossing import uncross
from .verify import _fmt_cost, evaluate_solution


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="enclosure",
        description="Minimum-cost enclosing curve solver: enclose required "
                    "polygons, pay penalties for optional ones.")
    p.add_argument("--input", help="instance JSON file (- for stdin)")
    p.add_argument("--mode", choices=["enclose", "invert"],
                   help="override the instance mode")
    p.add_argument("--solver", choices=["dp", "dijkstra", "oracle"],
                   default="dijkstra")
    p.add_argument("--out", help="write the solution JSON here (default stdout)")
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--verify", action="store_true",
                   help="re-check the solution with the independent verifier")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check the cost against the brute-force oracle")
    p.add_argument("--gen", metavar="N_OBJECTS,K",
                   help="generate a random instance instead of reading one")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--debug-freespace", action="store_true",
                   help="include the free-space graph in the JSON output")
    return p


def _load_instance(args):
    if args.gen:
        try:
            n_objects, k = (int(x) for x in args.gen.split(","))
        except ValueError:
            raise EnclosureError(f"--gen expects N_OBJECTS,K, got {args.gen!r}")
        return random_instance(args.seed, n_objects, k,
                               mode=args.mode or "enclose")
    if not args.input:
        raise EnclosureError("one of --input or --gen is required")
    if args.input == "-":
        data = sys.stdin.read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    inst = parse_instance(data)
    if args.mode:
        from dataclasses import replace
        inst = replace(inst, mode=args.mode)
    return validate_and_subdivide(inst)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inst = _load_instance(args)
        fsg = compute_free_space_edges(inst)
        t0 = time.perf_counter()
        solver = args.solver
        if solver == "oracle":
            res = brute_force(inst, fsg)
            cost, walk = res.best_cost, res.best_walk
        elif inst.mode == "invert":
            solver = "inverted"
            cost, walk = solve_inverted(inst, fsg)
        elif solver == "dp":
            cost, walk = solve_dp(fsg)
        else:
            cost, walk = solve_dijkstra(fsg)
        elapsed = time.perf_counter() - t0

        report = {"cost": _fmt_cost(cost), "mode": inst.mode,
                  "solver": solver, "time_seconds": round(elapsed, 6)}
        feasible = not math.isinf(cost)
        if walk is not None and feasible:
            if inst.mode == "enclose" and args.solver in ("dp", "dijkstra"):
                walk, ucr = uncross(inst, walk)
                report["uncrossing"] = {"t": ucr.t, "s": ucr.s,
                                        "forks": ucr.forks,
                                        "discarded": ucr.discarded}
            sol = evaluate_solution(inst, walk, check_simple=args.verify)
            report.update(sol.to_json_dict())
            report["cost"] = _fmt_cost(cost)
            feasible = sol.feasible
            if args.verify:
                ok = abs(sol.cost - cost) <= 1e-9 * max(1.0, abs(cost))
                report["checks"]["cost_matches_solver"] = ok
                feasible = feasible and ok and all(
                    v for v in report["checks"].values() if isinstance(v, bool))
        if args.oracle_check:
            ores = brute_force(inst, fsg)
            agree = (math.isinf(ores.best_cost) and math.isinf(cost)) or \
                abs(ores.best_cost - cost) <= 1e-9 * max(1.0, abs(cost))
            report["oracle"] = {"cost": _fmt_cost(ores.best_cost),
                                "walks_examined": ores.walks_examined,
                                "exhausted": ores.exhausted,
                                "agrees": agree}
        if args.debug_freespace:
            report["free_space"] = fsg.to_json_dict()

        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if args.svg:
            render_svg(inst, walk, args.svg)
        return 0 if feasible else 2
    except (EnclosureError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
