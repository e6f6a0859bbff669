#!/usr/bin/env python3
"""Enclosure benchmark.

    python3 perfbench/run.py --workload pool --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from `src/`.  One
process and one thread solve one instance at a time, in a fixed order (a
closed loop with a single caller).

With `--trace 0` the run solves the workload's documents in turn, over and
over, for about `--seconds` seconds and reports the end-to-end metrics
named in BENCHMARK.json, corrected for the shared host's momentary speed
(hostspeed.py).  With `--trace 1` it makes the same timed run, then one
traced pass and one counting pass, and reports the per-layer metrics.
`--workload all` runs every workload in its own process and prints a
summary.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from counting import CountingHooks
from hostspeed import HostSpeed, corrected
from pipeline import Direct, Tracer, solve_document
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 11


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_enclosure():
    """Import the package from this checkout's `src/`, freshly each time
    (so that repeated set-ups each pay the import)."""
    src = ROOT / "src"
    if not (src / "enclosure" / "__init__.py").is_file():
        raise SetupError(f"no enclosure package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "enclosure" or m.startswith("enclosure.")]:
        del sys.modules[name]
    return importlib.import_module("enclosure")


def setup(workload: str, seed: int, host):
    """Import the package and generate the documents, SETUP_REPEATS times;
    returns the last set-up and the Timing of each."""
    generate, solver = WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        timing, (E, docs) = host.timed(lambda: (import_enclosure(), generate(seed)))
        times.append(timing)
    return E, docs, solver, times


class Tally:
    """Correctness gate results: every solve counts, failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def solve(self, E, doc, expected, solver, probe):
        self.attempted += 1
        try:
            cost, problem = solve_document(E, doc, solver, probe, expected)
        except Exception as e:  # a failed instance is reported, not fatal
            cost, problem = None, f"{type(e).__name__}: {e}"
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"instance failed: {problem}", file=sys.stderr)
        return cost


def timed_run(E, docs, solver, seconds, tally, host):
    """Solves the documents in turn, over and over, until `seconds` have
    passed and each was solved at least once.  Returns, per document, its
    Timing in each solve."""
    probe = Direct()
    doc_times = [[] for _ in docs]
    deadline = perf_counter() + seconds
    i = 0
    while i < len(docs) or perf_counter() < deadline:
        if i % len(docs) == 0:
            gc.collect()
        doc, expected = docs[i % len(docs)]
        timing, _cost = host.timed(tally.solve, E, doc, expected, solver, probe)
        doc_times[i % len(docs)].append(timing)
        i += 1
    return doc_times


def traced_pass(E, docs, solver, tally, host):
    """One traced pass; returns the tracer and the pass's corrected time.
    The periodic sampler is off, so spans hold no handler time; each
    instance is still bracketed by reference samples."""
    tracer = Tracer()
    gc.collect()
    total = 0.0
    for i, (doc, expected) in enumerate(docs):
        tracer.instance = i
        timing, _cost = host.timed(tracer.call, "pipeline", tally.solve,
                                   E, doc, expected, solver, tracer)
        total += corrected(timing)
    return tracer, total


def counting_pass(E, docs, solver, tally):
    probe = Direct()
    with CountingHooks() as hooks:
        for doc, expected in docs:
            tally.solve(E, doc, expected, solver, probe)
            hooks.end_instance()
    return hooks.counters()


def end_to_end(doc_times, setup_times):
    """Every time is host-corrected (see hostspeed.py).  A document's time
    is its median over the passes, and wall_s, the time of one pass, is
    the sum over documents; setup_s is the median over the set-ups."""
    def median(timings):
        return statistics.median(corrected(t) for t in timings)

    per_doc = [median(t) for t in doc_times]
    return {
        "wall_s": sum(per_doc),
        "inst_p50_s": statistics.median(per_doc),
        "inst_p90_s": statistics.quantiles(per_doc, n=10, method="inclusive")[-1],
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, counters, overhead):
    self_times = tracer.self_times()
    del self_times["pipeline"]
    out = {f"{name}_s": t for name, t in self_times.items()}
    out.update(tracer.counts)
    out.update(counters)
    out["freespace.edge_yield"] = out["freespace.edges"] / out["freespace.pairs"]
    for solver in ("dijkstra", "inverted"):
        pushed = out.get(f"{solver}.pushed")
        if pushed is not None:
            out[f"{solver}.finalize_ratio"] = out[f"{solver}.finalized"] / pushed
    out["trace.overhead_s"] = overhead
    return out


def report(workload, spec_metrics, values, tally):
    """Human-readable lines, then the result object as the last line."""
    metrics = {}
    for m in spec_metrics:
        # Layers a workload does not run measure zero; counters whose hook
        # target is missing are absent.
        value = values.get(m["name"], 0)
        if value is None:
            print(f"{workload} {m['name']}: absent (hook target not found)",
                  file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload} {m['name']} {value:.6g} {m['unit']}")
    print(f"{workload} fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} solves)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def run_workload(args, spec):
    tally = Tally()
    with HostSpeed() as host:
        E, docs, solver, setup_times = setup(args.workload, args.seed, host)
        doc_times = timed_run(E, docs, solver, args.seconds, tally, host)
    print(f"{args.workload}: {len(docs)} instances, {tally.attempted} solves, "
          f"host {host.slowdown():.2f}x slower than the reference speed",
          file=sys.stderr)
    values = end_to_end(doc_times, setup_times)
    if args.trace:
        tracer, traced_wall = traced_pass(E, docs, solver, tally, host)
        counters = counting_pass(E, docs, solver, tally)
        values = per_layer(tracer, counters, traced_wall - values["wall_s"])
        values["host.slowdown"] = host.slowdown()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    report(args.workload, spec["per_layer" if args.trace else "end_to_end"],
           values, tally)


def run_all(args, spec):
    """Each workload in its own process, so that peak RSS does not carry
    over from one workload to the next."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {w['name']} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{w['name']}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            run_all(args, spec)
        else:
            run_workload(args, spec)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
