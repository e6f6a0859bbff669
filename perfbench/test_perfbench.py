"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from counting import CountingHooks  # noqa: E402
from pipeline import Direct, rel_close, solve_document  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def enclosure():
    return run.import_enclosure()


def test_pool_and_pool_dp_agree(enclosure):
    """Criterion 1's solver equivalence on the benchmark's own documents:
    byte-identical input, equal costs instance by instance."""
    docs = WORKLOADS["pool"][0](7)
    assert WORKLOADS["pool_dp"][0](7) == docs
    assert len(docs) >= 100
    for doc, expected in docs:
        c_dij, problem_dij = solve_document(enclosure, doc, "dijkstra", Direct(), expected)
        c_dp, problem_dp = solve_document(enclosure, doc, "dp", Direct(), expected)
        assert problem_dij is None and problem_dp is None, (problem_dij, problem_dp)
        assert rel_close(c_dij, c_dp), (doc, c_dij, c_dp)


def test_generators_are_seeded():
    for generate, _solver in WORKLOADS.values():
        assert generate(5) == generate(5)
        assert generate(5) != generate(6)


def test_no_failures_and_every_metric():
    """fail_ratio is 0 on every workload, and each end-to-end metric is
    printed with its unit."""
    result = _run("--workload", "all", "--seed", "11", "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0


def test_counters_repeat_across_runs():
    """Two traced runs in separate processes report every per-layer metric
    and identical counters."""
    first, second = (_run("--workload", "pool", "--seed", "4", "--seconds", "1",
                          "--trace", "1") for _ in range(2))
    assert first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        # host.slowdown is a ratio of measured times, not a counter.
        if m["unit"] in ("count", "ratio") and m["name"] != "host.slowdown":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    assert first["metrics"]["geometry.orient_calls"]["value"] > 0
    assert first["metrics"]["freespace.triangle_queries"]["value"] > 0


def test_missing_hook_target_is_absent(enclosure):
    with CountingHooks(package="no_such_package") as hooks:
        hooks.end_instance()
    assert all(v is None for v in hooks.counters().values())
    # With the real package the hooks are installed and removed again.
    from enclosure import geometry
    orient = geometry.orient
    with CountingHooks() as hooks:
        assert geometry.orient is not orient
    assert geometry.orient is orient
