"""Smoke test of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs the cheapest input of each workload through the timed path and the
traced path, and checks that each run is correct and emits exactly the
metrics that BENCHMARK.json declares, with the declared units.  It also
checks that the cold-state guard flags a process that has already run the
library.  Takes a few seconds; exits 0 on success.
"""

from __future__ import annotations

import json
import math
import sys

import run
import worker

CHEAPEST = {
    "geometric-classify": "golden_transpose",
    "search-classify": "inner_rank2",
    "torus-report": "conjugation_twist",
}


def check_metrics(workload: str, trace: int, declared: dict) -> list:
    details = run.run_workload(workload, seed=1, seconds=0, trace=bool(trace),
                               inputs=[CHEAPEST[workload]])
    result = json.loads(json.dumps(details["result"]))
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] != 1:
        problems.append(f"{workload} trace {trace}: run not correct: "
                        f"{details['inputs']}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"{workload} trace {trace}: emitted {emitted}, "
                        f"declared {declared}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            problems.append(f"{workload} trace {trace}: {name} = {metric['value']!r}")
    if trace and not details["spans"]:
        problems.append(f"{workload}: the traced run recorded no spans")
    return problems


def check_guard() -> list:
    """The guard must refuse a process that served a sample before, and
    name any library cache that already holds entries."""
    problems = []
    if not worker.reused_state(preloaded=True):
        problems.append("guard accepted a process that imported endotorus "
                        "before its job")
    sys.path.insert(0, str(run.ROOT / "src"))
    from endotorus import cli
    from endotorus import words
    cli.run("classify", cli.parse(run.load_inputs(["golden_geometric"])
                                  ["golden_geometric"][0]))
    cached = hasattr(words.periodic_conjugacy_search, "cache_info")
    if cached and not worker.reused_state(preloaded=False):
        problems.append("guard missed the filled word-search cache")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_metrics(workload["name"], trace, declared)
    problems += check_guard()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
