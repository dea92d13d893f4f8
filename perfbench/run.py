"""Corpus time-to-verdict benchmark for the endotorus `classify` and `report`
commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both runs

Run from the root of a checkout of the repository.  One parent process runs
the inputs of a workload one at a time, closed loop, each in a fresh worker
process (perfbench/worker.py), so every sample starts cold and at most one
worker is alive.  A run makes passes over the workload, each pass in an
order drawn from the seed, until `--seconds` have passed and at least two
passes are done; every input is thus sampled at least twice, and its
samples must produce the same report bytes.  The program receives only the
corpus text.

Times are reported at a nominal machine speed.  Between samples the parent
runs a fixed pure-Python probe (perfbench/calibrate.py) for about 5% of the
sampling time, and scales every time by the probe's nominal time over its
mean measured time; the unscaled times are printed and saved too.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
the odd passes wrap the library's public functions (perfbench/tracing.py)
and the run reports per-layer metrics, plus the tracing overhead: the traced
passes' wall time minus the untraced passes'.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Run metadata, per-input
times and the spans of traced samples go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
from tracing import clock, metric_units, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_DEADLINE_S = 170.0   # a run must exit within 180 s
PROBE_SHARE = 0.05       # share of sampling time spent probing machine speed

# command, inputs, and why the workload exists (see perfbench/README.md)
WORKLOADS = {
    "geometric-classify": ("classify", (
        "composite_geometric", "double_cover_geometric", "golden_geometric",
        "golden_mirror", "golden_transpose", "remark_irreducible_atoroidal")),
    "search-classify": ("classify", (
        "plastic_rank3", "expanding_double", "nonsurjective_mixed",
        "squares_reducible", "rank3_invariant_subrose", "rank3_swap_twist",
        "dehn_twist", "conjugation_twist", "identity_rank2", "inner_rank2",
        "swap_finite_order", "cycle3_finite_order")),
    "torus-report": ("report", (
        "remark_extension_reducible", "noninjective_extension",
        "noninjective_equal_images", "squares_reducible",
        "rank3_invariant_subrose", "dehn_twist", "conjugation_twist",
        "rank3_swap_twist", "swap_finite_order", "golden_geometric",
        "remark_irreducible_atoroidal")),
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "max_input_s": "s", "peak_rss_mb": "MB",
    "passed_frac": "fraction", "decided_frac": "fraction",
}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


class WarmSample(RuntimeError):
    """A sample reused in-process state; the run must not be reported."""


def load_inputs(names) -> dict:
    """name -> (DSL text, expected verdict from its `# expect:` line)."""
    inputs = {}
    for name in names:
        text = (ROOT / "corpus" / f"{name}.endo").read_text()
        match = re.search(r"#\s*expect:\s*(\S+)", text)
        inputs[name] = (text, match.group(1) if match else None)
    return inputs


def sample(name: str, text: str, command: str, traced: bool,
           timeout: float) -> dict:
    """Run one input in a fresh worker.  Returns the worker's result with
    `setup_s` added (worker start, import and parse), or {"error": ...}."""
    job = json.dumps({"src": str(ROOT / "src"), "input": name, "text": text,
                      "command": command, "trace": int(traced)}) + "\n"
    spawned = clock()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(job, timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"no verdict within {timeout:.0f} s"}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {err.strip()[-400:]}"}
    if not out.strip():
        return {"error": "worker exited 0 without a result"}
    result = json.loads(out.splitlines()[-1])
    if result["pid"] != proc.pid:
        return {"error": "result did not come from the worker started for it"}
    result["setup_s"] = result["ready"] - spawned
    return result


def verdict_of(command: str, report: dict):
    if command == "classify":
        return report.get("verdict", {}).get("kind")
    return report.get("characterization", {}).get("verdict")


def _median_sum(per_input: dict, key: str) -> float:
    return sum(statistics.median(v[key]) for v in per_input.values() if v[key])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 inputs=None) -> dict:
    """Measure one workload; `inputs` narrows it to some of its inputs."""
    began = clock()
    command, names = WORKLOADS[workload]
    corpus = load_inputs(inputs or names)
    rng = random.Random(seed)
    per_input = {name: {"run_s": [], "traced_run_s": [], "hashes": set(),
                        "errors": [], "verdict": None, "layers": []}
                 for name in corpus}
    setup_s, rss_kb, spans, orders = [], [], [], []
    probes = [calibrate.probe()]
    out_of_time = False
    while not out_of_time and (len(orders) < 2 or clock() - began < seconds):
        traced = trace and len(orders) % 2 == 1
        order = sorted(corpus)
        rng.shuffle(order)
        orders.append(order)
        for name in order:
            left = RUN_DEADLINE_S - (clock() - began)
            if left <= 0:
                out_of_time = True
                per_input[name]["errors"].append("run deadline reached")
                continue
            text, expect = corpus[name]
            started = clock()
            got = sample(name, text, command, traced, left)
            # probe the machine's speed for a fixed share of the time spent
            share = PROBE_SHARE * (clock() - started) / calibrate.NOMINAL_S
            probes.extend(calibrate.probe() for _ in range(max(1, round(share))))
            record = per_input[name]
            if "error" in got:
                record["errors"].append(got["error"])
                continue
            if got["warm"]:
                raise WarmSample(f"{name}: " + "; ".join(got["warm"]))
            setup_s.append(got["setup_s"])
            rss_kb.append(got["rss_kb"])
            record["traced_run_s" if traced else "run_s"].append(got["run_s"])
            record["hashes"].add(hashlib.sha256(got["report"].encode()).hexdigest())
            report = json.loads(got["report"])
            record["verdict"] = verdict_of(command, report)
            if "error" in report:
                record["errors"].append(f"report error: {report['error']}")
            if record["verdict"] != expect:
                record["errors"].append(
                    f"verdict {record['verdict']!r}, expected {expect!r}")
            if len(record["hashes"]) > 1:
                record["errors"].append("report bytes differ between samples")
            if traced:
                record["layers"].append(summarize(got["spans"]))
                spans.append({"input": name, "pass": len(orders) - 1,
                              "spans": got["spans"]})

    attempted = len(per_input)
    failed = sum(1 for r in per_input.values() if r["errors"])
    speed = calibrate.NOMINAL_S / statistics.fmean(probes)
    if trace:
        raw = _layer_metrics(per_input)
    else:
        medians = [statistics.median(r["run_s"]) for r in per_input.values()
                   if r["run_s"]]
        raw = {
            "setup_s": statistics.median(setup_s) if setup_s else 0.0,
            "wall_s": _median_sum(per_input, "run_s"),
            "max_input_s": max(medians, default=0.0),
            "peak_rss_mb": max(rss_kb, default=0) / 1024,
            "passed_frac": (attempted - failed) / attempted,
            "decided_frac": sum(1 for r in per_input.values()
                                if r["verdict"] not in (None, "unknown"))
                            / attempted,
        }
    units = dict(END_TO_END_UNITS, **metric_units(), **TRACE_UNITS)
    metrics = {k: {"value": v * speed if units[k] == "s" else v, "unit": units[k]}
               for k, v in raw.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    meta = run_metadata(workload, command, seed, seconds, trace, per_input,
                        orders)
    meta["speed"] = {"factor": speed, "probes": len(probes),
                     "probe_mean_s": statistics.fmean(probes),
                     "probe_nominal_s": calibrate.NOMINAL_S}
    return {
        "meta": meta,
        "result": result,
        "unscaled": raw,
        "inputs": {name: {"run_s": r["run_s"], "traced_run_s": r["traced_run_s"],
                          "verdict": r["verdict"], "errors": r["errors"],
                          "report_sha256": sorted(r["hashes"])}
                   for name, r in per_input.items()},
        "setup_s": setup_s,
        "probe_s": probes,
        "spans": spans,
    }


def _layer_metrics(per_input: dict) -> dict:
    """Per-layer metrics of a traced run: per input, the median over its
    traced samples; summed over the workload."""
    values = dict.fromkeys(metric_units(), 0)
    for record in per_input.values():
        for key in values:
            samples = [layers[key] for layers in record["layers"]]
            if samples:
                values[key] += statistics.median(samples)
    traced_wall = _median_sum(per_input, "traced_run_s")
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - _median_sum(per_input, "run_s")
    return values


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(workload, command, seed, seconds, trace, per_input,
                 orders) -> dict:
    return {
        "workload": workload,
        "command": command,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": len(per_input),
        "passes": len(orders),
        "samples": sum(len(r["run_s"]) + len(r["traced_run_s"])
                       for r in per_input.values()),
        "order": orders,
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model()},
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def print_report(details: dict) -> None:
    meta, result = details["meta"], details["result"]
    print(f"workload {meta['workload']} ({meta['command']}): seed {meta['seed']}, "
          f"trace {meta['trace']}, {meta['inputs']} inputs, "
          f"{meta['passes']} passes, {meta['samples']} samples, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        line = f"  {name:34s} {metric['value']:14.6f} {metric['unit']}"
        if metric["unit"] == "s":
            line += f"   (unscaled {details['unscaled'][name]:.6f} s)"
        print(line)
    for name, record in details["inputs"].items():
        for error in record["errors"]:
            print(f"  FAILED {name}: {error}")
    print("meta: " + json.dumps({k: v for k, v in meta.items() if k != "order"}))


def save(details: dict) -> Path:
    meta = details["meta"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/endotorus/cli.py", "corpus") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in sorted(WORKLOADS) for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    summary = {}
    for workload, trace in runs:
        try:
            details = run_workload(workload, args.seed, args.seconds, bool(trace))
        except WarmSample as exc:
            print(f"error: refusing a warm sample: {exc}", file=sys.stderr)
            return 3
        print_report(details)
        print(f"  results: {save(details).relative_to(ROOT)}")
        summary.setdefault(workload, {})["trace" if trace else "timed"] = details["result"]
    if args.workload != "all":
        print(json.dumps(details["result"]))
        return 0
    print(json.dumps(summary))
    return 0 if all(r["correct"] for w in summary.values() for r in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
