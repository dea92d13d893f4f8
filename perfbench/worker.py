"""One cold sample: a fresh interpreter runs one corpus input through
`endotorus.cli.parse` and `endotorus.cli.run`, then exits.

Reads one job as a JSON line on stdin:
    {"src": ..., "input": ..., "text": ..., "command": ..., "trace": 0|1}
and writes one result as a JSON line on stdout.  An internal inconsistency
exits with code 2, as the endotorus CLI does.
"""

from __future__ import annotations

import json
import os
import resource
import sys

from tracing import Tracer, clock


def _endotorus_loaded() -> bool:
    return any(name == "endotorus" or name.startswith("endotorus.")
               for name in sys.modules)


def reused_state(preloaded: bool) -> list:
    """Reasons why a sample started now would not be cold; empty if it is.

    A sample is warm when endotorus was imported before its job arrived
    (the process served something else first), or when any function cache
    in an endotorus module already holds entries.  The first check holds
    whether or not the library keeps caches; the second names them."""
    reasons = []
    if preloaded:
        reasons.append("endotorus was imported before the job arrived")
    seen = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("endotorus.") or module is None:
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if not callable(info) or id(value) in seen:
                continue
            seen.add(id(value))
            if info().currsize:
                reasons.append(f"{name}.{attr} holds {info().currsize} "
                               "cached results")
    return reasons


def main() -> int:
    preloaded = _endotorus_loaded()
    job = json.loads(sys.stdin.readline())
    sys.path.insert(0, job["src"])
    from endotorus import cli
    from endotorus.surface import InternalInconsistency

    tracer = Tracer(job["input"]) if job["trace"] else None
    if tracer is not None:
        tracer.install()
    spec = cli.parse(job["text"])
    ready = clock()
    warm = reused_state(preloaded)
    start = clock()
    try:
        report = cli.report_json(cli.run(job["command"], spec))
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    run_s = clock() - start
    result = {
        "pid": os.getpid(),
        "ready": ready,
        "run_s": run_s,
        "warm": warm,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": report,
        "spans": tracer.spans if tracer is not None else [],
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
