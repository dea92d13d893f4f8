"""Digest of every command's report and every PINP scan on the corpus.

    PYTHONPATH=src python3 tools/corpus_digest.py > digest.txt

For each command and each input in `corpus/`, at the default flags, prints
one line `command input sha256`, the hash of the input's `report_json`
bytes.  After the `classify` line of an input come its scan lines
`scan input k sha256`, one for the k-th `nielsen.scan_pinps` result inside
that `classify` (k from 0): the hash covers the prepared graph's vertex and
edge counts and the list of periodic indivisible Nielsen paths, so a scan
change that does not reach the report bytes still shows.  Run it with
PYTHONPATH set to each of two source trees and `diff` the outputs to check
that a change leaves every report and every scan identical.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from endotorus import nielsen
from endotorus.cli import COMMANDS, parse, report_json, run

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scan_digest(result) -> str:
    (tt, pinps) = result
    paths = [(p.alpha, p.beta, p.period, p.reversal) for p in pinps]
    return _sha(repr((tt.gm.graph.nv, len(tt.gm.graph.edges), paths)).encode())


def _run_recording_scans(command: str, spec) -> tuple:
    """(report, scan results) of one command; the scans are recorded by
    wrapping `nielsen.scan_pinps`, which `stabilize` looks up at call time."""
    scans: list = []
    real = nielsen.scan_pinps

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        scans.append(result)
        return result

    nielsen.scan_pinps = recording
    try:
        return run(command, spec), scans
    finally:
        nielsen.scan_pinps = real


def main() -> None:
    for path in sorted(CORPUS.glob("*.endo")):
        spec = parse(path.read_text())
        for command in COMMANDS:
            (report, scans) = _run_recording_scans(command, spec)
            print(f"{command} {path.stem} {_sha(report_json(report).encode())}",
                  flush=True)
            if command == "classify":
                for k, result in enumerate(scans):
                    print(f"scan {path.stem} {k} {_scan_digest(result)}", flush=True)


if __name__ == "__main__":
    main()
