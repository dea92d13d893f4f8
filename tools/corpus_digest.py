"""Digest of every command's report on every corpus input.

    PYTHONPATH=src python3 tools/corpus_digest.py > digest.txt

For each command and each input in `corpus/`, at the default flags, prints
one line `command input sha256`, the hash of the input's `report_json`
bytes.  Run it with PYTHONPATH set to each of two source trees and `diff`
the outputs to check that a change leaves every report byte-identical.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from endotorus.cli import COMMANDS, parse, report_json, run

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main() -> None:
    for path in sorted(CORPUS.glob("*.endo")):
        spec = parse(path.read_text())
        for command in COMMANDS:
            data = report_json(run(command, spec)).encode()
            print(f"{command} {path.stem} {hashlib.sha256(data).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
